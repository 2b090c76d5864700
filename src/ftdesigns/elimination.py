"""Arithmetic case elimination for flag-transitive 2-designs with lambda = 2.

Each case fixes a socle family and a stabilizer shape at a concrete prime
power q, derives the point count v and the proven divisibility constraints on
the replication number r, and then walks every arithmetic branch to one of
three verdicts:

    eliminated  -- a necessary condition fails, with the integers shown;
    flagged     -- the arithmetic survives and the case is closed by a
                   group-theoretic argument this toolkit does not mechanize;
    candidate   -- the arithmetic survives and nothing closes it (never
                   expected for the bundled families; kept for honesty).

Reports are self-contained chains of facts: every integer in a fact is
recomputed where it is used, so a report can be audited line by line.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import mul
from typing import NamedTuple, TextIO

# cyclotomic and enumerate_candidates are not called here, but
# bench/tracing.py wraps these bindings
from .arith import (PrimePower, cyclotomic, cyclotomic_table,  # noqa: F401
                    divisors, ppart, prime_powers)
from .design import (Parameters, admissibility_violations,  # noqa: F401
                     embeds_symmetric, enumerate_candidates)

EVEN_R_HYPOTHESIS = (
    "r is assumed even: flag-transitive actions with gcd(r, lambda) = 1 "
    "are excluded by the prior coprime-parameter classification")

REE_UNITAL_REFERENCE = (
    "Ree unital line-stabilizer argument (group-theoretic, not machine-checked)")
SYMMETRIC_EMBED_REFERENCE = (
    "r = k + lambda: embeds into a symmetric design, closed by the "
    "symmetric-design classification (not machine-checked)")
SU3_STABILIZER_REFERENCE = (
    "SU3(q):2 block-stabilizer argument (group-theoretic, not machine-checked)")


class TableDataError(ValueError):
    """A bundled tabulated value disagrees with direct computation."""


# Fact and Branch are named tuples, not frozen dataclasses: a sweep builds
# hundreds of thousands of them, and a tuple is several times cheaper to
# build and lighter on the cyclic garbage collector.

class Fact(NamedTuple):
    statement: str
    values: tuple[int, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {"statement": self.statement, "values": list(self.values),
                "ok": self.ok}


class Branch(NamedTuple):
    label: str
    verdict: str  # "eliminated" | "flagged" | "candidate"
    reason: str
    reference: str | None = None
    params: Parameters | None = None

    def to_dict(self) -> dict:
        doc = {"label": self.label, "verdict": self.verdict,
               "reason": self.reason}
        if self.reference is not None:
            doc["reference"] = self.reference
        if self.params is not None:
            doc["params"] = list(self.params.astuple())
        return doc


# the lambda*v < r^2 fact of g2's branch m, with %d for m
_G2_INEQUALITY = ("branch m=%d: lambda*v < r^2 requires "
                  "q^3(q^3+eps)*(m*gcd)^2 < 4(q^3-eps)^2")
# that statement around m, as text and inside a JSON string
_G2_BEFORE_M, _G2_AFTER_M = _G2_INEQUALITY.split("%d")
_G2_JSON_BEFORE_M, _G2_JSON_AFTER_M = encode_basestring_ascii(
    _G2_INEQUALITY).split("%d")


def _interleave(firsts: list[str], seconds, frame: tuple[str, str, str, str]
                ) -> str:
    """sep.join(before + a + between + b + after for a, b in zip(firsts,
    seconds)) for frame = (before, between, after, sep), in one join."""
    if not firsts:
        return ""
    before, between, after, sep = frame
    parts = [None, between, None, after + sep + before] * len(firsts)
    parts[0::4] = firsts
    parts[2::4] = seconds
    parts[-1] = after
    return before + "".join(parts)


class LambdaTail(NamedTuple):
    """The divisors m of a g2 case past the first m >= 2 with lambda*v >=
    r^2, where r = modulus/(m*g).  lambda*v < r^2 reads lhs_unit*m^2 < rhs,
    and the left side grows with m, so every one of them fails it: each m
    stands for one FAIL fact and one eliminated branch, built only when a
    reader asks for it and rendered in bulk, each m and the one integer of
    its record that varies with m set into the constant text around them."""

    ms: tuple[int, ...]
    lhs_unit: int
    rhs: int
    too_large: str  # the reason's prefix; r^2 follows
    modulus: int
    g: int

    def fact(self, m: int) -> Fact:
        return Fact(_G2_INEQUALITY % m, (self.lhs_unit * m * m, self.rhs),
                    False)

    def branch(self, m: int) -> Branch:
        r = self.modulus // (m * self.g)
        return Branch(f"m={m}", "eliminated", self.too_large + str(r * r))

    def _render(self, fact_frame, branch_frame) -> tuple[str, str]:
        """The fact and the branch records, each set into its frame (see
        _interleave), with the decimal digits of every m computed once."""
        ms = self.ms
        digits = list(map(str, ms))
        lhs = map(self.lhs_unit.__mul__, map(mul, ms, ms))
        rs = list(map((self.modulus // self.g).__floordiv__, ms))
        return (_interleave(digits, map(str, lhs), fact_frame),
                _interleave(digits, map(str, map(mul, rs, rs)), branch_frame))

    def text(self) -> tuple[str, str]:
        """The fact lines and the branch lines, as CaseReport.to_text
        writes them."""
        return self._render(
            ("  [FAIL] " + _G2_BEFORE_M, _G2_AFTER_M + "   [",
             ", " + str(self.rhs) + "]", "\n"),
            ("  branch m=", ": eliminated -- " + self.too_large, "", "\n"))

    def json(self) -> tuple[str, str]:
        """The facts and the branches as list items at depth 3 (see the
        JSON templates below)."""
        return self._render(
            ('      {\n        "ok": false,\n        "statement": '
             + _G2_JSON_BEFORE_M,
             _G2_JSON_AFTER_M + ',\n        "values": [\n          ',
             ",\n          " + repr(self.rhs) + "\n        ]\n      }",
             ",\n"),
            ('      {\n        "label": "m=',
             '",\n        "reason": '
             + encode_basestring_ascii(self.too_large)[:-1],
             '",\n        "verdict": "eliminated"\n      }', ",\n"))


class TailedRecords(Sequence):
    """A g2 report's facts or branches: a head tuple, then one record per
    divisor of its `LambdaTail`, built on access.  Read-only; it has the
    length, order, indexing and equality of the expanded tuple.  A report's
    facts and branches are both TailedRecords over one tail, or neither is.

    Renderers test for it with `type(...) is TailedRecords`: Sequence makes
    isinstance an ABC check, about ten times slower, and every report of
    every family goes through these tests."""

    __slots__ = ("head", "tail", "_record")

    def __init__(self, head: tuple, tail: LambdaTail, record) -> None:
        self.head = head
        self.tail = tail
        self._record = record  # tail.fact or tail.branch

    def __len__(self) -> int:
        return len(self.head) + len(self.tail.ms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("record index out of range")
        split = len(self.head)
        if index < split:
            return self.head[index]
        return self._record(self.tail.ms[index - split])

    def __iter__(self):
        yield from self.head
        yield from map(self._record, self.tail.ms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, TailedRecords)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TailedRecords({tuple(self)!r})"


@dataclass(frozen=True)
class CaseDescriptor:
    family: str
    q: PrimePower | None = None
    epsilon: int | None = None
    extra: dict = field(default_factory=dict)

    # extra is a dict, so no descriptor can be hashed; say so in the type
    __hash__ = None  # type: ignore[assignment]

    def to_dict(self) -> dict:
        doc: dict = {"family": self.family}
        if self.q is not None:
            doc["q"] = self.q.q
            doc["p"] = self.q.p
            doc["a"] = self.q.a
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon
        if self.extra:
            doc["extra"] = dict(self.extra)
        return doc


@dataclass(frozen=True)
class CaseReport:
    descriptor: CaseDescriptor
    hypotheses: tuple[str, ...]
    facts: Sequence[Fact]
    branches: Sequence[Branch]

    # its descriptor cannot be hashed (see CaseDescriptor)
    __hash__ = None  # type: ignore[assignment]

    @property
    def verdict(self) -> str:
        branches = self.branches
        if type(branches) is TailedRecords:
            branches = branches.head  # a tail holds only eliminated branches
        kinds = {branch.verdict for branch in branches}
        if "candidate" in kinds:
            return "candidate"
        if "flagged" in kinds:
            return "flagged"
        return "eliminated"

    def candidates(self) -> list[Parameters]:
        return [b.params for b in self.branches
                if b.verdict == "candidate" and b.params is not None]

    def flagged(self) -> list[Branch]:
        return [b for b in self.branches if b.verdict == "flagged"]

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor.to_dict(),
            "hypotheses": list(self.hypotheses),
            "facts": [f.to_dict() for f in self.facts],
            "branches": [b.to_dict() for b in self.branches],
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        desc = self.descriptor
        head = desc.family
        if desc.q is not None:
            head += f" q={desc.q.q}"
        if desc.epsilon is not None:
            head += f" eps={'+' if desc.epsilon > 0 else '-'}"
        lines = [f"case {head}"]
        for hyp in self.hypotheses:
            lines.append(f"  hypothesis: {hyp}")
        facts, branches = self.facts, self.branches
        fact_tail = branch_tail = None
        if type(facts) is TailedRecords:
            fact_tail, branch_tail = facts.tail.text()
            facts, branches = facts.head, branches.head
        for fact in facts:
            mark = "ok " if fact.ok else "FAIL"
            vals = ", ".join(map(str, fact.values))
            lines.append(f"  [{mark}] {fact.statement}   [{vals}]")
        if fact_tail is not None:
            lines.append(fact_tail)
        for branch in branches:
            lines.append(f"  branch {branch.label}: {branch.verdict} -- {branch.reason}")
            if branch.params is not None:
                lines.append(f"    parameters {branch.params}")
            if branch.reference is not None:
                lines.append(f"    closed by: {branch.reference}")
        if branch_tail is not None:
            lines.append(branch_tail)
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


# -- JSON rendering -----------------------------------------------------------
#
# Facts and branches are nearly all of the objects in a JSON report list, so
# each has a fixed template rather than a trip through json's pure-Python
# indenting encoder, which took most of the time of `eliminate --json`; so
# has the descriptor, and its `extra` when that is a flat dict of strings
# and ints, as every bundled case's is.  A template sits at its depth in the
# list: a report at depth 1, its descriptor at depth 2, its extra, a fact or
# a branch at depth 3, values or params at depth 5.  Keys come in sorted
# order, ints by repr, bools as true/false and strings through
# encode_basestring_ascii, as json.dumps(..., indent=2, sort_keys=True)
# writes them.  The templates are plain string concatenation: a quote or
# backslash inside the braces of an f-string needs Python 3.12 (PEP 701),
# and the package supports 3.10.

def _int_list(values) -> str:
    if not values:
        return "[]"
    return ("[\n          " + ",\n          ".join(map(repr, values))
            + "\n        ]")


def _fact_json(fact: Fact) -> str:
    return ('      {\n        "ok": ' + ("true" if fact.ok else "false")
            + ',\n        "statement": '
            + encode_basestring_ascii(fact.statement)
            + ',\n        "values": ' + _int_list(fact.values)
            + "\n      }")


def _branch_json(branch: Branch) -> str:
    text = '      {\n        "label": ' + encode_basestring_ascii(branch.label)
    if branch.params is not None:
        text += ',\n        "params": ' + _int_list(branch.params.astuple())
    text += ',\n        "reason": ' + encode_basestring_ascii(branch.reason)
    if branch.reference is not None:
        text += (',\n        "reference": '
                 + encode_basestring_ascii(branch.reference))
    return (text + ',\n        "verdict": '
            + encode_basestring_ascii(branch.verdict) + "\n      }")


def _json_list(items: list[str], more: bool = False) -> str:
    """The value of a list-valued key of a report, from its items rendered
    at depth 3; with more, only its text up to the items that follow."""
    if more:
        return "[\n" + "".join([item + ",\n" for item in items])
    return "[\n" + ",\n".join(items) + "\n    ]" if items else "[]"


def _extra_json(extra: dict) -> str:
    """A descriptor's `extra` at depth 3.  A dict of str keys and str or
    int values has a template; any other goes through json.dumps."""
    items = extra.items()
    if not all(type(key) is str and type(value) in (str, int)
               for key, value in items):
        return json.dumps(dict(extra), indent=2, sort_keys=True).replace(
            "\n", "\n      ")
    return "{\n        " + ",\n        ".join([
        encode_basestring_ascii(key) + ": "
        + (encode_basestring_ascii(value) if type(value) is str
           else repr(value))
        for key, value in sorted(items)]) + "\n      }"


def _descriptor_json(desc: CaseDescriptor) -> str:
    """The descriptor at depth 2."""
    text = "{"
    q = desc.q
    if q is not None:
        text += '\n      "a": ' + repr(q.a) + ","
    if desc.epsilon is not None:
        text += '\n      "epsilon": ' + repr(desc.epsilon) + ","
    if desc.extra:
        text += '\n      "extra": ' + _extra_json(desc.extra) + ","
    text += '\n      "family": ' + encode_basestring_ascii(desc.family)
    if q is not None:
        text += ',\n      "p": ' + repr(q.p) + ',\n      "q": ' + repr(q.q)
    return text + "\n    }"


def _report_pieces(report: CaseReport) -> list[str]:
    """The report at depth 1, as pieces to be written in order: the whole
    report, or for a g2 report with a tail, the text around its two
    bulk-rendered tails and the tails themselves, which are never copied
    into a larger string."""
    facts, branches = report.facts, report.branches
    fact_tail = branch_tail = None
    if type(facts) is TailedRecords:
        fact_tail, branch_tail = facts.tail.json()
        facts, branches = facts.head, branches.head
    tailed = fact_tail is not None
    start = ('  {\n    "branches": '
             + _json_list(list(map(_branch_json, branches)), tailed))
    middle = (',\n    "descriptor": ' + _descriptor_json(report.descriptor)
              + ',\n    "facts": '
              + _json_list(list(map(_fact_json, facts)), tailed))
    end = (',\n    "hypotheses": '
           + _json_list(["      " + encode_basestring_ascii(hyp)
                         for hyp in report.hypotheses])
           + ',\n    "verdict": ' + encode_basestring_ascii(report.verdict)
           + "\n  }")
    if not tailed:
        return [start + middle + end]
    return [start, branch_tail, "\n    ]" + middle, fact_tail, "\n    ]" + end]


def _report_json(report: CaseReport) -> str:
    return "".join(_report_pieces(report))


def write_json(reports: list[CaseReport], out: TextIO) -> None:
    """Write the reports to `out` as one indented JSON list and a newline,
    byte for byte what `print(json.dumps([r.to_dict() for r in reports],
    indent=2, sort_keys=True))` writes, one report at a time."""
    sep = "[\n"
    for report in reports:
        out.write(sep)
        for piece in _report_pieces(report):
            out.write(piece)
        sep = ",\n"
    out.write("[]\n" if sep == "[\n" else "\n]\n")


# -- Suzuki groups: socle 2B2(q), parabolic stabilizer -----------------------

def _suzuki_q(q: PrimePower) -> bool:
    return q.p == 2 and q.a % 2 == 1 and q.a >= 3


def eliminate_suzuki(q: PrimePower) -> CaseReport:
    """v = q^2 + 1 with q = 2^a, a odd >= 3.  Every branch r = 2^c dies:
    the parabolic overgroup of a block stabilizer has index q^2 + 1, which
    forces the odd k = 2^(2a+1-c) + 1 to divide 2^c."""
    if not _suzuki_q(q):
        raise ValueError(f"need q = 2^a with a odd >= 3, got {q}")
    a = q.a
    v = q.q**2 + 1
    facts = [
        Fact("v = q^2 + 1", (v,), True),
        Fact("r(k-1) = 2(v-1) = 2^(2a+1)", (2 * (v - 1),), True),
    ]
    branches = []
    for c in range(1, 2 * a + 2):
        r = 2**c
        k = 2 ** (2 * a + 1 - c) + 1
        label = f"r=2^{c}"
        if not 2 < k < v - 1:
            branches.append(Branch(
                label, "eliminated",
                f"k = {k} is a trivial block size (need 2 < k < v-1 = {v - 1})"))
            continue
        facts.append(Fact(
            f"branch {label}: block-stabilizer overgroup of index q^2+1 "
            f"divides b, forcing k | 2^{c}; k = {k} is odd",
            (k, r), k % 2 == 0))
        branches.append(Branch(
            label, "eliminated",
            f"k = {k} is odd and greater than 1, so k cannot divide 2^{c}"))
    return CaseReport(
        CaseDescriptor("suzuki", q), (EVEN_R_HYPOTHESIS,),
        tuple(facts), tuple(branches))


# -- Ree groups: socle 2G2(q), parabolic stabilizer --------------------------

def _ree_q(q: PrimePower) -> bool:
    return q.p == 3 and q.a % 2 == 1 and q.a >= 3


def eliminate_ree(q: PrimePower) -> CaseReport:
    """v = q^3 + 1 with q = 3^a, a odd >= 3.  r = 2*3^c and k = 3^t + 1 with
    t = 3a - c; divisibility and orbit-length constraints pin t to a-1 or a.
    The t = a-1 branch dies on b-integrality; t = a survives arithmetic with
    (v, b, r, k) = (q^3+1, 2q^2(q^2-q+1), 2q^2, q+1) and is flagged."""
    if not _ree_q(q):
        raise ValueError(f"need q = 3^a with a odd >= 3, got {q}")
    a = q.a
    qq = q.q
    v = qq**3 + 1
    facts = [
        Fact("v = q^3 + 1", (v,), True),
        Fact("r even and r | 2(v-1) = 2q^3 gives r = 2*3^c, k = 3^t + 1 "
             "with t = 3a - c >= 1", (2 * qq**3,), True),
        Fact("overgroup of index q^2(q^2-q+1) divides b, so k = 3^t + 1 "
             "divides 2(q+1), forcing t <= a", (qq**2 * (qq**2 - qq + 1), a),
             True),
        Fact("two blocks through a point pair give (q-1)/2 <= 2*3^t - 2, "
             "i.e. 3^a + 3 <= 4*3^t, forcing t >= a-1",
             (qq + 3, 4 * 3 ** (a - 1)), qq + 3 <= 4 * 3 ** (a - 1)),
    ]
    branches = []

    # t = a-1: k = 3^(a-1) + 1 must divide 2(q^3 + 1)
    k_low = 3 ** (a - 1) + 1
    inner = gcd(k_low, qq**3 + 1)
    facts.append(Fact(
        "branch t=a-1: gcd(3^(a-1) + 1, q^3 + 1)",
        (k_low, qq**3 + 1, inner), inner == 2))
    divides = (2 * (qq**3 + 1)) % k_low == 0
    facts.append(Fact(
        "branch t=a-1: b integral requires k | 2(q^3+1)",
        (k_low, 2 * (qq**3 + 1)), divides))
    branches.append(Branch(
        "t=a-1", "eliminated",
        f"k = {k_low} does not divide 2(q^3+1) = {2 * (qq**3 + 1)} "
        f"(equivalently 3^(a-1)+1 would have to divide 4)"))

    # t = a: k = q + 1 survives the arithmetic
    k = qq + 1
    r = 2 * qq**2
    assert (v * r) % k == 0
    b = v * r // k
    params = Parameters(v, b, r, k, 2)
    violations = admissibility_violations(params)
    facts.append(Fact(
        "branch t=a: (v, b, r, k) = (q^3+1, 2q^2(q^2-q+1), 2q^2, q+1) "
        "satisfies every counting constraint",
        params.astuple(), not violations))
    branches.append(Branch(
        "t=a", "flagged" if not violations else "eliminated",
        "arithmetic survivor" if not violations else "; ".join(violations),
        reference=REE_UNITAL_REFERENCE if not violations else None,
        params=params))
    return CaseReport(
        CaseDescriptor("ree", q), (EVEN_R_HYPOTHESIS,),
        tuple(facts), tuple(branches))


# -- G2(q) with stabilizer normalizing a subgroup of type A2^eps -------------

def _g2_q(q: PrimePower) -> bool:
    return q.q >= 3


def eliminate_g2(q: PrimePower, epsilon: int) -> CaseReport:
    """v = q^3(q^3 + eps)/2 and r*m*gcd(2, q-1) = 2(q^3 - eps) for some
    m >= 1.  Walks every divisor m, applying in order: the lambda*v < r^2
    inequality (decisive for m >= 2), nontriviality, k <= r, b-integrality
    (the q^3 + 4 | 120 kill for even q, eps = +, m = 1), the symmetric
    embedding criterion r = k + lambda, and full admissibility.  The
    inequality's left side grows with m, so from the first m >= 2 that fails
    it every divisor does: that tail is kept as one `LambdaTail`, and the
    report's facts and branches expand it on access."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    if not _g2_q(q):
        raise ValueError(f"need q >= 3, got {q}")
    qq = q.q
    eps = epsilon
    g = gcd(2, qq - 1)
    q3 = qq**3
    v = q3 * (q3 + eps) // 2
    modulus = 2 * (q3 - eps)
    twice_v1 = 2 * (v - 1)
    # lambda*v < r^2 reads lhs_unit * m^2 < rhs; both sides without m are
    # fixed for the case
    lhs_unit = q3 * (q3 + eps) * g * g
    rhs = 4 * (q3 - eps) ** 2
    too_large = f"lambda*v = {2 * v} >= r^2 = "
    facts = [
        Fact("v = q^3(q^3 + eps)/2", (v,), True),
        Fact("r*m*gcd(2, q-1) = 2(q^3 - eps) for a positive integer m",
             (modulus, g), True),
    ]
    branches = []
    ms = divisors(modulus // g)
    tail = None
    for i, m in enumerate(ms):
        lhs = lhs_unit * m * m
        inequality_ok = lhs < rhs
        if m >= 2 and not inequality_ok:
            # lhs grows with m, so this m and every later one fail too
            tail = LambdaTail(tuple(ms[i:]), lhs_unit, rhs, too_large,
                              modulus, g)
            break
        label = f"m={m}"
        r = modulus // (m * g)
        facts.append(Fact(_G2_INEQUALITY % m, (lhs, rhs), inequality_ok))
        if twice_v1 % r != 0:
            branches.append(Branch(
                label, "eliminated",
                f"k - 1 = 2(v-1)/r = {twice_v1}/{r} is not an integer"))
            continue
        k = 1 + twice_v1 // r
        if not 2 < k < v - 1:
            branches.append(Branch(
                label, "eliminated", f"k = {k} is a trivial block size"))
            continue
        if k > r:
            facts.append(Fact(
                f"branch {label}: k <= r requires {k} <= {r}", (k, r), False))
            branches.append(Branch(
                label, "eliminated", f"k = {k} exceeds r = {r}"))
            continue
        if eps == 1 and qq % 2 == 0 and m == 1:
            # b = (2q^9 - 2q^3)/(q^3 + 4) is integral iff q^3 + 4 divides 120
            divisor = q3 + 4
            facts.append(Fact(
                f"branch {label}: b integral requires q^3 + 4 | 120",
                (divisor, 120 % divisor), 120 % divisor == 0))
            assert (120 % divisor == 0) == ((v * r) % k == 0)
        if (v * r) % k != 0:
            branches.append(Branch(
                label, "eliminated",
                f"b = vr/k = {v}*{r}/{k} is not an integer"))
            continue
        params = Parameters(v, v * r // k, r, k, 2)
        symmetric = embeds_symmetric(params)
        if symmetric is not None:
            facts.append(Fact(
                f"branch {label}: r = k + lambda, extends to a symmetric "
                "design with parameters (v+k+2, k+2, 2)",
                symmetric, True))
            branches.append(Branch(
                label, "flagged", "arithmetic survivor with r = k + lambda",
                reference=SYMMETRIC_EMBED_REFERENCE, params=params))
            continue
        violations = admissibility_violations(params)
        if violations:
            branches.append(Branch(
                label, "eliminated", "; ".join(violations), params=params))
        elif m == 1 and eps == -1 and qq % 2 == 0:
            branches.append(Branch(
                label, "flagged", "arithmetic survivor",
                reference=SU3_STABILIZER_REFERENCE, params=params))
        else:
            branches.append(Branch(
                label, "candidate", "arithmetic survivor", params=params))
    facts, branches = tuple(facts), tuple(branches)
    if tail is not None:
        facts = TailedRecords(facts, tail, tail.fact)
        branches = TailedRecords(branches, tail, tail.branch)
    return CaseReport(
        CaseDescriptor("g2_a2eps", q, epsilon), (EVEN_R_HYPOTHESIS,),
        facts, branches)


# -- E6(q) with maximal parabolic stabilizers P1 and P3 ----------------------

def _exact_div(num: int, den: int) -> int:
    assert num % den == 0
    return num // den


def eliminate_e6(q: PrimePower, case: str) -> CaseReport:
    """Point counts of cosets of P1 / P3 in E6(q) grow like q^16 and q^25
    while the proven modulus for r stays polynomially small, so the
    necessary 2v < r^2 fails immediately."""
    if case not in ("p1", "p3"):
        raise ValueError(f"case must be 'p1' or 'p3', got {case!r}")
    qq = q.q
    facts = []
    if case == "p1":
        v = (qq**8 + qq**4 + 1) * _exact_div(qq**9 - 1, qq - 1)
        d1 = _exact_div(qq * (qq**8 - 1) * (qq**3 + 1), qq - 1)
        d2 = _exact_div(qq**8 * (qq**5 - 1) * (qq**4 + 1), qq - 1)
        facts.append(Fact("v = (q^8+q^4+1)(q^9-1)/(q-1)", (v,), True))
        facts.append(Fact("nontrivial subdegrees q(q^8-1)(q^3+1)/(q-1) and "
                          "q^8(q^5-1)(q^4+1)/(q-1)", (d1, d2), True))
        modulus = gcd(gcd(2 * d1, 2 * d2), 2 * (v - 1))
        facts.append(Fact(
            "r divides gcd(2*d1, 2*d2, 2(v-1))", (modulus,), True))
    else:
        v = _exact_div((qq**3 + 1) * (qq**4 + 1) * (qq**9 - 1) * (qq**12 - 1),
                       (qq - 1) * (qq**2 - 1))
        d1 = _exact_div(qq * (qq**5 - 1) * (qq**4 - 1), (qq - 1) ** 2)
        d2 = _exact_div(qq**13 * (qq**5 - 1), qq - 1)
        facts.append(Fact(
            "v = (q^3+1)(q^4+1)(q^9-1)(q^12-1)/((q-1)(q^2-1))", (v,), True))
        facts.append(Fact("nontrivial subdegrees q(q^5-1)(q^4-1)/(q-1)^2 and "
                          "q^13(q^5-1)/(q-1)", (d1, d2), True))
        modulus = 12 * q.a * qq * _exact_div(qq**5 - 1, qq - 1)
        facts.append(Fact(
            "r divides 12*a*q*(q^5-1)/(q-1)", (modulus,), True))
    ok = 2 * v < modulus * modulus
    facts.append(Fact("2v < r^2 requires 2v < modulus^2",
                      (2 * v, modulus * modulus), ok))
    if ok:
        branch = Branch(case, "candidate",
                        "the modulus bound does not eliminate this case")
    else:
        branch = Branch(case, "eliminated",
                        f"2v = {2 * v} >= modulus^2 = {modulus * modulus}")
    return CaseReport(
        CaseDescriptor(f"e6_{case}", q), (EVEN_R_HYPOTHESIS,),
        tuple(facts), (branch,))


# -- generic parabolic cases driven by tabulated cyclotomic data -------------

@dataclass(frozen=True)
class ParabolicRow:
    """One tabulated parabolic case: socle family, stabilizer label, the
    point count as a product of cyclotomic values, the tabulated p-part of
    v - 1, and the validity range of q.

    subdegree_hypothesis records when the unique-prime-power-subdegree
    property is an assumption (it holds outright for these families unless
    the socle is E6, where it needs a graph automorphism in the group)."""

    key: str
    socle: str
    stabilizer: str
    phi_exponents: tuple[tuple[int, int], ...]
    ppart_rule: str  # "q" | "q^2" | "q^3" | "2q" | "gcd(2,p)q"
    char: int | None = None   # required characteristic, if any
    min_q: int = 2
    odd_exponent: bool = False
    min_a: int = 1
    subdegree_hypothesis: str | None = None

    def valid_q(self, q: PrimePower) -> bool:
        if self.char is not None and q.p != self.char:
            return False
        if self.odd_exponent and q.a % 2 == 0:
            return False
        return q.a >= self.min_a and q.q >= self.min_q

    def point_count(self, q: PrimePower,
                    phi: dict[int, int] | None = None) -> int:
        """v, the product of the row's cyclotomic values at q, read from
        phi: a cyclotomic_table at q that reaches every index of the row,
        which the rows valid at q may share.  Without one, the row makes
        its own."""
        if phi is None:
            phi = cyclotomic_table(max(n for n, _ in self.phi_exponents),
                                   q.q)
        v = 1
        for n, e in self.phi_exponents:
            v *= phi[n] ** e
        return v

    def tabulated_ppart(self, q: PrimePower) -> int:
        rule = self.ppart_rule
        if rule == "q":
            return q.q
        if rule == "q^2":
            return q.q**2
        if rule == "q^3":
            return q.q**3
        if rule == "2q":
            return 2 * q.q
        if rule == "gcd(2,p)q":
            return gcd(2, q.p) * q.q
        raise ValueError(f"unknown p-part rule {rule!r}")


PARABOLIC_ROWS: tuple[ParabolicRow, ...] = (
    ParabolicRow("3d4_p1", "3D4(q)", "P1",
                 ((2, 1), (3, 1), (6, 2), (12, 1)), "q^3"),
    ParabolicRow("2f4_p1", "2F4(q)", "P1",
                 ((2, 1), (4, 2), (6, 1), (12, 1)), "q^2",
                 char=2, min_q=8, odd_exponent=True, min_a=3),
    ParabolicRow("f4_p14", "F4(q)", "P1,4",
                 ((2, 2), (3, 2), (4, 1), (6, 2), (8, 1), (12, 1)), "2q",
                 char=2, min_a=2),
    ParabolicRow("f4_p23", "F4(q)", "P2,3",
                 ((2, 2), (3, 2), (4, 2), (6, 2), (8, 1), (12, 1)), "2q",
                 char=2, min_a=1),
    ParabolicRow("e6_p16", "E6(q)", "P1,6",
                 ((3, 2), (5, 1), (6, 1), (8, 1), (9, 1), (12, 1)),
                 "gcd(2,p)q", min_q=3,
                 subdegree_hypothesis="the group contains a graph automorphism"),
    ParabolicRow("e6_p35", "E6(q)", "P3,5",
                 ((2, 1), (3, 2), (4, 2), (5, 1), (6, 2), (8, 1), (9, 1),
                  (12, 1)), "gcd(2,p)q", min_q=3,
                 subdegree_hypothesis="the group contains a graph automorphism"),
)

# the largest cyclotomic index of any row, so that one cyclotomic_table per
# q serves all rows
_PARABOLIC_N_MAX = max(n for row in PARABOLIC_ROWS
                       for n, _ in row.phi_exponents)


def eliminate_parabolic_generic(row: ParabolicRow, q: PrimePower,
                                phi: dict[int, int] | None = None
                                ) -> CaseReport:
    """Evaluate v exactly from the cyclotomic product, cross-check the
    tabulated p-part of v - 1 against a direct computation, and test the
    necessary condition v < 2*(|v-1|_p)^2.  phi is as in point_count."""
    if not row.valid_q(q):
        raise ValueError(f"q = {q} is outside the validity range of row "
                         f"{row.key} ({row.socle}, {row.stabilizer})")
    v = row.point_count(q, phi)
    u_claimed = row.tabulated_ppart(q)
    u_actual = ppart(v - 1, q.p)
    facts = [
        Fact("v as an exact cyclotomic product", (v,), True),
        Fact(f"tabulated |v-1|_p = {row.ppart_rule} agrees with the p-part "
             "of v - 1 computed directly",
             (u_claimed, u_actual), u_claimed == u_actual),
    ]
    if u_claimed != u_actual:
        raise TableDataError(
            f"row {row.key} at q = {q.q}: tabulated |v-1|_p = {u_claimed} "
            f"but ppart(v-1, {q.p}) = {u_actual}")
    ok = v < 2 * u_actual * u_actual
    facts.append(Fact(
        "r | 2|v-1|_p and 2v < r^2 require v < 2(|v-1|_p)^2",
        (v, 2 * u_actual * u_actual), ok))
    if ok:
        branch = Branch(row.key, "candidate",
                        "the p-part bound does not eliminate this case")
    else:
        branch = Branch(row.key, "eliminated",
                        f"v = {v} >= 2(|v-1|_p)^2 = {2 * u_actual * u_actual}")
    hypotheses = [EVEN_R_HYPOTHESIS,
                  "unique prime-power subdegree for the parabolic action"]
    if row.subdegree_hypothesis:
        hypotheses.append(f"assumed: {row.subdegree_hypothesis}")
    return CaseReport(
        CaseDescriptor("parabolic_generic", q,
                       extra={"row": row.key, "socle": row.socle,
                              "stabilizer": row.stabilizer}),
        tuple(hypotheses), tuple(facts), (branch,))


# -- sweeps -------------------------------------------------------------------

def _parabolic_reports(q: PrimePower) -> list[CaseReport]:
    """The reports of every row valid at q, from one table of cyclotomic
    values at q."""
    phi = cyclotomic_table(_PARABOLIC_N_MAX, q.q)
    return [eliminate_parabolic_generic(row, q, phi)
            for row in PARABOLIC_ROWS if row.valid_q(q)]


# Each swept family: the prime powers q it covers, and its case reports at
# such a q, in epsilon/case order.  The CLI lists the families in this order.
FAMILIES = {
    "suzuki": (_suzuki_q, lambda q: [eliminate_suzuki(q)]),
    "ree": (_ree_q, lambda q: [eliminate_ree(q)]),
    "g2": (_g2_q, lambda q: [eliminate_g2(q, eps) for eps in (1, -1)]),
    "e6": (lambda q: True,
           lambda q: [eliminate_e6(q, case) for case in ("p1", "p3")]),
    "parabolic": (lambda q: True, _parabolic_reports),
}


def sweep(family: str, q_min: int, q_max: int) -> list[CaseReport]:
    """All case reports for a family over valid prime powers in [q_min, q_max],
    in deterministic (family, q, epsilon/case) order."""
    if family not in FAMILIES:
        *names, last = FAMILIES
        raise ValueError(f"unknown family {family!r} "
                         f"(expected {', '.join(names)} or {last})")
    valid_q, cases = FAMILIES[family]
    return [report for q in prime_powers(q_min, q_max) if valid_q(q)
            for report in cases(q)]
