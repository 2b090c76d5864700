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

from functools import cache
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, isqrt, prod
from operator import itemgetter, mul
from typing import NamedTuple, TextIO

# cyclotomic, divisors and enumerate_candidates are not called here, but
# bench/tracing.py wraps these bindings
from .arith import (PrimePower, cyclotomic, divisors,  # noqa: F401
                    powers_of, prime_powers)
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


# Every record in the package is a named tuple, not a frozen dataclass: the
# records of a report (Fact, Branch, CaseDescriptor and CaseReport), the
# Parameters and PrimePower they hold, ParabolicRow below, incidence's
# IncidenceStructure and DesignCertificate, and constructions' CatalogEntry.
# A sweep builds thousands of report records, and a tuple is several times
# cheaper to build and lighter on the cyclic garbage collector.  The
# eliminate_* functions build their records as _new(Record, (every field in
# order)), as arith builds a PrimePower: a named tuple's own __new__ is a
# Python function, whose frame makes a Fact cost about 285 ns to build
# against 160 ns through tuple.__new__ (Python 3.11.7, timeit).
_new = tuple.__new__


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
            doc["params"] = list(self.params)
        return doc


# the lambda*v < r^2 condition of g2's branch m
_G2_INEQUALITY = ("lambda*v < r^2 requires "
                  "q^3(q^3+eps)*(m*gcd)^2 < 4(q^3-eps)^2")


class CaseDescriptor(NamedTuple):
    family: str
    q: PrimePower | None = None
    epsilon: int | None = None
    row: ParabolicRow | None = None

    def to_dict(self) -> dict:
        doc: dict = {"family": self.family}
        if self.q is not None:
            doc["q"] = self.q.q
            doc["p"] = self.q.p
            doc["a"] = self.q.a
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon
        if self.row is not None:
            doc["extra"] = {"row": self.row.key, "socle": self.row.socle,
                            "stabilizer": self.row.stabilizer}
        return doc


_BRANCH_VERDICT = itemgetter(1)


class CaseReport(NamedTuple):
    descriptor: CaseDescriptor
    hypotheses: tuple[str, ...]
    facts: tuple[Fact, ...]
    branches: tuple[Branch, ...]

    @property
    def verdict(self) -> str:
        kinds = set(map(_BRANCH_VERDICT, self.branches))
        if "candidate" in kinds:
            return "candidate"
        if "flagged" in kinds:
            return "flagged"
        return "eliminated"

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor.to_dict(),
            "hypotheses": list(self.hypotheses),
            "facts": [f.to_dict() for f in self.facts],
            "branches": [b.to_dict() for b in self.branches],
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        desc, hypotheses, facts, branches = self
        head = desc.family
        if desc.q is not None:
            head += f" q={desc.q.q}"
        if desc.epsilon is not None:
            head += f" eps={'+' if desc.epsilon > 0 else '-'}"
        lines = [f"case {head}", *_hypothesis_lines(hypotheses)]
        lines += [_FACT_TEXT[len(values)]
                  % ("ok " if ok else "FAIL", statement, *values)
                  for statement, values, ok in facts]
        for branch in branches:
            lines.append(f"  branch {branch.label}: {branch.verdict} -- {branch.reason}")
            if branch.params is not None:
                lines.append(f"    parameters {branch.params}")
            if branch.reference is not None:
                lines.append(f"    closed by: {branch.reference}")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


# -- rendering pieces built once ----------------------------------------------
#
# What a report's text and JSON take from its hypotheses, from a parabolic
# row or from the number of a fact's values does not depend on q, so each is
# built once, on first use: the lines of a hypotheses tuple, the JSON of a
# row's `extra`, and one % template per value count for a fact's text line
# and JSON, as incidence has for blocks.  %d writes an int as str and repr
# do.

class _ByCount(dict):
    """build(n) by n, each made on first use."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, n: int) -> str:
        value = self[n] = self.build(n)
        return value


def _int_list_template(n: int) -> str:
    """An int list at depth 4, its items at depth 5."""
    if not n:
        return "[]"
    return "[\n          " + ",\n          ".join(["%d"] * n) + "\n        ]"


# a fact's text line from (mark, statement, *values)
_FACT_TEXT = _ByCount(
    lambda n: "  [%s] %s   [" + ", ".join(["%d"] * n) + "]")

# a fact's JSON at depth 3 from (ok, statement, *values), the first two
# written as JSON
_FACT_JSON = _ByCount(
    lambda n: '      {\n        "ok": %s,\n        "statement": %s,'
              '\n        "values": ' + _int_list_template(n) + "\n      }")

_INT_LIST = _ByCount(_int_list_template)


@cache
def _hypothesis_lines(hypotheses: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"  hypothesis: {hyp}" for hyp in hypotheses)


# -- JSON rendering -----------------------------------------------------------
#
# Facts and branches are nearly all of the objects in a JSON report list, so
# each has a fixed template rather than a trip through json's pure-Python
# indenting encoder, which took most of the time of `eliminate --json`; so
# has the descriptor, with its parabolic row's `extra`.  A template sits at
# its depth in the list: a report at depth 1, its descriptor at depth 2, its
# extra, a fact or a branch at depth 3, values or params at depth 5.  Keys
# come in sorted order, ints by repr or %d, bools as true/false and strings
# through encode_basestring_ascii, as json.dumps(..., indent=2,
# sort_keys=True) writes them.  A fact is one % format of its template, and
# any other record one "".join of its pieces.  The fact templates leave the
# eliminate benchmark's peak RSS where the joins had it: over ten
# alternating pairs of runs (Python 3.11.7, 2-core host), peak_rss_mb read
# 32.16-32.69 MB with joins and 32.26-32.57 MB with templates.  No piece is
# an f-string with a quote or backslash inside its braces: that needs
# Python 3.12 (PEP 701), and the package supports 3.10.

def _fact_json(fact: Fact) -> str:
    statement, values, ok = fact
    return _FACT_JSON[len(values)] % (
        "true" if ok else "false", encode_basestring_ascii(statement),
        *values)


def _branch_json(branch: Branch) -> str:
    label, verdict, reason, reference, params = branch
    return "".join((
        '      {\n        "label": ', encode_basestring_ascii(label),
        "" if params is None
        else ',\n        "params": ' + _INT_LIST[len(params)] % params,
        ',\n        "reason": ', encode_basestring_ascii(reason),
        "" if reference is None
        else ',\n        "reference": ' + encode_basestring_ascii(reference),
        ',\n        "verdict": ', encode_basestring_ascii(verdict),
        "\n      }"))


def _hypothesis_json(hypothesis: str) -> str:
    return "      " + encode_basestring_ascii(hypothesis)


def _json_list(items, render) -> str:
    """The value of a list-valued key of a report, from its items rendered
    at depth 3."""
    if not items:
        return "[]"
    return "".join(("[\n", ",\n".join(map(render, items)), "\n    ]"))


@cache
def _hypotheses_json(hypotheses: tuple[str, ...]) -> str:
    return _json_list(hypotheses, _hypothesis_json)


@cache
def _extra_json(row: ParabolicRow) -> str:
    """A descriptor's `extra` key at depth 2, from its row."""
    return "".join((
        '\n      "extra": {\n        "row": ',
        encode_basestring_ascii(row.key),
        ',\n        "socle": ', encode_basestring_ascii(row.socle),
        ',\n        "stabilizer": ', encode_basestring_ascii(row.stabilizer),
        "\n      },"))


def _descriptor_json(desc: CaseDescriptor) -> str:
    """The descriptor at depth 2."""
    family, q, epsilon, row = desc
    parts = ["{"]
    if q is not None:
        parts += '\n      "a": ', repr(q.a), ","
    if epsilon is not None:
        parts += '\n      "epsilon": ', repr(epsilon), ","
    if row is not None:
        parts.append(_extra_json(row))
    parts += '\n      "family": ', encode_basestring_ascii(family)
    if q is not None:
        parts += ',\n      "p": ', repr(q.p), ',\n      "q": ', repr(q.q)
    parts.append("\n    }")
    return "".join(parts)


def _report_json(report: CaseReport) -> str:
    """The report at depth 1."""
    return "".join((
        '  {\n    "branches": ', _json_list(report.branches, _branch_json),
        ',\n    "descriptor": ', _descriptor_json(report.descriptor),
        ',\n    "facts": ', _json_list(report.facts, _fact_json),
        ',\n    "hypotheses": ', _hypotheses_json(report.hypotheses),
        ',\n    "verdict": ', encode_basestring_ascii(report.verdict),
        "\n  }"))


def write_json(reports: list[CaseReport], out: TextIO) -> None:
    """Write the reports to `out` as one indented JSON list and a newline,
    byte for byte what `print(json.dumps([r.to_dict() for r in reports],
    indent=2, sort_keys=True))` writes, one report at a time."""
    sep = "[\n"
    for report in reports:
        out.write(sep + _report_json(report))
        sep = ",\n"
    out.write("[]\n" if sep == "[\n" else "\n]\n")


# -- Suzuki groups: socle 2B2(q), parabolic stabilizer -----------------------

# the hypotheses of every report but a parabolic row's
_EVEN_R = (EVEN_R_HYPOTHESIS,)


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
        _new(Fact, ("v = q^2 + 1", (v,), True)),
        _new(Fact, ("r(k-1) = 2(v-1) = 2^(2a+1)", (2 * (v - 1),), True)),
    ]
    branches = []
    for c in range(1, 2 * a + 2):
        r = 2**c
        k = 2 ** (2 * a + 1 - c) + 1
        label = f"r=2^{c}"
        if not 2 < k < v - 1:
            branches.append(_new(Branch, (
                label, "eliminated",
                f"k = {k} is a trivial block size (need 2 < k < v-1 = {v - 1})",
                None, None)))
            continue
        facts.append(_new(Fact, (
            f"branch {label}: block-stabilizer overgroup of index q^2+1 "
            f"divides b, forcing k | 2^{c}; k = {k} is odd",
            (k, r), k % 2 == 0)))
        branches.append(_new(Branch, (
            label, "eliminated",
            f"k = {k} is odd and greater than 1, so k cannot divide 2^{c}",
            None, None)))
    return _new(CaseReport, (
        _new(CaseDescriptor, ("suzuki", q, None, None)), _EVEN_R,
        tuple(facts), tuple(branches)))


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
        _new(Fact, ("v = q^3 + 1", (v,), True)),
        _new(Fact, ("r even and r | 2(v-1) = 2q^3 gives r = 2*3^c, "
                    "k = 3^t + 1 with t = 3a - c >= 1", (2 * qq**3,), True)),
        _new(Fact, ("overgroup of index q^2(q^2-q+1) divides b, so "
                    "k = 3^t + 1 divides 2(q+1), forcing t <= a",
                    (qq**2 * (qq**2 - qq + 1), a), True)),
        _new(Fact, ("two blocks through a point pair give (q-1)/2 <= "
                    "2*3^t - 2, i.e. 3^a + 3 <= 4*3^t, forcing t >= a-1",
                    (qq + 3, 4 * 3 ** (a - 1)),
                    qq + 3 <= 4 * 3 ** (a - 1))),
    ]
    branches = []

    # t = a-1: k = 3^(a-1) + 1 must divide 2(q^3 + 1)
    k_low = 3 ** (a - 1) + 1
    inner = gcd(k_low, qq**3 + 1)
    facts.append(_new(Fact, (
        "branch t=a-1: gcd(3^(a-1) + 1, q^3 + 1)",
        (k_low, qq**3 + 1, inner), inner == 2)))
    divides = (2 * (qq**3 + 1)) % k_low == 0
    facts.append(_new(Fact, (
        "branch t=a-1: b integral requires k | 2(q^3+1)",
        (k_low, 2 * (qq**3 + 1)), divides)))
    branches.append(_new(Branch, (
        "t=a-1", "eliminated",
        f"k = {k_low} does not divide 2(q^3+1) = {2 * (qq**3 + 1)} "
        f"(equivalently 3^(a-1)+1 would have to divide 4)", None, None)))

    # t = a: k = q + 1 survives the arithmetic
    k = qq + 1
    r = 2 * qq**2
    assert (v * r) % k == 0
    b = v * r // k
    params = Parameters(v, b, r, k, 2)
    violations = admissibility_violations(params)
    facts.append(_new(Fact, (
        "branch t=a: (v, b, r, k) = (q^3+1, 2q^2(q^2-q+1), 2q^2, q+1) "
        "satisfies every counting constraint",
        tuple(params), not violations)))
    branches.append(_new(Branch, (
        "t=a", "flagged" if not violations else "eliminated",
        "arithmetic survivor" if not violations else "; ".join(violations),
        REE_UNITAL_REFERENCE if not violations else None, params)))
    return _new(CaseReport, (
        _new(CaseDescriptor, ("ree", q, None, None)), _EVEN_R,
        tuple(facts), tuple(branches)))


# -- G2(q) with stabilizer normalizing a subgroup of type A2^eps -------------

def _g2_q(q: PrimePower) -> bool:
    return q.q >= 3


def eliminate_g2(q: PrimePower, epsilon: int) -> CaseReport:
    """v = q^3(q^3 + eps)/2 and r*m*gcd(2, q-1) = 2(q^3 - eps) for some
    m >= 1.  Walks the divisors m in ascending order, applying in order: the
    lambda*v < r^2 inequality (decisive for m >= 2), nontriviality, k <= r,
    b-integrality (the q^3 + 4 | 120 kill for even q, eps = +, m = 1), the
    symmetric embedding criterion r = k + lambda, and full admissibility.
    The inequality's left side grows with m, so the divisors m >= 2 that
    pass it are those up to a bound, and the walk lists only m = 1 and
    those.  One FAIL fact and one eliminated branch `m>=m0` state the lemma
    for m0, the least divisor above the bound, and every larger divisor."""
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
    # fixed for the case, and the m that pass are those up to the bound
    lhs_unit = q3 * (q3 + eps) * g * g
    rhs = 4 * (q3 - eps) ** 2
    bound = max(1, isqrt((rhs - 1) // lhs_unit))
    facts = [
        _new(Fact, ("v = q^3(q^3 + eps)/2", (v,), True)),
        _new(Fact, ("r*m*gcd(2, q-1) = 2(q^3 - eps) for a positive integer m",
                    (modulus, g), True)),
    ]
    branches = []
    # The bound is 1 or 2, so nothing is factored.  n is always even, so
    # m0 = 2 when the bound is 1.  The bound is 2 only for eps = -1 and
    # q = 2^a; then m0 is the least odd prime factor of q^3 + 1, at most
    # 65537 for every q <= 10**18, since the Fermat number 2^(2^s) + 1
    # divides q^3 + 1 for 2^s the 2-part of a.
    n = modulus // g
    ms = [m for m in range(1, bound + 1) if n % m == 0]
    m0 = bound + 1
    while n % m0:
        m0 += 1
    for m in ms:
        lhs = lhs_unit * m * m
        inequality_ok = lhs < rhs
        r = modulus // (m * g)
        label = f"m={m}"
        facts.append(_new(Fact, (f"branch {label}: {_G2_INEQUALITY}",
                                 (lhs, rhs), inequality_ok)))
        if twice_v1 % r != 0:
            branches.append(_new(Branch, (
                label, "eliminated",
                f"k - 1 = 2(v-1)/r = {twice_v1}/{r} is not an integer",
                None, None)))
            continue
        k = 1 + twice_v1 // r
        if not 2 < k < v - 1:
            branches.append(_new(Branch, (
                label, "eliminated", f"k = {k} is a trivial block size",
                None, None)))
            continue
        if k > r:
            facts.append(_new(Fact, (
                f"branch {label}: k <= r requires {k} <= {r}", (k, r),
                False)))
            branches.append(_new(Branch, (
                label, "eliminated", f"k = {k} exceeds r = {r}", None, None)))
            continue
        if eps == 1 and qq % 2 == 0 and m == 1:
            # b = (2q^9 - 2q^3)/(q^3 + 4) is integral iff q^3 + 4 divides 120
            divisor = q3 + 4
            facts.append(_new(Fact, (
                f"branch {label}: b integral requires q^3 + 4 | 120",
                (divisor, 120 % divisor), 120 % divisor == 0)))
            assert (120 % divisor == 0) == ((v * r) % k == 0)
        if (v * r) % k != 0:
            branches.append(_new(Branch, (
                label, "eliminated",
                f"b = vr/k = {v}*{r}/{k} is not an integer", None, None)))
            continue
        params = Parameters(v, v * r // k, r, k, 2)
        symmetric = embeds_symmetric(params)
        if symmetric is not None:
            facts.append(_new(Fact, (
                f"branch {label}: r = k + lambda, extends to a symmetric "
                "design with parameters (v+k+2, k+2, 2)",
                symmetric, True)))
            branches.append(_new(Branch, (
                label, "flagged", "arithmetic survivor with r = k + lambda",
                SYMMETRIC_EMBED_REFERENCE, params)))
            continue
        violations = admissibility_violations(params)
        if violations:
            branches.append(_new(Branch, (
                label, "eliminated", "; ".join(violations), None, params)))
        elif m == 1 and eps == -1 and qq % 2 == 0:
            branches.append(_new(Branch, (
                label, "flagged", "arithmetic survivor",
                SU3_STABILIZER_REFERENCE, params)))
        else:
            branches.append(_new(Branch, (
                label, "candidate", "arithmetic survivor", None, params)))
    # lhs grows with m, so m0 and every larger divisor fail
    r = modulus // (m0 * g)
    facts.append(_new(Fact, (
        f"branches m>={m0}: {_G2_INEQUALITY}, whose left side grows with m",
        (lhs_unit * m0 * m0, rhs), False)))
    branches.append(_new(Branch, (
        f"m>={m0}", "eliminated",
        f"lambda*v = {2 * v} >= r^2 = {r * r} at m = {m0}, "
        "and r falls as m grows", None, None)))
    return _new(CaseReport, (
        _new(CaseDescriptor, ("g2_a2eps", q, epsilon, None)), _EVEN_R,
        tuple(facts), tuple(branches)))


# -- E6(q) with maximal parabolic stabilizers P1 and P3 ----------------------

def _exact_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    assert remainder == 0
    return quotient


def eliminate_e6(q: PrimePower, case: str) -> CaseReport:
    """Point counts of cosets of P1 / P3 in E6(q) grow like q^16 and q^25
    while the proven modulus for r stays polynomially small, so the
    necessary 2v < r^2 fails immediately."""
    if case not in ("p1", "p3"):
        raise ValueError(f"case must be 'p1' or 'p3', got {case!r}")
    qq = q.q
    q3 = qq * qq * qq
    q4 = q3 * qq
    q5 = q4 * qq
    q8 = q4 * q4
    q9 = q8 * qq
    if case == "p1":
        v = (q8 + q4 + 1) * _exact_div(q9 - 1, qq - 1)
        d1 = _exact_div(qq * (q8 - 1) * (q3 + 1), qq - 1)
        d2 = _exact_div(q8 * (q5 - 1) * (q4 + 1), qq - 1)
        modulus = gcd(gcd(2 * d1, 2 * d2), 2 * (v - 1))
        facts = [
            _new(Fact, ("v = (q^8+q^4+1)(q^9-1)/(q-1)", (v,), True)),
            _new(Fact, ("nontrivial subdegrees q(q^8-1)(q^3+1)/(q-1) and "
                        "q^8(q^5-1)(q^4+1)/(q-1)", (d1, d2), True)),
            _new(Fact, ("r divides gcd(2*d1, 2*d2, 2(v-1))", (modulus,),
                        True)),
        ]
    else:
        q12 = q8 * q4
        v = _exact_div((q3 + 1) * (q4 + 1) * (q9 - 1) * (q12 - 1),
                       (qq - 1) * (qq * qq - 1))
        d1 = _exact_div(qq * (q5 - 1) * (q4 - 1), (qq - 1) ** 2)
        d2 = _exact_div(q12 * qq * (q5 - 1), qq - 1)
        modulus = 12 * q.a * qq * _exact_div(q5 - 1, qq - 1)
        facts = [
            _new(Fact, ("v = (q^3+1)(q^4+1)(q^9-1)(q^12-1)/((q-1)(q^2-1))",
                        (v,), True)),
            _new(Fact, ("nontrivial subdegrees q(q^5-1)(q^4-1)/(q-1)^2 and "
                        "q^13(q^5-1)/(q-1)", (d1, d2), True)),
            _new(Fact, ("r divides 12*a*q*(q^5-1)/(q-1)", (modulus,), True)),
        ]
    ok = 2 * v < modulus * modulus
    facts.append(_new(Fact, ("2v < r^2 requires 2v < modulus^2",
                             (2 * v, modulus * modulus), ok)))
    if ok:
        branch = _new(Branch, (case, "candidate",
                               "the modulus bound does not eliminate this "
                               "case", None, None))
    else:
        branch = _new(Branch, (case, "eliminated",
                               f"2v = {2 * v} >= modulus^2 = "
                               f"{modulus * modulus}", None, None))
    return _new(CaseReport, (
        _new(CaseDescriptor, (f"e6_{case}", q, None, None)), _EVEN_R,
        tuple(facts), (branch,)))


# -- generic parabolic cases driven by tabulated cyclotomic data -------------

@cache
def _ladder_exponents(phi_exponents: tuple[tuple[int, int], ...]
                      ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(top, bottom), each d as often as its exponent, largest first, with
    prod Phi_n(q)^e = prod(q^d - 1 for d in top) / prod(q^d - 1 for d in
    bottom).  This is Moebius inversion of q^n - 1 = prod over d | n of
    Phi_d(q): from the largest n down, q^n - 1 takes the exponent left to
    Phi_n, which the proper divisors d of n then owe."""
    left = dict(phi_exponents)
    top, bottom = [], []
    for n in range(max(left), 0, -1):
        a = left.get(n, 0)
        (top if a > 0 else bottom).extend([n] * abs(a))
        # d | n by trial: arith.divisors would factor n, and eliminate
        # factors nothing
        for d in range(1, n // 2 + 1):
            if n % d == 0:
                left[d] = left.get(d, 0) - a
    return tuple(top), tuple(bottom)


def _ladder(q: int, d_max: int) -> list[int]:
    """[q^d - 1 for d in 0..d_max], by repeated multiplication."""
    return [power - 1
            for power in accumulate(repeat(q, d_max), mul, initial=1)]


class ParabolicRow(NamedTuple):
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
    subdegree_hypothesis: str | None = None

    def valid_q(self, q: PrimePower) -> bool:
        if self.char is not None and q.p != self.char:
            return False
        if self.odd_exponent and q.a % 2 == 0:
            return False
        return q.q >= self.min_q

    def point_count(self, q: PrimePower,
                    ladder: list[int] | None = None) -> int:
        """v, the product of the row's cyclotomic values at q, as one exact
        quotient of the q^d - 1 in ladder, the _ladder at q that the rows
        valid at q may share.  Without one, the row builds its own."""
        top, bottom = _ladder_exponents(self.phi_exponents)
        if ladder is None:
            ladder = _ladder(q.q, top[0])
        at = ladder.__getitem__
        return _exact_div(prod(map(at, top)), prod(map(at, bottom)))

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
                 char=2, min_q=8, odd_exponent=True),
    ParabolicRow("f4_p14", "F4(q)", "P1,4",
                 ((2, 2), (3, 2), (4, 1), (6, 2), (8, 1), (12, 1)), "2q",
                 char=2, min_q=4),
    ParabolicRow("f4_p23", "F4(q)", "P2,3",
                 ((2, 2), (3, 2), (4, 2), (6, 2), (8, 1), (12, 1)), "2q",
                 char=2),
    ParabolicRow("e6_p16", "E6(q)", "P1,6",
                 ((3, 2), (5, 1), (6, 1), (8, 1), (9, 1), (12, 1)),
                 "gcd(2,p)q", min_q=3,
                 subdegree_hypothesis="the group contains a graph automorphism"),
    ParabolicRow("e6_p35", "E6(q)", "P3,5",
                 ((2, 1), (3, 2), (4, 2), (5, 1), (6, 2), (8, 1), (9, 1),
                  (12, 1)), "gcd(2,p)q", min_q=3,
                 subdegree_hypothesis="the group contains a graph automorphism"),
)

# the largest d of any row's q^d - 1, so that one ladder per q serves all
# rows; this finds each row's exponents once, at import
_LADDER_D_MAX = max(_ladder_exponents(row.phi_exponents)[0][0]
                    for row in PARABOLIC_ROWS)


@cache
def _row_texts(row: ParabolicRow) -> tuple[str, tuple[str, ...]]:
    """The statement of the p-part fact and the hypotheses of every report
    of row, which do not depend on q."""
    hypotheses = (EVEN_R_HYPOTHESIS,
                  "unique prime-power subdegree for the parabolic action")
    if row.subdegree_hypothesis:
        hypotheses += (f"assumed: {row.subdegree_hypothesis}",)
    return (f"tabulated |v-1|_p = {row.ppart_rule} agrees with the p-part "
            "of v - 1 computed directly", hypotheses)


def eliminate_parabolic_generic(row: ParabolicRow, q: PrimePower,
                                ladder: list[int] | None = None
                                ) -> CaseReport:
    """Evaluate v exactly from the cyclotomic product, cross-check the
    tabulated p-part of v - 1 against a direct computation, and test the
    necessary condition v < 2*(|v-1|_p)^2.  ladder is as in
    point_count."""
    if not row.valid_q(q):
        raise ValueError(f"q = {q} is outside the validity range of row "
                         f"{row.key} ({row.socle}, {row.stabilizer})")
    v = row.point_count(q, ladder)
    u_claimed = row.tabulated_ppart(q)
    u_actual = q.ppart(v - 1)
    if u_claimed != u_actual:
        raise TableDataError(
            f"row {row.key} at q = {q.q}: tabulated |v-1|_p = {u_claimed} "
            f"but ppart(v-1, {q.p}) = {u_actual}")
    ppart_statement, hypotheses = _row_texts(row)
    bound = 2 * u_actual * u_actual
    ok = v < bound
    facts = (
        _new(Fact, ("v as an exact cyclotomic product", (v,), True)),
        _new(Fact, (ppart_statement, (u_claimed, u_actual),
                    u_claimed == u_actual)),
        _new(Fact, ("r | 2|v-1|_p and 2v < r^2 require v < 2(|v-1|_p)^2",
                    (v, bound), ok)),
    )
    if ok:
        branch = _new(Branch, (row.key, "candidate",
                               "the p-part bound does not eliminate this "
                               "case", None, None))
    else:
        branch = _new(Branch, (row.key, "eliminated",
                               f"v = {v} >= 2(|v-1|_p)^2 = {bound}",
                               None, None))
    return _new(CaseReport, (
        _new(CaseDescriptor, ("parabolic_generic", q, None, row)),
        hypotheses, facts, (branch,)))


# -- sweeps -------------------------------------------------------------------

def _parabolic_reports(q: PrimePower) -> list[CaseReport]:
    """The reports of every row valid at q, from one _ladder at q."""
    ladder = _ladder(q.q, _LADDER_D_MAX)
    return [eliminate_parabolic_generic(row, q, ladder)
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


# The families whose q are the powers of one prime: sweep lists those from
# their exponents, so any window up to 10**18 takes a few steps.
_ONE_PRIME = {"suzuki": 2, "ree": 3}

# The other families sieve the window for its prime powers, one byte and,
# near 10**18, about 4-5 us per integer, and their whole sweep takes
# 0.8-1.2 s for 10**5 integers just below 10**18; sweep refuses a wider
# window for them.
WINDOW_LIMIT = 100_000


def sweep(family: str, q_min: int, q_max: int) -> list[CaseReport]:
    """All case reports for a family over valid prime powers in [q_min, q_max],
    in deterministic (family, q, epsilon/case) order.  Refuses a window of
    more than WINDOW_LIMIT integers for a family not in _ONE_PRIME."""
    if family not in FAMILIES:
        *names, last = FAMILIES
        raise ValueError(f"unknown family {family!r} "
                         f"(expected {', '.join(names)} or {last})")
    valid_q, cases = FAMILIES[family]
    p = _ONE_PRIME.get(family)
    if p is None:
        lo = max(q_min, 2)
        if q_max - lo >= WINDOW_LIMIT:
            raise ValueError(
                f"{family} tests every integer of its window, so the window "
                f"holds at most WINDOW_LIMIT = {WINDOW_LIMIT} integers, not "
                f"q = {lo}..{q_max}")
        qs = prime_powers(q_min, q_max)
    else:
        qs = powers_of(p, q_min, q_max)
    return [report for q in qs if valid_q(q) for report in cases(q)]
