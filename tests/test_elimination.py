import io
import json
from collections import Counter
from collections.abc import Hashable
from functools import cache
from math import gcd, prod

import pytest

from conftest import GOLDEN
from ftdesigns import elimination
from ftdesigns.arith import PrimePower, cyclotomic, divisors, prime_powers
from ftdesigns.design import Parameters, admissibility_violations, \
    embeds_symmetric, enumerate_candidates
from ftdesigns.elimination import (EVEN_R_HYPOTHESIS, PARABOLIC_ROWS,
                                   REE_UNITAL_REFERENCE,
                                   SU3_STABILIZER_REFERENCE,
                                   SYMMETRIC_EMBED_REFERENCE, WINDOW_LIMIT,
                                   Branch, CaseDescriptor, CaseReport, Fact,
                                   ParabolicRow, TableDataError, _branch_json,
                                   _descriptor_json, _fact_json,
                                   _ladder_exponents,
                                   eliminate_e6, eliminate_g2,
                                   eliminate_parabolic_generic, eliminate_ree,
                                   eliminate_suzuki, sweep, write_json)

ROWS = {row.key: row for row in PARABOLIC_ROWS}


def flagged(report: CaseReport) -> list[Branch]:
    return [b for b in report.branches if b.verdict == "flagged"]


def candidates(report: CaseReport) -> list[Parameters]:
    return [b.params for b in report.branches
            if b.verdict == "candidate" and b.params is not None]


def test_suzuki_q8():
    report = eliminate_suzuki(PrimePower(2, 3))
    assert report.verdict == "eliminated"
    assert [b.label for b in report.branches] == [f"r=2^{c}" for c in range(1, 8)]
    assert all(b.verdict == "eliminated" for b in report.branches)


def test_suzuki_q32_consistent_with_scan():
    report = eliminate_suzuki(PrimePower(2, 5))
    assert report.verdict == "eliminated"
    # the pure parameter scan keeps tuples the case analysis kills with the
    # extra block-stabilizer divisibility; every scan survivor must have odd
    # k (so k cannot divide the power of two it would need to divide)
    survivors = enumerate_candidates(32**2 + 1, 2, 2 * 32**2)
    assert survivors == [Parameters(1025, 104960, 512, 5, 2)]
    for params in survivors:
        assert params.k % 2 == 1
        assert params.b % (32**2 + 1) != 0  # the index q^2+1 fails to divide b


def test_suzuki_rejects_bad_q():
    with pytest.raises(ValueError):
        eliminate_suzuki(PrimePower(2, 2))
    with pytest.raises(ValueError):
        eliminate_suzuki(PrimePower(3, 3))


def test_ree_q27():
    report = eliminate_ree(PrimePower(3, 3))
    assert report.verdict == "flagged"
    low, high = report.branches
    assert low.label == "t=a-1" and low.verdict == "eliminated"
    assert high.label == "t=a" and high.verdict == "flagged"
    assert high.params == Parameters(19684, 1458 * 703, 1458, 28, 2)
    assert "Ree unital" in high.reference


def test_ree_q243():
    report = eliminate_ree(PrimePower(3, 5))
    q = 243
    assert report.branches[0].verdict == "eliminated"
    assert report.branches[1].params == Parameters(
        q**3 + 1, 2 * q**2 * (q**2 - q + 1), 2 * q**2, q + 1, 2)


def test_ree_rejects_bad_q():
    with pytest.raises(ValueError):
        eliminate_ree(PrimePower(3, 1))
    with pytest.raises(ValueError):
        eliminate_ree(PrimePower(3, 2))


def test_g2_q3_plus_kills_by_k_greater_r():
    report = eliminate_g2(PrimePower(3, 1), 1)
    assert report.verdict == "eliminated"
    m1 = next(b for b in report.branches if b.label == "m=1")
    assert "30" in m1.reason and "26" in m1.reason


def test_g2_even_plus_kills_by_divisor_of_120():
    report = eliminate_g2(PrimePower(2, 2), 1)
    assert report.verdict == "eliminated"
    fact = next(f for f in report.facts if "q^3 + 4" in f.statement)
    assert fact.values[0] == 68 and not fact.ok


def test_g2_q4_minus_flagged_branches():
    report = eliminate_g2(PrimePower(2, 2), -1)
    assert report.verdict == "flagged"
    su3 = next(b for b in report.branches if b.reference and "SU3" in b.reference)
    assert su3.params == Parameters(2016, 8190, 130, 32, 2)
    sym = next(b for b in report.branches
               if b.reference and "symmetric" in b.reference)
    assert sym.params == Parameters(2016, 2080, 65, 63, 2)


def reference_g2(q: PrimePower, eps: int) -> tuple[tuple, tuple]:
    """The facts and branches of a g2 case, one record per divisor m, as
    eliminate_g2 built them before it stated its lambda*v >= r^2 tail as one
    lemma."""
    qq = q.q
    g = gcd(2, qq - 1)
    q3 = qq**3
    v = q3 * (q3 + eps) // 2
    modulus = 2 * (q3 - eps)
    twice_v1 = 2 * (v - 1)
    lhs_unit = q3 * (q3 + eps) * g * g
    rhs = 4 * (q3 - eps) ** 2
    facts = [
        Fact("v = q^3(q^3 + eps)/2", (v,), True),
        Fact("r*m*gcd(2, q-1) = 2(q^3 - eps) for a positive integer m",
             (modulus, g), True),
    ]
    branches = []
    for m in divisors(modulus // g):
        label = f"m={m}"
        r = modulus // (m * g)
        lhs = lhs_unit * m * m
        facts.append(Fact(
            f"branch {label}: lambda*v < r^2 requires "
            "q^3(q^3+eps)*(m*gcd)^2 < 4(q^3-eps)^2", (lhs, rhs), lhs < rhs))
        if m >= 2 and lhs >= rhs:
            branches.append(Branch(
                label, "eliminated", f"lambda*v = {2 * v} >= r^2 = {r * r}"))
            continue
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
            divisor = q3 + 4
            facts.append(Fact(
                f"branch {label}: b integral requires q^3 + 4 | 120",
                (divisor, 120 % divisor), 120 % divisor == 0))
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
                "design with parameters (v+k+2, k+2, 2)", symmetric, True))
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
    return tuple(facts), tuple(branches)


def test_g2_tail_expands_to_the_per_divisor_records():
    # the benchmark's window, and the top of the range: 2^19, 3^12, 997^2
    # and the largest prime below 10**6
    top = [PrimePower(2, 19), PrimePower(3, 12), PrimePower(997, 2),
           PrimePower(999983, 1)]
    for q in prime_powers(3, 4096) + top:
        for eps in (1, -1):
            report = eliminate_g2(q, eps)
            facts, branches = reference_g2(q, eps)
            where = (q.q, eps)
            # the lemma is the last fact and the last branch, and the only
            # records that speak of more than one m
            *head_facts, lemma_fact = report.facts
            *head_branches, lemma = report.branches
            assert [f for f in report.facts
                    if f.statement.startswith("branches m>=")] == \
                [lemma_fact], where
            assert [b for b in report.branches
                    if b.label.startswith("m>=")] == [lemma], where
            # the records before it are the reference's first ones
            n_facts, n_branches = len(head_facts), len(head_branches)
            assert tuple(head_facts) == facts[:n_facts], where
            assert tuple(head_branches) == branches[:n_branches], where
            # and every reference record from its m0 on is a lambda*v >= r^2
            # kill, one fact and one branch per divisor
            m0 = int(lemma.label[len("m>="):])
            tail = branches[n_branches:]
            assert m0 >= 2 and tail[0].label == f"m={m0}", where
            assert all(b.verdict == "eliminated"
                       and b.reason.startswith("lambda*v = ")
                       for b in tail), where
            assert len(facts) - n_facts == len(tail), where
            assert not any(f.ok for f in facts[n_facts:]), where
            # the lemma states those divisors with m0's values and reason
            first = facts[n_facts]
            assert lemma_fact == Fact(
                first.statement.replace(f"branch m={m0}:",
                                        f"branches m>={m0}:")
                + ", whose left side grows with m", first.values, False), where
            assert lemma == Branch(
                f"m>={m0}", "eliminated",
                f"{tail[0].reason} at m = {m0}, and r falls as m grows"), where
            reference = CaseReport(report.descriptor, report.hypotheses,
                                   facts, branches)
            assert report.verdict == reference.verdict, where
            assert flagged(report) == flagged(reference), where
            assert candidates(report) == candidates(reference), where


@pytest.mark.parametrize("q", [3, 4, 8, 9, 64, 243, 1024, 4096])
@pytest.mark.parametrize("eps", [1, -1])
def test_g2_report_reads_and_renders_as_its_tuples(q, eps):
    # the facts and branches are plain tuples, and the text, the dict and
    # the JSON write each of their records once, the lemma last
    report = eliminate_g2(prime_powers(q, q)[0], eps)
    assert type(report.facts) is tuple and type(report.branches) is tuple
    lemma = report.branches[-1]
    lines = report.to_text().splitlines()
    assert sum(line.startswith("  [") for line in lines) == len(report.facts)
    assert sum(line.startswith("  branch ") for line in lines) == \
        len(report.branches)
    assert lines[-2] == f"  branch {lemma.label}: eliminated -- {lemma.reason}"
    doc = report.to_dict()
    assert doc["facts"] == [fact.to_dict() for fact in report.facts]
    assert doc["branches"] == [branch.to_dict() for branch in report.branches]
    out = io.StringIO()
    write_json([report], out)
    assert out.getvalue() == json.dumps([doc], indent=2, sort_keys=True) + "\n"


def test_g2_window_totals():
    # the benchmark's g2 window; bench/tracing.py counts these lengths
    reports = sweep("g2", 2, 4096)
    assert len(reports) == 1206
    assert sum(len(r.branches) for r in reports) == 2423
    assert sum(len(r.facts) for r in reports) == 6041
    assert all(r.hypotheses == (EVEN_R_HYPOTHESIS,) for r in reports)


def test_g2_rejects_bad_input():
    with pytest.raises(ValueError):
        eliminate_g2(PrimePower(2, 1), 1)
    with pytest.raises(ValueError):
        eliminate_g2(PrimePower(3, 1), 0)


def test_e6_p1_q2_values():
    report = eliminate_e6(PrimePower(2, 1), "p1")
    assert report.verdict == "eliminated"
    assert report.facts[0].values == (139503,)
    assert 139503 == 273 * 511
    modulus_fact = next(f for f in report.facts if "gcd" in f.statement)
    assert modulus_fact.values == (68,)
    final = report.facts[-1]
    assert final.values[0] == 2 * 139503 and not final.ok


def test_e6_both_cases_eliminated():
    for q in prime_powers(2, 4):
        for case in ("p1", "p3"):
            assert eliminate_e6(q, case).verdict == "eliminated"
    with pytest.raises(ValueError):
        eliminate_e6(PrimePower(2, 1), "p2")


@pytest.mark.parametrize("q_min, q_max", [(2, 4096),
                                          (999999999999998000, 10**18)])
def test_e6_p1_subdegrees_and_the_point_sum_to_v(q_min, q_max):
    # E6(q) acts on the cosets of P1 with rank 3, so the point stabilizer's
    # orbits have lengths 1, d1 and d2; each is read from the report's facts
    reports = [r for r in sweep("e6", q_min, q_max)
               if r.descriptor.family == "e6_p1"]
    assert reports
    for report in reports:
        (v,), (d1, d2) = report.facts[0].values, report.facts[1].values
        assert 1 + d1 + d2 == v, report.descriptor.q


def test_parabolic_3d4_q2():
    report = eliminate_parabolic_generic(ROWS["3d4_p1"], PrimePower(2, 1))
    assert report.verdict == "eliminated"
    v = report.facts[0].values[0]
    assert v == 2457 == (2**8 + 2**4 + 1) * (2**3 + 1)
    assert PrimePower(2, 1).ppart(v - 1) == 8


def test_parabolic_tits_group_rejected():
    # 2F4 at q = 2 is the Tits-group case and is outside this row's range
    with pytest.raises(ValueError):
        eliminate_parabolic_generic(ROWS["2f4_p1"], PrimePower(2, 1))
    eliminate_parabolic_generic(ROWS["2f4_p1"], PrimePower(2, 3))


def test_parabolic_validity_windows():
    assert not ROWS["f4_p14"].valid_q(PrimePower(2, 1))
    assert ROWS["f4_p23"].valid_q(PrimePower(2, 1))
    assert not ROWS["e6_p16"].valid_q(PrimePower(2, 1))
    assert ROWS["3d4_p1"].valid_q(PrimePower(2, 1))
    assert not ROWS["f4_p14"].valid_q(PrimePower(3, 2))


# each row's validity rule as four fields, before min_a was folded into
# min_q: (char, min_q, odd_exponent, min_a)
FOUR_FIELD_RULES = {
    "3d4_p1": (None, 2, False, 1),
    "2f4_p1": (2, 8, True, 3),
    "f4_p14": (2, 2, False, 2),
    "f4_p23": (2, 2, False, 1),
    "e6_p16": (None, 3, False, 1),
    "e6_p35": (None, 3, False, 1),
}


def test_valid_q_agrees_with_the_four_field_rule():
    assert set(FOUR_FIELD_RULES) == set(ROWS)
    for q in prime_powers(2, 100_000):
        for key, (char, min_q, odd_exponent, min_a) in \
                FOUR_FIELD_RULES.items():
            expected = ((char is None or q.p == char)
                        and not (odd_exponent and q.a % 2 == 0)
                        and q.a >= min_a and q.q >= min_q)
            assert ROWS[key].valid_q(q) == expected, (key, q.q)


def test_parabolic_rows_validate_up_to_32():
    for row in PARABOLIC_ROWS:
        hit = False
        for q in prime_powers(2, 32):
            if not row.valid_q(q):
                continue
            hit = True
            report = eliminate_parabolic_generic(row, q)
            assert report.verdict == "eliminated", (row.key, q.q)
        assert hit, row.key


def test_parabolic_sweep_builds_one_ladder_per_q(monkeypatch):
    # the sweep reads every row's q^d - 1 from one ladder per q; a report
    # built row by row builds its own
    ladders = []
    build = elimination._ladder

    def ladder(q, d_max):
        ladders.append(q)
        return build(q, d_max)

    monkeypatch.setattr(elimination, "_ladder", ladder)
    reports = iter(sweep("parabolic", 2, 4096))
    assert ladders == [q.q for q in prime_powers(2, 4096)]
    for q in prime_powers(2, 4096):
        for row in PARABOLIC_ROWS:
            if row.valid_q(q):
                assert next(reports) == eliminate_parabolic_generic(row, q)
    assert next(reports, None) is None


def test_point_count_is_the_cyclotomic_product():
    # v as one quotient of products of q^d - 1 against the product of the
    # row's cyclotomic values, over q = 2..4096 and the 53 prime powers of
    # the pinned window below 10**18, and against sympy's polynomials up to
    # q = 64; 3d4_p1's v is (q^12 - 1)(q^6 - 1) / ((q^4 - 1)(q^3 - 1))
    assert _ladder_exponents(ROWS["3d4_p1"].phi_exponents) == \
        ((12, 6), (4, 3))
    for q in prime_powers(2, 4096) + prime_powers(999999999999998000, 10**18):
        for row in PARABOLIC_ROWS:
            if not row.valid_q(q):
                continue
            v = row.point_count(q)
            assert v == prod(cyclotomic(n, q.q) ** e
                             for n, e in row.phi_exponents), (row.key, q.q)
            if q.q <= 64:
                assert v == prod(sympy_phi(n, q.q) ** e
                                 for n, e in row.phi_exponents), \
                    (row.key, q.q)


def test_parabolic_data_error_detected():
    bogus = ParabolicRow("bogus", "3D4(q)", "P1",
                         ((2, 1), (3, 1), (6, 2), (12, 1)), "q^2")
    with pytest.raises(TableDataError):
        eliminate_parabolic_generic(bogus, PrimePower(2, 1))


def test_parabolic_e6_rows_carry_subdegree_hypothesis():
    report = eliminate_parabolic_generic(ROWS["e6_p16"], PrimePower(3, 1))
    assert any("graph automorphism" in h for h in report.hypotheses)
    report = eliminate_parabolic_generic(ROWS["3d4_p1"], PrimePower(3, 1))
    assert not any("graph automorphism" in h for h in report.hypotheses)


def test_a_row_text_follows_the_whole_row():
    # both rules give 3 at q = 3, so the reports differ only where each
    # names its own rule and hypotheses, which are built once per row
    row = ROWS["e6_p16"]
    plain = row._replace(ppart_rule="q", subdegree_hypothesis=None)
    q = PrimePower(3, 1)
    for key in (row, plain, row):
        report = eliminate_parabolic_generic(key, q)
        statement = report.facts[1].statement
        assumed = [h for h in report.hypotheses if h.startswith("assumed: ")]
        if key is row:
            assert statement.startswith("tabulated |v-1|_p = gcd(2,p)q ")
            assert assumed == [f"assumed: {row.subdegree_hypothesis}"]
        else:
            assert statement.startswith("tabulated |v-1|_p = q ")
            assert assumed == []
        assert report.facts[1].values == (3, 3)


# the degrees of the Weyl groups by type (Humphreys, Reflection Groups and
# Coxeter Groups, 1990, 3.7), a type being (letter, rank)
def weyl_degrees(letter, n):
    if letter == "A":
        return range(2, n + 2)
    if letter == "B":
        return range(2, 2 * n + 1, 2)
    if letter == "D":
        return [*range(2, 2 * n - 1, 2), n]
    return {("F", 4): (2, 6, 8, 12), ("E", 6): (2, 5, 6, 8, 9, 12)}[letter, n]


def parabolic_exponents(group, levi):
    """|G:P_J| = P_W(q) / P_{W_J}(q) as sorted (n, exponent of Phi_n) pairs,
    for the Weyl group W of the type `group` and the types `levi` of the
    components of J.  P_W is the product of [d]_q over the degrees d of W,
    and [d]_q is the product of Phi_e over the divisors e > 1 of d, so
    each degree counts its divisors."""
    counts = Counter()
    for sign, types in ((1, [group]), (-1, levi)):
        for letter, n in types:
            for d in weyl_degrees(letter, n):
                for e in range(2, d + 1):
                    if d % e == 0:
                        counts[e] += sign
    assert min(counts.values()) >= 0
    return tuple(sorted((n, e) for n, e in counts.items() if e))


F4, E6 = ("F", 4), ("E", 6)


def test_untwisted_parabolic_rows_follow_from_weyl_degrees():
    """The cyclotomic exponents of the untwisted rows, and eliminate_e6's
    closed forms of |E6:P1| and |E6:P3|, follow from the Weyl group degrees,
    with J in Bourbaki labels.  The twisted rows 3d4_p1 and 2f4_p1 are left
    out: their indices come from the groups' order formulas, not from Weyl
    group degrees."""
    derived = {
        "f4_p14": parabolic_exponents(F4, [("B", 2)]),  # J = {2, 3}
        "f4_p23": parabolic_exponents(F4, [("A", 1)] * 2),  # J = {1, 4}
        "e6_p16": parabolic_exponents(E6, [("D", 4)]),  # J = {2, 3, 4, 5}
        # J = {1, 2, 4, 6}
        "e6_p35": parabolic_exponents(E6, [("A", 1), ("A", 2), ("A", 1)]),
    }
    assert derived == {key: ROWS[key].phi_exponents for key in derived}
    maximal = {"p1": parabolic_exponents(E6, [("D", 5)]),
               "p3": parabolic_exponents(E6, [("A", 1), ("A", 4)])}
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        for case, exponents in maximal.items():
            v = prod(cyclotomic(n, p**a) ** e for n, e in exponents)
            assert eliminate_e6(PrimePower(p, a), case).facts[0].values \
                == (v,), (p**a, case)


def test_flagged_candidates_satisfy_counting_identities():
    for q in prime_powers(27, 64):
        if q.p == 3 and q.a % 2 == 1 and q.a >= 3:
            for branch in flagged(eliminate_ree(q)):
                if branch.params is not None:
                    assert admissibility_violations(branch.params) == []
    for q in prime_powers(3, 32):
        for eps in (1, -1):
            for branch in flagged(eliminate_g2(q, eps)):
                if branch.params is not None:
                    v, b, r, k, lam = branch.params
                    assert r * (k - 1) == lam * (v - 1)
                    assert v * r == b * k


def test_analytic_survivors_appear_in_the_scan():
    # the scan uses only the counting constraints, so every flagged branch
    # of a case analysis must be among its candidates at the same v
    report = eliminate_ree(PrimePower(3, 3))
    v = 19684
    scanned = enumerate_candidates(v, 2, 2 * (v - 1))
    for branch in flagged(report):
        assert branch.params in scanned

    for eps_report in (eliminate_g2(PrimePower(2, 2), -1),
                       eliminate_g2(PrimePower(3, 1), -1)):
        v = eps_report.facts[0].values[0]
        scanned = enumerate_candidates(v, 2, 2 * (v - 1))
        for branch in flagged(eps_report):
            assert branch.params in scanned


@cache
def sympy_phi_coefficients(n: int) -> tuple[int, ...]:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return tuple(int(c) for c in
                 sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())


def sympy_phi(n: int, q: int) -> int:
    """The n-th cyclotomic polynomial at q, by Horner's rule on sympy's
    coefficients."""
    value = 0
    for c in sympy_phi_coefficients(n):
        value = value * q + c
    return value


def sympy_prime_powers(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(q, p, a) for every prime power q = p^a in lo..hi, by sympy."""
    sympy = pytest.importorskip("sympy")
    found = []
    for q in range(lo, hi + 1):
        factors = sympy.factorint(q)
        if len(factors) == 1:
            found.append((q, *factors.popitem()))
    return found


def g2_survivors_match_the_scan(q: int) -> None:
    # the flagged and candidate branches of both g2 reports at q are the
    # generic scan at r | 2(q^3 - eps)/gcd(2, q-1), v = q^3(q^3 + eps)/2
    for eps in (1, -1):
        modulus = 2 * (q**3 - eps) // gcd(2, q - 1)
        v = q**3 * prod(sympy_phi(n, q) for n in
                        ((2, 6) if eps == 1 else (1, 3))) // 2
        report = eliminate_g2(prime_powers(q, q)[0], eps)
        assert report.facts[0].values == (v,), (q, eps)
        survivors = sorted(b.params for b in report.branches
                           if b.verdict in ("flagged", "candidate"))
        assert survivors == enumerate_candidates(v, 2, modulus), (q, eps)


def test_g2_survivors_are_the_scan_up_to_4096():
    for q, _, _ in sympy_prime_powers(3, 4096):
        g2_survivors_match_the_scan(q)


def test_g2_survivors_are_the_scan_on_drawn_prime_powers():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # primes below 10**6, and powers of small primes, while the modulus
    # 2(q^3 - eps)/gcd(2, q-1) stays in the factorization range
    qs = st.one_of(
        st.integers(4, 10**6).map(sympy.prevprime),
        st.builds(pow, st.sampled_from([2, 3, 5, 7, 11, 13, 997]),
                  st.integers(2, 40)),
    ).filter(lambda q: 2 * (q**3 + 1) // gcd(2, q - 1) <= 10**18)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(qs)
    def check(q):
        g2_survivors_match_the_scan(q)

    check()


def test_e6_and_parabolic_reports_are_eliminated_iff_the_scan_is_empty():
    # v from sympy's cyclotomic polynomials; the modulus of e6 from its
    # subdegrees (p1) or 12*a*q*Phi_5(q) (p3), that of parabolic 2|v-1|_p
    sympy = pytest.importorskip("sympy")
    reports = []
    for q, p, a in sympy_prime_powers(2, 4096):
        pq = PrimePower(p, a)
        if q <= 1024:
            v = prod(sympy_phi(n, q) ** e
                     for n, e in ((3, 2), (6, 1), (9, 1), (12, 1)))
            d1 = q * sympy_phi(2, q) ** 2 * prod(
                sympy_phi(n, q) for n in (4, 6, 8))
            d2 = q**8 * sympy_phi(5, q) * sympy_phi(8, q)
            reports.append((eliminate_e6(pq, "p1"), v,
                            gcd(2 * d1, 2 * d2, 2 * (v - 1))))
            v = prod(sympy_phi(n, q) ** e for n, e in
                     ((2, 1), (3, 2), (4, 1), (6, 2), (8, 1), (9, 1),
                      (12, 1)))
            reports.append((eliminate_e6(pq, "p3"), v,
                            12 * a * q * sympy_phi(5, q)))
        for row in PARABOLIC_ROWS:
            if row.valid_q(pq):
                v = prod(sympy_phi(n, q) ** e for n, e in row.phi_exponents)
                reports.append((eliminate_parabolic_generic(row, pq), v,
                                2 * p ** sympy.multiplicity(p, v - 1)))
    for report, v, modulus in reports:
        where = (report.branches[0].label, report.descriptor.q.q)
        assert report.facts[0].values == (v,), where
        if report.descriptor.family.startswith("e6_"):
            assert report.facts[2].values == (modulus,), where
        scan = enumerate_candidates(v, 2, modulus)
        assert (report.verdict == "eliminated") == (not scan), where


def test_suzuki_and_ree_scan_survivors_are_flagged_or_named_kills():
    # Suzuki and Ree kill branches by non-counting facts (an overgroup's
    # index, two blocks through a point pair), so the scan at r | 2(v-1)
    # finds more than the report flags: every flagged parameter set is in
    # the scan, and every other scan candidate is killed by what the report
    # names.  v from sympy: Phi_4(q) = q^2 + 1, Phi_2(q)Phi_6(q) = q^3 + 1.
    sympy = pytest.importorskip("sympy")
    for a in range(3, 30, 2):
        q = 2**a
        report = eliminate_suzuki(PrimePower(2, a))
        v = sympy_phi(4, q)
        assert report.facts[0].values == (v,), q
        assert not flagged(report)
        scan = enumerate_candidates(v, 2, 2 * (v - 1))
        assert scan, q
        # branch r = 2^c fails on its odd k = 2^(2a+1-c) + 1 dividing r
        failing = {fact.values for fact in report.facts if not fact.ok}
        for params in scan:
            assert (params.k, params.r) in failing, (q, params)
    for a in range(3, 12, 2):
        q = 3**a
        report = eliminate_ree(PrimePower(3, a))
        v = sympy_phi(2, q) * sympy_phi(6, q)
        assert report.facts[0].values == (v,), q
        scan = enumerate_candidates(v, 2, 2 * (v - 1))
        survivors = [branch.params for branch in flagged(report)]
        assert survivors and set(survivors) <= set(scan), q
        bound = next(fact for fact in report.facts
                     if "forcing t >= a-1" in fact.statement)
        assert bound.values == (q + 3, 4 * 3 ** (a - 1)) and bound.ok, q
        for params in scan:
            if params in survivors:
                continue
            if params.r % 2:
                # outside the hypothesis the report names
                assert EVEN_R_HYPOTHESIS in report.hypotheses, (q, params)
                continue
            # r = 2*3^c and k = 3^t + 1 with t = 3a - c, where the report's
            # bound q + 3 <= 4*3^t fails
            t = 3 * a - sympy.multiplicity(3, params.r)
            assert params.r == 2 * 3 ** (3 * a - t), (q, params)
            assert params.k == 3**t + 1, (q, params)
            assert not q + 3 <= 4 * 3**t, (q, params)


def test_eliminated_branches_name_their_reason():
    for report in sweep("g2", 3, 16) + sweep("suzuki", 8, 128):
        for branch in report.branches:
            if branch.verdict == "eliminated":
                assert branch.reason


def test_reports_carry_even_r_hypothesis():
    for report in (eliminate_suzuki(PrimePower(2, 3)),
                   eliminate_ree(PrimePower(3, 3)),
                   eliminate_g2(PrimePower(3, 1), 1),
                   eliminate_e6(PrimePower(2, 1), "p1")):
        assert any("r is assumed even" in h for h in report.hypotheses)


def test_sweep_families():
    assert [r.descriptor.q.q for r in sweep("suzuki", 2, 128)] == [8, 32, 128]
    assert [r.descriptor.q.q for r in sweep("ree", 2, 243)] == [27, 243]
    g2 = sweep("g2", 3, 5)
    assert [(r.descriptor.q.q, r.descriptor.epsilon) for r in g2] == \
        [(3, 1), (3, -1), (4, 1), (4, -1), (5, 1), (5, -1)]
    with pytest.raises(ValueError):
        sweep("m24", 2, 8)


def assert_record(record, cls):
    assert type(record) is cls and len(record) == len(cls._fields), record


@pytest.mark.parametrize("family", elimination.FAMILIES)
def test_sweep_records_have_their_fields_and_kinds(family):
    # the records of a report are built without their classes' __new__, so
    # nothing else checks how many fields each has or what they hold
    reports = sweep(family, 2, 4096)
    assert reports
    for report in reports:
        assert_record(report, CaseReport)
        desc, hypotheses, facts, branches = report
        assert_record(desc, CaseDescriptor)
        assert type(desc.family) is str
        assert_record(desc.q, PrimePower)
        assert desc.epsilon in (None, 1, -1)
        assert desc.row is None or type(desc.row) is ParabolicRow
        assert (desc.row is not None) == (family == "parabolic")
        assert type(hypotheses) is tuple
        assert all(type(h) is str for h in hypotheses)
        assert type(facts) is tuple and type(branches) is tuple
        for fact in facts:
            assert_record(fact, Fact)
            assert type(fact.statement) is str
            assert type(fact.values) is tuple
            assert all(type(x) is int for x in fact.values), fact
            assert type(fact.ok) is bool
        for branch in branches:
            assert_record(branch, Branch)
            assert type(branch.label) is str and type(branch.reason) is str
            assert branch.verdict in ("eliminated", "flagged", "candidate")
            assert branch.reference is None or type(branch.reference) is str
            if branch.params is not None:
                assert_record(branch.params, Parameters)
                assert all(type(x) is int for x in branch.params)


@pytest.mark.parametrize("family", ["g2", "e6", "parabolic"])
def test_sweep_refuses_a_window_past_the_limit(monkeypatch, family):
    # prime_powers would test every integer of the window, so it is not
    # reached past the limit; below it, sweep lists q through the binding
    windows = []
    monkeypatch.setattr(elimination, "prime_powers",
                        lambda lo, hi: windows.append((lo, hi)) or [])
    top = 1 + WINDOW_LIMIT  # q = 2..top holds WINDOW_LIMIT integers
    assert sweep(family, -5, top) == []
    with pytest.raises(ValueError, match=f"WINDOW_LIMIT = {WINDOW_LIMIT}"):
        sweep(family, 2, top + 1)
    with pytest.raises(ValueError, match="WINDOW_LIMIT"):
        sweep(family, 2, 10**18)
    assert windows == [(-5, top)]


def test_report_json_shape():
    doc = eliminate_ree(PrimePower(3, 3)).to_dict()
    assert doc["verdict"] == "flagged"
    assert doc["descriptor"]["family"] == "ree"
    assert doc["descriptor"]["q"] == 27
    assert all(set(f) == {"statement", "values", "ok"} for f in doc["facts"])
    text = eliminate_ree(PrimePower(3, 3)).to_text()
    assert "verdict: flagged" in text
    # serializable and deterministic
    assert json.dumps(doc) == json.dumps(eliminate_ree(PrimePower(3, 3)).to_dict())


def test_golden_ree_27_json():
    expected = json.loads((GOLDEN / "ree_27.json").read_text())
    assert eliminate_ree(PrimePower(3, 3)).to_dict() == expected


def test_golden_suzuki_8_text():
    expected = (GOLDEN / "suzuki_8.txt").read_text()
    assert eliminate_suzuki(PrimePower(2, 3)).to_text() + "\n" == expected


def dumped_at_depth(doc, depth: int) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) as it reads `depth` levels
    into an indented document."""
    pad = "  " * depth
    text = json.dumps(doc, indent=2, sort_keys=True)
    return pad + text.replace("\n", "\n" + pad)


# a report list holds reports at depth 1 and their facts and branches at 3
BRANCHES = {
    "bare": Branch("m=1", "eliminated", "k = 31 exceeds r = 26"),
    "params": Branch("m=1", "candidate", "arithmetic survivor",
                     params=Parameters(2016, 8190, 130, 32, 2)),
    "reference": Branch("t=a", "flagged", "survivor",
                        reference=REE_UNITAL_REFERENCE),
    "both": Branch("t=a", "flagged", "arithmetic survivor",
                   reference=REE_UNITAL_REFERENCE,
                   params=Parameters(19684, 1024974, 1458, 28, 2)),
}


@pytest.mark.parametrize("branch", BRANCHES.values(), ids=BRANCHES.keys())
def test_branch_json_is_json_dumps(branch):
    assert _branch_json(branch) == dumped_at_depth(branch.to_dict(), 3)


FACTS = {
    "values": Fact("v = q^2 + 1", (65, -3, 10**40), True),
    "no-values": Fact("admissible tuples", (), False),
    "escapes": Fact('a "quote", a \\ backslash, q \u2264 2^\u03b1 and '
                    '\U0001d53d\tq', (0,), True),
}


@pytest.mark.parametrize("fact", FACTS.values(), ids=FACTS.keys())
def test_fact_json_is_json_dumps(fact):
    assert _fact_json(fact) == dumped_at_depth(fact.to_dict(), 3)


# a parameter scan at v = 65 with r | 128: a descriptor of a family alone,
# and a branch that carries its parameters
SCAN = CaseReport(
    CaseDescriptor("table3_scan"),
    (), (Fact("admissible tuples with v = 65, lambda = 2, r | 128", (1,),
              False),),
    (Branch("(65,416,32,5,2)", "candidate", "admissible tuple",
            params=Parameters(65, 416, 32, 5, 2)),))

# a row whose strings need every kind of escape: quotes, backslashes,
# control characters and non-ASCII, in and beyond the BMP
ESCAPES_ROW = ParabolicRow(
    'a "quote" \\ \x00\x1f\x7f', "q \u2264 2^\u03b1\n\t",
    "\U0001d53d\r\u2028", ((2, 1),), "q")

# a report's descriptor sits at depth 2, its extra at depth 3
DESCRIPTORS = {
    "suzuki": eliminate_suzuki(PrimePower(2, 3)).descriptor,
    "g2": eliminate_g2(PrimePower(3, 1), -1).descriptor,
    "parabolic": eliminate_parabolic_generic(
        ROWS["e6_p16"], PrimePower(3, 1)).descriptor,
    "table3_scan": SCAN.descriptor,
    "escapes": CaseDescriptor("odd", PrimePower(5, 2), 1, row=ESCAPES_ROW),
}


@pytest.mark.parametrize("desc", DESCRIPTORS.values(), ids=DESCRIPTORS.keys())
def test_descriptor_json_is_json_dumps(desc):
    assert "    " + _descriptor_json(desc) == dumped_at_depth(desc.to_dict(), 2)


@pytest.mark.parametrize("reports", [
    [CaseReport(CaseDescriptor("empty"), (), (), ())],
    [eliminate_ree(PrimePower(3, 3)), SCAN,
     eliminate_parabolic_generic(ROWS["e6_p16"], PrimePower(3, 1)),
     eliminate_g2(PrimePower(2, 2), -1)],
    # every g2 report ends in its lambda*v >= r^2 lemma
    sweep("g2", 3, 16),
], ids=["empty-report", "mixed", "g2"])
def test_write_json_is_json_dumps(reports):
    out = io.StringIO()
    write_json(reports, out)
    assert out.getvalue() == json.dumps(
        [r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def reference_text(report: CaseReport) -> str:
    """CaseReport.to_text written out plainly, one line at a time."""
    desc = report.descriptor
    head = "case " + desc.family
    if desc.q is not None:
        head += " q=" + str(desc.q.q)
    if desc.epsilon is not None:
        head += " eps=" + ("+" if desc.epsilon > 0 else "-")
    lines = [head]
    for hypothesis in report.hypotheses:
        lines.append("  hypothesis: " + hypothesis)
    for statement, values, ok in report.facts:
        lines.append("  [" + ("ok " if ok else "FAIL") + "] " + statement
                     + "   [" + ", ".join(str(x) for x in values) + "]")
    verdicts = set()
    for label, verdict, reason, reference, params in report.branches:
        verdicts.add(verdict)
        lines.append("  branch " + label + ": " + verdict + " -- " + reason)
        if params is not None:
            lines.append("    parameters ("
                         + ",".join(str(x) for x in params) + ")")
        if reference is not None:
            lines.append("    closed by: " + reference)
    verdict = ("candidate" if "candidate" in verdicts
               else "flagged" if "flagged" in verdicts else "eliminated")
    lines.append("  verdict: " + verdict)
    return "\n".join(lines)


@pytest.mark.parametrize("family", elimination.FAMILIES)
def test_to_text_matches_the_reference_on_a_sweep(family):
    reports = sweep(family, 2, 600)
    assert reports
    for report in reports:
        assert report.to_text() == reference_text(report)


# reports of the records above: negative values, 10**40, empty value
# tuples and text that is not ASCII, in each part a report renders
TEXT_REPORTS = {
    "scan": SCAN,
    "empty": CaseReport(CaseDescriptor("empty"), (), (), ()),
    "records": CaseReport(
        CaseDescriptor("odd", PrimePower(5, 2), -1, row=ESCAPES_ROW),
        ESCAPES_ROW[:3], tuple(FACTS.values()), tuple(BRANCHES.values())),
    "escapes": CaseReport(
        CaseDescriptor(ESCAPES_ROW.socle, PrimePower(2, 1), 1),
        (ESCAPES_ROW.stabilizer,), (FACTS["escapes"],),
        (Branch(ESCAPES_ROW.key, "flagged", ESCAPES_ROW.stabilizer,
                reference=ESCAPES_ROW.socle),)),
}


@pytest.mark.parametrize("report", TEXT_REPORTS.values(),
                         ids=TEXT_REPORTS.keys())
def test_to_text_matches_the_reference_on_records(report):
    assert report.to_text() == reference_text(report)


def test_descriptors_and_reports_hash_as_values():
    # frozen records of frozen fields: equal reports hash equal, a parabolic
    # descriptor through its row
    for build in (lambda: eliminate_g2(PrimePower(3, 1), -1),
                  lambda: eliminate_parabolic_generic(ROWS["e6_p16"],
                                                      PrimePower(3, 1))):
        report, again = build(), build()
        assert report is not again and report == again
        for obj, twin in ((report, again),
                          (report.descriptor, again.descriptor)):
            assert isinstance(obj, Hashable)
            assert hash(obj) == hash(twin)
    assert len({CaseDescriptor("empty"), CaseDescriptor("empty")}) == 1
