import io
import json
from collections.abc import Hashable
from math import gcd

import pytest

from conftest import GOLDEN
from ftdesigns import elimination
from ftdesigns.arith import (PrimePower, cyclotomic_table, divisors, ppart,
                             prime_powers)
from ftdesigns.design import Parameters, admissibility_violations, \
    embeds_symmetric, enumerate_candidates
from ftdesigns.elimination import (EVEN_R_HYPOTHESIS, PARABOLIC_ROWS,
                                   REE_UNITAL_REFERENCE,
                                   SU3_STABILIZER_REFERENCE,
                                   SYMMETRIC_EMBED_REFERENCE, Branch,
                                   CaseDescriptor, CaseReport, Fact,
                                   ParabolicRow, TableDataError,
                                   TailedRecords, _branch_json,
                                   _descriptor_json, _extra_json, _fact_json,
                                   _report_json, eliminate_e6, eliminate_g2,
                                   eliminate_parabolic_generic, eliminate_ree,
                                   eliminate_suzuki, sweep, write_json)

ROWS = {row.key: row for row in PARABOLIC_ROWS}


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
    eliminate_g2 built them before it kept its lambda*v >= r^2 tail as one
    record."""
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
    for q in prime_powers(3, 4096):
        for eps in (1, -1):
            report = eliminate_g2(q, eps)
            facts, branches = reference_g2(q, eps)
            tuple_report = CaseReport(report.descriptor, report.hypotheses,
                                      facts, branches)
            where = (q.q, eps)
            assert list(report.facts) == list(facts), where
            assert list(report.branches) == list(branches), where
            assert (len(report.facts), len(report.branches)) == \
                (len(facts), len(branches)), where
            assert report.verdict == tuple_report.verdict, where
            assert report.flagged() == tuple_report.flagged(), where
            assert report.candidates() == tuple_report.candidates(), where
            # the tail is a suffix of both: the records held one by one are
            # the reference's first ones, and the rest are lambda*v >= r^2
            # kills from the first m >= 2 on
            assert isinstance(report.facts, TailedRecords), where
            head = report.branches.head
            tail = report.branches.tail
            assert report.facts.tail is tail
            assert branches[:len(head)] == head, where
            assert facts[:len(report.facts.head)] == report.facts.head, where
            assert len(facts) - len(report.facts.head) == len(tail.ms), where
            assert tail.ms[0] >= 2 and all(
                b.reason.startswith("lambda*v = ")
                for b in branches[len(head):]), where


@pytest.mark.parametrize("q", [3, 4, 8, 9, 64, 243, 1024, 4096])
@pytest.mark.parametrize("eps", [1, -1])
def test_g2_report_reads_and_renders_as_its_tuples(q, eps):
    q = PrimePower.classify(q)
    report = eliminate_g2(q, eps)
    facts, branches = reference_g2(q, eps)
    tuple_report = CaseReport(report.descriptor, report.hypotheses,
                              facts, branches)
    assert report == tuple_report
    for got, want in ((report.facts, facts), (report.branches, branches)):
        assert got == want and hash(got) == hash(want)
        assert [got[i] for i in range(-len(want), len(want))] == \
            list(want + want)
        assert got[1:-1:3] == want[1:-1:3] and got[::-1] == want[::-1]
        assert got.index(want[-1]) == len(want) - 1 and want[-1] in got
        for index in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                got[index]
    assert report.to_text() == tuple_report.to_text()
    assert report.to_dict() == tuple_report.to_dict()
    assert _report_json(report) == _report_json(tuple_report)


def test_g2_tail_renders_as_its_records():
    # every g2 case to q = 4096: the bulk-rendered tail against the records
    # it expands to, each rendered on its own
    for q in prime_powers(3, 4096):
        for eps in (1, -1):
            report = eliminate_g2(q, eps)
            tuple_report = CaseReport(report.descriptor, report.hypotheses,
                                      tuple(report.facts),
                                      tuple(report.branches))
            assert report.to_text() == tuple_report.to_text(), (q.q, eps)
            assert _report_json(report) == _report_json(tuple_report), \
                (q.q, eps)


def test_g2_window_totals():
    # the benchmark's g2 window; bench/tracing.py counts these lengths
    reports = sweep("g2", 2, 4096)
    assert len(reports) == 1206
    assert sum(len(r.branches) for r in reports) == 113406
    assert sum(len(r.facts) for r in reports) == 117024
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
    for q in (2, 3, 4):
        for case in ("p1", "p3"):
            assert eliminate_e6(PrimePower.classify(q), case).verdict == \
                "eliminated"
    with pytest.raises(ValueError):
        eliminate_e6(PrimePower(2, 1), "p2")


def test_parabolic_3d4_q2():
    report = eliminate_parabolic_generic(ROWS["3d4_p1"], PrimePower(2, 1))
    assert report.verdict == "eliminated"
    v = report.facts[0].values[0]
    assert v == 2457 == (2**8 + 2**4 + 1) * (2**3 + 1)
    assert ppart(v - 1, 2) == 8


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


def test_parabolic_sweep_shares_one_cyclotomic_table_per_q(monkeypatch):
    # the sweep reads every row's cyclotomic values from one table per q;
    # a report built row by row computes its own
    tables = []

    def table(n_max, q):
        tables.append(q)
        return cyclotomic_table(n_max, q)

    monkeypatch.setattr(elimination, "cyclotomic_table", table)
    reports = iter(sweep("parabolic", 2, 4096))
    assert tables == [q.q for q in prime_powers(2, 4096)]
    for q in prime_powers(2, 4096):
        for row in PARABOLIC_ROWS:
            if row.valid_q(q):
                assert next(reports) == eliminate_parabolic_generic(row, q)
    assert next(reports, None) is None


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


def test_flagged_candidates_satisfy_counting_identities():
    for q in prime_powers(27, 64):
        if q.p == 3 and q.a % 2 == 1 and q.a >= 3:
            for branch in eliminate_ree(q).flagged():
                if branch.params is not None:
                    assert admissibility_violations(branch.params) == []
    for q in prime_powers(3, 32):
        for eps in (1, -1):
            for branch in eliminate_g2(q, eps).flagged():
                if branch.params is not None:
                    v, b, r, k, lam = branch.params.astuple()
                    assert r * (k - 1) == lam * (v - 1)
                    assert v * r == b * k


def test_analytic_survivors_appear_in_the_scan():
    # the scan uses only the counting constraints, so every flagged branch
    # of a case analysis must be among its candidates at the same v
    report = eliminate_ree(PrimePower(3, 3))
    v = 19684
    scanned = enumerate_candidates(v, 2, 2 * (v - 1))
    for branch in report.flagged():
        assert branch.params in scanned

    for eps_report in (eliminate_g2(PrimePower(2, 2), -1),
                       eliminate_g2(PrimePower(3, 1), -1)):
        v = eps_report.facts[0].values[0]
        scanned = enumerate_candidates(v, 2, 2 * (v - 1))
        for branch in eps_report.flagged():
            assert branch.params in scanned


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


# a parameter scan at v = 65 with r | 128: a descriptor with int-valued
# extras, and a branch that carries its parameters
SCAN = CaseReport(
    CaseDescriptor("table3_scan",
                   extra={"v": 65, "r_modulus": 128, "lambda": 2}),
    (), (Fact("admissible tuples with v = 65, lambda = 2, r | 128", (1,),
              False),),
    (Branch("(65,416,32,5,2)", "candidate", "admissible tuple",
            params=Parameters(65, 416, 32, 5, 2)),))

# a report's descriptor sits at depth 2, its extra at depth 3
DESCRIPTORS = {
    "suzuki": eliminate_suzuki(PrimePower(2, 3)).descriptor,
    "g2": eliminate_g2(PrimePower(3, 1), -1).descriptor,
    "parabolic": eliminate_parabolic_generic(
        ROWS["e6_p16"], PrimePower(3, 1)).descriptor,
    "table3_scan": SCAN.descriptor,
    "escapes": CaseDescriptor(
        "odd", PrimePower(5, 2), 1,
        extra={"note": 'a "quote" and q \u2264 2^\u03b1',
               "nested": {"b": [1, -2], "a": None}}),
}


@pytest.mark.parametrize("desc", DESCRIPTORS.values(), ids=DESCRIPTORS.keys())
def test_descriptor_json_is_json_dumps(desc):
    assert "    " + _descriptor_json(desc) == dumped_at_depth(desc.to_dict(), 2)


def test_extra_json_is_json_dumps_on_flat_dicts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.one_of(st.integers(), st.integers(-10**60, 10**60))
    # the whole of unicode but surrogates, which json cannot encode either
    # way; st.text() draws quotes, backslashes and control characters too
    flat = st.dictionaries(st.text(), st.one_of(st.text(), ints),
                           min_size=1, max_size=6)
    # and the int-valued extras of a parameter scan
    scan = st.fixed_dictionaries({"v": ints, "r_modulus": ints,
                                  "lambda": ints})

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(flat, scan))
    @hypothesis.example({"note": '"q" \\ \x00\x1f\x7f \u2264 \U0001d53d',
                         "\u03b1\n": -2**100})
    def check(extra):
        assert "      " + _extra_json(extra) == dumped_at_depth(extra, 3)
        desc = CaseDescriptor("x", extra=extra)
        assert "    " + _descriptor_json(desc) == \
            dumped_at_depth(desc.to_dict(), 2)

    check()


@pytest.mark.parametrize("extra", [
    {"flag": True}, {"none": None}, {"x": 1.5}, {"list": [1, "a"]},
    {"nested": {"b": [1, -2], "a": None}}, {1: "int key"}],
    ids=["bool", "none", "float", "list", "nested", "int-key"])
def test_extra_json_falls_back_to_json_dumps(extra):
    assert "      " + _extra_json(extra) == dumped_at_depth(extra, 3)


@pytest.mark.parametrize("reports", [
    [CaseReport(CaseDescriptor("empty"), (), (), ())],
    [eliminate_ree(PrimePower(3, 3)), SCAN,
     eliminate_parabolic_generic(ROWS["e6_p16"], PrimePower(3, 1)),
     eliminate_g2(PrimePower(2, 2), -1)],
], ids=["empty-report", "mixed"])
def test_write_json_is_json_dumps(reports):
    out = io.StringIO()
    write_json(reports, out)
    assert out.getvalue() == json.dumps(
        [r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def test_descriptors_and_reports_are_not_hashable():
    # a descriptor holds a dict, so hashing one always raised TypeError
    report = eliminate_g2(PrimePower(3, 1), -1)
    for obj in (report, report.descriptor, CaseDescriptor("empty")):
        assert not isinstance(obj, Hashable)
        with pytest.raises(TypeError):
            hash(obj)
    assert report == eliminate_g2(PrimePower(3, 1), -1)
