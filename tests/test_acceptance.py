"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  All comparisons are exact integer equality."""

import random
import time
from itertools import combinations
from math import gcd

from conftest import DATA, catalog_group, fixture_group
from ftdesigns.arith import PrimePower, prime_powers
from ftdesigns.cli import main as cli_main
from ftdesigns.constructions import (catalog, orbit_design, pg_lines,
                                     sl_generators)
from ftdesigns.design import Parameters, embeds_symmetric, enumerate_candidates
from ftdesigns.elimination import (PARABOLIC_ROWS, eliminate_e6, eliminate_g2,
                                   eliminate_parabolic_generic, eliminate_ree,
                                   eliminate_suzuki)
from ftdesigns.incidence import (is_flag_transitive, is_point_primitive,
                                 structure_to_json, verify_2design)
from ftdesigns.perm import PermutationGroup

CATALOG_ROWS = {
    "line1_psl25": (6, 10, 5, 3, 2),
    "line2_fano_complement": (7, 7, 4, 4, 2),
    "line3_psl24": (10, 15, 6, 4, 2),
    "line4_psl29": (10, 15, 6, 4, 2),
    "line5_psl211": (11, 11, 5, 5, 2),
    "line6_psl28": (28, 36, 9, 7, 2),
    "line7_psu33": (28, 252, 27, 3, 2),
    "line8_psl28": (36, 84, 14, 6, 2),
    "line9_psu35": (126, 1050, 50, 6, 2),
    "line10_hs": (176, 1100, 50, 8, 2),
}

def test_criterion_1_catalog_reproduction(tmp_path, capsys):
    for name, row in CATALOG_ROWS.items():
        start = time.time()
        entry = catalog(name)
        cert = verify_2design(entry.design)
        assert tuple(cert.params) == row, name
        assert tuple(entry.expected) == row, name
        assert is_flag_transitive(entry.group, entry.design), name
        assert is_point_primitive(entry.group, entry.design), name

        design_path = tmp_path / f"{name}.json"
        design_path.write_text(structure_to_json(entry.design, name=name))
        code = cli_main(["verify",
                         "--group", str(DATA / "catalog" / name / "group.json"),
                         "--design", str(design_path)])
        out = capsys.readouterr().out
        assert code == 0, name
        v, b, r, k, lam = row
        assert f"({v},{b},{r},{k},{lam}) flag-transitive point-primitive" in out
        elapsed = time.time() - start
        limit = 60.0 if name in ("line9_psu35", "line10_hs") else 10.0
        assert elapsed < limit, (name, elapsed)
    print("PASS criterion 1: all 10 catalog rows certified flag-transitive "
          "and point-primitive with exact parameters")


def test_criterion_2_infinite_family_spot_checks():
    start = time.time()
    expected_b = {3: 52, 4: 520}

    def gaussian_binomial(n, k, q):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        assert num % den == 0
        return num // den

    expected_b[5] = 4 * gaussian_binomial(5, 2, 3)
    psl_order = {}
    for n in (3, 4, 5):
        design = pg_lines(n, 3)
        cert = verify_2design(design)
        v = (3**n - 1) // 2
        assert cert.params.v == v
        assert cert.params.k == 3
        assert cert.params.lam == 2
        assert cert.params.b == expected_b[n], n
        # the two generators give all of PSL_n(3), which the paper names
        # as the flag-transitive, point-primitive group of the family
        group = PermutationGroup(*sl_generators(3, n))
        psl_order[n] = 3 ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            psl_order[n] *= 3**i - 1
        psl_order[n] //= gcd(n, 2)
        assert group.order() == psl_order[n], n
        assert is_flag_transitive(group, design), n
        assert is_point_primitive(group, design), n
    assert psl_order == {3: 5616, 4: 6065280, 5: 237783237120}
    # the same generators over GF(2) give PSL_3(2) on the Fano complement,
    # the orbit of the complement of the line {0, 1, 2}: the catalog row
    fano_complement = orbit_design(*sl_generators(2, 3), (3, 4, 5, 6))
    assert fano_complement == catalog("line2_fano_complement").design
    group = PermutationGroup(*sl_generators(2, 3))
    assert group.order() == 168
    assert is_flag_transitive(group, fano_complement)
    elapsed = time.time() - start
    assert elapsed < 30.0, elapsed
    print(f"PASS criterion 2: derived designs on (3^n-1)/2 points certify "
          f"2-(v,3,2) with b = 52, 520, {expected_b[5]}, flag-transitive "
          f"and point-primitive under PSL_n(3) ({elapsed:.1f}s)")


def test_criterion_3_case_elimination_replay():
    start = time.time()

    for a in (3, 5, 7):
        report = eliminate_suzuki(PrimePower(2, a))
        assert report.verdict == "eliminated", 2**a

    report = eliminate_ree(PrimePower(3, 3))
    q = 27
    low = next(b for b in report.branches if b.label == "t=a-1")
    high = next(b for b in report.branches if b.label == "t=a")
    assert low.verdict == "eliminated"
    assert high.verdict == "flagged"
    assert high.params == Parameters(
        q**3 + 1, 2 * q**2 * (q**2 - q + 1), 2 * q**2, q + 1, 2)

    for q in (3, 4, 5, 7, 8, 9, 16):
        qq = prime_powers(q, q)[0]
        plus = eliminate_g2(qq, 1)
        minus = eliminate_g2(qq, -1)
        assert plus.verdict == "eliminated", q
        assert minus.verdict == "flagged", q
        if q % 2 == 0:
            fact = next(f for f in plus.facts if "q^3 + 4" in f.statement)
            assert fact.values[0] == q**3 + 4 and not fact.ok
            su3 = next(b for b in minus.branches
                       if b.reference and "SU3" in b.reference)
            assert su3.params == Parameters(
                q**3 * (q**3 - 1) // 2, 2 * (q**6 - 1), 2 * (q**3 + 1),
                q**3 // 2, 2)
        else:
            m1 = next(b for b in plus.branches if b.label == "m=1")
            assert m1.verdict == "eliminated"  # k = q^3+3 exceeds r = q^3-1
            sym = next(b for b in minus.branches
                       if b.reference and "symmetric" in b.reference)
            assert sym.params == Parameters(
                q**3 * (q**3 - 1) // 2, q**3 * (q**3 + 1) // 2,
                q**3 + 1, q**3 - 1, 2)

    for q in prime_powers(2, 4):
        for case in ("p1", "p3"):
            assert eliminate_e6(q, case).verdict == "eliminated", (q, case)

    elapsed = time.time() - start
    assert elapsed < 10.0, elapsed
    print(f"PASS criterion 3: Suzuki/Ree/G2/E6 case replays match the "
          f"expected branch verdicts ({elapsed:.1f}s)")


def test_criterion_4_tabulated_p_parts():
    checked = 0
    for row in PARABOLIC_ROWS:
        for q in prime_powers(2, 32):
            if not row.valid_q(q):
                continue
            v = row.point_count(q)
            assert row.tabulated_ppart(q) == q.ppart(v - 1), (row.key, q.q)
            report = eliminate_parabolic_generic(row, q)
            assert report.verdict == "eliminated"
            checked += 1
    assert checked >= 60
    print(f"PASS criterion 4: tabulated |v-1|_p equals the p-part of v-1 "
          f"for {checked} (row, q) pairs with q <= 32")


def test_criterion_5_oracle_equivalence():
    start = time.time()

    # enumerate_candidates vs an independent exhaustive double loop over
    # every divisor r of the modulus and every block size k
    rng = random.Random(20240601)
    for trial in range(200):
        v = rng.randrange(4, 5001)
        lam = rng.randrange(1, 4)
        r_mod = rng.randrange(1, 2 * v)
        mine = {tuple(p) for p in enumerate_candidates(v, lam, r_mod)}
        target = lam * (v - 1)
        brute = set()
        for r in range(1, r_mod + 1):
            if r_mod % r:
                continue
            for k in range(3, v - 1):
                if r * (k - 1) != target or (v * r) % k:
                    continue
                b = v * r // k
                if v <= b and k <= r and lam * v < r * r:
                    brute.add((v, b, r, k, lam))
        assert mine == brute, (v, lam, r_mod)

    # verify_2design vs the O(v^2 * b) pair-count scan on every bundled design
    for name in CATALOG_ROWS:
        design = catalog(name).design
        params = verify_2design(design).params
        blocksets = [set(block) for block in design.blocks]
        for a, b in combinations(range(design.v), 2):
            count = sum(1 for blk in blocksets if a in blk and b in blk)
            assert count == params.lam, (name, a, b)

    # orbit-stabilizer identity on every fixture and on the catalog groups
    # of line1, line2, line5 and line10; exhaustive enumeration for the small
    # ones
    groups = [(name, fixture_group(name)) for name in
              ("psl2_4", "psl2_8", "psl2_9", "psu3_3", "psu3_5")]
    groups += [(name, catalog_group(name)) for name in
               ("line1_psl25", "line2_fano_complement", "line5_psl211",
                "line10_hs")]
    for name, group in groups:
        stab = PermutationGroup(group.degree, group.stabilizer_generators(0))
        assert len(group.orbit(0)) * stab.order() == group.order(), name
        if group.order() <= 10**4:
            assert len(group.elements()) == group.order(), name

    elapsed = time.time() - start
    print(f"PASS criterion 5: enumeration, pair-count, and orbit-stabilizer "
          f"oracles all agree ({elapsed:.1f}s)")


def test_criterion_6_symmetric_extension():
    line1 = catalog("line1_psl25")
    params = verify_2design(line1.design).params
    target = embeds_symmetric(params)
    assert target == (11, 5, 2)
    line5 = catalog("line5_psl211")
    assert tuple(verify_2design(line5.design).params) == (11, 11, 5, 5, 2)
    print("PASS criterion 6: the (6,10,5,3,2) design extends to the "
          "(11,5,2) symmetric parameters of the bundled biplane")
