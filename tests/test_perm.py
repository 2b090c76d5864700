import json
import random
import tracemalloc
from math import gcd

import pytest

from conftest import DATA, catalog_group, fixture_group, padded
from ftdesigns import perm as perm_module
from ftdesigns.constructions import catalog_names, sl_generators
from ftdesigns.perm import (Permutation, PermutationGroup, canonical_json,
                            group_from_json, group_to_json, load_group, orbit)


def sym4():
    return PermutationGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])


def dihedral8():
    return PermutationGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]])


def stabilizer(group, point):
    """The stabilizer of point in group, as a group of its own."""
    return PermutationGroup(group.degree, group.stabilizer_generators(point))


def orbit_partition(degree, generators):
    """The orbits on 0..degree-1, one perm.orbit walk per point, in
    ascending order of their least point."""
    orbits = {frozenset(orbit(x, generators, perm_module._images))
              for x in range(degree)}
    return sorted(map(set, orbits), key=min)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        PermutationGroup(4, [[0, 1, 2]])


def test_permutation_composition():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q)(0) == q(p(0))
    assert (p * p.inverse()).is_identity()
    # operands of different degrees have no product
    with pytest.raises(ValueError):
        Permutation([1, 2, 0]) * Permutation([4, 3, 2, 1, 0])
    with pytest.raises(ValueError):
        Permutation([4, 3, 2, 1, 0]) * Permutation([1, 2, 0])


def test_build_group_examples():
    assert sym4().order() == 24
    assert PermutationGroup(1, []).order() == 1


def test_psl2_7_order_by_exhaustive_enumeration(psl2_7):
    assert psl2_7.order() == 168
    assert len(psl2_7.elements()) == 168


def test_elements_limit(psl2_7):
    with pytest.raises(ValueError):
        psl2_7.elements(limit=167)
    assert len(psl2_7.elements(limit=168)) == 168


def test_order_examples(psu3_3):
    assert psu3_3.order() == 6048
    stab = stabilizer(psu3_3, 0)
    assert stab.order() == 216
    assert 28 * 216 == 6048


def test_hs_order_and_orbit_stabilizer():
    hs = catalog_group("line10_hs")
    assert hs.order() == 44352000
    stab = stabilizer(hs, 0)
    assert 176 * stab.order() == 44352000


def test_orbit():
    g = sym4()
    assert g.orbit(0) == {0, 1, 2, 3}
    triv = PermutationGroup(6, [])
    assert triv.orbit(5) == {5}
    part = PermutationGroup(3, [[1, 0, 2]])
    assert part.orbit(2) == {2}
    with pytest.raises(ValueError):
        g.orbit(9)


def test_orbit_reads_an_iterator_of_generators_once():
    # every breadth-first round applies every generator
    gens = [Permutation([1, 2, 3, 4, 0])]
    images = perm_module._images
    assert orbit(0, iter(gens), images) == orbit(0, gens, images) == {
        0, 1, 2, 3, 4}


def reference_orbits(degree, generators):
    """The loop _orbits had, quadratic in the number of orbits: each point
    is looked up in every orbit found so far."""
    out = []
    for point in range(degree):
        if not any(point in orb for orb in out):
            out.append(orbit(point, generators,
                             lambda xs, g: [g.images[x] for x in xs]))
    return out


def test_orbits_match_the_reference_loop():
    rng = random.Random(7)
    cases = [(0, []), (1, []), (9, []), (5, [[0, 1, 2, 3, 4]])]
    for _ in range(60):
        n = rng.randrange(1, 30)
        # generators that each permute the points of one random part, so
        # most groups are intransitive
        points = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        parts = [points[a:b] for a, b in zip([0] + cuts, cuts)]
        gens = []
        for _ in range(rng.randrange(0, 4)):
            part = rng.choice(parts)
            images = list(range(n))
            for x, y in zip(part, rng.sample(part, len(part))):
                images[x] = y
            gens.append(images)
        cases.append((n, gens))
    orbits = perm_module._orbits  # the walk behind suborbits
    for n, gens in cases:
        group = PermutationGroup(n, gens)
        assert orbits(n, group.generators) == reference_orbits(
            n, group.generators)
    # 20,000 orbits: the reference loop takes seconds here
    assert orbits(20000, []) == [{x} for x in range(20000)]


def test_stabilizer(psl2_7):
    assert stabilizer(sym4(), 0).order() == 6
    assert stabilizer(psl2_7, 0).order() == 24
    triv = PermutationGroup(3, [])
    assert stabilizer(triv, 0).order() == 1


def test_subdegrees(psl2_7):
    assert sym4().subdegrees() == [1, 3]
    assert psl2_7.subdegrees() == [1, 6]
    assert dihedral8().subdegrees() == [1, 1, 2]
    with pytest.raises(ValueError):
        PermutationGroup(3, [[1, 0, 2]]).subdegrees()


def test_subdegrees_sum_and_point_independence(psl2_7):
    for group in (sym4(), dihedral8(), psl2_7):
        subs = group.subdegrees()
        assert sum(subs) == group.degree
        for point in range(group.degree):
            assert subs == sorted(map(len, group.suborbits(point))), point


def test_primitivity():
    assert sym4().primitivity() == (True, None)
    prim, block = dihedral8().primitivity()
    assert not prim and block == frozenset({0, 2})
    prim, block = PermutationGroup(6, [[1, 2, 3, 4, 5, 0]]).primitivity()
    assert not prim and len(block) in (2, 3)
    with pytest.raises(ValueError):
        PermutationGroup(3, [[1, 0, 2]]).primitivity()
    with pytest.raises(ValueError):
        PermutationGroup(1, []).primitivity()


def test_primitivity_witness_is_a_block():
    group = PermutationGroup(6, [[1, 2, 3, 4, 5, 0]])
    _, block = group.primitivity()
    for element in group.elements():
        image = {element(x) for x in block}
        assert image == set(block) or not image & set(block)


def test_membership(psl2_7):
    rng = random.Random(5)
    gens = psl2_7.generators
    for _ in range(50):
        word = [rng.choice(gens) for _ in range(rng.randrange(1, 4))]
        product = word[0]
        for w in word[1:]:
            product = product * w
        assert psl2_7.contains(product)
    # a transposition is an odd permutation, so it lies outside PSL(2,7)
    assert not psl2_7.contains(Permutation([1, 0, 2, 3, 4, 5, 6]))


def test_generators_reconstructible_from_chain():
    for name in ("psl2_4", "psl2_8", "psu3_3"):
        group = fixture_group(name)
        for g in group.generators:
            assert group.contains(g)


def test_chain_orbit_product_is_order():
    for group in (catalog_group("line1_psl25"), fixture_group("psl2_9"),
                  catalog_group("line5_psl211")):
        product = 1
        for level in group.levels:
            product *= len(level.transversal)
        assert product == group.order() == len(group.elements())


def test_deterministic_construction(psl2_7):
    again = PermutationGroup(7, [list(g.images) for g in psl2_7.generators])
    assert again.base() == psl2_7.base()
    assert again.order() == psl2_7.order()


def test_fixture_orders_asserted_at_load():
    # the orders of PSL(2, q) and PSU(3, q), built over the fields of
    # constructions.GF
    for q in (4, 8, 9):
        assert fixture_group(f"psl2_{q}").order() == \
            q * (q * q - 1) // gcd(2, q - 1)
    for q in (3, 5):
        assert fixture_group(f"psu3_{q}").order() == \
            q**3 * (q**3 + 1) * (q * q - 1) // gcd(3, q + 1)
    expected = {"line1_psl25": 60, "line2_fano_complement": 168,
                "line5_psl211": 660, "line10_hs": 44352000}
    for name, order in expected.items():
        assert catalog_group(name).order() == order


def test_group_json_roundtrip_is_byte_stable():
    path = DATA / "catalog" / "line2_fano_complement" / "group.json"
    text = path.read_text(encoding="utf-8")
    group = group_from_json(text)
    doc = json.loads(text)
    assert group_to_json(group, name=doc["name"]) == text


def test_every_group_file_states_its_own_order():
    """group_to_json writes the group's order, and group_from_json checks
    it: the ten catalog groups, and SL_n(3) on PG(n-1, 3), which acts as
    PSL_n(3), for n = 3, 4 and 5."""
    family = [PermutationGroup(*sl_generators(3, n)) for n in (3, 4, 5)]
    assert [group.order() for group in family] == [5616, 6065280,
                                                   237783237120]
    for group in family + list(map(catalog_group, catalog_names())):
        text = group_to_json(group, "g")
        assert json.loads(text)["expected_order"] == group.order()
        assert group_from_json(text).order() == group.order()


def test_group_json_order_mismatch_rejected(tmp_path):
    doc = {"name": "bad", "degree": 4,
           "generators": [[1, 2, 3, 0]], "expected_order": 24}
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    with pytest.raises(ValueError):
        load_group(path)


@pytest.mark.parametrize("degree", [4.0, True, -1, "4"],
                         ids=["float", "bool", "negative", "text"])
def test_group_json_degree_is_a_non_negative_integer(degree):
    with pytest.raises(ValueError):
        group_from_json(json.dumps(
            {"name": "g", "degree": degree, "generators": []}))


def test_permutation_images_are_no_bools():
    # True == 1 and False == 0, so [True, False] would pass as (0 1)
    with pytest.raises(ValueError):
        Permutation([True, False])
    with pytest.raises(ValueError):
        PermutationGroup(4, [[1, 2, 3, 0], [True, False, 2, 3]])


@pytest.mark.parametrize("query, point", [
    ("orbit", True), ("stabilizer_generators", False), ("suborbits", True)])
def test_a_bool_names_no_point_of_a_group(query, point):
    # True == 1 and False == 0, but neither is read as that point
    with pytest.raises(ValueError, match=f"^point {point} is not an integer$"):
        getattr(sym4(), query)(point)


def test_load_group_memory_follows_the_file(tmp_path):
    # A 50-byte file names 3 * 10**6 points.  With no generators the chain
    # has no level, so no identity of that degree is built; building it
    # eagerly peaked at about 120 MB.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "g", "degree": 3 * 10**6,
                                "generators": []}))
    tracemalloc.start()
    try:
        group = load_group(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (group.degree, group.order()) == (3 * 10**6, 1)
    assert peak < 1_000_000


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_composition_at_small_degrees(degree):
    e = Permutation.identity(degree)
    assert (e * e).images == tuple(range(degree))
    assert e.inverse() == e
    assert e.is_identity() and (e * e).is_identity()
    if degree == 2:
        t = Permutation([1, 0])
        assert not t.is_identity()
        assert t * e == t == e * t and t.inverse() == t
        assert (t * t).images == (0, 1)


def test_degree_one_and_two_groups():
    assert PermutationGroup(1, []).elements() == {Permutation.identity(1)}
    swap = PermutationGroup(2, [[1, 0]])
    assert swap.order() == 2
    assert swap.elements() == {Permutation.identity(2), Permutation([1, 0])}
    assert swap.primitivity() == (True, None)
    assert stabilizer(swap, 1).order() == 1
    assert swap.subdegrees() == [1, 1]


# (base, transversal size per level, strong generators per level)
CATALOG_CHAINS = {
    "line1_psl25": ((1, 0, 2), [6, 5, 2], [2, 2, 1]),
    "line2_fano_complement": ((0, 1, 3), [7, 6, 4], [2, 2, 2]),
    "line3_psl24": ((0, 1, 2), [10, 6, 2], [2, 3, 1]),
    "line4_psl29": ((0, 1, 2, 4), [10, 9, 4, 2], [2, 4, 3, 1]),
    "line5_psl211": ((0, 1, 2), [11, 10, 6], [2, 3, 2]),
    "line6_psl28": ((0, 1, 4), [28, 27, 2], [2, 2, 1]),
    "line7_psu33": ((0, 1, 2, 4), [28, 27, 2, 8], [2, 3, 3, 2]),
    "line8_psl28": ((0, 1, 2), [36, 14, 3], [2, 2, 1]),
    "line9_psu35": ((0, 1, 2, 6), [126, 125, 4, 4], [2, 2, 2, 2]),
    "line10_hs": ((0, 1, 2, 3, 4, 6), [176, 175, 12, 5, 12, 2],
                  [2, 3, 4, 4, 3, 1]),
}


def test_catalog_chains_are_pinned():
    """The Schreier-Sims chain of each catalog group, as recorded once the
    levels were closed depth first, in Sims' order: a faster chain
    construction must not pick another base or transversal."""
    chains = {}
    for name in CATALOG_CHAINS:
        group = catalog_group(name)
        chains[name] = (group.base(),
                        [len(level.transversal) for level in group.levels],
                        [len(level.gens) for level in group.levels])
    assert chains == CATALOG_CHAINS


# (beta, basic orbit length, strong generators) per level, for chains that
# start with one level and gain all the others while they are closed
DEEP_CHAINS = {
    "sl_5_3": [(40, 121, 2), (13, 120, 7), (4, 117, 7), (1, 108, 8),
               (0, 81, 8), (5, 2, 4), (2, 2, 3), (41, 2, 2), (14, 2, 1)],
    "sym_12": [(0, 12, 2), (1, 11, 2), (10, 10, 9), (9, 9, 8), (8, 8, 7),
               (7, 7, 6), (6, 6, 5), (5, 5, 4), (4, 4, 3), (3, 3, 2),
               (2, 2, 1)],
}


def test_deep_chains_are_pinned():
    """SL_5(3) on the 121 points of PG(4, 3) and Sym(12) from a 12-cycle and
    a transposition: every level beyond the first is appended while the
    chain is closed depth first, and later sifts pass through it."""
    cycle = list(range(1, 12)) + [0]
    swap = [1, 0] + list(range(2, 12))
    groups = {"sl_5_3": PermutationGroup(*sl_generators(3, 5)),
              "sym_12": PermutationGroup(12, [cycle, swap])}
    chains = {name: [(level.beta, len(level.transversal), len(level.gens))
                     for level in group.levels]
              for name, group in groups.items()}
    assert chains == DEEP_CHAINS
    assert groups["sl_5_3"].order() == 237783237120
    assert groups["sym_12"].order() == 479001600


@pytest.mark.parametrize("degree", [256, 257], ids=["bytes", "tuples"])
def test_padded_catalog_chains_are_pinned(degree):
    """Fixed points added up to degree 256 (byte codes) or 257 (tuple codes)
    change no catalog chain, nor a stabilizer taken at a non-base point."""
    for name, pinned in CATALOG_CHAINS.items():
        group = catalog_group(name)
        big = PermutationGroup(degree, [padded(g.images, degree)
                                        for g in group.generators])
        assert type(big.levels[0].codes[0]) is (bytes if degree == 256
                                                 else tuple)
        assert (big.base(), [len(level.transversal) for level in big.levels],
                [len(level.gens) for level in big.levels]) == pinned, name
        point = group.degree - 1
        assert point not in group.base()
        assert [g.images for g in big.stabilizer_generators(point)] == [
            padded(g.images, degree)
            for g in group.stabilizer_generators(point)], name


def bsgs_cases():
    """The ten catalog groups at their own degree and padded to 256 and 257
    points, SL_n(3) for n = 3..5, and 300 seeded random groups, a third of
    them inside a wreath product."""
    for name in CATALOG_CHAINS:
        group = catalog_group(name)
        yield name, group
        for degree in (256, 257):
            yield f"{name}@{degree}", PermutationGroup(
                degree, [padded(g.images, degree) for g in group.generators])
    for n in (3, 4, 5):
        yield f"sl_{n}_3", PermutationGroup(*sl_generators(3, n))
    rng = random.Random(1970)
    for k in range(300):
        if k % 3:
            n = rng.randrange(2, 13)
            gens = [rng.sample(range(n), n)
                    for _ in range(rng.randrange(1, 4))]
            yield f"random {k}", PermutationGroup(n, gens)
        else:
            size, count = rng.choice(((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)))
            gens = [random_wreath_element(rng, size, count)
                    for _ in range(rng.randrange(1, 3))]
            yield f"random {k}", relabelled(rng, size * count, gens)


def test_finished_chain_is_a_bsgs():
    """Whatever order the closure inserts strong generators in, the finished
    chain is a base and strong generating set: in every level i each
    Schreier generator u_gamma * s * u_s(gamma)^-1 sifts to the identity
    from level i+1 on, and the strong generators of level 1 generate the
    whole stabilizer of the first base point."""
    cases = 0
    for name, group in bsgs_cases():
        mul = group._mul
        for i, level in enumerate(group.levels):
            for gamma, u in level.transversal.items():
                for s in level.codes:
                    schreier = mul(mul(u, s), level.inverses[s[gamma]])
                    assert group._sift(schreier, i + 1) == group._one, name
        if group.levels:
            alpha = group.base()[0]
            stab = PermutationGroup(group.degree,
                                    group.stabilizer_generators(alpha))
            assert (stab.order() * len(group.levels[0].transversal)
                    == group.order()), name
        cases += 1
    assert cases == 333


def test_base_point_stabilizer_is_read_off_the_chain(forbid_new_chains):
    """At the first base point the stabilizer generators are the chain's own,
    so subdegrees, suborbits and primitivity build no second chain."""
    answers = {}
    for name in CATALOG_CHAINS:
        group = catalog_group(name)
        alpha = group.base()[0]
        gens = group.stabilizer_generators(alpha)
        assert gens == group.levels[1].gens
        stab = stabilizer(group, alpha)
        assert stab.order() * len(group.orbit(alpha)) == group.order()
        suborbits = orbit_partition(group.degree, gens)
        answers[name] = (group, alpha, suborbits, group.primitivity())

    forbid_new_chains()
    for name, (group, alpha, suborbits, primitivity) in answers.items():
        assert group.suborbits(alpha) == suborbits, name
        assert group.subdegrees() == sorted(map(len, suborbits)), name
        assert group.primitivity() == primitivity, name


def test_a_group_with_no_chain_level_builds_no_second_chain(
        forbid_new_chains):
    """A group with no chain level is trivial and fixes every point, so its
    point stabilizers need no chain of their own."""
    groups = PermutationGroup(1, []), PermutationGroup(5, [])
    forbid_new_chains()
    assert groups[0].subdegrees() == [1]
    assert groups[1].stabilizer_generators(3) == []


def test_suborbits_partition_in_ascending_order():
    for group in oracle_groups():
        for point in range(group.degree):
            suborbits = group.suborbits(point)
            assert [min(orb) for orb in suborbits] == sorted(
                min(orb) for orb in suborbits)
            assert sorted(x for orb in suborbits for x in orb) == list(
                range(group.degree))
            assert {point} in suborbits
            assert suborbits == orbit_partition(
                group.degree, group.stabilizer_generators(point))


def reference_is_primitive(group):
    """The scan over beta = 1..n-1 from point 0, with each smallest block
    containing {0, beta} grown from the group's elements: a block must
    contain every image of itself that it meets."""
    elements = group.elements()
    for beta in range(1, group.degree):
        block = {0, beta}
        while True:
            grown = set(block)
            for element in elements:
                image = {element(x) for x in block}
                if image & block:
                    grown |= image
            if grown == block:
                break
            block = grown
        if len(block) < group.degree:
            return False
    return True


def random_wreath_element(rng, size, count):
    """A random element of S_size wr S_count on size * count points, blocks
    {b * size, ..., b * size + size - 1}."""
    outer = list(range(count))
    rng.shuffle(outer)
    images = []
    for b in range(count):
        inner = list(range(size))
        rng.shuffle(inner)
        images.extend(outer[b] * size + i for i in inner)
    return images


def relabelled(rng, degree, generators):
    relabel = list(range(degree))
    rng.shuffle(relabel)
    inverse = [0] * degree
    for i, j in enumerate(relabel):
        inverse[j] = i
    return PermutationGroup(
        degree, [[relabel[g[inverse[x]]] for x in range(degree)]
                 for g in generators])


def oracle_groups():
    rng = random.Random(31)
    groups = [sym4(), dihedral8(), catalog_group("line1_psl25"),
              PermutationGroup(6, [[1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                                   [0, 1, 4, 5, 2, 3]])]    # S2 wr S3
    for n in (4, 6, 8, 9):
        groups.append(PermutationGroup(n, [[(x + 1) % n for x in range(n)]]))
    for _ in range(40):
        n = rng.randrange(2, 7)
        gens = [rng.sample(range(n), n) for _ in range(rng.randrange(1, 3))]
        groups.append(PermutationGroup(n, gens))
    for size, count in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        for _ in range(8):
            gens = [random_wreath_element(rng, size, count)
                    for _ in range(rng.randrange(1, 3))]
            groups.append(relabelled(rng, size * count, gens))
    # the same groups with a first generator that fixes 0, so the first base
    # point, where the suborbits are taken, is not 0
    for group in list(groups):
        fixing_0 = sorted(element.images for element in group.elements()
                          if element(0) == 0 and not element.is_identity())
        if fixing_0:
            groups.append(PermutationGroup(
                group.degree, [rng.choice(fixing_0)] + [
                    g.images for g in group.generators]))
    return groups


def test_primitivity_matches_reference_scan():
    assert catalog_group("line1_psl25").base()[0] == 1
    verdicts = []
    for group in oracle_groups():
        if not group.is_transitive() or group.degree < 2:
            continue
        primitive, block = group.primitivity()
        assert primitive == reference_is_primitive(group)
        if not primitive:
            assert 0 in block and 1 < len(block) < group.degree
            for element in group.elements():
                image = {element(x) for x in block}
                assert image == block or not image & block
        verdicts.append(primitive)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


def test_stabilizer_matches_brute_force():
    for group in oracle_groups():
        elements = group.elements()
        for point in range(group.degree):
            fixing = {element for element in elements
                      if element(point) == point}
            assert stabilizer(group, point).elements() == fixing


def random_word(group, rng):
    """The product of 40 generators drawn by rng."""
    word = rng.choice(group.generators)
    for _ in range(39):
        word = word * rng.choice(group.generators)
    return word


def test_against_sympy_on_random_catalog_subgroups():
    """Each subgroup also padded with fixed points to degree 256 (byte
    codes) and 257 (tuple codes), and membership of random words in its
    generators and of random permutations, most of them outside it."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(2003)
    probe_rng = random.Random(2004)
    names = [name for name in CATALOG_CHAINS
             if name not in ("line9_psu35", "line10_hs")]
    outside = 0
    for name in names:
        group = catalog_group(name)
        point = rng.randrange(group.degree)
        stab = stabilizer(group, point)
        for gens in ([random_word(group, rng)],
                     [random_word(group, rng) for _ in range(2)],
                     [random_word(stab, rng) for _ in range(2)]):
            other = rng.randrange(group.degree)
            for degree in (group.degree, 256, 257):
                images = [padded(g.images, degree) for g in gens]
                ours = PermutationGroup(degree, images)
                theirs = combinatorics.PermutationGroup(
                    [combinatorics.Permutation(list(g)) for g in images])
                assert ours.order() == theirs.order()
                assert (orbit_partition(degree, ours.generators)
                        == sorted(map(set, theirs.orbits()), key=min))
                if ours.is_transitive():
                    assert ours.primitivity()[0] == theirs.is_primitive(
                        randomized=False)
                assert (stabilizer(ours, other).order()
                        == theirs.stabilizer(other).order())
                for _ in range(4):
                    word = ours.generators[0]
                    for _ in range(probe_rng.randrange(5)):
                        word = word * probe_rng.choice(ours.generators)
                    assert ours.contains(word)
                    assert theirs.contains(
                        combinatorics.Permutation(list(word.images)))
                    perm = padded(probe_rng.sample(range(group.degree),
                                                   group.degree), degree)
                    verdict = ours.contains(Permutation(perm))
                    assert verdict == theirs.contains(
                        combinatorics.Permutation(list(perm)))
                    outside += not verdict
    assert outside >= 100


def chain(group):
    """The chain as built: base, transversal points with their codes in
    the order found, and strong-generator images, level by level."""
    return (group.base(),
            [list(level.transversal.items()) for level in group.levels],
            [[g.images for g in level.gens] for level in group.levels])


def group_text(degree, generators, expected_order=None):
    doc = {"name": "g", "degree": degree,
           "generators": [list(g) for g in generators]}
    if expected_order is not None:
        doc["expected_order"] = expected_order
    return canonical_json(doc)


@pytest.mark.parametrize("degree", [None, 256, 257],
                         ids=["file", "bytes", "tuples"])
def test_load_group_chain_equals_build_group_chain(degree):
    """The file's expected_order is checked after the chain is built and
    changes nothing in it, as built, padded to 256 (byte codes) or 257
    (tuple codes)."""
    for name in CATALOG_CHAINS:
        group = catalog_group(name)
        n = degree or group.degree
        gens = [padded(g.images, n) for g in group.generators]
        loaded = group_from_json(group_text(n, gens, group.order()))
        assert chain(loaded) == chain(PermutationGroup(n, gens)), name


@pytest.mark.parametrize("claim", [lambda e: e // 2, lambda e: e - 1,
                                   lambda e: e + 1, lambda e: 2 * e],
                         ids=["half", "minus-1", "plus-1", "double"])
def test_wrong_order_claim_fails_with_the_true_order(claim):
    for name in CATALOG_CHAINS:
        group = catalog_group(name)
        order = group.order()
        text = group_text(group.degree, [g.images for g in group.generators],
                          claim(order))
        with pytest.raises(ValueError, match=(
                f"computed order {order} != expected {claim(order)}$")):
            group_from_json(text)


def orders_on_the_way(monkeypatch, degree, generators):
    """Every order the chain of PermutationGroup passes through."""
    seen = []
    insert = PermutationGroup._insert

    def recording(self, code, first=0):
        insert(self, code, first)
        seen.append(self.order())

    with monkeypatch.context() as patch:
        patch.setattr(PermutationGroup, "_insert", recording)
        PermutationGroup(degree, generators)
    return seen


def test_random_group_chains_against_sympy(monkeypatch):
    """The chain has sympy's order and keeps the non-identity inputs, and
    only them, on level 0; a wrong claim, also one the chain passes through
    on its way, fails with the true order."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(4202)
    passing = 0
    for _ in range(100):
        n = rng.randrange(2, 11)
        gens = [rng.sample(range(n), n) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            gens.append(list(range(n)))    # an identity among the inputs
        order = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g) for g in gens]).order()
        group = PermutationGroup(n, gens)
        assert group.order() == order
        level0 = group.levels[0].gens if group.levels else []
        assert [g.images for g in level0] == [
            tuple(g) for g in gens if g != list(range(n))]
        passed = [o for o in orders_on_the_way(monkeypatch, n, gens)
                  if o < order]
        passing += bool(passed)
        for wrong in {order // 2, order - 1, order + 1, 2 * order, *passed}:
            with pytest.raises(ValueError, match=f"computed order {order} "):
                group_from_json(group_text(n, gens, wrong))
    assert passing >= 40


def test_group_from_json_chain_ignores_the_claim(monkeypatch):
    """With or without its order in the file, the HS chain (padded to
    degree 257, so its codes are tuples) composes the same number of them:
    the claim is only compared with the order of the finished chain."""
    hs = catalog_group("line10_hs")
    gens = [padded(g.images, 257) for g in hs.generators]
    products = []
    tuple_product = perm_module._tuple_product

    def counting(a, b):
        products.append(1)
        return tuple_product(a, b)

    monkeypatch.setattr(perm_module, "_tuple_product", counting)
    group_from_json(group_text(257, gens))
    unclaimed = len(products)
    products.clear()
    group_from_json(group_text(257, gens, hs.order()))
    assert len(products) == unclaimed == 3446


@pytest.mark.parametrize("degree, generators, expected", [
    (4, [[1, 2, 3, 0], [1, 0, 2, 3]], 24.0),
    (4, [[1, 2, 3, 0], [1, 0, 2, 3]], "24"),
    (3, [], True),    # True == 1, the order of a group with no generators
], ids=["float", "text", "bool"])
def test_group_json_expected_order_is_an_integer(degree, generators,
                                                 expected):
    with pytest.raises(ValueError, match=(
            f"expected_order {expected!r} is not an integer")):
        group_from_json(group_text(degree, generators, expected))
    # with no claim at all the file loads
    assert group_from_json(group_text(degree, generators)).degree == degree


def reference_orbit(seed, generators, act, limit=None):
    """The walk orbit had: one act(x, g) call per object and generator,
    raising as soon as more than limit objects are found, the seed
    included."""
    seen = {seed}
    if limit is not None and len(seen) > limit:
        raise ValueError(f"orbit exceeds {limit} elements")
    frontier = [seed]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if limit is not None and len(seen) > limit:
                        raise ValueError(f"orbit exceeds {limit} elements")
        frontier = new
    return seen


@pytest.mark.parametrize("limit", [0, -1])
def test_orbit_counts_the_seed_against_the_limit(limit):
    # the seed alone is more than limit objects
    shift = [Permutation([1, 2, 3, 0])]
    message = f"^orbit exceeds {limit} elements$"
    with pytest.raises(ValueError, match=message):
        orbit(0, shift, perm_module._images, limit)
    with pytest.raises(ValueError, match=message):
        orbit(0, [], perm_module._images, limit)
    assert orbit(0, [], perm_module._images, 1) == {0}


def test_orbit_matches_the_per_element_walk():
    rng = random.Random(90)
    kinds = 0
    for _ in range(200):
        n = rng.randrange(1, 10)
        gens = [Permutation(rng.sample(range(n), n))
                for _ in range(rng.randrange(0, 3))]
        k = rng.randrange(1, n + 1)
        cases = [
            (rng.randrange(n), lambda x, g: g(x),
             lambda xs, g: [g(x) for x in xs]),
            (tuple(sorted(rng.sample(range(n), k))),
             lambda b, g: tuple(sorted(map(g, b))),
             lambda bs, g: [tuple(sorted(map(g, b))) for b in bs]),
        ]
        if n <= 6:    # the elements of the group, at most 720
            cases.append((Permutation.identity(n), Permutation.__mul__,
                          lambda xs, g: [x * g for x in xs]))
        for seed, act, batch in cases:
            expected = reference_orbit(seed, gens, act)
            assert orbit(seed, gens, batch) == expected
            for limit in (len(expected) - 1, len(expected),
                          rng.randrange(1, len(expected) + 1)):
                try:
                    reference_orbit(seed, gens, act, limit)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        orbit(seed, gens, batch, limit)
                    kinds += 1
                else:
                    assert orbit(seed, gens, batch, limit) == expected
    assert kinds >= 200
