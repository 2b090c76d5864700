import json
import random

import pytest

from conftest import DATA, catalog_group, fixture_group
from ftdesigns.perm import (Permutation, build_group, canonical_json,
                            group_from_json, group_to_json, load_group)


def sym4():
    return build_group(4, [[1, 2, 3, 0], [1, 0, 2, 3]])


def dihedral8():
    return build_group(4, [[1, 2, 3, 0], [3, 2, 1, 0]])


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        build_group(4, [[0, 1, 2]])


def test_permutation_composition():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q)(0) == q(p(0))
    assert (p * p.inverse()).is_identity()
    assert Permutation.from_cycles(4, [(0, 1, 2, 3)]).images == (1, 2, 3, 0)


def test_build_group_examples():
    assert sym4().order() == 24
    assert build_group(1, []).order() == 1


def test_psl2_7_order_by_exhaustive_enumeration(psl2_7):
    assert psl2_7.order() == 168
    assert len(psl2_7.elements()) == 168


def test_elements_limit(psl2_7):
    with pytest.raises(ValueError):
        psl2_7.elements(limit=167)
    assert len(psl2_7.elements(limit=168)) == 168


def test_order_examples(psu3_3):
    assert psu3_3.order() == 6048
    stab = psu3_3.stabilizer(0)
    assert stab.order() == 216
    assert 28 * 216 == 6048


def test_hs_order_and_orbit_stabilizer():
    hs = catalog_group("line10_hs")
    assert hs.order() == 44352000
    stab = hs.stabilizer(0)
    assert 176 * stab.order() == 44352000


def test_orbit():
    g = sym4()
    assert g.orbit(0) == {0, 1, 2, 3}
    triv = build_group(6, [])
    assert triv.orbit(5) == {5}
    part = build_group(3, [[1, 0, 2]])
    assert part.orbit(2) == {2}
    with pytest.raises(ValueError):
        g.orbit(9)


def test_stabilizer(psl2_7):
    assert sym4().stabilizer(0).order() == 6
    assert psl2_7.stabilizer(0).order() == 24
    triv = build_group(3, [])
    assert triv.stabilizer(0).order() == 1


def test_subdegrees(psl2_7):
    assert sym4().subdegrees(0) == [1, 3]
    assert psl2_7.subdegrees(0) == [1, 6]
    assert dihedral8().subdegrees(0) == [1, 1, 2]
    with pytest.raises(ValueError):
        build_group(3, [[1, 0, 2]]).subdegrees(0)


def test_subdegrees_sum_and_point_independence(psl2_7):
    for group in (sym4(), dihedral8(), psl2_7):
        subs = group.subdegrees(0)
        assert sum(subs) == group.degree
        assert subs == group.subdegrees(group.degree - 1)


def test_primitivity():
    assert sym4().primitivity() == (True, None)
    prim, block = dihedral8().primitivity()
    assert not prim and block == frozenset({0, 2})
    prim, block = build_group(6, [[1, 2, 3, 4, 5, 0]]).primitivity()
    assert not prim and len(block) in (2, 3)
    with pytest.raises(ValueError):
        build_group(3, [[1, 0, 2]]).primitivity()
    with pytest.raises(ValueError):
        build_group(1, []).primitivity()


def test_primitivity_witness_is_a_block():
    group = build_group(6, [[1, 2, 3, 4, 5, 0]])
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
    again = build_group(7, [list(g.images) for g in psl2_7.generators])
    assert again.base() == psl2_7.base()
    assert again.order() == psl2_7.order()


def test_fixture_orders_asserted_at_load():
    expected = {"psl2_4": 60, "psl2_8": 504, "psl2_9": 360, "psu3_3": 6048,
                "psu3_5": 126000}
    for name, order in expected.items():
        assert fixture_group(name).order() == order
    expected = {"line1_psl25": 60, "line2_fano_complement": 168,
                "line5_psl211": 660, "line10_hs": 44352000}
    for name, order in expected.items():
        assert catalog_group(name).order() == order


def test_group_json_roundtrip_is_byte_stable():
    path = DATA / "catalog" / "line2_fano_complement" / "group.json"
    text = path.read_text(encoding="utf-8")
    group = group_from_json(text)
    doc = json.loads(text)
    assert group_to_json(group, name=doc["name"],
                         expected_order=doc["expected_order"]) == text


def test_group_json_order_mismatch_rejected(tmp_path):
    doc = {"name": "bad", "degree": 4,
           "generators": [[1, 2, 3, 0]], "expected_order": 24}
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    with pytest.raises(ValueError):
        load_group(path)


def test_random_element_uniform_membership(psu3_3):
    rng = random.Random(13)
    for _ in range(20):
        assert psu3_3.contains(psu3_3.random_element(rng))
