from itertools import combinations

import pytest

from conftest import DATA
from ftdesigns.constructions import (catalog, catalog_names, derived_design,
                                     fano_complement, fano_plane,
                                     orbit_design, pg_line_space, pg_points)
from ftdesigns.design import Parameters
from ftdesigns.incidence import verify_2design
from ftdesigns.perm import build_group


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def test_fano_complement():
    design = fano_complement()
    assert verify_2design(design).params == Parameters(7, 7, 4, 4, 2)
    # symmetric: every two blocks meet in exactly lambda points
    for b1, b2 in combinations(design.blocks, 2):
        assert len(set(b1) & set(b2)) == 2
    # complementing again recovers the plane
    lines = sorted(tuple(sorted(set(range(7)) - set(b))) for b in design.blocks)
    assert lines == sorted(fano_plane().structure.blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pg_points(q):
    for n in range(1, 5):
        points = pg_points(q, n)
        assert len(points) == (q**n - 1) // (q - 1)
        assert all(len(pt) == n and set(pt) <= set(range(q)) for pt in points)
        assert all(next(c for c in pt if c) == 1 for pt in points)
        assert points == sorted(set(points))


def test_pg_points_fano_labels():
    # point i of PG(2, 2) is the binary vector of i + 1, the labelling that
    # the Fano lines and the line2_fano_complement group rely on
    assert [int("".join(map(str, pt)), 2) for pt in pg_points(2, 3)] == \
        list(range(1, 8))


def test_pg_line_space_counts():
    space = pg_line_space(3)
    assert space.params == Parameters(13, 13, 4, 4, 1)
    space = pg_line_space(4)
    assert space.params.v == 40
    assert space.params.b == gaussian_binomial(4, 2, 3) == 130
    assert all(len(line) == 4 for line in space.structure.blocks)


def test_pg_line_space_lines_are_the_spans_of_point_pairs():
    for n in (3, 4, 5):
        points = pg_points(3, n)
        index = {pt: i for i, pt in enumerate(points)}

        def normalized(vec):
            lead = next(c for c in vec if c)
            return tuple(c * lead % 3 for c in vec)   # 1 and 2 are self-inverse

        spans = {frozenset(index[normalized(tuple((a + s * b) % 3
                                                  for a, b in zip(u, w)))]
                           for s in (0, 1, 2)) | {index[w]}
                 for u, w in combinations(points, 2)}
        lines = pg_line_space(n).structure.blocks
        assert len(lines) == len(spans)
        assert set(map(frozenset, lines)) == spans


def test_pg_line_space_rejects():
    with pytest.raises(ValueError):
        pg_line_space(2)


def test_derived_design_pg23():
    design = derived_design(pg_line_space(3))
    assert verify_2design(design).params == Parameters(13, 52, 12, 3, 2)


def test_derived_design_fano():
    design = derived_design(fano_plane())
    cert = verify_2design(design)
    assert cert.params == Parameters(7, 21, 6, 2, 1)
    # every pair appears as a block exactly once
    assert sorted(design.blocks) == sorted(combinations(range(7), 2))


def test_derived_design_pg33():
    design = derived_design(pg_line_space(4))
    cert = verify_2design(design)
    assert cert.params == Parameters(40, 520, 39, 3, 2)
    assert cert.params.b == 130 * 4


def test_derived_design_parameter_shape():
    for n in (3, 4):
        space = pg_line_space(n)
        v, k = space.params.v, space.params.k
        derived = verify_2design(derived_design(space)).params
        assert (derived.v, derived.k, derived.lam) == (v, k - 1, k - 2)


def test_orbit_design_examples():
    s4 = build_group(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    design = orbit_design(s4, {0, 1})
    assert verify_2design(design).params == Parameters(4, 6, 3, 2, 1)

    entry = catalog("line1_psl25")
    assert verify_2design(entry.design).params == Parameters(6, 10, 5, 3, 2)

    entry = catalog("line9_psu35")
    assert entry.design.b == 1050
    assert verify_2design(entry.design).params == Parameters(126, 1050, 50, 6, 2)


def test_orbit_design_closure():
    entry = catalog("line6_psl28")
    blocks = set(entry.design.blocks)
    for g in entry.group.generators:
        imaged = {tuple(sorted(g(p) for p in blk)) for blk in blocks}
        assert imaged == blocks


def test_orbit_design_rejects():
    s4 = build_group(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    with pytest.raises(ValueError):
        orbit_design(s4, {0})
    with pytest.raises(ValueError):
        orbit_design(s4, {0, 1, 2, 3})
    with pytest.raises(ValueError):
        orbit_design(s4, {0, 9})


def test_orbit_design_rejects_a_repeated_point():
    # as a set, [0, 1, 1] is the valid block {0, 1}; the repeat is corrupt
    # data and is not folded away
    s4 = build_group(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    with pytest.raises(ValueError, match="repeats a point"):
        orbit_design(s4, [0, 1, 1])


def test_catalog_names_complete():
    assert catalog_names() == [
        "line10_hs", "line1_psl25", "line2_fano_complement", "line3_psl24",
        "line4_psl29", "line5_psl211", "line6_psl28", "line7_psu33",
        "line8_psl28", "line9_psu35"]


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("line11_m24")


@pytest.mark.parametrize("name", ["line1_psl25/../line2_fano_complement",
                                  "..", ".", "line1_psl25/"])
def test_catalog_names_no_path(name):
    with pytest.raises(KeyError, match="unknown catalog entry"):
        catalog(name)


def test_each_catalog_entry_is_a_group_a_row_and_a_base_block():
    for name in catalog_names():
        files = sorted(p.name for p in (DATA / "catalog" / name).iterdir())
        assert files == ["base_block.json", "expected.json", "group.json"]


def test_catalog_loads_groups_with_orders():
    entry = catalog("line2_fano_complement")
    assert entry.group.order() == 168
    assert entry.socle.startswith("PSL(2,7)")
    entry = catalog("line10_hs")
    assert entry.group.order() == 44352000
    assert entry.automorphism_group == "HS"


def test_data_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FTDESIGNS_DATA", str(tmp_path))
    assert catalog_names() == []
    with pytest.raises(KeyError):
        catalog("line1_psl25")


def test_the_two_10_point_designs_are_kept_separately():
    # same parameters, different groups acting; both bundled
    a = catalog("line3_psl24")
    b = catalog("line4_psl29")
    assert verify_2design(a.design).params == verify_2design(b.design).params
    assert a.group.order() == 120
    assert b.group.order() == 720
