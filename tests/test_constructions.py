import json
import shutil
from collections import defaultdict
from itertools import chain, combinations, product

import pytest

from conftest import DATA, tool_module
from ftdesigns.constructions import (GF, catalog, catalog_names,
                                     frobenius_perm, orbit_design, pg_lines,
                                     pg_points, sl_generators)
from ftdesigns.design import Parameters
from ftdesigns.incidence import (structure_from_json, structure_to_json,
                                 verify_2design)
from ftdesigns.perm import PermutationGroup, group_from_json, orbit

S4 = PermutationGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def test_fano_complement():
    design = catalog("line2_fano_complement").design
    assert verify_2design(design).params == Parameters(7, 7, 4, 4, 2)
    # symmetric: every two blocks meet in exactly lambda points
    for b1, b2 in combinations(design.blocks, 2):
        assert len(set(b1) & set(b2)) == 2
    # complementing again gives the Fano lines: point i is the binary vector
    # of i + 1, so a triple is a line exactly when the vectors sum to zero
    lines = sorted(tuple(sorted(set(range(7)) - set(b))) for b in design.blocks)
    assert lines == [(a, b, c) for a, b, c in combinations(range(7), 3)
                     if (a + 1) ^ (b + 1) == c + 1]


def test_one_design_compares_equal_however_it_was_built():
    """A design is its points and blocks: the orbit under SL_3(2) built here
    and the catalog entry that hold the same 7 blocks are equal and hash
    alike."""
    built = orbit_design(*sl_generators(2, 3), (3, 4, 5, 6))
    bundled = catalog("line2_fano_complement").design
    assert built == bundled and hash(built) == hash(bundled)


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
    assert verify_2design(pg_lines(3)).params == Parameters(13, 13, 4, 4, 1)
    params = verify_2design(pg_lines(4)).params
    assert params == Parameters(40, 130, 13, 4, 1)
    assert params.b == gaussian_binomial(4, 2, 3)


def test_pg_line_space_lines_are_the_spans_of_point_pairs():
    # the lines of pg_lines are an orbit of SL_n(3); here they are rebuilt
    # from their definition, and the derived design from the lines
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
        lines = pg_lines(n).blocks
        assert len(lines) == len(spans)
        assert set(map(frozenset, lines)) == spans
        derived = sorted(tuple(sorted(span - {p}))
                         for span in spans for p in span)
        assert list(pg_lines(n, 3).blocks) == derived


def test_pg_lines_n6_counts():
    # an orbit of lines holds only lines, so with the line count b it is
    # every line of PG(5, 3), and with four times it every derived block
    assert verify_2design(pg_lines(6)).params == \
        Parameters(364, 11011, 121, 4, 1)
    assert verify_2design(pg_lines(6, 3)).params == \
        Parameters(364, 44044, 363, 3, 2)


def test_pg_line_space_rejects():
    with pytest.raises(ValueError, match="^n must be at least 3$"):
        pg_lines(2)
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        sl_generators(3, 1)


def reference_sl_generators(q, n):
    """The images of sl_generators(q, n) for prime q as they were computed
    over Z/qZ, by reducing each image mod q and looking it up among every
    nonzero multiple of every point."""
    points = pg_points(q, n)
    index = {tuple(s * c % q for c in pt): i
             for i, pt in enumerate(points) for s in range(1, q)}
    sign = (-1) ** (n - 1) % q
    a = [index[(x[0], (x[0] + x[1]) % q, *x[2:])] for x in points]
    w = [index[(sign * x[-1] % q, *x[:-1])] for x in points]
    return len(points), a, w


def test_sl_generators_act_as_their_matrices():
    # a adds the first coordinate to the second; w shifts the coordinates
    # up one place and the last to the first, times (-1)^(n-1)
    for q, n in [*product((2, 3, 5, 7), (2, 3, 4)), (3, 6)]:
        degree, (a, w) = sl_generators(q, n)
        assert (degree, list(a.images), list(w.images)) == \
            reference_sl_generators(q, n), (q, n)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9])
def test_sl_generators_refuses_a_q_that_is_not_prime(q):
    with pytest.raises(ValueError,
                       match=rf"^GF\(p\^k\) needs a prime p, not {q}$"):
        sl_generators(q, 2)


def field(name):
    """GF(2), GF(3), or one of the fields the catalog tool builds on."""
    return GF(int(name[2:])) if name in ("GF2", "GF3") \
        else getattr(tool_module(), name)


@pytest.mark.parametrize("name",
                         ["GF2", "GF3", "GF4", "GF5", "GF8", "GF9", "GF25"])
def test_field_axioms_hold_by_brute_force(name):
    gf = field(name)
    q, p, k, add, mul = gf.size, gf.p, gf.k, gf.add, gf.mul
    assert q == int(name[2:]) == p**k
    # the elements are base-p coefficient vectors, low degree first: the
    # prime field is 0..p-1, addition is digitwise, and x, the element p,
    # has x^k = reduction
    for a, b in product(range(q), repeat=2):
        assert add(a, b) == sum((a // p**i + b // p**i) % p * p**i
                                for i in range(k))
        if a < p and b < p:
            assert mul(a, b) == a * b % p
    if k > 1:
        assert gf.pow(p, k) == sum(r * p**i
                                   for i, r in enumerate(gf.reduction))
    for a in range(q):
        assert add(a, 0) == mul(a, 1) == a and mul(a, 0) == 0
        assert add(a, gf.neg(a)) == 0
        assert a == 0 or mul(a, gf.inv(a)) == 1
        for b in range(q):
            assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    for a, b, c in product(range(q), repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    g = gf.generator()
    assert len({gf.pow(g, i) for i in range(1, q)}) == q - 1
    assert gf.pow(g, q - 1) == 1
    # the Frobenius map x -> x^p on PG(1, q) has order k
    frob = frobenius_perm(gf, pg_points(q, 2))
    power, order = frob, 1
    while power.images != tuple(range(q + 1)):
        power, order = power * frob, order + 1
    assert order == k


def test_derived_design_pg23():
    design = pg_lines(3, 3)
    assert verify_2design(design).params == Parameters(13, 52, 12, 3, 2)


def test_derived_design_pg33():
    design = pg_lines(4, 3)
    cert = verify_2design(design)
    assert cert.params == Parameters(40, 520, 39, 3, 2)
    assert cert.params.b == 130 * 4


def test_derived_design_parameter_shape():
    for n in (3, 4):
        lines = verify_2design(pg_lines(n)).params
        derived = verify_2design(pg_lines(n, 3)).params
        assert (derived.v, derived.k, derived.lam) == \
            (lines.v, lines.k - 1, lines.k - 2)


def test_orbit_design_examples():
    design = orbit_design(S4.degree, S4.generators, {0, 1})
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
    # the base block is refused as a design file's block is, and a block of
    # every point is refused too
    for block, message in (({0}, "has fewer than 2 points"),
                           ({0, 1, 2, 3}, "has more than 3 points"),
                           ({0, 9}, "not a subset of 0..3"),
                           ([0, "a"], "has a non-integer point"),
                           ([False, 1], "has a non-integer point"),
                           (5, "is not a list")):
        with pytest.raises(ValueError, match=f"^block .* {message}$"):
            orbit_design(S4.degree, S4.generators, block)


def test_orbit_design_rejects_a_repeated_point():
    # as a set, [0, 1, 1] is the valid block {0, 1}; the repeat is corrupt
    # data and is not folded away
    with pytest.raises(ValueError, match="repeats a point"):
        orbit_design(S4.degree, S4.generators, [0, 1, 1])


def test_catalog_names_complete():
    assert catalog_names() == [
        "line10_hs", "line1_psl25", "line2_fano_complement", "line3_psl24",
        "line4_psl29", "line5_psl211", "line6_psl28", "line7_psu33",
        "line8_psl28", "line9_psu35"]


def test_catalog_unknown_name():
    with pytest.raises(ValueError, match="unknown catalog entry"):
        catalog("line11_m24")


@pytest.mark.parametrize("name", ["line1_psl25/../line2_fano_complement",
                                  "..", ".", "line1_psl25/"])
def test_catalog_names_no_path(name):
    with pytest.raises(ValueError, match="unknown catalog entry"):
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
    with pytest.raises(ValueError, match="unknown catalog entry"):
        catalog("line1_psl25")


def without(text: str, key: str) -> str:
    """The JSON object text with key dropped."""
    doc = json.loads(text)
    del doc[key]
    return json.dumps(doc)


@pytest.mark.parametrize("filename, key", [
    ("group", "degree"), ("group", "generators"), ("design", "v"),
    ("design", "blocks"),
    *[("expected.json", key) for key in ("v", "b", "r", "k", "lambda",
                                         "socle", "automorphism_group")],
    ("base_block.json", "block")])
def test_a_missing_key_is_a_value_error(monkeypatch, tmp_path, filename,
                                        key):
    """Every key a data file must hold is refused, when it is missing, as
    bad input is: by a ValueError that names it."""
    entry = tmp_path / "catalog" / "line1_psl25"
    shutil.copytree(DATA / "catalog" / "line1_psl25", entry)
    monkeypatch.setenv("FTDESIGNS_DATA", str(tmp_path))
    refused = pytest.raises(ValueError, match=f"missing key '{key}'$")
    if filename == "group":
        text = (entry / "group.json").read_text(encoding="utf-8")
        with refused:
            group_from_json(without(text, key))
    elif filename == "design":
        text = structure_to_json(catalog("line1_psl25").design, "line1_psl25")
        with refused:
            structure_from_json(without(text, key))
    else:
        path = entry / filename
        path.write_text(without(path.read_text(encoding="utf-8"), key),
                        encoding="utf-8")
        with refused:
            catalog("line1_psl25")


def test_the_two_10_point_designs_are_kept_separately():
    # same parameters, different groups acting; both bundled
    a = catalog("line3_psl24")
    b = catalog("line4_psl29")
    assert verify_2design(a.design).params == verify_2design(b.design).params
    assert a.group.order() == 120
    assert b.group.order() == 720


def test_the_two_10_point_designs_are_one_design_relabelled():
    relabel = [0, 1, 6, 8, 9, 2, 4, 3, 7, 5]
    assert sorted(tuple(sorted(relabel[x] for x in block))
                  for block in catalog("line3_psl24").design.blocks) == \
        list(catalog("line4_psl29").design.blocks)


def pair_cycles(design, point=0):
    """The cycle lengths, ascending, of the graph whose edges are the blocks
    through point less point, for a design with k = 3 and lambda = 2, where
    every other point lies on two such edges.  When a group is transitive on
    the points, the lengths are the same at every point, so they are an
    isomorphism invariant of the design."""
    adjacent = defaultdict(list)
    for block in design.blocks:
        if point in block:
            x, y = (p for p in block if p != point)
            adjacent[x].append(y)
            adjacent[y].append(x)
    assert all(len(ends) == 2 for ends in adjacent.values())

    def neighbours(xs, _):
        return chain.from_iterable(map(adjacent.get, xs))

    lengths, seen = [], set()
    for start in adjacent:
        if start not in seen:
            cycle = orbit(start, [None], neighbours)
            seen |= cycle
            lengths.append(len(cycle))
    return sorted(lengths)


def test_line6_group_has_two_more_28_point_designs():
    # the block orbits of triples under the group of line6_psl28 with 252
    # blocks; verify certifies both (tests/test_cli.py), and the 9-cycles
    # tell (0,1,21) apart from (0,1,2) and from line7_psu33's design
    group = catalog("line6_psl28").group
    line7 = catalog("line7_psu33").design
    # the group is transitive on the points, so every orbit of triples has
    # one through 0
    orbits, seen = {}, set()
    for triple in combinations(range(1, group.degree), 2):
        block = (0, *triple)
        if block not in seen:
            orbits[block] = orbit_design(group.degree, group.generators, block)
            seen.update(orbits[block].blocks)
    assert {block: design.b for block, design in orbits.items()} == {
        (0, 1, 2): 252, (0, 1, 4): 504, (0, 1, 8): 756, (0, 1, 12): 756,
        (0, 1, 20): 756, (0, 1, 21): 252}
    for block in ((0, 1, 2), (0, 1, 21)):
        assert verify_2design(orbits[block]).params == \
            Parameters(28, 252, 27, 3, 2)
    assert pair_cycles(orbits[(0, 1, 2)]) == pair_cycles(line7) == [3] * 9
    assert pair_cycles(orbits[(0, 1, 21)]) == [9] * 3
