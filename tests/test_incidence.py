import json
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from conftest import DATA, GOLDEN, padded
from ftdesigns.constructions import (catalog, catalog_names, orbit_design,
                                     pg_lines, sl_generators)
from ftdesigns.design import Parameters
from ftdesigns.incidence import (DesignCertificate, DesignError,
                                 GroupActionError, IncidenceStructure,
                                 block_orbit, is_automorphism_group,
                                 is_flag_transitive, is_point_primitive,
                                 structure_from_json, structure_to_json,
                                 verify_2design)
from ftdesigns.perm import (Permutation, PermutationGroup, _brief, _orbits,
                            canonical_json, group_to_json, orbit)


def pair_count_oracle(structure):
    """O(v^2 * b) scan: every pair checked against every block."""
    blocksets = [set(block) for block in structure.blocks]
    counts = set()
    for a, b in combinations(range(structure.v), 2):
        counts.add(sum(1 for blk in blocksets if a in blk and b in blk))
    return counts


def test_verify_fano_complement():
    cert = verify_2design(catalog("line2_fano_complement").design)
    assert cert.params == Parameters(7, 7, 4, 4, 2)
    assert cert.pairs_checked == 21


def test_verify_derived_pg23():
    design = pg_lines(3, 3)
    cert = verify_2design(design)
    assert cert.params == Parameters(13, 52, 12, 3, 2)
    assert pair_count_oracle(design) == {2}


def test_verify_pairs_design():
    blocks = list(combinations(range(4), 2))
    cert = verify_2design(IncidenceStructure.from_blocks(4, blocks))
    assert cert.params == Parameters(4, 6, 3, 2, 1)


def test_verify_failure_witnesses():
    with pytest.raises(DesignError) as info:
        verify_2design(IncidenceStructure.from_blocks(
            4, [(0, 1), (0, 1, 2)]))
    assert info.value.kind == "non-uniform k"

    with pytest.raises(DesignError) as info:
        verify_2design(IncidenceStructure.from_blocks(
            4, [(0, 1), (0, 2), (0, 3)]))
    assert info.value.kind == "non-uniform r"
    assert info.value.witness == 1  # first point whose count differs from r

    # uniform k and r but pair (0,2) never covered
    with pytest.raises(DesignError) as info:
        verify_2design(IncidenceStructure.from_blocks(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert info.value.kind == "non-constant lambda"


def test_verify_with_only_empty_blocks_reads_one_row():
    """With every block empty, every row is row 0's, so a huge v is
    certified at once, not row by row."""
    start = time.perf_counter()
    cert = verify_2design(IncidenceStructure(10**30, ((),)))
    assert time.perf_counter() - start < 1
    assert cert.params == Parameters(10**30, 1, 0, 0, 0)


def test_verify_memory_follows_the_blocks_not_v_squared():
    # 300 disjoint pairs on 600 points: r = 1 is uniform and lambda first
    # differs at pair (0, 2).  A list of all 179,700 point pairs would take
    # over 10 MB.
    design = IncidenceStructure.from_blocks(
        600, [(2 * i, 2 * i + 1) for i in range(300)])
    tracemalloc.start()
    try:
        with pytest.raises(DesignError) as info:
            verify_2design(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.kind, info.value.witness) == (
        "non-constant lambda", (0, 2))
    assert peak < 1_000_000


def reference_verify_2design(structure):
    """verify_2design as it was before the row count: one Counter entry per
    pair occurrence in a block, then a lazy scan over all point pairs."""
    v, blocks = structure.v, structure.blocks
    if v < 3:
        raise ValueError(f"need at least 3 points, got {v}")
    if not blocks:
        raise ValueError("need at least one block")
    k = len(blocks[0])
    for i, block in enumerate(blocks):
        if len(block) != k:
            raise DesignError(
                "non-uniform k", i,
                f"block {i} has size {len(block)}, expected {k}")
    replication = Counter(point for block in blocks for point in block)
    r = replication[0]
    for point in range(0 if r else min(replication, default=v), v):
        count = replication[point]
        if count != r:
            raise DesignError(
                "non-uniform r", point,
                f"point {point} lies in {count} blocks, point 0 in {r}")
    pair_counts = Counter()
    for block in blocks:
        for pair in combinations(block, 2):
            pair_counts[pair] += 1
    lam = pair_counts[0, 1]
    for pair in combinations(range(v), 2):
        if pair_counts[pair] != lam:
            raise DesignError(
                "non-constant lambda", pair,
                f"pair {pair} lies in {pair_counts[pair]} blocks, "
                f"pair (0, 1) in {lam}")
    return DesignCertificate(Parameters(v, len(blocks), r, k, lam))


def verify_outcome(verify, structure):
    """The certificate, or what the failure says and where."""
    try:
        return verify(structure)
    except DesignError as exc:
        return exc.kind, exc.witness, str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


def random_raw_structure(rng):
    """Sorted blocks of distinct points, put into the record directly, so
    blocks may be empty or have one point.  Blocks are random subsets, a
    block orbit under the cyclic shift (uniform r), or all k-subsets of a
    point set (a 2-design), which may leave points out; then some blocks
    may be repeated, and one dropped."""
    v = rng.randrange(1, 10)
    how = rng.randrange(4)
    if how == 0:
        blocks = [rng.sample(range(v), rng.randrange(v + 1))
                  for _ in range(rng.randrange(6))]
    elif how == 1:
        k = rng.randrange(v + 1)
        blocks = [rng.sample(range(v), k) for _ in range(rng.randrange(1, 9))]
    elif how == 2:
        k = rng.randrange(v + 1)
        blocks = [[(p + s) % v for p in base]
                  for base in (rng.sample(range(v), k)
                               for _ in range(rng.randrange(1, 3)))
                  for s in range(v)]
    else:
        support = range(v) if rng.random() < 0.7 else rng.sample(
            range(v), rng.randrange(v + 1))
        k = rng.randrange(len(support) + 1)
        blocks = [list(c) for c in combinations(sorted(support), k)]
    if blocks and rng.random() < 0.3:
        blocks += rng.sample(blocks, rng.randrange(1, len(blocks) + 1))
    if len(blocks) > 1 and rng.random() < 0.2:
        del blocks[rng.randrange(len(blocks))]
    return IncidenceStructure(v, tuple(sorted(tuple(sorted(b))
                                              for b in blocks)))


def test_verify_matches_the_pair_counter_on_random_structures():
    rng = random.Random(13)
    seen = Counter()
    for _ in range(4000):
        structure = random_raw_structure(rng)
        got = verify_outcome(verify_2design, structure)
        assert got == verify_outcome(reference_verify_2design, structure), (
            structure)
        sizes = {len(block) for block in structure.blocks}
        covered = {p for block in structure.blocks for p in block}
        seen[got[0] if type(got) is tuple else "design"] += 1
        seen["empty block"] += 0 in sizes
        seen["1-point block"] += 1 in sizes
        seen["repeated block"] += (len(set(structure.blocks))
                                   < len(structure.blocks))
        seen["point in no block"] += 0 < len(covered) < structure.v
    assert len(seen) == 9 and min(seen.values()) >= 50, seen


def swap_points(structure, rng):
    """Two blocks A and B trade a point x of A - B for one of B - A, which
    keeps k and r.  With a second point z in A - B, the pair {x, z} loses
    the block A, so some pair count moves."""
    blocks = list(structure.blocks)
    for _ in range(100):
        i, j = rng.sample(range(len(blocks)), 2)
        a, b = set(blocks[i]), set(blocks[j])
        if len(a - b) > 1:
            x, y = rng.choice(sorted(a - b)), rng.choice(sorted(b - a))
            blocks[i] = tuple(sorted(a - {x} | {y}))
            blocks[j] = tuple(sorted(b - {y} | {x}))
            return IncidenceStructure(structure.v, tuple(sorted(blocks)))
    raise AssertionError("no two blocks differ in two points")


def test_verify_matches_the_pair_counter_on_known_designs():
    rng = random.Random(17)
    designs = [pg_lines(n, 3) for n in (3, 4, 5)]
    designs += [catalog(name).design for name in catalog_names()]
    kinds = Counter()
    for design in designs:
        dropped = list(design.blocks)
        del dropped[rng.randrange(len(dropped))]
        for structure in (design, IncidenceStructure(design.v, tuple(dropped)),
                          swap_points(design, rng)):
            got = verify_outcome(verify_2design, structure)
            assert got == verify_outcome(reference_verify_2design, structure)
            kinds[got[0] if type(got) is tuple else "design"] += 1
    assert kinds == {"design": 13, "non-uniform r": 13,
                     "non-constant lambda": 13}


def test_repeated_blocks_counted_with_multiplicity():
    base = catalog("line2_fano_complement").design
    doubled = IncidenceStructure.from_blocks(7, list(base.blocks) * 2)
    cert = verify_2design(doubled)
    assert cert.params == Parameters(7, 14, 8, 4, 4)


def test_is_automorphism_group(psl2_7):
    design = catalog("line2_fano_complement").design
    assert is_automorphism_group(psl2_7, design)
    shift = PermutationGroup(7, [[1, 2, 3, 4, 5, 6, 0]])
    broken = IncidenceStructure.from_blocks(7, design.blocks[1:])
    assert not is_automorphism_group(shift, broken)
    with pytest.raises(ValueError):
        is_automorphism_group(PermutationGroup(5, []), design)


def test_pairs_design_full_symmetric_group():
    s4 = PermutationGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    design = orbit_design(s4.degree, s4.generators, {0, 1})
    assert is_automorphism_group(s4, design)
    assert is_flag_transitive(s4, design)
    assert is_point_primitive(s4, design)


def test_flag_transitivity(psl2_7):
    design = catalog("line2_fano_complement").design
    assert design.flag_count() == 28
    assert is_flag_transitive(psl2_7, design)

    trivial = PermutationGroup(4, [])
    pairs = IncidenceStructure.from_blocks(4, list(combinations(range(4), 2)))
    assert not is_flag_transitive(trivial, pairs)


def test_flag_transitivity_line6():
    entry = catalog("line6_psl28")
    assert verify_2design(entry.design).params == Parameters(28, 36, 9, 7, 2)
    assert is_flag_transitive(entry.group, entry.design)


def test_point_primitivity(psl2_7):
    assert is_point_primitive(psl2_7, catalog("line2_fano_complement").design)
    assert psl2_7.subdegrees() == [1, 6]

    d8 = PermutationGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]])
    square_pairs = orbit_design(d8.degree, d8.generators, {0, 1})
    assert not is_point_primitive(d8, square_pairs)

    entry = catalog("line7_psu33")
    assert is_point_primitive(entry.group, entry.design)


def test_flag_count_identity():
    for name in ("line2_fano_complement", "line5_psl211", "line8_psl28"):
        entry = catalog(name)
        params = verify_2design(entry.design).params
        assert entry.design.flag_count() == params.b * params.k
        assert entry.design.flag_count() == params.v * params.r


def test_structure_json_roundtrip_is_byte_stable():
    path = GOLDEN / "line2_fano_complement.json"
    text = path.read_text(encoding="utf-8")
    design = structure_from_json(text)
    assert structure_to_json(design, name=json.loads(text)["name"]) == text


def reference_structure_json(structure, name):
    return canonical_json({
        "name": name,
        "v": structure.v,
        "blocks": [list(block) for block in structure.blocks],
    })


def test_structure_json_is_canonical_json():
    """The writer writes the label it is given, the empty one too."""
    rng = random.Random(29)
    names = ["", "d", 'a "quoted" name', "back\\slash", "tab\there",
             "caf\u00e9 \u03bb=2", "astral \U0001d53d", "\x00\x1f\x7f",
             "huge \\ \"v\""]
    structures = [IncidenceStructure(5, ()),
                  IncidenceStructure(4, ((), (0,), (1, 3))),
                  IncidenceStructure(10**30, ((0, 10**30 - 1),)),
                  catalog("line2_fano_complement").design]
    for _ in range(300):
        v = rng.randrange(1, 40)
        blocks = [rng.sample(range(v), rng.randrange(v + 1))
                  for _ in range(rng.randrange(8))]
        structures.append(IncidenceStructure.from_blocks(
            v, [b for b in blocks if len(b) > 1]))
    for structure in structures:
        for name in names:
            assert structure_to_json(structure, name) == \
                reference_structure_json(structure, name)


def test_the_writers_require_a_label():
    with pytest.raises(TypeError):
        structure_to_json(catalog("line2_fano_complement").design)
    with pytest.raises(TypeError):
        group_to_json(catalog("line2_fano_complement").group)


def test_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure.from_blocks(4, [(0, 4)])
    with pytest.raises(ValueError):
        IncidenceStructure.from_blocks(4, [(2,)])
    with pytest.raises(ValueError):
        IncidenceStructure.from_blocks(4, [(1, 1, 2)])


def reference_from_blocks(v, blocks):
    """The block-by-block scan from_blocks had: the sorted blocks, or the
    error of the first bad block; a block that is no list, or whose points
    do not sort or hash, is refused by name.  A block is quoted as every
    refusal quotes it, through perm's reprlib.Repr, which cuts a long one
    short and sorts a dict's keys."""
    normalized = []
    for block in blocks:
        block_text = _brief.repr(block)
        if type(block) is not list:
            raise ValueError(f"block {block_text} is not a list")
        try:
            pts = tuple(sorted(block))
            repeats = len(set(pts)) != len(pts)
        except TypeError:
            raise ValueError(f"block {block_text} has a non-integer point")
        if repeats:
            raise ValueError(f"block {block_text} repeats a point")
        if len(pts) < 2:
            raise ValueError(f"block {block_text} has fewer than 2 points")
        if not all(type(p) is int for p in pts):
            raise ValueError(f"block {block_text} has a non-integer point")
        if pts and (pts[0] < 0 or pts[-1] >= v):
            raise ValueError(f"block {block_text} not a subset of 0..{v - 1}")
        normalized.append(pts)
    return tuple(sorted(normalized))


def outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# ways to spoil a block: each maps a list of points to a bad block
DEFECTS = [
    lambda b: b + [b[0]],                  # repeats a point
    lambda b: b[:1],                       # fewer than 2 points
    lambda b: [],
    lambda b: b[:-1] + [True],             # bool point
    lambda b: b[:-1] + [float(b[-1])],     # float point
    lambda b: b[:-1] + [1.5],
    lambda b: b[:-1] + ["a"],              # sorting raises TypeError
    lambda b: b[:-1] + [None],
    lambda b: ["a", "b"],                  # sorts, but names no point
    lambda b: [[p] for p in b],            # sorts, but does not hash
    lambda b: [b],
    lambda b: b[:-1] + [-1],               # out of range
    lambda b: b[:-1] + [10],
    lambda b: 5,                           # not a block at all
    lambda b: dict.fromkeys(b, 0),         # iterates as points, by key
    lambda b: iter(b),                     # spent by the first pass
]


def test_from_blocks_matches_the_block_by_block_scan():
    """Checked in bulk, the first bad block and its message are the same,
    also when a later block's sort raises TypeError first in bulk."""
    rng = random.Random(77)
    kinds = Counter()
    for _ in range(600):
        v = 10
        blocks = [rng.sample(range(v), rng.randrange(2, 6))
                  for _ in range(rng.randrange(1, 8))]
        for i in rng.sample(range(len(blocks)),
                            min(len(blocks), rng.choice((0, 1, 1, 2, 3)))):
            blocks[i] = rng.choice(DEFECTS)(blocks[i])
        expected = outcome(reference_from_blocks, v, blocks)
        got = outcome(lambda: IncidenceStructure.from_blocks(v, blocks))
        if isinstance(got, IncidenceStructure):
            got = got.blocks
        assert got == expected, blocks
        kinds[expected[0] if type(expected[0]) is type else "valid"] += 1
    # every bad block is refused by name, none by a bare TypeError
    assert kinds[ValueError] >= 120 and kinds[TypeError] == 0
    assert kinds["valid"] >= 50
    # an iterator of blocks is read once, and rescanned from the copy
    assert IncidenceStructure.from_blocks(
        4, iter([[3, 1], [2, 0]])).blocks == ((0, 2), (1, 3))
    with pytest.raises(ValueError, match=r"block \[0, 0\] repeats"):
        IncidenceStructure.from_blocks(4, iter([[1, 2], [0, 0]]))
    # but a block that is an iterator is refused as no list, by name
    with pytest.raises(ValueError, match=r"block <list_iter.*> is not a list"):
        IncidenceStructure.from_blocks(4, [iter([0, 1]), [0, 0]])


def test_orbit_design_refuses_a_base_block_as_from_blocks_does():
    """A bad base block is refused with the message that a design file
    holding it as its one block gets, by orbit_design and by block_orbit,
    whether the walk codes blocks as bytes (10 points) or tuples (300)."""
    rng = random.Random(78)
    cycles = {v: [Permutation([*range(1, v), 0])] for v in (10, 300)}
    for defect in DEFECTS:
        block = defect(rng.sample(range(10), rng.randrange(2, 6)))
        for v, cycle in cycles.items():
            expected = outcome(IncidenceStructure.from_blocks, v, [block])
            if isinstance(expected, IncidenceStructure):
                # the point 10 is out of range only on 10 points
                assert v == 300 and expected.blocks[0] in block_orbit(
                    v, cycle, block)
                continue
            assert expected[0] is ValueError, block
            assert outcome(orbit_design, v, cycle, block) == expected
            assert outcome(block_orbit, v, cycle, block) == expected


def test_block_orbit_checks_its_block_and_generators():
    """A point past the degree is refused on both sides of the byte rule,
    not read as a fixed point or a bad index; a block need not be a sorted
    tuple; and a generator of another degree is refused."""
    cycles = {v: [Permutation([*range(1, v), 0])] for v in (10, 300)}
    for v, block in ((10, (0, 20)), (10, (0, 300)), (300, (0, 400))):
        with pytest.raises(ValueError, match=re.escape(
                f"block {block} not a subset of 0..{v - 1}")):
            block_orbit(v, cycles[v], block)
    for v, cycle in cycles.items():
        orbit13 = block_orbit(v, cycle, (1, 3))
        assert len(orbit13) == v
        for block in ([3, 1], {1, 3}, (3, 1)):
            assert block_orbit(v, cycle, block) == orbit13
        assert block_orbit(v, iter(cycle), (1, 3)) == orbit13
        assert block_orbit(v, cycle, range(2)) == block_orbit(v, cycle, (0, 1))
    for v, degree in ((10, 12), (10, 3), (300, 301)):
        with pytest.raises(ValueError, match=re.escape(
                f"group degree {degree} != point count {v}")):
            block_orbit(v, [Permutation([*range(1, degree), 0])], (0, 1))


@pytest.mark.parametrize("v", [10.0, True, -1, "10", None],
                         ids=["float", "bool", "negative", "text", "null"])
def test_design_json_v_is_a_non_negative_integer(v):
    with pytest.raises(ValueError, match="is not a non-negative integer"):
        structure_from_json(json.dumps({"name": "d", "v": v,
                                        "blocks": [[0, 1]]}))


def reference_is_flag_transitive(group, structure):
    """The walk over every flag (point, distinct block) under the
    generators, each generator acting on blocks through a block map."""
    if not is_automorphism_group(group, structure):
        raise ValueError("group does not act on the structure")
    distinct = sorted(set(structure.blocks))
    index = {block: i for i, block in enumerate(distinct)}
    flags = [(p, bi) for bi, block in enumerate(distinct) for p in block]
    if not flags:
        return False
    block_maps = [[index[tuple(sorted(g(p) for p in block))]
                   for block in distinct] for g in group.generators]
    seen = {flags[0]}
    frontier = [flags[0]]
    while frontier:
        point, bi = frontier.pop()
        for g, block_map in zip(group.generators, block_maps):
            image = (g(point), block_map[bi])
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return len(seen) == len(flags)


def random_invariant_structure(rng):
    """A seeded random group of degree 2-8 and a union of orbits of random
    blocks.  The blocks lie in a union of point orbits, so some points may
    lie in no block; sometimes that leaves out the first base point.  A
    block orbit is sometimes taken twice."""
    n = rng.randrange(2, 9)
    gens = [rng.sample(range(n), n) for _ in range(rng.choice((0, 1, 2, 2)))]
    group = PermutationGroup(n, gens)
    point_orbits = _orbits(n, group.generators)
    base = group.base()
    if base and rng.random() < 0.3:
        kept = [orb for orb in point_orbits if base[0] not in orb]
    else:
        kept = [orb for orb in point_orbits if rng.random() < 0.6]
    support = sorted(x for orb in kept for x in orb)
    if len(support) < 2:
        support = list(range(n))
    blocks = []
    for _ in range(rng.randrange(1, 3)):
        size = rng.randrange(2, len(support) + 1)
        block = tuple(sorted(rng.sample(support, size)))
        orb = orbit(block, group.generators,
                    lambda blks, g: [tuple(sorted(g(p) for p in blk))
                                     for blk in blks])
        blocks += sorted(orb) * rng.choice((1, 1, 2))
    return group, IncidenceStructure.from_blocks(n, blocks)


def test_flag_transitivity_matches_reference_walk():
    rng = random.Random(61)
    seen = Counter()
    for _ in range(1500):
        group, structure = random_invariant_structure(rng)
        verdict = is_flag_transitive(group, structure)
        assert verdict == reference_is_flag_transitive(group, structure)
        base = group.base()
        covered = {p for block in structure.blocks for p in block}
        seen["flag-transitive"] += verdict
        seen["not flag-transitive"] += not verdict
        seen["trivial group"] += not base
        seen["intransitive"] += not group.is_transitive()
        seen["repeated blocks"] += len(set(structure.blocks)) < structure.b
        seen["point in no block"] += len(covered) < structure.v
        seen["fallback alpha, flag-transitive"] += (
            verdict and bool(base) and base[0] not in covered)
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def test_flag_transitivity_matches_reference_walk_on_catalog(
        forbid_new_chains):
    entries = {name: catalog(name) for name in catalog_names()}
    for entry in entries.values():
        assert reference_is_flag_transitive(entry.group, entry.design)
    # every catalog group is transitive, so alpha is the first base point
    # and its stabilizer is read off the group's own chain
    forbid_new_chains()
    for name, entry in entries.items():
        assert is_flag_transitive(entry.group, entry.design), name



@pytest.mark.parametrize("transitive", [False, True],
                         ids=["intransitive", "transitive"])
def test_verify_under_a_preserving_group_matches_the_full_count(transitive):
    """verify_2design given the generators that a block orbit was built
    from, against the same call without them: the same certificate, or the
    same failure kind, witness and message.  An intransitive group falls
    back to the full count, which fails: one block orbit of a group with
    more than one point orbit is no 2-design (Block's lemma).  A transitive
    group counts row 0, and when that row fails, so does the full count."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def block_orbits(draw):
        degree = draw(st.integers(4, 12))
        if transitive:
            # the degree-cycle makes the group transitive on the points
            cut, gens = degree, [list(range(1, degree)) + [0]]
        else:
            # every generator keeps 0..cut-1 and cut..degree-1 apart
            cut, gens = draw(st.integers(1, degree - 1)), []
        halves = st.tuples(st.permutations(range(cut)),
                           st.permutations(range(cut, degree)))
        gens += [low + high for low, high in draw(
            st.lists(halves, min_size=0 if transitive else 1,
                     max_size=2))]
        base = draw(st.lists(st.integers(0, degree - 1), min_size=2,
                             max_size=degree - 1, unique=True))
        return degree, gens, base

    def same_outcome(degree, gens, base):
        gens = [Permutation(g) for g in gens]
        design = orbit_design(degree, gens, base)
        assert (verify_outcome(lambda s: verify_2design(s, gens), design)
                == verify_outcome(verify_2design, design))

    if transitive:
        # the hexagon under its 6-cycle: row 0 meets 1 and 5 only, and the
        # full count names (0, 2)
        same_outcome(6, [[1, 2, 3, 4, 5, 0]], [0, 1])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(block_orbits())
    def check(drawn):
        same_outcome(*drawn)

    check()


@pytest.mark.parametrize("degree", [8, 3])
def test_verify_refuses_symmetry_of_another_degree(degree):
    # the full count would certify the design, but the generators are no
    # permutations of its points
    with pytest.raises(ValueError,
                       match=f"^group degree {degree} != point count 7$"):
        verify_2design(catalog("line2_fano_complement").design,
                       [Permutation([*range(1, degree), 0])])


def test_verify_under_the_construction_group_matches_the_full_count():
    designs = [(entry.design, entry.group.generators)
               for entry in map(catalog, catalog_names())]
    designs += [(pg_lines(n, 3), sl_generators(3, n)[1]) for n in (3, 4, 5)]
    for design, gens in designs:
        cert = verify_2design(design, gens)
        assert cert == verify_2design(design)
        assert cert.pairs_checked == design.v * (design.v - 1) // 2


def test_verify_under_a_transitive_group_counts_one_row(monkeypatch):
    entry = catalog("line10_hs")
    rows = []

    class CountingCounter(Counter):
        def __init__(self, *args):
            rows.append(1)
            super().__init__(*args)

    monkeypatch.setattr("ftdesigns.incidence.Counter", CountingCounter)
    verify_2design(entry.design, entry.group.generators)
    assert len(rows) == 1
    rows.clear()
    verify_2design(entry.design)
    assert len(rows) == entry.design.v
    # the hexagon under its 6-cycle fails at row 0, which is reported as it
    # stands, not counted again
    rows.clear()
    cycle = [Permutation([1, 2, 3, 4, 5, 0])]
    with pytest.raises(DesignError) as failure:
        verify_2design(orbit_design(6, cycle, [0, 1]), cycle)
    assert (failure.value.witness, len(rows)) == ((0, 2), 1)


def test_verify_reads_an_iterator_of_generators_once(monkeypatch):
    # the degree check must not spend the generators the row-0 shortcut
    # walks the point orbit with
    entry = catalog("line10_hs")
    rows = []

    class CountingCounter(Counter):
        def __init__(self, *args):
            rows.append(1)
            super().__init__(*args)

    monkeypatch.setattr("ftdesigns.incidence.Counter", CountingCounter)
    cert = verify_2design(entry.design, iter(entry.group.generators))
    assert len(rows) == 1
    assert cert == verify_2design(entry.design, entry.group.generators)


@pytest.fixture(scope="module")
def padded_catalog():
    """Each catalog entry's group, design and base block, with fixed points
    in no block added up to 256 points, where blocks are walked as bytes,
    and up to 257, where they are walked as tuples."""
    padded_entries = {}
    for name in catalog_names():
        entry = catalog(name)
        base_block = json.loads((DATA / "catalog" / name / "base_block.json")
                                .read_text(encoding="utf-8"))["block"]
        padded_entries[name] = {
            v: (PermutationGroup(v, [padded(g.images, v)
                                     for g in entry.group.generators]),
                IncidenceStructure(v, entry.design.blocks), base_block)
            for v in (256, 257)}
    return padded_entries


@pytest.mark.parametrize("v", [4, 300])
def test_block_orbit_counts_the_base_block_against_the_limit(v):
    # the base block alone is more than 0 blocks, on either walk
    with pytest.raises(ValueError, match="^orbit exceeds 0 elements$"):
        block_orbit(v, [], (0, 1), limit=0)
    assert block_orbit(v, [], (0, 1), limit=1) == [(0, 1)]


@pytest.mark.parametrize("name", catalog_names())
def test_byte_and_tuple_block_walks_agree(padded_catalog, name):
    """At 256 and at 257 points: the same block orbit, the same verdicts and
    the same design file apart from v.  block_orbit lists the design's
    blocks in order, and refuses to find more than limit of them.  A design
    with one block replaced or one block doubled is refused on both sides:
    the group is transitive on the blocks, so it preserves neither
    multiset."""
    seen = {}
    for v, (group, design, base_block) in padded_catalog[name].items():
        assert orbit_design(v, group.generators, base_block) == design
        assert block_orbit(v, group.generators,
                           base_block) == list(design.blocks)
        with pytest.raises(ValueError,
                           match=f"^orbit exceeds {design.b - 1} elements$"):
            block_orbit(v, group.generators, base_block, limit=design.b - 1)
        first = design.blocks[0]
        other = tuple(sorted((*first[:-1], min(set(range(v)) - set(first)))))
        replaced = IncidenceStructure(v, (other, *design.blocks[1:]))
        doubled = IncidenceStructure(v, (first, *design.blocks))
        for bad in (replaced, doubled):
            assert not is_automorphism_group(group, bad)
            with pytest.raises(GroupActionError):
                is_flag_transitive(group, bad)
        text = structure_to_json(design, name)
        seen[v] = (is_automorphism_group(group, design),
                   is_flag_transitive(group, design),
                   text.replace(f'"v": {v}\n', ""))
    assert seen[256] == seen[257]
    assert seen[256][:2] == (True, True)
