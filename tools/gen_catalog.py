#!/usr/bin/env python3
"""Regenerate the bundled catalog data under src/ftdesigns/data/.

Every group is constructed from first principles (finite-field actions,
conjugation actions, coset/orbit actions, and structure-automorphism
searches).  Every design is stored as one base block: its orbit under the
group is the whole design.  The block is taken from a direct construction
(the least block of the Fano complement and of the biplane, whose orbits are
asserted to reproduce them) or found by an exhaustive or a seeded random
search.  Nothing is copied from external tables: each artifact
is certified with the package's own verification battery before it is
written, so a bug here fails loudly rather than producing bad data.

Projective points are labelled as in constructions.pg_points: point i of
PG(n-1, q) is the i-th vector, in lexicographic order, whose first nonzero
coordinate is 1, with the field elements encoded as in constructions.GF,
whose matrix_perm and frobenius_perm give the actions on those labels.
Matrices act on row vectors from the right.

Run from the repository root:

    PYTHONPATH=src python3 tools/gen_catalog.py [--only line6_psl28,...]

Each entry draws from its own RNG, seeded from the entry's name, so a run
with --only writes the same bytes for an entry as a full run.  Its random
elements are words in the group's generators, so the files depend only on
each entry's generators and seed: a change to how the stabilizer chain is
built moves none of them.  Every group is stored as a generating set of at
most two elements, found at write time, after the block search.  The output
directory is the package's data directory, or FTDESIGNS_DATA when that is
set:

    FTDESIGNS_DATA=/tmp/data PYTHONPATH=src python3 tools/gen_catalog.py
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ftdesigns.constructions import (GF, data_dir, frobenius_perm,
                                     matrix_perm, orbit_design, pg_points,
                                     sl_generators)
from ftdesigns.design import Parameters
from ftdesigns.incidence import (DesignError, IncidenceStructure,
                                 block_orbit, is_flag_transitive,
                                 is_point_primitive, verify_2design)
from ftdesigns.perm import (Permutation, PermutationGroup, canonical_json,
                            group_to_json, orbit)


# -- small finite fields ------------------------------------------------------

GF4 = GF(2, (1, 1))     # x^2 = x + 1
GF5 = GF(5)
GF8 = GF(2, (1, 1, 0))  # x^3 = x + 1
GF9 = GF(3, (2, 0))     # x^2 = 2
GF25 = GF(5, (2, 0))    # x^2 = 2


def transvection_mats(gf: GF, n: int) -> list[list[list[int]]]:
    """The transvections I + x*E_ij (i != j) for x in a basis of GF(q) over
    its prime field; they generate SL(n, q)."""
    g = gf.generator()
    basis = [gf.pow(g, i) for i in range(gf.k)]
    mats = []
    for i, j in itertools.permutations(range(n), 2):
        for x in basis:
            mat = [[int(a == b) for b in range(n)] for a in range(n)]
            mat[i][j] = x
            mats.append(mat)
    return mats


def psl2_gens(gf: GF) -> list[Permutation]:
    points = pg_points(gf.size, 2)
    return [matrix_perm(gf, m, points) for m in transvection_mats(gf, 2)]


# -- colored-graph automorphism search (CSP with forward checking) ------------

def find_automorphism(adj: list[int], colors: list[int],
                      prescribed: dict[int, int]) -> list[int] | None:
    """One automorphism of the colored graph on the vertices 0..len(adj)-1
    extending the prescribed partial map, or None.  adj[v] is the neighbor
    bitmask of v."""
    n = len(adj)
    deg = [adj[v].bit_count() for v in range(n)]
    base = []
    for u in range(n):
        mask = 0
        for v in range(n):
            if colors[u] == colors[v] and deg[u] == deg[v]:
                mask |= 1 << v
        base.append(mask)

    image = [-1] * n

    def place(u: int, x: int, cand: list[int]) -> list[int] | None:
        new = list(cand)
        au = adj[u]
        ax = adj[x]
        nax = ~ax
        clear = ~(1 << x)
        for w in range(n):
            if image[w] != -1 or w == u:
                continue
            m = new[w] & clear
            m &= ax if (au >> w) & 1 else nax
            if m == 0:
                return None
            new[w] = m
        return new

    def dfs(cand: list[int], placed: int) -> bool:
        if placed == n:
            return True
        best, best_count = -1, 1 << 62
        for u in range(n):
            if image[u] == -1:
                c = cand[u].bit_count()
                if c < best_count:
                    best, best_count = u, c
                    if c <= 1:
                        break
        u = best
        m = cand[u]
        while m:
            x = (m & -m).bit_length() - 1
            m &= m - 1
            image[u] = x
            nxt = place(u, x, cand)
            if nxt is not None and dfs(nxt, placed + 1):
                return True
            image[u] = -1
        return False

    cand = base
    placed = 0
    for u, x in prescribed.items():
        if not (cand[u] >> x) & 1:
            return None
        image[u] = x
        cand = place(u, x, cand)
        placed += 1
        if cand is None:
            return None
    if dfs(cand, placed):
        return list(image)
    return None


def structure_automorphism(structure: IncidenceStructure,
                           prescribed_points: dict[int, int]) -> Permutation | None:
    """Automorphism of an incidence structure moving points as prescribed,
    found on the bipartite point/block incidence graph."""
    v = structure.v
    blocks = structure.blocks
    n = v + len(blocks)
    adj = [0] * n
    for bi, block in enumerate(blocks):
        for point in block:
            adj[point] |= 1 << (v + bi)
            adj[v + bi] |= 1 << point
    colors = [0] * v + [1] * len(blocks)
    image = find_automorphism(adj, colors, dict(prescribed_points))
    if image is None:
        return None
    return Permutation(image[:v])


# -- block orbit search ---------------------------------------------------------

def certifies(group: PermutationGroup, design: IncidenceStructure,
              expected: Parameters) -> bool:
    """Whether design is a 2-design with the expected parameters on which
    group acts flag-transitively and point-primitively."""
    try:
        params = verify_2design(design).params
    except DesignError:
        return False
    return (params == expected and is_flag_transitive(group, design)
            and is_point_primitive(group, design))


def try_block(group: PermutationGroup, block, expected: Parameters):
    try:
        blocks = block_orbit(group.degree, group.generators, block,
                             limit=expected.b)
    except ValueError:
        return None
    if len(blocks) != expected.b:
        return None
    design = IncidenceStructure(group.degree, tuple(blocks))
    return design if certifies(group, design, expected) else None


def search_block_exhaustive(group, expected: Parameters):
    for block in itertools.combinations(range(group.degree), expected.k):
        if try_block(group, block, expected) is not None:
            return block
    raise RuntimeError("exhaustive block search failed")


def random_word(group: PermutationGroup, rng) -> Permutation:
    """The product of 40 generators drawn by rng.  It reads no stabilizer
    chain, so what the tool writes depends only on the generators and the
    entry's seed."""
    word = rng.choice(group.generators)
    for _ in range(39):
        word = word * rng.choice(group.generators)
    return word


def search_block_cycles(group, expected: Parameters, rng, tries=4000):
    """Randomized search: candidate blocks are unions of at most two cycles
    (plus fixed points) of random words in the generators."""
    k = expected.k
    for _ in range(tries):
        g = random_word(group, rng)
        cycles = g.cycles()
        fixed = [i for i in range(group.degree) if g(i) == i]
        candidates = []
        for cyc in cycles:
            if len(cyc) == k:
                candidates.append(cyc)
            if len(cyc) == k - 1 and fixed:
                candidates.extend(cyc + (f,) for f in fixed[:3])
        for c1, c2 in itertools.combinations(cycles, 2):
            if len(c1) + len(c2) == k:
                candidates.append(c1 + c2)
        for block in candidates:
            if try_block(group, block, expected) is not None:
                return block
    raise RuntimeError("cycle-heuristic block search failed")


# -- the action on unordered pairs ----------------------------------------------

def pair_action(n: int):
    """The index of each unordered pair from 0..n-1, in lexicographic order,
    and the map from a permutation of 0..n-1 to its action on the pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}

    def on_pairs(g: Permutation) -> Permutation:
        return Permutation([index[tuple(sorted((g(a), g(b))))]
                            for a, b in pairs])
    return index, on_pairs


# -- parity / even subgroup -----------------------------------------------------

def perm_sign(p: Permutation) -> int:
    return -1 if sum(len(c) - 1 for c in p.cycles()) % 2 else 1


def even_subgroup(group: PermutationGroup) -> PermutationGroup:
    """The even permutations of group, which has an odd generator: index 2."""
    half = group.order() // 2
    odd = [g for g in group.generators if perm_sign(g) == -1]
    if not odd:
        raise RuntimeError("no odd generator; cannot split by sign")
    h = odd[0]
    gens = [g if perm_sign(g) == 1 else g * h for g in group.generators]
    gens = [g for g in gens if not g.is_identity()]
    sub = PermutationGroup(group.degree, gens)
    pool = [h * g * h.inverse() for g in gens]
    while sub.order() < half and pool:
        extra = pool.pop(0)
        if not sub.contains(extra):
            gens.append(extra)
            sub = PermutationGroup(group.degree, gens)
    if sub.order() != half:
        raise RuntimeError(f"even subgroup has order {sub.order()}, "
                           f"expected {half}")
    return sub


# -- unitary groups -------------------------------------------------------------

def unitary_data(gf: GF):
    """Isotropic points of the hermitian form x0*cj(x2) + x1*cj(x1) + x2*cj(x0)
    on PG(2, q^2), where gf is GF(q^2), plus matrix generators of SU3(q)."""
    q = isqrt(gf.size)

    def cj(x: int) -> int:
        return gf.pow(x, q)

    points = []
    for vec in pg_points(gf.size, 3):
        x0, x1, x2 = vec
        val = gf.add(gf.add(gf.mul(x0, cj(x2)), gf.mul(x1, cj(x1))),
                     gf.mul(x2, cj(x0)))
        if val == 0:
            points.append(vec)
    assert len(points) == q**3 + 1, len(points)

    def upper(a: int) -> list[list[int]]:
        target = gf.neg(gf.mul(a, cj(a)))
        for b in range(gf.size):
            if gf.add(b, cj(b)) == target and (a != 0 or b != 0):
                return [[1, a, b], [0, 1, gf.neg(cj(a))], [0, 0, 1]]
        raise RuntimeError("no unipotent entry found")

    w = [[0, 0, 1], [0, gf.neg(1), 0], [1, 0, 0]]
    mats = [upper(0), upper(1), w]
    gen = gf.generator()
    mats.append(upper(gen))
    # torus diag(t, t^(q-1), t^(-q))
    t = gen
    mats.append([[t, 0, 0], [0, gf.pow(t, q - 1), 0],
                 [0, 0, gf.inv(gf.pow(t, q))]])
    return points, mats


def unitary_group(gf: GF, with_field_aut: bool,
                  expected_order: int) -> PermutationGroup:
    points, mats = unitary_data(gf)
    gens = [matrix_perm(gf, m, points) for m in mats]
    if with_field_aut:
        gens.append(frobenius_perm(gf, points))
    group = PermutationGroup(len(points), gens)
    assert group.order() == expected_order, (gf.size, group.order())
    return group


# -- output helpers --------------------------------------------------------------

def two_generators(group: PermutationGroup, rng) -> PermutationGroup:
    """The group on at most two generators: its own set when that is small
    enough, else the first pair of random words that generates a subgroup of
    the same order, which is then the whole group."""
    if len(group.generators) <= 2:
        return group
    for _ in range(100):
        pair = [random_word(group, rng), random_word(group, rng)]
        small = PermutationGroup(group.degree, pair)
        if small.order() == group.order():
            return small
    raise RuntimeError(f"no generating pair found for the group of degree "
                       f"{group.degree} and order {group.order()}")


def write_entry(name: str, group: PermutationGroup, expected: Parameters,
                socle: str, aut: str, rng, base_block):
    entry = data_dir() / "catalog" / name
    entry.mkdir(parents=True, exist_ok=True)
    (entry / "group.json").write_text(group_to_json(
        two_generators(group, rng), name=f"{name}_group"))
    (entry / "expected.json").write_text(canonical_json({
        "v": expected.v, "b": expected.b, "r": expected.r,
        "k": expected.k, "lambda": expected.lam,
        "socle": socle, "automorphism_group": aut,
    }))
    (entry / "base_block.json").write_text(
        canonical_json({"block": sorted(base_block)}))
    print(f"  wrote {name}: order {group.order()}, params {expected}")


# -- the ten catalog lines --------------------------------------------------------

def gen_line1(rng):
    group = PermutationGroup(6, psl2_gens(GF5))
    assert group.order() == 60
    expected = Parameters(6, 10, 5, 3, 2)
    block = search_block_exhaustive(group, expected)
    write_entry("line1_psl25", group, expected,
                "PSL(2,5) ~ PSL(2,4) ~ Alt(5)", "PSL(2,5)", rng,
                base_block=block)


def gen_line2(rng):
    gf2 = GF(2)
    points = pg_points(2, 3)
    gens = [matrix_perm(gf2, m, points) for m in transvection_mats(gf2, 3)]
    group = PermutationGroup(7, gens)
    assert group.order() == 168
    expected = Parameters(7, 7, 4, 4, 2)
    # the complements of the Fano lines: the orbit under SL_3(2) of the
    # complement of the line {0, 1, 2} of pg_points(2, 3)
    design = orbit_design(*sl_generators(2, 3), (3, 4, 5, 6))
    found = try_block(group, design.blocks[0], expected)
    assert found is not None and found.blocks == design.blocks
    write_entry("line2_fano_complement", group, expected,
                "PSL(2,7) ~ PSL(3,2)", "PSL(2,7)", rng,
                base_block=design.blocks[0])


def gen_line3(rng):
    # Sym(5) ~ PSL(2,4):2 acting on the 10 unordered pairs from 5 letters
    index, on_pairs = pair_action(5)
    five_cycle = Permutation([1, 2, 3, 4, 0])
    swap = Permutation([1, 0, 2, 3, 4])
    group = PermutationGroup(10, [on_pairs(five_cycle), on_pairs(swap)])
    assert group.order() == 120
    expected = Parameters(10, 15, 6, 4, 2)
    # blocks are the 4-cycles of the complete graph K5, as sets of 4 edges
    base = [index[(0, 1)], index[(1, 2)], index[(2, 3)], index[(0, 3)]]
    design = try_block(group, base, expected)
    assert design is not None
    write_entry("line3_psl24", group, expected,
                "PSL(2,4) ~ Alt(5)", "PSL(2,4):2", rng, base_block=base)


def gen_line4(rng):
    gens = psl2_gens(GF9)
    group = PermutationGroup(10, gens + [frobenius_perm(GF9, pg_points(9, 2))])
    assert group.order() == 720
    expected = Parameters(10, 15, 6, 4, 2)
    block = search_block_exhaustive(group, expected)
    write_entry("line4_psl29", group, expected,
                "PSL(2,9) ~ Alt(6)", "PSL(2,9):2", rng, base_block=block)


def gen_line5(rng):
    # the (11, 5, 2) biplane: translates of the quadratic residues mod 11
    residues = sorted({(x * x) % 11 for x in range(1, 11)})
    blocks = [sorted((r + i) % 11 for r in residues) for i in range(11)]
    design = IncidenceStructure.from_blocks(11, blocks)
    add1 = Permutation([(i + 1) % 11 for i in range(11)])
    mul3 = Permutation([(3 * i) % 11 for i in range(11)])
    # the full automorphism group needs one map outside the affine group:
    # prescribe 0 -> 0, 1 -> 2 (a non-residue image) and search
    mover = structure_automorphism(design, {0: 0, 1: 2})
    assert mover is not None
    group = PermutationGroup(11, [add1, mul3, mover])
    assert group.order() == 660, group.order()
    expected = Parameters(11, 11, 5, 5, 2)
    found = try_block(group, design.blocks[0], expected)
    assert found is not None and found.blocks == design.blocks
    write_entry("line5_psl211", group, expected,
                "PSL(2,11)", "PSL(2,11)", rng, base_block=design.blocks[0])


def build_pgammal2_8():
    gens = psl2_gens(GF8)
    psl = PermutationGroup(9, gens)
    assert psl.order() == 504
    full = PermutationGroup(9, gens + [frobenius_perm(GF8, pg_points(8, 2))])
    assert full.order() == 1512
    return psl, full


def gen_line6(rng):
    psl, full = build_pgammal2_8()
    # degree-28 action: conjugation on the Sylow 3-subgroups (cyclic of
    # order 9) of PSL(2,8)
    identity = Permutation.identity(9)
    cyclic = [orbit(identity, [g], lambda xs, h: [x * h for x in xs])
              for g in psl.elements()]
    sylows = {frozenset(x.images for x in sub)
              for sub in cyclic if len(sub) == 9}
    sylows = sorted(sylows, key=lambda s: sorted(s))
    assert len(sylows) == 28, len(sylows)
    index = {s: i for i, s in enumerate(sylows)}

    def conj_perm(g: Permutation) -> Permutation:
        ginv = g.inverse()
        images = []
        for s in sylows:
            imaged = frozenset((ginv * Permutation(x) * g).images for x in s)
            images.append(index[imaged])
        return Permutation(images)

    gens28 = [conj_perm(g) for g in full.generators]
    group = PermutationGroup(28, gens28)
    assert group.order() == 1512, group.order()
    expected = Parameters(28, 36, 9, 7, 2)
    block = search_block_cycles(group, expected, rng)
    write_entry("line6_psl28", group, expected,
                "PSL(2,8)", "PSL(2,8):3", rng, base_block=block)


def gen_line7(rng):
    group = unitary_group(GF9, True, 12096)
    expected = Parameters(28, 252, 27, 3, 2)
    block = search_block_exhaustive(group, expected)
    write_entry("line7_psu33", group, expected,
                "PSU(3,3)", "PSU(3,3):2", rng, base_block=block)


def gen_line8(rng):
    _, full = build_pgammal2_8()
    _, on_pairs = pair_action(9)
    group = PermutationGroup(36, [on_pairs(g) for g in full.generators])
    assert group.order() == 1512
    expected = Parameters(36, 84, 14, 6, 2)
    block = search_block_cycles(group, expected, rng, tries=2000)
    write_entry("line8_psl28", group, expected,
                "PSL(2,8)", "PSL(2,8):3", rng, base_block=block)


def gen_line9(rng):
    group = unitary_group(GF25, True, 252000)
    expected = Parameters(126, 1050, 50, 6, 2)
    block = search_block_cycles(group, expected, rng, tries=2000)
    write_entry("line9_psu35", group, expected,
                "PSU(3,5)", "PSU(3,5):2", rng, base_block=block)


# -- line 10: the Higman-Sims group on 176 points ----------------------------------

def build_witt22():
    """S(3,6,22): points of PG(2,4) plus one extra point; hexads are the
    extended lines and one PSL(3,4)-orbit of hyperovals."""
    points = pg_points(4, 3)
    index = {pt: i for i, pt in enumerate(points)}
    psl_gens = [matrix_perm(GF4, m, points) for m in transvection_mats(GF4, 3)]
    psl = PermutationGroup(21, psl_gens)
    assert psl.order() == 20160, psl.order()

    # the line x0 = 0 holds the first q + 1 = 5 points; PSL(3,4) is
    # transitive on lines
    lines = block_orbit(21, psl.generators, range(5))
    assert len(lines) == 21

    # hyperoval: conic {(1, t, t^2)} plus (0,0,1) and the nucleus (0,1,0)
    oval = {index[(1, t, GF4.mul(t, t))] for t in range(4)}
    oval |= {index[(0, 0, 1)], index[(0, 1, 0)]}
    assert len(oval) == 6
    oval_orbit = block_orbit(21, psl.generators, oval)
    assert len(oval_orbit) == 56, len(oval_orbit)

    hexads = [line + (21,) for line in lines]
    hexads += oval_orbit
    witt = IncidenceStructure.from_blocks(22, hexads)
    # Steiner property: every 3-set of points lies in exactly one hexad
    triple_count = {}
    for hexad in witt.blocks:
        for tri in itertools.combinations(hexad, 3):
            triple_count[tri] = triple_count.get(tri, 0) + 1
    assert len(triple_count) == 1540 and set(triple_count.values()) == {1}

    stab_gens22 = [Permutation(list(g.images) + [21])
                   for g in psl_gens + [frobenius_perm(GF4, points)]]
    return witt, stab_gens22


def build_m22_groups(witt, stab_gens22):
    mover = structure_automorphism(witt, {21: 0})
    assert mover is not None
    m22_2 = PermutationGroup(22, stab_gens22 + [mover])
    assert m22_2.order() == 887040, m22_2.order()
    m22 = even_subgroup(m22_2)
    return m22, m22_2


def build_hs_graph(witt):
    """The 100-vertex rank-3 graph on {star} + 22 points + 77 hexads."""
    n = 100
    adj = [0] * n

    def link(a, b):
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    for p in range(22):
        link(0, 1 + p)
    for bi, hexad in enumerate(witt.blocks):
        for p in hexad:
            link(1 + p, 23 + bi)
    for bi, hexad in enumerate(witt.blocks):
        for bj in range(bi + 1, 77):
            if not set(hexad) & set(witt.blocks[bj]):
                link(23 + bi, 23 + bj)
    degs = {adj[v].bit_count() for v in range(n)}
    assert degs == {22}, degs
    return adj


def lift_to_graph(witt, g22: Permutation) -> Permutation:
    hexad_index = {h: i for i, h in enumerate(witt.blocks)}
    images = [0] * 100
    for p in range(22):
        images[1 + p] = 1 + g22(p)
    for bi, hexad in enumerate(witt.blocks):
        imaged = tuple(sorted(g22(p) for p in hexad))
        images[23 + bi] = 23 + hexad_index[imaged]
    return Permutation(images)


def gen_line10(rng):
    witt, stab_gens22 = build_witt22()
    m22, m22_2 = build_m22_groups(witt, stab_gens22)
    print("  M22 rebuilt, order", m22.order())

    adj = build_hs_graph(witt)
    m22_lift = [lift_to_graph(witt, g) for g in m22.generators]
    odd22 = next(g for g in m22_2.generators if perm_sign(g) == -1)
    odd_lift = lift_to_graph(witt, odd22)

    colors = [0] * 100
    mover_images = find_automorphism(adj, colors, {0: 1})
    assert mover_images is not None
    mover = Permutation(mover_images)
    hs = PermutationGroup(100, m22_lift + [mover])
    if hs.order() == 2 * 44352000:
        hs = PermutationGroup(100, m22_lift + [mover * odd_lift])
    assert hs.order() == 44352000, hs.order()
    print("  HS on 100 vertices, order", hs.order())

    # one split of the vertices into two 50-point Hoffman-Singleton halves:
    # {star} + a heptad + the 42 hexads meeting it in one point
    heptad = None
    hexmasks = [sum(1 << p for p in h) for h in witt.blocks]
    for cand in itertools.combinations(range(22), 7):
        mask = sum(1 << p for p in cand)
        if all((mask & hm).bit_count() in (1, 3) for hm in hexmasks):
            heptad = cand
            break
    assert heptad is not None
    side = {0} | {1 + p for p in heptad}
    hmask = sum(1 << p for p in heptad)
    side |= {23 + bi for bi, hm in enumerate(hexmasks)
             if (hm & hmask).bit_count() == 1}
    assert len(side) == 50
    for v in side:
        assert (adj[v] & sum(1 << w for w in side)).bit_count() == 7

    def split_of(fset):
        comp = frozenset(range(100)) - fset
        return frozenset((fset, comp))

    def split_image(sp, g: Permutation):
        return split_of(frozenset(map(g, next(iter(sp)))))

    splits = orbit(split_of(frozenset(side)), hs.generators,
                   lambda sps, g: map(split_image, sps, itertools.repeat(g)))
    assert len(splits) == 176, len(splits)
    ordered = sorted(splits, key=lambda sp: sorted(sorted(h) for h in sp))
    index = {sp: i for i, sp in enumerate(ordered)}

    def action(g: Permutation) -> Permutation:
        return Permutation([index[split_image(sp, g)] for sp in ordered])

    group = PermutationGroup(176, [action(g) for g in hs.generators])
    assert group.order() == 44352000, group.order()
    assert group.subdegrees() == [1, 175]
    print("  HS on 176 splits, order", group.order())

    expected = Parameters(176, 1100, 50, 8, 2)
    block = search_block_cycles(group, expected, rng, tries=800)
    write_entry("line10_hs", group, expected, "HS", "HS", rng, base_block=block)


GENERATORS = {
    "line1_psl25": gen_line1,
    "line2_fano_complement": gen_line2,
    "line3_psl24": gen_line3,
    "line4_psl29": gen_line4,
    "line5_psl211": gen_line5,
    "line6_psl28": gen_line6,
    "line7_psu33": gen_line7,
    "line8_psl28": gen_line8,
    "line9_psu35": gen_line9,
    "line10_hs": gen_line10,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", help="comma-separated entry names")
    args = parser.parse_args()
    names = args.only.split(",") if args.only else list(GENERATORS)
    unknown = [name for name in names if name not in GENERATORS]
    if unknown:
        parser.error(f"unknown entries {', '.join(unknown)}; "
                     f"known: {', '.join(GENERATORS)}")
    for name in names:
        start = time.perf_counter()
        print(f"[{name}]")
        GENERATORS[name](random.Random(name))
        print(f"  done in {time.perf_counter() - start:.3f}s")


if __name__ == "__main__":
    main()
