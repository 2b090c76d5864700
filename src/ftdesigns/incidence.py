"""Incidence structures and the design verification battery.

verify_2design certifies the 2-design property by direct counting: uniform
block size, uniform replication, and constant pair multiplicity over all
C(v,2) point pairs.  It indexes the blocks through each point once, then
counts the pair multiplicities one point row at a time, each row in one
C-level Counter pass over the blocks through that point.  Given generators
of a group G that preserves the blocks, it counts only the row of point 0
when G is transitive on the points: G preserves incidence, so r(x) is
constant on each G-orbit of points and lambda(x, y) on each G-orbit of
pairs (Dembowski, Finite Geometries, 1968, 2.3), and a g in G with
g(x) = 0 maps {x, y} to the pair {0, g(y)} of row 0.  The remaining
checks test a supplied permutation group against a structure:
block-multiset preservation, transitivity on flags, and primitivity on
points.  Nothing here searches for groups; it only verifies.
G is flag-transitive iff it is transitive on the points in blocks and the
stabilizer G_alpha of one of them is transitive on the blocks through alpha.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .design import Parameters
from .perm import PermutationGroup, _brief, _images, json_object, orbit


class DesignError(ValueError):
    """A uniformity check failed; .kind names it and .witness locates it."""

    def __init__(self, kind: str, witness, message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class GroupActionError(ValueError):
    """The group does not map the block multiset of a structure to itself."""


@dataclass(frozen=True)
class IncidenceStructure:
    """Point set {0..v-1} plus a multiset of blocks (sorted point tuples).

    Repeated blocks are kept and counted with multiplicity.  The block list
    is stored lexicographically sorted, which is the canonical file order.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]
    name: str | None = None

    @classmethod
    def from_blocks(cls, v: int, blocks, name: str | None = None) -> "IncidenceStructure":
        blocks = list(blocks)
        try:
            normalized = list(map(tuple, map(sorted, blocks)))
            points = chain.from_iterable(normalized)
            # a bool is an int equal to 0 or 1, but it names no point
            valid = (set(map(type, points)) <= {int}
                     and min(map(len, normalized), default=2) >= 2
                     and list(map(len, map(set, normalized)))
                     == list(map(len, normalized))
                     and min(map(itemgetter(0), normalized), default=0) >= 0
                     and max(map(itemgetter(-1), normalized), default=0) < v)
        except TypeError:
            valid = False
        if not valid:
            # the same checks block by block, to name the first bad block
            normalized = list(map(_checked_block, blocks, repeat(v)))
        return cls(v, tuple(sorted(normalized)), name)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def flag_count(self) -> int:
        return sum(len(block) for block in self.blocks)


def _checked_block(block, v: int) -> tuple[int, ...]:
    """The block as a sorted point tuple; ValueError if it is a string, a
    dict or no collection at all, repeats a point, has fewer than 2 points,
    or a point that is no integer in 0..v-1."""
    # a string or a JSON object iterates, by character or by key, but it
    # is no list of points
    if isinstance(block, (str, dict)) or not isinstance(block, Iterable):
        raise ValueError(f"block {_brief.repr(block)} is not a list")
    try:
        pts = tuple(sorted(block))
        repeats = len(set(pts)) != len(pts)
    except TypeError:
        # points that do not compare or do not hash, such as lists
        pts = repeats = None
    if pts is None:
        fault = "has a non-integer point"
    elif repeats:
        fault = "repeats a point"
    elif len(pts) < 2:
        fault = "has fewer than 2 points"
    # a bool is an int equal to 0 or 1, but it names no point
    elif not all(type(p) is int for p in pts):
        fault = "has a non-integer point"
    elif pts[0] < 0 or pts[-1] >= v:
        fault = f"not a subset of 0..{v - 1}"
    else:
        return pts
    raise ValueError(f"block {_brief.repr(block)} {fault}")


@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of verify_2design: the exact parameters plus the number of
    point pairs whose multiplicity was checked."""

    params: Parameters
    pairs_checked: int


def verify_2design(structure: IncidenceStructure,
                   symmetry=()) -> DesignCertificate:
    """Certify uniform k, uniform r, and constant pair multiplicity.

    `symmetry` holds generators of a group G, on the points 0..v-1, that the
    caller knows maps the block multiset to itself.  r and lambda are
    constant on G-orbits of points and of pairs, and a point-transitive G
    moves every pair onto a pair through 0.  So when G is transitive on the
    points, a uniform k and a row of point 0 in which every other point
    occurs lam > 0 times certify every pair.  Otherwise, and whenever that
    row fails, all v rows are counted as without `symmetry`.

    Raises DesignError naming the first violated uniformity, with a witness
    block index, point, or point pair.
    """
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

    if (symmetry and all(g.degree == v for g in symmetry)
            and len(orbit(0, symmetry, _images)) == v):
        through0 = [block for block in blocks if 0 in block]
        row = Counter(chain.from_iterable(through0))
        del row[0]
        lam = row[1]
        if lam and len(row) == v - 1 and set(row.values()) == {lam}:
            return _certificate(v, len(blocks), len(through0), k, lam)

    # Each point's blocks are indexed once, keyed by the points that lie in
    # a block, so the work is b * k for any v.  Scanning 0..v-1 for r then
    # stops within b * k + 1 steps: at the first point in no block when
    # r > 0, and at the first point in a block, which the scan starts from,
    # when r == 0.
    through = defaultdict(list)
    for block in blocks:
        for point in block:
            through[point].append(block)
    r = len(through.get(0, ()))
    for point in range(0 if r else min(through, default=v), v):
        count = len(through.get(point, ()))
        if count != r:
            raise DesignError(
                "non-uniform r", point,
                f"point {point} lies in {count} blocks, point 0 in {r}")

    # Row x counts, in one C-level pass over the blocks through x, how many
    # of them hold each other point y: the multiplicity of the pair {x, y}.
    # A row passes when all v - 1 partners of x occur, each lam times (no
    # partner at all when lam == 0).  Every earlier row passed, so a failing
    # row fails at a partner y > x, and the first such y gives the first
    # pair in combinations(range(v), 2) order whose count is not that of
    # (0, 1).  With r > 0 the rows run only once every point lies in a
    # block, so v <= b * k.
    for x in range(v):
        row = Counter(chain.from_iterable(through.get(x, ())))
        del row[x]  # a Counter ignores a missing key
        if x == 0:
            lam = row[1]
            partners = v - 1 if lam else 0
        if len(row) == partners and set(row.values()) <= {lam}:
            continue
        for y in range(x + 1, v):
            if row[y] != lam:
                raise DesignError(
                    "non-constant lambda", (x, y),
                    f"pair {(x, y)} lies in {row[y]} blocks, "
                    f"pair (0, 1) in {lam}")
    return _certificate(v, len(blocks), r, k, lam)


def _certificate(v: int, b: int, r: int, k: int,
                 lam: int) -> DesignCertificate:
    """The certificate of a 2-(v, k, lam) design with b blocks, r through
    each point: all v(v-1)/2 pairs are certified."""
    assert r * (k - 1) == lam * (v - 1) and v * r == b * k
    return DesignCertificate(Parameters(v, b, r, k, lam), v * (v - 1) // 2)


def _block_images(blocks, g):
    """The images under g of the blocks, each a sorted point tuple."""
    return map(tuple, map(sorted, map(map, repeat(g.images.__getitem__),
                                      blocks)))


def is_automorphism_group(group: PermutationGroup,
                          structure: IncidenceStructure) -> bool:
    """Whether every generator maps the block multiset to itself."""
    if group.degree != structure.v:
        raise ValueError(
            f"group degree {group.degree} != point count {structure.v}")
    reference = Counter(structure.blocks)
    for g in group.generators:
        if Counter(_block_images(structure.blocks, g)) != reference:
            return False
    return True


def is_flag_transitive(group: PermutationGroup,
                       structure: IncidenceStructure) -> bool:
    """Whether the group has a single orbit on flags (incident point-block
    pairs).

    Flags are taken over distinct blocks; repeated blocks are a single flag
    class per point since automorphisms cannot tell copies apart.  Tested
    as: transitive on the points in blocks, and G_alpha transitive on the
    blocks through alpha, the first base point if it lies in a block (so
    G_alpha is read off the chain), else the least point in a block.
    Raises GroupActionError, a ValueError, if the group does not preserve
    the block multiset.
    """
    if not is_automorphism_group(group, structure):
        raise GroupActionError("group does not act on the structure")
    covered = set(chain.from_iterable(structure.blocks))
    if not covered:
        return False
    base = group.base()
    alpha = base[0] if base and base[0] in covered else min(covered)
    if group.orbit(alpha) != covered:
        return False
    through = {block for block in structure.blocks if alpha in block}
    reached = orbit(min(through), group.stabilizer_generators(alpha),
                    _block_images)
    return len(reached) == len(through)


def is_point_primitive(group: PermutationGroup,
                       structure: IncidenceStructure) -> bool:
    """Whether the point action preserves no nontrivial partition."""
    if group.degree != structure.v:
        raise ValueError(
            f"group degree {group.degree} != point count {structure.v}")
    return group.primitivity()[0]


def _block_json(block) -> str:
    if not block:
        return "[]"
    return "[\n      " + ",\n      ".join(map(repr, block)) + "\n    ]"


def structure_to_json(structure: IncidenceStructure,
                      name: str | None = None) -> str:
    """The design file: byte for byte what canonical_json writes for
    {"name": ..., "v": ..., "blocks": [...]}, from a fixed template, as
    json's pure-Python indenting encoder is slow on thousands of blocks.
    Keys come in sorted order, ints by repr and the name through
    encode_basestring_ascii."""
    blocks = structure.blocks
    blocks_text = ("[\n    " + ",\n    ".join(map(_block_json, blocks))
                   + "\n  ]") if blocks else "[]"
    return ('{\n  "blocks": ' + blocks_text
            + ',\n  "name": '
            + encode_basestring_ascii(name or structure.name or "design")
            + ',\n  "v": ' + repr(structure.v) + "\n}\n")


def structure_from_json(text: str) -> IncidenceStructure:
    doc = json_object(text)
    v = doc["v"]
    if type(v) is not int or v < 0:
        raise ValueError(f"v {_brief.repr(v)} is not a non-negative integer")
    blocks = doc["blocks"]
    if type(blocks) is not list:
        raise ValueError(f"blocks {_brief.repr(blocks)} is not a list")
    return IncidenceStructure.from_blocks(v, blocks, name=doc.get("name"))


def load_structure(path) -> IncidenceStructure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_json(fh.read())
