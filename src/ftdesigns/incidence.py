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
g(x) = 0 maps {x, y} to the pair {0, g(y)} of row 0.  Row 0 is then
the only row, and one that fails is reported as the first row of the full
count would be, since r is uniform.  The remaining checks test a supplied
permutation group against a structure: block-multiset preservation,
transitivity on flags, and primitivity on points.  Nothing here searches for groups; it only verifies.
G is flag-transitive iff it is transitive on the points in blocks and the
stabilizer G_alpha of one of them is transitive on the blocks through alpha.

A design file's blocks and the block that block_orbit starts from pass one
check, _checked_blocks: each rule is one C-level pass over the whole list, and
the blocks are checked one at a time only to name the first bad one.

Blocks are walked by perm's degree rule.  On at most 256 points a block is
coded as bytes, its image under a generator is one bytes.translate through
the generator's 256-byte table, built once per call, and bytes(sorted(...))
is its canonical form; above 256 points a block is a sorted point tuple,
mapped point by point.  Either way IncidenceStructure.blocks and
block_orbit, the one walk of a block orbit, give sorted tuples.  Block
multisets are compared as Counters through dict.__eq__: both count only the
blocks that occur, and the dict comparison runs in C.  The design writer
fills one %-template per block size.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from .design import Parameters
from .perm import (PermutationGroup, _brief, _byte_coded, _byte_table,
                   _images, json_object, orbit)


class DesignError(ValueError):
    """A uniformity check failed; .kind names it and .witness locates it."""

    def __init__(self, kind: str, witness, message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class GroupActionError(ValueError):
    """The group does not map the block multiset of a structure to itself."""


class IncidenceStructure(NamedTuple):
    """Point set {0..v-1} plus a multiset of blocks (sorted point tuples).

    Repeated blocks are kept and counted with multiplicity.  The block list
    is stored lexicographically sorted, which is the canonical file order,
    so one design compares equal however it was built.  A design file's
    label is not kept: structure_to_json is given it.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, v: int, blocks) -> "IncidenceStructure":
        return cls(v, tuple(sorted(_checked_blocks(list(blocks), v))))

    @property
    def b(self) -> int:
        return len(self.blocks)

    def flag_count(self) -> int:
        return sum(len(block) for block in self.blocks)


def _checked_blocks(blocks: list, v: int) -> list[tuple[int, ...]]:
    """The blocks as sorted point tuples; ValueError naming the first that
    is a string, a dict, an iterator or no collection at all, has points
    that do not sort or hash, repeats a point, has fewer than 2 points, or
    has a point that is no integer in 0..v-1.  Each test is one C-level pass
    over the whole list, and only a list that fails is checked block by
    block."""
    # a string or a JSON object iterates, by character or by key, but it
    # is no list of points; an iterator would be spent by the first pass
    if any(issubclass(kind, (str, dict, Iterator))
           or not issubclass(kind, Iterable)
           for kind in set(map(type, blocks))):
        fault = "is not a list"
    else:
        try:
            normalized = list(map(tuple, map(sorted, blocks)))
            sizes = list(map(len, normalized))
            repeats = list(map(len, map(set, normalized))) != sizes
        except TypeError:
            # points that do not compare or do not hash, such as lists
            fault = "has a non-integer point"
        else:
            if repeats:
                fault = "repeats a point"
            elif min(sizes, default=2) < 2:
                fault = "has fewer than 2 points"
            # a bool is an int equal to 0 or 1, but it names no point
            elif not set(map(type, chain.from_iterable(normalized))) <= {int}:
                fault = "has a non-integer point"
            elif (min(map(itemgetter(0), normalized), default=0) < 0
                  or max(map(itemgetter(-1), normalized), default=0) >= v):
                fault = f"not a subset of 0..{v - 1}"
            else:
                return normalized
    if len(blocks) != 1:
        # the same tests block by block, to name the first bad block
        return [pts for block in blocks for pts in _checked_blocks([block], v)]
    raise ValueError(f"block {_brief.repr(blocks[0])} {fault}")


class DesignCertificate(NamedTuple):
    """Outcome of verify_2design: the exact parameters of a 2-design, every
    point pair of which is certified."""

    params: Parameters

    @property
    def pairs_checked(self) -> int:
        """The point pairs certified: all v(v-1)/2 of them."""
        return self.params.v * (self.params.v - 1) // 2


def verify_2design(structure: IncidenceStructure,
                   symmetry=()) -> DesignCertificate:
    """Certify uniform k, uniform r, and constant pair multiplicity.

    `symmetry` holds generators of a group G, on the points 0..v-1, that the
    caller knows maps the block multiset to itself.  r and lambda are
    constant on G-orbits of points and of pairs, and a point-transitive G
    moves every pair onto a pair through 0.  So when G is transitive on the
    points, a uniform k and a row of point 0 in which every other point
    occurs lam times certify every pair, and a failing row 0 is the first
    failure of the full count, as r is uniform.  Otherwise all v rows are
    counted.  A generator of another degree than v is refused.

    Raises DesignError naming the first violated uniformity, with a witness
    block index, point, or point pair.
    """
    v, blocks = structure.v, structure.blocks
    if v < 3:
        raise ValueError(f"need at least 3 points, got {v}")
    if not blocks:
        raise ValueError("need at least one block")
    symmetry = list(symmetry)  # the check and the orbit walk read it
    for g in symmetry:
        _check_degree(g.degree, v)

    k = len(blocks[0])
    for i, block in enumerate(blocks):
        if len(block) != k:
            raise DesignError(
                "non-uniform k", i,
                f"block {i} has size {len(block)}, expected {k}")

    if symmetry and len(orbit(0, symmetry, _images)) == v:
        rows = (0,)
        through = {0: [block for block in blocks if 0 in block]}
        r = len(through[0])
    else:
        # Each point's blocks are indexed once, keyed by the points that lie
        # in a block, so the work is b * k for any v.  Scanning 0..v-1 for r
        # then stops within b * k + 1 steps: at the first point in no block
        # when r > 0, and at the first point in a block, which the scan
        # starts from, when r == 0.
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
        # with r == 0 every block is empty, so row 0 stands for every row
        rows = range(v) if r else (0,)

    # Row x counts, in one C-level pass over the blocks through x, how many
    # of them hold each other point y: the multiplicity of the pair {x, y}.
    # A row passes when all v - 1 partners of x occur, each lam times (no
    # partner at all when lam == 0).  Every earlier row passed, so a failing
    # row fails at a partner y > x, and the first such y gives the first
    # pair in combinations(range(v), 2) order whose count is not that of
    # (0, 1).  With r > 0 the rows run only once every point lies in a
    # block, so v <= b * k.
    for x in rows:
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
    each point."""
    assert r * (k - 1) == lam * (v - 1) and v * r == b * k
    return DesignCertificate(Parameters(v, b, r, k, lam))


def _block_images(blocks, g):
    """The images under the Permutation g of the blocks, each a sorted
    point tuple: the block walk above 256 points."""
    return map(tuple, map(sorted, map(map, repeat(g.images.__getitem__),
                                      blocks)))


def _byte_block_images(blocks, table):
    """The images of the byte-coded blocks under the permutation whose
    256-byte table is given, each a sorted bytes object."""
    return map(bytes, map(sorted, map(bytes.translate, blocks,
                                      repeat(table))))


def _block_walk(degree: int, generators):
    """(code, act, gens) for walking blocks on the points 0..degree-1 under
    the generators: code turns a sorted point tuple into the block's code,
    tuple(code) turns it back, and act(codes, g), for g one of gens, gives
    the codes of their images in any order.  Up to perm's byte degree a
    code is bytes and gens are byte tables, built once here; above it a
    code is the tuple itself and gens the Permutations."""
    if _byte_coded(degree):
        return (bytes, _byte_block_images,
                [_byte_table(g.images) for g in generators])
    return tuple, _block_images, generators


def block_orbit(degree: int, generators, block, limit: int | None = None):
    """The orbit of block, any collection of points checked as a design
    file's block is, under `generators` of degree `degree`, as an ascending
    list of sorted point tuples; ValueError past limit blocks, if set."""
    [block] = _checked_blocks([block], degree)
    generators = list(generators)  # the check and every walk round read it
    for g in generators:
        _check_degree(g.degree, degree)
    code, act, gens = _block_walk(degree, generators)
    # codes sort as their point tuples do
    return list(map(tuple, sorted(orbit(code(block), gens, act, limit))))


def _check_degree(degree: int, v: int) -> None:
    if degree != v:
        raise ValueError(f"group degree {degree} != point count {v}")


def is_automorphism_group(group: PermutationGroup,
                          structure: IncidenceStructure) -> bool:
    """Whether every generator maps the block multiset to itself."""
    _check_degree(group.degree, structure.v)
    code, act, gens = _block_walk(structure.v, group.generators)
    blocks = list(map(code, structure.blocks))
    reference = Counter(blocks)
    for g in gens:
        # both count only blocks that occur, so the dicts are equal iff the
        # multisets are, and dict's comparison runs in C (Counter's does not)
        if not dict.__eq__(Counter(act(blocks, g)), reference):
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
    return len(block_orbit(structure.v, group.stabilizer_generators(alpha),
                           min(through))) == len(through)


def is_point_primitive(group: PermutationGroup,
                       structure: IncidenceStructure) -> bool:
    """Whether the point action preserves no nontrivial partition."""
    _check_degree(group.degree, structure.v)
    return group.primitivity()[0]


class _BlockTemplates(dict):
    """The % template of a block of k points in a design file, by k, made
    on first use: %d writes an int as repr does."""

    def __missing__(self, k: int) -> str:
        template = self[k] = ("[\n      " + ",\n      ".join(["%d"] * k)
                              + "\n    ]") if k else "[]"
        return template


_BLOCK_TEMPLATES = _BlockTemplates()


def structure_to_json(structure: IncidenceStructure, name: str) -> str:
    """The design file labelled name: byte for byte what canonical_json
    writes for {"name": name, "v": ..., "blocks": [...]}, from templates, as
    json's pure-Python indenting encoder is slow on thousands of blocks.
    Keys come in sorted order, ints by repr and the name through
    encode_basestring_ascii."""
    blocks = structure.blocks
    texts = map(str.__mod__,
                map(_BLOCK_TEMPLATES.__getitem__, map(len, blocks)), blocks)
    blocks_text = ("[\n    " + ",\n    ".join(texts)
                   + "\n  ]") if blocks else "[]"
    return ('{\n  "blocks": ' + blocks_text
            + ',\n  "name": '
            + encode_basestring_ascii(name)
            + ',\n  "v": ' + repr(structure.v) + "\n}\n")


def structure_from_json(text: str) -> IncidenceStructure:
    doc = json_object(text)
    v = doc.field("v", "a non-negative integer")
    doc.field("name", "a string", optional=True)  # checked, not kept
    return IncidenceStructure.from_blocks(v, doc.field("blocks", "a list"))


def load_structure(path) -> IncidenceStructure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_json(fh.read())
