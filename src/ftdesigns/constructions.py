"""Builders for concrete designs: projective points over GF(q), the Fano
complement, projective line spaces over GF(3), point-deleted line designs,
block orbits under a group, and the bundled catalog of verified
flag-transitive examples.

Each catalog entry lives as three data files: group generators, the
expected parameters, and one base block, whose orbit under the group is the
design.  Nothing is trusted: loading a catalog entry rebuilds the design and
the caller is expected to re-certify it, so a corrupted data file fails
loudly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .design import Parameters
from .incidence import IncidenceStructure, verify_2design
from .perm import PermutationGroup, load_group, orbit


@dataclass(frozen=True)
class LinearSpace:
    """A certified 2-(v, k, 1) design: every point pair on exactly one line."""

    structure: IncidenceStructure
    params: Parameters

    @classmethod
    def certify(cls, structure: IncidenceStructure) -> "LinearSpace":
        cert = verify_2design(structure)
        if cert.params.lam != 1:
            raise ValueError(
                f"not a linear space: pair multiplicity {cert.params.lam}")
        return cls(structure, cert.params)


# Points are pg_points(2, 3), the nonzero vectors of GF(2)^3 in lexicographic
# order, so point i stands for the binary vector of i + 1 and a triple is a
# line exactly when the vectors sum to zero.  This matches the point labels of
# the bundled line2_fano_complement group, PSL(2,7).
_FANO_LINES = tuple(sorted(
    (a, b, c)
    for a in range(7) for b in range(a + 1, 7) for c in range(b + 1, 7)
    if (a + 1) ^ (b + 1) == c + 1))


def fano_plane() -> LinearSpace:
    """The 2-(7,3,1) design on the projective plane over GF(2)."""
    return LinearSpace.certify(
        IncidenceStructure.from_blocks(7, _FANO_LINES, name="fano_plane"))


def fano_complement() -> IncidenceStructure:
    """7 blocks, each the 4-point complement of a Fano line: a 2-(7,4,2)."""
    blocks = [sorted(set(range(7)) - set(line)) for line in _FANO_LINES]
    return IncidenceStructure.from_blocks(7, blocks, name="fano_complement")


def pg_points(q: int, n: int) -> list[tuple[int, ...]]:
    """Projective points of PG(n-1, q): the vectors over 0..q-1 whose first
    nonzero coordinate is 1, in lexicographic order."""
    return [(0,) * lead + (1,) + rest
            for lead in reversed(range(n))
            for rest in product(range(q), repeat=n - 1 - lead)]


def pg_line_space(n: int) -> LinearSpace:
    """Points and lines of PG(n-1, 3) as a 2-((3^n - 1)/2, 4, 1) design."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    points = pg_points(3, n)
    # both nonzero multiples of each point, so no sum needs normalizing
    index = {tuple(s * c % 3 for c in pt): i
             for i, pt in enumerate(points) for s in (1, 2)}
    # each line is emitted once, from its two smallest points i < j
    lines = []
    for i, u in enumerate(points):
        for j, w in enumerate(points[i + 1:], i + 1):
            rest = [index[tuple((a + s * b) % 3 for a, b in zip(u, w))]
                    for s in (1, 2)]
            if j < min(rest):
                lines.append((i, j, *rest))
    structure = IncidenceStructure.from_blocks(
        len(points), lines, name=f"pg_{n - 1}_3_lines")
    return LinearSpace.certify(structure)


def derived_design(space: LinearSpace) -> IncidenceStructure:
    """Blocks are the lines with one point removed: a 2-(v, k-1, k-2) design
    with (number of lines) * k blocks."""
    if space.params.k < 3:
        raise ValueError("line size must be at least 3")
    blocks = []
    for line in space.structure.blocks:
        for point in line:
            blocks.append(tuple(p for p in line if p != point))
    name = space.structure.name
    return IncidenceStructure.from_blocks(
        space.structure.v, blocks,
        name=f"derived_{name}" if name else "derived")


def orbit_design(group: PermutationGroup, base_block) -> IncidenceStructure:
    """The orbit of a base block under the group, as a simple block set.

    A base block that repeats a point is refused, not folded into a set.
    """
    points = list(base_block)
    block = frozenset(points)
    if len(block) != len(points):
        raise ValueError(f"base block {points} repeats a point")
    if not 2 <= len(block) < group.degree:
        raise ValueError(
            f"base block size {len(block)} must be in 2..{group.degree - 1}")
    if any(not 0 <= p < group.degree for p in block):
        raise ValueError("base block is not a subset of the point set")
    # a bool is an int equal to 0 or 1, but it names no point
    if any(type(p) is not int for p in block):
        raise ValueError(f"block {sorted(block)} has a non-integer point")
    blocks = orbit(block, group.generators,
                   lambda blk, g: frozenset(map(g.images.__getitem__, blk)))
    # every block is the image of the checked base block under a
    # permutation of the points, so it needs no checks of its own
    return IncidenceStructure(
        group.degree, tuple(sorted([tuple(sorted(blk)) for blk in blocks])))


# -- bundled catalog ---------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: PermutationGroup
    design: IncidenceStructure
    expected: Parameters
    socle: str
    automorphism_group: str


# the parameter row of an entry's expected.json, in Parameters order
_ROW_KEYS = ("v", "b", "r", "k", "lambda")


def data_dir() -> Path:
    override = os.environ.get("FTDESIGNS_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def catalog_names() -> list[str]:
    root = data_dir() / "catalog"
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if p.is_dir())


def catalog(name: str) -> CatalogEntry:
    """Load a bundled example, one of catalog_names(): its group, its
    design (the orbit of the base block under the group), and the expected
    parameter row."""
    names = catalog_names()
    if name not in names:
        known = ", ".join(names) or "none found"
        raise KeyError(f"unknown catalog entry {name!r} (available: {known})")
    entry_dir = data_dir() / "catalog" / name
    group = load_group(entry_dir / "group.json")
    with open(entry_dir / "expected.json", encoding="utf-8") as fh:
        expected_doc = json.load(fh)
    row = [expected_doc[key] for key in _ROW_KEYS]
    for key, value in zip(_ROW_KEYS, row):
        # a bool is an int equal to 0 or 1, but it counts nothing
        if type(value) is not int:
            raise ValueError(f"expected.json: {key} = {value!r} is not an "
                             "integer")
    expected = Parameters(*row)
    with open(entry_dir / "base_block.json", encoding="utf-8") as fh:
        base_doc = json.load(fh)
    design = orbit_design(group, base_doc["block"])
    design = IncidenceStructure(design.v, design.blocks, name=name)
    return CatalogEntry(name, group, design, expected, expected_doc["socle"],
                        expected_doc["automorphism_group"])
