"""Builders for concrete designs, each the orbit of one base block under a
group: the lines of PG(n-1, 3) and those lines less one point each, under
two generators of SL_n(q) acting on the projective points over GF(q), and
the bundled catalog of verified flag-transitive examples.

Each catalog entry lives as three data files: group generators, the
expected parameters, and one base block, whose orbit under the group is the
design.  Nothing is trusted: loading a catalog entry rebuilds the design and
the caller is expected to re-certify it, so a corrupted data file fails
loudly.
"""

from __future__ import annotations

import os
from itertools import product
from pathlib import Path
from typing import NamedTuple

from .design import Parameters
# nothing here calls verify_2design; it stays bound here, where
# bench/tracing.py wraps it
from .incidence import (IncidenceStructure, block_orbit,
                        verify_2design)  # noqa: F401
from .perm import (Permutation, PermutationGroup, _brief, json_object,
                   load_group)


def pg_points(q: int, n: int) -> list[tuple[int, ...]]:
    """Projective points of PG(n-1, q): the vectors over 0..q-1 whose first
    nonzero coordinate is 1, in lexicographic order."""
    return [(0,) * lead + (1,) + rest
            for lead in reversed(range(n))
            for rest in product(range(q), repeat=n - 1 - lead)]


def sl_generators(q: int, n: int) -> tuple[int, list[Permutation]]:
    """The point count of PG(n-1, q), q prime, and two generators of SL_n(q)
    on pg_points(q, n), acting on row vectors: a = I + E_12, and w, which maps
    e_i to e_{i+1} and e_n to (-1)^(n-1) e_1.  The conjugates of a by powers
    of w are transvections I +- E_{i,i+1}, whose commutators give them all."""
    if n < 2:
        raise ValueError("n must be at least 2")
    points = pg_points(q, n)
    # every nonzero multiple of each point, so no image needs normalizing
    index = {tuple(s * c % q for c in pt): i
             for i, pt in enumerate(points) for s in range(1, q)}
    sign = (-1) ** (n - 1) % q
    a = [index[(x[0], (x[0] + x[1]) % q, *x[2:])] for x in points]
    w = [index[(sign * x[-1] % q, *x[:-1])] for x in points]
    return len(points), [Permutation(a), Permutation(w)]


def pg_lines(n: int, k: int = 4) -> IncidenceStructure:
    """The lines of PG(n-1, 3), a 2-((3^n-1)/2, 4, 1), or with k = 3 the lines
    less one point each, a 2-((3^n-1)/2, 3, 2): the orbit under SL_n(3), which
    is flag-transitive, of k points of the line 0..3 of pg_points(3, n)."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return orbit_design(*sl_generators(3, n), range(k))


def orbit_design(degree: int, generators, base_block) -> IncidenceStructure:
    """The orbit of a base block under the permutations `generators` of
    0..degree-1, as a simple block set.  block_orbit checks the base block,
    which must also leave a point out."""
    blocks = block_orbit(degree, generators, base_block)
    if len(blocks[0]) >= degree:
        raise ValueError(f"block {_brief.repr(base_block)} has more than "
                         f"{degree - 1} points")
    # every block is the image of the checked base block under a
    # permutation of the points, so it needs no checks of its own
    return IncidenceStructure(degree, tuple(blocks))


# -- bundled catalog ---------------------------------------------------------

class CatalogEntry(NamedTuple):
    group: PermutationGroup
    design: IncidenceStructure
    expected: Parameters
    socle: str
    automorphism_group: str


def data_dir() -> Path:
    override = os.environ.get("FTDESIGNS_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def catalog_names() -> list[str]:
    root = data_dir() / "catalog"
    if not root.is_dir():
        return []
    # one directory read: each entry knows whether it is a directory
    with os.scandir(root) as entries:
        return sorted(entry.name for entry in entries if entry.is_dir())


def catalog(name: str) -> CatalogEntry:
    """Load a bundled example, one of catalog_names(): its group, its
    design (the orbit of the base block under the group), and the expected
    parameter row."""
    names = catalog_names()
    if name not in names:
        known = ", ".join(names) or "none found"
        raise ValueError(
            f"unknown catalog entry {name!r} (available: {known})")
    entry_dir = data_dir() / "catalog" / name
    # a refusal is prefixed with the file it was raised on
    filename = "group.json"
    try:
        group = load_group(entry_dir / filename)
        filename = "expected.json"
        expected_doc = json_object(
            (entry_dir / filename).read_text(encoding="utf-8"))
        row = [expected_doc.field(key, "an integer")  # in Parameters order
               for key in ("v", "b", "r", "k", "lambda")]
        socle = expected_doc.field("socle", "a string")
        automorphism_group = expected_doc.field("automorphism_group",
                                                "a string")
        filename = "base_block.json"
        block = json_object((entry_dir / filename).read_text(
            encoding="utf-8")).field("block", "a list")
        design = orbit_design(group.degree, group.generators, block)
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from None
    return CatalogEntry(group, design, Parameters(*row), socle,
                        automorphism_group)
