"""Builders for concrete designs, each the orbit of one base block under a
group: the lines of PG(n-1, 3) and those lines less one point each, under
two generators of SL_n(q) acting on the projective points over GF(q), and
the bundled catalog of verified flag-transitive examples.  The finite fields
GF(p^k) and their matrix and Frobenius actions on projective points, which
the catalog tool builds its groups from, live here too.

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

from .arith import is_prime
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


class GF:
    """GF(p^k), its elements the ints 0..p^k-1: the base-p digits of x,
    low first, are the coefficients of a polynomial of degree below k.
    reduction gives x^k as such a coefficient tuple, so k is its length; a
    prime field has none, and k = 1."""

    def __init__(self, p: int, reduction: tuple[int, ...] = ()):
        if not is_prime(p):
            raise ValueError(f"GF(p^k) needs a prime p, not {p}")
        self.p, self.k, self.reduction = p, len(reduction) or 1, reduction
        self.size = p**self.k
        vecs = [self.coeffs(x) for x in range(self.size)]
        self._add = [[self.encode(map(sum, zip(a, b))) for b in vecs]
                     for a in vecs]
        self._mul = [[self._poly_mul(a, b) for b in vecs] for a in vecs]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def coeffs(self, x: int) -> list[int]:
        return [x // self.p**i % self.p for i in range(self.k)]

    def encode(self, coeffs) -> int:
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

    def _poly_mul(self, ca: list[int], cb: list[int]) -> int:
        """The element whose coefficients are those of ca times cb."""
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        # reduce x^m for m >= k using x^k = reduction
        for m in range(2 * self.k - 2, self.k - 1, -1):
            c = prod[m] % self.p
            for i, r in enumerate(self.reduction):
                prod[m - self.k + i] += c * r
        return self.encode(prod[:self.k])

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._add[a].index(0)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self._mul[out][a]
        return out

    def generator(self) -> int:
        """The least element of multiplicative order size - 1."""
        for g in range(1, self.size):
            x, order = g, 1
            while x != 1:
                x, order = self._mul[x][g], order + 1
            if order == self.size - 1:
                return g


def _point_perm(gf: GF, points, images) -> Permutation:
    """The permutation of the labelled points that sends each point to the
    point spanned by its image vector, in the order of `points`."""
    index = {pt: i for i, pt in enumerate(points)}
    out = []
    for vec in images:
        scale = gf._mul[gf.inv(next(c for c in vec if c))]
        out.append(index[tuple(map(scale.__getitem__, vec))])
    return Permutation(out)


def matrix_perm(gf: GF, mat, points) -> Permutation:
    """The action of a matrix over gf on row vectors, vec -> vec * mat, on
    points labelled as in pg_points(gf.size, len(mat))."""
    add, mul = gf._add, gf._mul
    rows = [[(j, m) for j, m in enumerate(row) if m] for row in mat]

    def image(vec):
        out = [0] * len(rows)
        for x, row in zip(vec, rows):
            if x:
                for j, m in row:
                    out[j] = add[out[j]][mul[x][m]]
        return out
    return _point_perm(gf, points, map(image, points))


def frobenius_perm(gf: GF, points) -> Permutation:
    """The field automorphism x -> x^p applied to every coordinate."""
    return _point_perm(gf, points,
                       ([gf.pow(c, gf.p) for c in vec] for vec in points))


def sl_generators(q: int, n: int) -> tuple[int, list[Permutation]]:
    """The point count of PG(n-1, q), q prime, and two generators of SL_n(q)
    on pg_points(q, n), acting on row vectors: a = I + E_12, and w, which maps
    e_i to e_{i+1} and e_n to (-1)^(n-1) e_1.  The conjugates of a by powers
    of w are transvections I +- E_{i,i+1}, whose commutators give them all.
    A q that is not prime is refused: GF(q) names it."""
    if n < 2:
        raise ValueError("n must be at least 2")
    gf = GF(q)
    points = pg_points(q, n)
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    a[0][1] = 1
    w = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    w[-1][0] = 1 if n % 2 else gf.neg(1)
    return len(points), [matrix_perm(gf, a, points),
                         matrix_perm(gf, w, points)]


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
