"""Exact permutation groups via deterministic stabilizer chains.

A group is given by generators acting on {0..n-1}.  Internally we keep a
stabilizer chain: a sequence of base points beta_0, beta_1, ... where level i
stores the strong generators fixing beta_0..beta_{i-1} together with a
transversal for the orbit of beta_i under them.  The chain is built with the
(non-randomized) Schreier-Sims algorithm: Schreier generators are sifted in a
fixed order, new base points are the smallest moved point, and transversals
only ever extend, so identical input always produces the identical chain.

Inside the chain an element is a code, whose kind is chosen once per group
from its degree.  Up to degree 256 a code is a bytes object of length 256,
the images padded with fixed points: composing two codes is one
bytes.translate call, with the right factor as the translation table, and
inverting one is one bytes.maketrans call.  256 is the width of a byte; a
larger degree has points that no byte can name, so there a code is the image
tuple, composed by operator.itemgetter.  Only the chain's transversals, their
inverses, the strong generators' codes and sifting see codes; everything
outside the chain deals in Permutation objects.  _byte_coded is the one
degree rule: incidence's block walks, block_orbit's included, code blocks
as bytes by it too, through the same 256-byte tables (_byte_table).

Each level keeps the inverse of every coset representative, computed once
when the representative is added, so sifting and Schreier generators never
invert.  When the transversal grows along a generator, u_delta = u_gamma * g
for delta = g(gamma), the Schreier generator u_gamma * g * u_delta^-1 of that
tree edge is the identity (Seress, Permutation Group Algorithms, 2003,
Sec. 4.2), so the edge is marked verified and never sifted.

The product of the basic orbit lengths is the exact group order, and sifting
gives an exact membership test.  A sift walks the levels and skips one
whose beta the code fixes: u_beta is the identity, so that division would
change nothing.

A Schreier generator of level i fixes beta_0..beta_i, so the sift that tests
membership runs on it from level i+1 on, and a residue joins the strong
generators of levels i+1 to its depth only (Seress, Sec. 4.2); level 0 keeps
exactly the non-identity input generators.  Levels close in Sims' depth-first
order (Sims, Computational methods in the study of permutation groups, 1970;
Seress, Sec. 4.2): after a residue, every level below the one that found it
closes again before that one sifts on, so its later Schreier generators meet
the whole stabilizer below, and fewer become strong generators.

One accessor, stabilizer_generators, reads G_alpha, the stabilizer of the
first base point alpha, off the chain (the strong generators of level 1),
and one walk, suborbits, lists its orbits; primitivity, subdegrees and
incidence's flag-transitivity test share the two.  One union-find run per
suborbit decides primitivity (Atkinson, Math. Comp. 29, 1975): G_alpha
carries the smallest block containing alpha and beta to the one for any
point of beta's suborbit.
"""

from __future__ import annotations

import json
import reprlib
from functools import cached_property
from itertools import repeat
from operator import itemgetter


def orbit(seed, generators, act, limit: int | None = None) -> set:
    """The closure of {seed} under the generators, where act(xs, g) gives
    the images under g of the objects in the list xs, in any order.

    Breadth first: each round applies every generator, in one act call, to
    all the objects the previous round found.  With limit set, raises
    ValueError once more than limit objects are found.  The generators are
    read once, so an iterator of them serves every round.
    """
    generators = list(generators)
    if limit is not None and limit < 1:  # the seed alone is too many
        raise ValueError(f"orbit exceeds {limit} elements")
    seen = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for g in generators:
            found = set(act(frontier, g))
            found -= seen
            if found:
                seen |= found
                new += found
                if limit is not None and len(seen) > limit:
                    raise ValueError(f"orbit exceeds {limit} elements")
        frontier = new
    return seen


def _images(xs, g: "Permutation"):
    return map(g.images.__getitem__, xs)


def _orbits(degree: int, generators) -> list[set[int]]:
    """Orbits on 0..degree-1, in ascending order of their least point."""
    out: list[set[int]] = []
    seen: set[int] = set()
    for point in range(degree):
        if point not in seen:
            orb = orbit(point, generators, _images)
            seen |= orb
            out.append(orb)
    return out


class Permutation:
    """A permutation of {0..n-1}, stored as its tuple of images.

    Composition is left-to-right: (p * q)(x) = q(p(x)).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        # a bool is an int equal to 0 or 1, but it names no point
        if (any(type(x) is not int for x in images)
                or sorted(images) != list(range(len(images)))):
            raise ValueError("image array is not a bijection on 0..n-1")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return _unchecked(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError(f"cannot compose degree {len(self.images)} "
                             f"with degree {len(other.images)}")
        if len(self.images) > 1:
            return _unchecked(itemgetter(*self.images)(other.images))
        # itemgetter(i) returns a bare item, and itemgetter() raises
        return _unchecked(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        return _unchecked(_tuple_inverse(self.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "Permutation(identity)"
        return "Permutation(%s)" % "".join(str(c) for c in cycles)


def _products(xs, g: Permutation):
    return map(Permutation.__mul__, xs, repeat(g))


def _unchecked(images: tuple[int, ...]) -> Permutation:
    """The Permutation with these images, which are known to be a bijection."""
    p = Permutation.__new__(Permutation)
    p.images = images
    return p


# Chain codes (see the module docstring).  A byte code is its own
# translation table, so bytes.translate(a, b) is the code of a * b.
_BYTE_ONE = bytes(range(256))


def _byte_coded(degree: int) -> bool:
    """Whether points 0..degree-1 are coded as bytes: the one degree rule
    of the chain's codes and of incidence's block walks."""
    return degree <= len(_BYTE_ONE)


def _byte_table(images: tuple[int, ...]) -> bytes:
    """The 256-byte code of a permutation of degree at most 256: its images,
    padded with fixed points, as a bytes.translate table."""
    return bytes(images) + _BYTE_ONE[len(images):]


def _byte_inverse(code: bytes) -> bytes:
    return bytes.maketrans(code, _BYTE_ONE)


def _tuple_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # only degrees above 256 use tuple codes, so itemgetter gets >= 2 items
    return itemgetter(*a)(b)


def _tuple_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(a)
    for i, j in enumerate(a):
        inverse[j] = i
    return tuple(inverse)


class _Level:
    """One level of the chain.  gens are its strong generators and codes
    their codes; transversal[gamma] is the code of an element carrying beta
    to gamma and inverses[gamma] the code of its inverse.  While the chain
    is built, verified holds the pairs (gamma, index into gens) whose
    Schreier generator has been sifted or is known to be the identity."""

    __slots__ = ("beta", "gens", "codes", "transversal", "inverses",
                 "verified")

    def __init__(self, beta: int, one) -> None:
        self.beta = beta
        self.gens: list[Permutation] = []
        self.codes: list = []
        self.transversal = {beta: one}
        self.inverses = {beta: one}
        self.verified: set[tuple[int, int]] = set()


class PermutationGroup:
    """Permutation group with a verified stabilizer chain, generated by
    Permutations or image arrays of the given degree; instances are
    immutable after construction and safe to share.
    """

    def __init__(self, degree: int, generators, base_hint=()):
        self.degree = degree
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} != group degree {degree}")
            gens.append(g)
        self.generators = tuple(gens)
        self._bytes = _byte_coded(degree)
        self._mul = bytes.translate if self._bytes else _tuple_product
        self._invert = _byte_inverse if self._bytes else _tuple_inverse
        self.levels: list[_Level] = []
        for beta in base_hint:
            self.levels.append(_Level(beta, self._one))
        for g in self.generators:
            self._insert(self._code(g.images))
        self._close()
        for level in self.levels:
            level.verified.clear()  # only the construction reads it

    @cached_property
    def _one(self):
        """The identity's code.  Built on first use, so a group with no
        chain level holds no tuple of degree points."""
        return _BYTE_ONE if self._bytes else tuple(range(self.degree))

    def _code(self, images: tuple[int, ...]):
        return _byte_table(images) if self._bytes else images

    def _element(self, code) -> Permutation:
        return _unchecked(tuple(code[:self.degree]))

    # -- chain construction -------------------------------------------------

    def _insert(self, code, first: int = 0) -> None:
        """Register the element with this code as a strong generator at
        levels first.. of those it stabilizes into."""
        if code == self._one:
            return
        for depth, level in enumerate(self.levels):
            if code[level.beta] != level.beta:
                break
        else:
            self.levels.append(_Level(
                next(i for i, j in enumerate(code) if i != j), self._one))
            depth = len(self.levels) - 1
        g = self._element(code)
        for level in self.levels[first:depth + 1]:
            level.gens.append(g)
            self._extend(level, code)

    def _extend(self, level: _Level, code) -> None:
        """Add code to level's strong generators and grow the orbit of beta.

        Existing coset representatives are never replaced, so earlier
        Schreier verification stays valid.  The orbit was closed under the
        older generators, so the first round applies only the new one.
        """
        mul, invert = self._mul, self._invert
        transversal, inverses = level.transversal, level.inverses
        codes, verified = level.codes, level.verified
        applied = [(len(codes), code)]
        codes.append(code)
        frontier = sorted(transversal)
        while frontier:
            new = []
            for gamma in frontier:
                u = transversal[gamma]
                for gi, g in applied:
                    delta = g[gamma]
                    if delta not in transversal:
                        rep = mul(u, g)
                        transversal[delta] = rep
                        inverses[delta] = invert(rep)
                        # u_gamma * g * u_delta^-1 is the identity
                        verified.add((gamma, gi))
                        new.append(delta)
            frontier = sorted(new)
            applied = list(enumerate(codes))

    def _close(self) -> None:
        """Sift Schreier generators until every level passes, in Sims'
        depth-first order (Sims 1970; Seress, Sec. 4.2): levels are swept
        deepest first, and the walk restarts at the deepest level whenever a
        residue joins, so a level sifts on only through a closed chain below
        it and fewer of its Schreier generators leave a residue.  A loop, not
        recursion, so no chain is too deep for it."""
        levels = self.levels
        i = len(levels) - 1
        while i >= 0:
            i = len(levels) - 1 if self._sweep(i) else i - 1

    def _sweep(self, i: int) -> bool:
        """Sift level i's unverified Schreier generators from level i+1 on:
        True as soon as one leaves a residue, which joins levels i+1.."""
        level = self.levels[i]
        one, mul = self._one, self._mul
        transversal, inverses = level.transversal, level.inverses
        codes, verified = level.codes, level.verified
        for gamma in sorted(transversal):
            u = transversal[gamma]
            for gi, g in enumerate(codes):
                if (gamma, gi) in verified:
                    continue
                verified.add((gamma, gi))
                code = self._sift(mul(mul(u, g), inverses[g[gamma]]), i + 1)
                if code != one:
                    self._insert(code, i + 1)
                    return True
        return False

    def _sift(self, code, first: int = 0):
        """What is left of code after dividing out levels first.. of the
        chain as it is now, a level appended while closing included: with
        first = 0, the identity's code iff the element lies in the group.
        A level whose beta the code fixes divides by the identity, so it is
        skipped."""
        mul = self._mul
        for level in self.levels[first:]:
            beta = level.beta
            gamma = code[beta]
            if gamma != beta:
                u_inverse = level.inverses.get(gamma)
                if u_inverse is None:
                    return code
                code = mul(code, u_inverse)
        return code

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def contains(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        return self._sift(self._code(perm.images)) == self._one

    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self.levels)

    def _point(self, point: int) -> int:
        # a bool is an int equal to 0 or 1, but it names no point
        if type(point) is not int:
            raise ValueError(f"point {_brief.repr(point)} is not an integer")
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range 0..{self.degree - 1}")
        return point

    def orbit(self, point: int) -> set[int]:
        return orbit(self._point(point), self.generators, _images)

    def is_transitive(self) -> bool:
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def stabilizer_generators(self, point: int) -> list[Permutation]:
        """Generators of the stabilizer of point: the strong generators of
        level 1, read off this chain when point is its first base point, else
        off a chain whose base starts at point."""
        self._point(point)
        if not self.levels:
            return []  # a trivial group fixes every point
        anchored = self if self.levels[0].beta == point else \
            PermutationGroup(self.degree, self.generators, base_hint=(point,))
        return list(anchored.levels[1].gens) if len(anchored.levels) > 1 else []

    def suborbits(self, point: int) -> list[set[int]]:
        """Orbits of the stabilizer of point on all points, in ascending
        order of their least point."""
        return _orbits(self.degree, self.stabilizer_generators(point))

    def subdegrees(self) -> list[int]:
        """Sorted orbit lengths of a point stabilizer on all points, the
        same from every point of a transitive group: read at the first base
        point, off the chain, or at 0 in degree 1, which has no level."""
        if not self.is_transitive():
            raise ValueError("subdegrees require a transitive group")
        point = self.levels[0].beta if self.levels else 0
        return sorted(map(len, self.suborbits(point)))

    def primitivity(self) -> tuple[bool, frozenset | None]:
        """(True, None) for a primitive action, else (False, block) where
        block is a minimal nontrivial block containing point 0."""
        if self.degree < 2:
            raise ValueError("primitivity requires degree >= 2")
        if not self.is_transitive():
            raise ValueError("primitivity requires a transitive group")
        alpha = self.levels[0].beta
        for suborbit in self.suborbits(alpha):
            if alpha in suborbit:
                continue
            block = self._minimal_block(alpha, min(suborbit))
            if len(block) < self.degree:
                # the transversal element carrying alpha to 0 moves the
                # block onto one that contains point 0
                to_0 = self.levels[0].transversal[0]
                return False, frozenset(to_0[x] for x in block)
        return True, None

    def _minimal_block(self, alpha: int, beta: int) -> set[int]:
        """Smallest block of imprimitivity containing {alpha, beta}."""
        parent = list(range(self.degree))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        stack = [(alpha, beta)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[ry] = rx
            for g in self.generators:
                stack.append((g(rx), g(ry)))
        root = find(alpha)
        return {x for x in range(self.degree) if find(x) == root}

    def elements(self, limit: int | None = None) -> set[Permutation]:
        """Exhaustive element set by generator closure; guard with limit."""
        return orbit(Permutation.identity(self.degree), self.generators,
                     _products, limit)

    def __repr__(self) -> str:
        return f"<PermutationGroup degree={self.degree} order={self.order()}>"


def canonical_json(obj) -> str:
    """Stable serialization used for every JSON artifact in this package."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def group_to_json(group: PermutationGroup, name: str) -> str:
    """The group file labelled name, stating the group's own order, which
    group_from_json checks when it reads the file back."""
    return canonical_json({
        "name": name,
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
        "expected_order": group.order(),
    })


# what a document of the wrong shape is, by the type json.loads gives it
_JSON_KINDS = {list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}

# a data file field's kinds, by their words; a bool is an int, but no count
_FIELD_KINDS = {"an integer": lambda x: type(x) is int,
                "a non-negative integer": lambda x: type(x) is int and x >= 0,
                "a string": lambda x: type(x) is str,
                "a list": lambda x: type(x) is list}

# how a refusal quotes an item of a data file: a long list or string is cut
# short, so one bad block cannot make a message of megabytes.  The limits
# are set one by one, as Repr takes them as arguments only from Python 3.12.
_brief = reprlib.Repr()
_brief.maxlist = _brief.maxtuple = _brief.maxset = _brief.maxfrozenset = 20


class _Document(dict):
    """A JSON object that refuses a lookup of a key it lacks as bad input."""

    def __missing__(self, key):
        raise ValueError(f"missing key {key!r}")

    def field(self, key: str, kind: str, optional: bool = False):
        """self[key], refused unless of kind; None if optional and absent."""
        if optional and key not in self:
            return None
        if not _FIELD_KINDS[kind](self[key]):
            raise ValueError(f"{key} {_brief.repr(self[key])} is not {kind}")
        return self[key]


def json_object(text: str) -> _Document:
    """The JSON object a data file holds, whose missing keys are refused
    with a ValueError; a document of any other shape is refused by what it
    is, and one nested too deeply for the parser's recursion as such."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("the document is nested too deeply") from None
    if type(doc) is not dict:
        raise ValueError(
            f"the document is {_JSON_KINDS[type(doc)]}, not a JSON object")
    return _Document(doc)


def group_from_json(text: str) -> PermutationGroup:
    doc = json_object(text)
    degree = doc.field("degree", "a non-negative integer")
    name = doc.field("name", "a string", optional=True)
    expected = doc.field("expected_order", "an integer", optional=True)
    generators = doc.field("generators", "a list")
    for g in generators:
        if type(g) is not list:
            raise ValueError(f"generator {_brief.repr(g)} is not a list")
    group = PermutationGroup(degree, generators)
    if expected is not None and group.order() != expected:
        raise ValueError(
            f"group {_brief.repr(name)}: computed order "
            f"{group.order()} != expected {expected}")
    return group


def load_group(path) -> PermutationGroup:
    with open(path, encoding="utf-8") as fh:
        return group_from_json(fh.read())
