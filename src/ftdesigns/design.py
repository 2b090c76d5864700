"""Parameter algebra for 2-designs and the pruning predicates built on it.

A parameter tuple (v, b, r, k, lambda) is admissible when the standard
counting identities and inequalities hold:

    r(k-1) = lambda(v-1)
    vr = bk
    v <= b          (Fisher)
    k <= r
    lambda * v < r^2

together with nontriviality 2 < k < v-1.  Everything is exact integer
arithmetic; "nearly feasible" does not exist here.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .arith import check_factorization_range, divisors


# a named tuple, not a frozen dataclass, as is every record in the package
# (see elimination): a tuple is several times cheaper to build
class Parameters(NamedTuple):
    v: int
    b: int
    r: int
    k: int
    lam: int

    def __str__(self) -> str:
        return "(%s,%s,%s,%s,%s)" % self


def admissibility_violations(params: Parameters) -> list[str]:
    """Names of every violated constraint; empty list means admissible."""
    v, b, r, k, lam = params
    violations = []
    if r * (k - 1) != lam * (v - 1):
        violations.append("r(k-1) = lambda(v-1) violated")
    if v * r != b * k:
        violations.append("vr = bk violated")
    if v > b:
        violations.append("v <= b violated")
    if k > r:
        violations.append("k <= r violated")
    if lam * v >= r * r:
        violations.append("lambda*v < r^2 violated")
    if not 2 < k:
        violations.append("2 < k violated (trivial design)")
    if not k < v - 1:
        violations.append("k < v-1 violated (trivial design)")
    return violations


def enumerate_candidates(v: int, lam: int, r_divides: int) -> list[Parameters]:
    """All admissible parameter tuples with this v and lambda where r divides
    the given modulus.

    With N = lambda(v-1), r(k-1) = N makes r a divisor of N, so r divides
    g = gcd(r_divides, N) and k = c*f + 1, where c = N // g and f = g // r.
    lambda*v < r^2 holds exactly when r > isqrt(lambda*v), that is when f
    is at most g // (isqrt(lambda*v) + 1), so only those divisors f of g
    are walked.  vr = bk asks k | vr, and since v*N = vr(k-1) with k prime
    to k-1, that holds exactly when k divides v*N: one residue test per
    divisor.  A tuple that passes it is emitted when every admissibility
    constraint holds.  The empty list is a meaningful result: it proves no
    design with these constraints exists.  A modulus above 10**18 is
    refused, as if it were factorized, though only g is.
    """
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    if v < 4:
        raise ValueError(f"need v >= 4, got {v}")
    if r_divides < 1:
        raise ValueError(f"need r_divides >= 1, got {r_divides}")
    check_factorization_range(r_divides)
    found = []
    num_k = lam * (v - 1)
    g = gcd(r_divides, num_k)
    c = num_k // g
    vnum_k = v * num_k
    for f in divisors(g, g // (isqrt(lam * v) + 1)):
        k = c * f + 1
        if vnum_k % k:
            continue
        r = g // f
        params = Parameters(v, v * r // k, r, k, lam)
        if not admissibility_violations(params):
            found.append(params)
    return sorted(found)


def embeds_symmetric(params: Parameters) -> tuple[int, int, int] | None:
    """Symmetric design parameters this design extends to when r = k + lambda.

    Returns (v + k + lambda, k + lambda, lambda), or None when the extension
    criterion r = k + lambda does not hold.  Only meaningful for lambda <= 2.
    """
    v, _, r, k, lam = params
    if lam > 2:
        raise ValueError("extension criterion only applies for lambda <= 2")
    if r != k + lam:
        return None
    return (v + k + lam, k + lam, lam)

