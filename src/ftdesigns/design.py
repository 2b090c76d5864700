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

from dataclasses import dataclass
from math import isqrt

from .arith import divisors


class NonIntegralParameterError(ValueError):
    """Completing (v, k, lambda) forced a non-integer r or b."""

    def __init__(self, which: str, message: str):
        super().__init__(message)
        self.which = which


@dataclass(frozen=True, order=True)
class Parameters:
    v: int
    b: int
    r: int
    k: int
    lam: int

    def astuple(self) -> tuple[int, int, int, int, int]:
        return (self.v, self.b, self.r, self.k, self.lam)

    def __str__(self) -> str:
        return f"({self.v},{self.b},{self.r},{self.k},{self.lam})"


def complete_parameters(v: int, k: int, lam: int) -> Parameters:
    """Fill in r and b from (v, k, lambda), insisting both are integers.

    Raises NonIntegralParameterError with .which in {"r", "b"} so callers can
    distinguish which counting identity failed.
    """
    if not (v > k >= 2 and lam >= 1):
        raise ValueError(f"need v > k >= 2 and lambda >= 1, got {(v, k, lam)}")
    num_r = lam * (v - 1)
    if num_r % (k - 1) != 0:
        raise NonIntegralParameterError(
            "r", f"r = {lam}({v}-1)/({k}-1) is not an integer")
    r = num_r // (k - 1)
    if (v * r) % k != 0:
        raise NonIntegralParameterError(
            "b", f"b = {v}*{r}/{k} is not an integer")
    return Parameters(v, v * r // k, r, k, lam)


def admissibility_violations(params: Parameters) -> list[str]:
    """Names of every violated constraint; empty list means admissible."""
    v, b, r, k, lam = params.astuple()
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


def is_admissible(params: Parameters) -> bool:
    return not admissibility_violations(params)


def enumerate_candidates(v: int, lam: int, r_divides: int) -> list[Parameters]:
    """All admissible parameter tuples with this v and lambda where r divides
    the given modulus.

    lambda*v < r^2 holds exactly when r > isqrt(lambda*v), that is when the
    cofactor e = r_divides // r is at most r_divides // (isqrt(lambda*v) + 1).
    So only the divisors e up to that bound are walked, and r is taken as
    r_divides // e.  For each such r, k is forced by r(k-1) = lambda(v-1)
    and b by vr = bk; a tuple is emitted only when both are integral and
    every admissibility constraint holds.  The empty list is a meaningful
    result: it proves no design with these constraints exists.
    """
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    if v < 4:
        raise ValueError(f"need v >= 4, got {v}")
    if r_divides < 1:
        raise ValueError(f"need r_divides >= 1, got {r_divides}")
    found = []
    num_k = lam * (v - 1)
    for e in divisors(r_divides, r_divides // (isqrt(lam * v) + 1)):
        r = r_divides // e
        if num_k % r != 0:
            continue
        k = 1 + num_k // r
        if k < 2 or k > v:
            continue
        if (v * r) % k != 0:
            continue
        params = Parameters(v, v * r // k, r, k, lam)
        if is_admissible(params):
            found.append(params)
    return sorted(found)


def embeds_symmetric(params: Parameters) -> tuple[int, int, int] | None:
    """Symmetric design parameters this design extends to when r = k + lambda.

    Returns (v + k + lambda, k + lambda, lambda), or None when the extension
    criterion r = k + lambda does not hold.  Only meaningful for lambda <= 2.
    """
    v, _, r, k, lam = params.astuple()
    if lam > 2:
        raise ValueError("extension criterion only applies for lambda <= 2")
    if r != k + lam:
        return None
    return (v + k + lam, k + lam, lam)

