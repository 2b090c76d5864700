"""Exact integer utilities: p-parts, cyclotomic values, divisors, prime powers.

Everything in this package is divisibility arithmetic on exact integers, so
all functions here work on Python ints of arbitrary size and never touch
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

_DIVISOR_LIMIT = 10**18


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    if n > _DIVISOR_LIMIT:
        raise ValueError(f"{n} exceeds the supported factorization range")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@dataclass(frozen=True)
class PrimePower:
    """q = p^a with p prime and a >= 1."""

    p: int
    a: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.a < 1:
            raise ValueError(f"exponent {self.a} must be positive")

    @property
    def q(self) -> int:
        return self.p ** self.a

    @classmethod
    def classify(cls, q: int) -> "PrimePower":
        """Write q as p^a, or raise if q is not a prime power >= 2."""
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        factors = factorize(q)
        if len(factors) != 1:
            raise ValueError(f"{q} is not a prime power")
        ((p, a),) = factors.items()
        return cls(p, a)

    def __str__(self) -> str:
        return f"{self.q}" if self.a == 1 else f"{self.p}^{self.a}"


def prime_powers(lo: int, hi: int) -> list[PrimePower]:
    """All prime powers q with lo <= q <= hi, ascending.  Refuses an hi that
    classify cannot factor, rather than skip a q it cannot classify."""
    if hi > _DIVISOR_LIMIT:
        raise ValueError(f"{hi} exceeds the supported factorization range "
                         f"(at most {_DIVISOR_LIMIT})")
    out = []
    for q in range(max(lo, 2), hi + 1):
        try:
            out.append(PrimePower.classify(q))
        except ValueError:
            continue
    return out


def ppart(n: int, p: int) -> int:
    """The p-part of n: the largest power of p dividing n.

    Returns 1 when p does not divide n.
    """
    if n < 1:
        raise ValueError(f"p-part undefined for {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def cyclotomic(n: int, q: int) -> int:
    """Exact value of the n-th cyclotomic polynomial at the integer q.

    Computed from q^d - 1 = prod over e | d of cyclotomic(e, q) by exact
    division, for each divisor d of n in ascending order, so every value is
    found once and no polynomial coefficients are ever needed.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index {n} must be positive")
    if q < 2:
        raise ValueError(f"cyclotomic argument {q} must be at least 2")
    phi: dict[int, int] = {}
    for d in divisors(n):
        value = q ** d - 1
        for e, phi_e in phi.items():
            if d % e == 0:
                assert value % phi_e == 0
                value //= phi_e
        phi[d] = value
    return phi[n]


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    factors = factorize(n)
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
