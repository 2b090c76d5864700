"""Exact integer utilities: p-parts, cyclotomic values, divisors, prime powers.

Everything in this package is divisibility arithmetic on exact integers, so
all functions here work on Python ints of arbitrary size and never touch
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

_DIVISOR_LIMIT = 10**18
_TRIAL_LIMIT = 1000
# The first 13 primes as Miller-Rabin bases, each paired with psi_k: the
# least strong pseudoprime to every base up to it (OEIS A014233: Jaeschke
# 1993, Jiang and Deng 2014, Sorenson and Webster 2015).  An n below psi_k
# that passes the first k bases is prime.
_MR_BASES = ((2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751),
             (11, 2152302898747), (13, 3474749660383),
             (17, 341550071728321), (19, 341550071728321),
             (23, 3825123056546413051), (29, 3825123056546413051),
             (31, 3825123056546413051), (37, 318665857834031151167461),
             (41, 3317044064679887385961981))
_SMALL_PRIMES = tuple(p for p, _ in _MR_BASES)
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases, in order,
    stopping once n is below the least strong pseudoprime to the bases so
    far.

    Exact for every n < 3317044064679887385961981 (about 3.3e24), which
    covers the whole factorization range.  Raises ValueError for a larger
    n that passes all 13 bases.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """is_prime for an n that no prime below 43 divides."""
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise ValueError(f"{n} exceeds the range of the primality test")


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of Pollard
    rho (Brent 1980): x -> x^2 + c from x = 2, with the differences
    multiplied in batches before each gcd, trying c = 1, 2, ... until one
    gives a factor other than n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


# the trial divisors of factorize
_TRIAL_PRIMES = tuple(filter(is_prime, range(_TRIAL_LIMIT)))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} with the primes ascending, exact
    for 1 <= n <= 10**18.

    Trial division by the primes below _TRIAL_LIMIT, so every n below
    _TRIAL_LIMIT**2 is factored by division alone.  A cofactor left over is
    split by Brent-Pollard rho until each piece passes the Miller-Rabin
    test of is_prime.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    if n > _DIVISOR_LIMIT:
        raise ValueError(f"{n} exceeds the supported factorization range")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n < _TRIAL_LIMIT ** 2:
        # no prime q with q * q <= n divides what is left of n, so it is 1
        # or a prime
        if n > 1:
            factors[n] = 1
        return factors
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _rho(m)
            pending += (f, m // f)
    return dict(sorted(factors.items()))


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
        pa = _prime_power(q)
        if pa is None:
            raise ValueError(f"{q} is not a prime power")
        return cls(*pa)

    def __str__(self) -> str:
        return f"{self.q}" if self.a == 1 else f"{self.p}^{self.a}"


def _iroot(n: int, a: int) -> int:
    """The integer a-th root floor(n^(1/a)) of n >= 1, by integer Newton
    iteration from 2^ceil(bits/a), which lies above the root."""
    if a == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // a)
    while True:
        y = ((a - 1) * x + n // x ** (a - 1)) // a
        if y >= x:
            return x
        x = y


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, a) with q = p^a, p prime and a >= 1, or None, without factoring:
    division by the primes below 43, then is_prime(q), then the exact
    integer a-th roots of q for a >= 2, largest a first.

    If q = p^a, then p is the exact root with the largest a, so the first
    exact root found decides: q is a prime power iff that root is prime.
    """
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            return (p, a) if q == 1 else None
    if _miller_rabin(q):
        return (q, 1)
    # every prime factor of q is at least 43, so q = p^a needs 43^a <= q
    top = 1
    while 43 ** (top + 1) <= q:
        top += 1
    for a in range(top, 1, -1):
        p = _iroot(q, a)
        if p**a == q:
            return (p, a) if is_prime(p) else None
    return None


def prime_powers(lo: int, hi: int) -> list[PrimePower]:
    """All prime powers q with lo <= q <= hi, ascending.  Refuses an hi
    above _DIVISOR_LIMIT, the range the case reports are factored in."""
    if hi > _DIVISOR_LIMIT:
        raise ValueError(f"{hi} exceeds the supported factorization range "
                         f"(at most {_DIVISOR_LIMIT})")
    out = []
    for q in range(max(lo, 2), hi + 1):
        pa = _prime_power(q)
        if pa is not None:
            out.append(PrimePower(*pa))
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


def _cyclotomic_values(ns, q: int) -> dict[int, int]:
    """{d: cyclotomic(d, q)} for the d in ns, ascending and closed under
    taking divisors.

    Computed from q^d - 1 = prod over e | d of cyclotomic(e, q) by exact
    division: each q^e - 1, once every proper divisor of e has been
    divided out of it, is cyclotomic(e, q) and is divided out of q^d - 1
    for each multiple d of e in ns.  So every value is found once and no
    polynomial coefficients are ever needed.
    """
    if q < 2:
        raise ValueError(f"cyclotomic argument {q} must be at least 2")
    phi = {d: q ** d - 1 for d in ns}
    top = max(phi, default=0)
    # a dict iterates in insertion order, and yields each value as it is
    # when reached: ascending e, with its proper divisors divided out
    for e, phi_e in phi.items():
        for d in range(2 * e, top + 1, e):
            if d in phi:
                assert phi[d] % phi_e == 0
                phi[d] //= phi_e
    return phi


def cyclotomic(n: int, q: int) -> int:
    """Exact value of the n-th cyclotomic polynomial at the integer q."""
    if n < 1:
        raise ValueError(f"cyclotomic index {n} must be positive")
    # n is an exponent of q, so listing its divisors by division is cheap
    return _cyclotomic_values(
        [d for d in range(1, n + 1) if n % d == 0], q)[n]


def cyclotomic_table(n_max: int, q: int) -> dict[int, int]:
    """{n: cyclotomic(n, q)} for every n in 1..n_max, from one pass of the
    same recurrence: a caller that needs several values at one q computes
    each q^d - 1 once."""
    return _cyclotomic_values(range(1, n_max + 1), q)


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order.

    The divisors found so far times p^i, for i = 1..e, are each the layer
    before times p, so every divisor is one C-level multiplication; one
    in-place sort orders them.
    """
    divs = [1]
    for p, e in factorize(n).items():
        layer = divs
        for _ in range(e):
            layer = list(map(p.__mul__, layer))
            divs += layer
    divs.sort()
    return divs
