"""Exact integer utilities: p-parts, cyclotomic values, divisors, prime powers.

Everything in this package is divisibility arithmetic on exact integers, so
all functions here work on Python ints of arbitrary size and never touch
floating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple

_DIVISOR_LIMIT = 10**18
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin base sets as rows (bases, psi), in ascending psi, where psi
# is the least composite that is a strong probable prime to every base of
# its row: an n below psi that passes them all is prime.  A base is reduced
# mod n, and a residue below 2 is skipped.  The hashed sets are the record
# sets of miller-rabin.appspot.com (as sympy.ntheory.primetest.isprime uses
# them); the rest are first-k-prime rows, psi_k of OEIS A014233 (Jaeschke
# 1993, Jiang and Deng 2014, Sorenson and Webster 2015).
_MR_ROWS = (
    ((9345883071009581737,), 341531),
    (_SMALL_PRIMES[:2], 1373653),
    (_SMALL_PRIMES[:3], 25326001),
    ((4230279247111683200, 14694767155120705706, 16641139526367750375),
     350269456337),
    ((2, 141889084524735, 1199124725622454117, 11096072698276303650),
     55245642489451),
    ((2, 4130806001517, 149795463772692060, 186635894390467037,
      3967304179347715805), 7999252175582851),
    ((2, 123635709730000, 9233062284813009, 43835965440333360,
      761179012939631437, 1263739024124850375), 585226005592931977),
    (_SMALL_PRIMES[:9], 3825123056546413051),
    (_SMALL_PRIMES[:12], 318665857834031151167461),
    (_SMALL_PRIMES, 3317044064679887385961981),
)
_RHO_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: after trial division by the first 13
    primes, n is tested with the bases of the first row of _MR_ROWS whose
    psi exceeds n, so at most 6 rounds below 585226005592931977.

    Exact for every n < 3317044064679887385961981 (about 3.3e24), which
    covers the whole factorization range.  A larger n is tested with the
    first 13 primes, and ValueError is raised when it passes them all.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for bases, psi in _MR_ROWS:
        if n < psi:
            break
    for a in bases:
        a %= n
        if a < 2:
            continue
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


def check_factorization_range(n: int) -> None:
    """Refuse an n above _DIVISOR_LIMIT = 10**18, the range factorize is
    exact in, with the one message every refusal of that range shares."""
    if n > _DIVISOR_LIMIT:
        raise ValueError(f"{n} exceeds the supported factorization range "
                         f"(at most {_DIVISOR_LIMIT})")


# the trial divisors of factorize, and their product
_TRIAL_PRIMES = tuple(filter(is_prime, range(_TRIAL_LIMIT)))
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} with the primes ascending, exact
    for 1 <= n <= 10**18.

    The primes below _TRIAL_LIMIT that divide n are the prime factors of
    one gcd, of n and their product, found by trial division of that gcd up
    to its square root; each is divided out of n with its exponent.  So
    every n below _TRIAL_LIMIT**2 is factored without a primality test.  A
    cofactor left over is split by Brent-Pollard rho until each piece
    passes the Miller-Rabin test of is_prime.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    check_factorization_range(n)
    small = gcd(n, _TRIAL_PRODUCT)  # the trial primes dividing n, once each
    found = []
    for p in _TRIAL_PRIMES:
        if p * p > small:
            break
        if small % p == 0:
            small //= p
            found.append(p)
    if small > 1:
        # no trial prime up to its square root divides it: it is the last
        found.append(small)
    factors: dict[int, int] = {}
    for p in found:
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        factors[p] = e
    if n < _TRIAL_LIMIT ** 2:
        # no prime below _TRIAL_LIMIT divides what is left of n, so it is 1
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


class _PrimePowerFields(NamedTuple):
    p: int
    a: int
    q: int


class PrimePower(_PrimePowerFields):
    """q = p^a with p prime and a >= 1, built as PrimePower(p, a); q is
    computed once, when it is built."""

    __slots__ = ()

    def __new__(cls, p: int, a: int) -> "PrimePower":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if a < 1:
            raise ValueError(f"exponent {a} must be positive")
        return _unchecked_power(p, a)

    def __getnewargs__(self) -> tuple[int, int]:
        return self.p, self.a

    def ppart(self, n: int) -> int:
        """The p-part of n: the largest power of p dividing n, 1 when p
        does not divide n."""
        if n < 1:
            raise ValueError(f"p-part undefined for {n}")
        p = self.p
        part = 1
        while n % p == 0:
            n //= p
            part *= p
        return part

    def __str__(self) -> str:
        return f"{self.q}" if self.a == 1 else f"{self.p}^{self.a}"


def _unchecked_power(p: int, a: int) -> PrimePower:
    """The PrimePower p^a, built without a test: the caller has proved p
    prime and a >= 1."""
    return tuple.__new__(PrimePower, (p, a, p ** a))


def _iroot(n: int, a: int) -> int:
    """The integer a-th root floor(n^(1/a)) of n >= 1, by integer Newton
    iteration from 2^ceil(bits/a), which lies above the root."""
    x = 1 << -(-n.bit_length() // a)
    while True:
        y = ((a - 1) * x + n // x ** (a - 1)) // a
        if y >= x:
            return x
        x = y


def prime_powers(lo: int, hi: int) -> list[PrimePower]:
    """All prime powers q with lo <= q <= hi, ascending.  Refuses an hi
    above _DIVISOR_LIMIT, the range the case reports are factored in.

    The window is sieved once: each trial prime p up to isqrt(hi) strikes
    its multiples in the window, and those of these primes that lie in it
    are put back, so what survives is a prime or has no prime factor below
    _TRIAL_LIMIT.  When isqrt(hi) < _TRIAL_LIMIT the sieve alone proves
    every survivor prime; otherwise each survivor is tested.  The powers
    p^a with a >= 2 are listed down from the integer a-th root of hi, one
    root per exponent.  The memory taken is one byte per integer of the
    window.
    """
    check_factorization_range(hi)
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    proven = root < _TRIAL_LIMIT
    n = hi - lo + 1
    sieve = bytearray(b"\1") * n
    primes = _TRIAL_PRIMES[:bisect_right(_TRIAL_PRIMES, root)]
    for p in primes:
        start = -lo % p
        if start < n:
            sieve[start::p] = bytes((n - 1 - start) // p + 1)
    for p in primes[bisect_left(primes, lo):]:
        sieve[p - lo] = 1
    # {p^a: (p, a)} for a >= 2, each marked as a survivor; a root p below
    # _TRIAL_LIMIT is prime iff it is a trial prime.
    powers = {}
    for a in range(2, hi.bit_length()):
        p = _iroot(hi, a)
        while (q := p ** a) >= lo:
            if p in _TRIAL_PRIMES if p < _TRIAL_LIMIT else is_prime(p):
                powers[q] = p, a
                sieve[q - lo] = 1
            p -= 1
    out = []
    for q in compress(range(lo, hi + 1), sieve):
        p, a = powers.get(q, (q, 1))
        if a == 1 and not (proven or is_prime(q)):
            continue
        out.append(_unchecked_power(p, a))
    return out


def powers_of(p: int, lo: int, hi: int) -> list[PrimePower]:
    """The powers q = p^a (a >= 1) of the prime p with lo <= q <= hi,
    ascending, listed from their exponents: at most 59 lie below
    _DIVISOR_LIMIT, where prime_powers sieves every integer of the window.
    Refuses an hi above _DIVISOR_LIMIT, as prime_powers does."""
    PrimePower(p, 1)  # raises unless p is prime
    check_factorization_range(hi)
    out = []
    q, a = p, 1
    while q <= hi:
        if q >= lo:
            out.append(_unchecked_power(p, a))
        q, a = q * p, a + 1
    return out


def cyclotomic(n: int, q: int) -> int:
    """Exact value of the n-th cyclotomic polynomial at the integer q.

    Computed from q^d - 1 = prod over e | d of cyclotomic(e, q) by exact
    division over the divisors d of n: each q^e - 1, once every proper
    divisor of e has been divided out of it, is cyclotomic(e, q) and is
    divided out of q^d - 1 for each multiple d of e.  So every value is
    found once and no polynomial coefficients are ever needed.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index {n} must be positive")
    if q < 2:
        raise ValueError(f"cyclotomic argument {q} must be at least 2")
    phi = {d: q ** d - 1 for d in divisors(n)}
    # a dict iterates in insertion order, and yields each value as it is
    # when reached: ascending e, with its proper divisors divided out
    for e, phi_e in phi.items():
        for d in range(2 * e, n + 1, e):
            if d in phi:
                phi[d], remainder = divmod(phi[d], phi_e)
                assert remainder == 0
    return phi[n]


def divisors(n: int, limit: int | None = None) -> list[int]:
    """All positive divisors of n in ascending order, or with a limit only
    those at most limit.  n is factorized whatever the limit, so an n out
    of factorize's range is refused.

    For each prime p^e of n, layer i is p times the prefix of layer i - 1
    (layer 0 being the divisors found so far) that is at most limit // p,
    found by bisection, so no product above the limit is ever formed; the
    exponents of p stop at the first empty layer.  Every layer is
    ascending, so one in-place sort after each prime merges the runs and
    keeps the list ascending.
    """
    if limit is None:
        limit = n
    divs = [1] if limit >= 1 else []
    for p, e in factorize(n).items():
        layer = divs
        for _ in range(e):
            layer = [d * p for d in layer[:bisect_right(layer, limit // p)]]
            if not layer:
                break
            divs += layer
        divs.sort()
    return divs
