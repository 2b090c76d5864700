import random

import pytest

from ftdesigns.arith import (PrimePower, cyclotomic, divisors, factorize,
                             is_prime, ppart, prime_powers)


def trial_division(n):
    # independent oracle for factorizations used in the pinned examples
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_ppart_examples():
    assert ppart(48, 2) == 16
    assert ppart(35, 2) == 1
    # 2456 factors as 2^3 * 307 by trial division
    assert trial_division(2456) == {2: 3, 307: 1}
    assert ppart(2456, 2) == 8


def test_ppart_rejects_bad_input():
    with pytest.raises(ValueError):
        ppart(0, 2)
    with pytest.raises(ValueError):
        ppart(10, 4)


def test_ppart_property():
    rng = random.Random(1)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        p = rng.choice(primes)
        part = ppart(n, p)
        assert n % part == 0
        assert (n // part) % p != 0


def test_cyclotomic_examples():
    assert cyclotomic(1, 3) == 2
    assert cyclotomic(2, 4) == 5
    # phi_12(q) = q^4 - q^2 + 1
    assert cyclotomic(12, 2) == 2**4 - 2**2 + 1 == 13


def test_cyclotomic_product_identity():
    for n in range(1, 13):
        for q in range(2, 65):
            product = 1
            for d in divisors(n):
                product *= cyclotomic(d, q)
            assert product == q**n - 1


def test_cyclotomic_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic(0, 3)
    with pytest.raises(ValueError):
        cyclotomic(3, 1)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(128) == [1, 2, 4, 8, 16, 32, 64, 128]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_against_scan():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randrange(1, 5000)
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    # a larger smooth value, counted via the factorization
    n = 2**6 * 3**4 * 5**2
    assert len(divisors(n)) == 7 * 5 * 3


def test_factorize_reconstructs():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        product = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def test_prime_power_classify():
    assert PrimePower.classify(8) == PrimePower(2, 3)
    assert PrimePower.classify(7).q == 7
    assert PrimePower(3, 3).q == 27
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            PrimePower.classify(bad)
    with pytest.raises(ValueError):
        PrimePower(4, 2)


def test_prime_powers_range():
    qs = [pp.q for pp in prime_powers(2, 32)]
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_prime_powers_refuses_q_beyond_factorization_range():
    assert prime_powers(10**18, 10**18) == []
    # The window holds the primes 10**18 + 3, + 9, + 31 and + 79, which
    # classify cannot factor; they must not be dropped silently.
    with pytest.raises(ValueError, match="factorization range"):
        prime_powers(10**18 + 1, 10**18 + 100)
