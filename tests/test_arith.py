import random
from math import isqrt

import pytest

from ftdesigns import arith
from ftdesigns.arith import (_TRIAL_LIMIT, PrimePower, cyclotomic,
                             cyclotomic_table, divisors, factorize, is_prime,
                             ppart, prime_powers)


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


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 61):
        for q in range(2, 31):
            assert cyclotomic(n, q) == sympy.cyclotomic_poly(n, q)


def test_cyclotomic_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic(0, 3)
    with pytest.raises(ValueError):
        cyclotomic(3, 1)
    with pytest.raises(ValueError):
        cyclotomic_table(12, 1)


def test_cyclotomic_table_matches_sympy_and_cyclotomic():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    qs = [2, 3, 4096] + [rng.randrange(2, 10**6) for _ in range(40)] + [
        rng.randrange(2, 10**30) for _ in range(10)]
    for q in qs:
        table = cyclotomic_table(12, q)
        assert list(table) == list(range(1, 13)), q
        for n, value in table.items():
            assert value == cyclotomic(n, q) == sympy.cyclotomic_poly(n, q), \
                (n, q)
    assert cyclotomic_table(0, 5) == {}


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(128) == [1, 2, 4, 8, 16, 32, 64, 128]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_match_sympy_at_one_prime_powers_and_the_range_top():
    sympy = pytest.importorskip("sympy")
    powers = [p**a for p in (2, 3, 5, 7, 997, 1009, 65537, 999983)
              for a in range(1, 60) if p**a <= 10**18]
    for n in [1, 10**18] + powers:
        assert divisors(n) == sympy.divisors(n), n


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


def prime_power_by_trial_division(q):
    # independent oracle: q is a prime power iff dividing out its least
    # prime factor, found by trial division, leaves 1
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


def test_prime_powers_match_trial_division():
    top = 2 * 10**5
    expected = {}
    for q in range(2, top + 1):
        pa = prime_power_by_trial_division(q)
        if pa is not None:
            expected[q] = pa
    assert [(pp.q, pp.p, pp.a) for pp in prime_powers(2, top)] == \
        [(q, p, a) for q, (p, a) in expected.items()]
    for q in range(-2, top + 1):
        if q in expected:
            assert PrimePower.classify(q) == PrimePower(*expected[q])
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                PrimePower.classify(q)


# Powers of primes above 41, which reach the root search because only the
# primes up to 41 are divided out; the largest powers of 2 and 3 below
# 10**18; and numbers with two prime factors, some of them perfect powers.
PINNED_PRIME_POWERS = {
    43**2: (43, 2),
    10007**4: (10007, 4),
    999983**3: (999983, 3),
    1000003**2: (1000003, 2),
    43**11: (43, 11),
    2**59: (2, 59),
    3**37: (3, 37),
    6**10: None,
    10**18: None,
    (43 * 47)**2: None,
    43**2 * 47**3: None,
}


@pytest.mark.parametrize("q", PINNED_PRIME_POWERS)
def test_classify_pinned(q):
    want = PINNED_PRIME_POWERS[q]
    assert prime_power_by_trial_division(q) == want
    if want is None:
        with pytest.raises(ValueError, match="not a prime power"):
            PrimePower.classify(q)
        assert prime_powers(q, q) == []
    else:
        assert PrimePower.classify(q) == PrimePower(*want)
        assert prime_powers(q, q) == [PrimePower(*want)]


def test_prime_powers_near_the_top_match_factorize():
    # the window's prime powers as the factorization path used to find them
    lo = 10**18 - 1000
    old = [q for q in range(lo, 10**18 + 1) if len(factorize(q)) == 1]
    assert len(old) == 31
    assert [pp.q for pp in prime_powers(lo, 10**18)] == old


def test_prime_powers_match_sympy_on_random_values():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    powers = st.integers(2, 59).flatmap(
        lambda e: st.integers(2, sympy.integer_nthroot(10**18, e)[0]).map(
            lambda b: b**e))

    def oracle(q):
        if sympy.isprime(q):
            return (q, 1)
        power = sympy.perfect_power(q)
        if power and sympy.isprime(power[0]):
            return power
        return None

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(st.integers(2, 10**18), powers))
    def check(q):
        want = oracle(q)
        assert prime_powers(q, q) == ([] if want is None
                                      else [PrimePower(*want)])

    check()


def test_prime_powers_refuses_q_beyond_factorization_range():
    assert prime_powers(10**18, 10**18) == []
    # The window holds the primes 10**18 + 3, + 9, + 31 and + 79, which
    # classify cannot factor; they must not be dropped silently.
    with pytest.raises(ValueError, match="factorization range"):
        prime_powers(10**18 + 1, 10**18 + 100)


# 1009, 1013 and 1019 are the smallest primes above the trial-division
# bound, so their powers and products are left to Miller-Rabin and rho.
PINNED = {
    561: {3: 1, 11: 1, 17: 1},  # Carmichael numbers
    41041: {7: 1, 11: 1, 13: 1, 41: 1},
    3215031751: {151: 1, 751: 1, 28351: 1},  # strong pseudoprime to 2, 3, 5, 7
    1009**2: {1009: 2},
    1009**3: {1009: 3},
    1013**2 * 1019: {1013: 2, 1019: 1},
    1019**5: {1019: 5},
    2**7 * 1009**2 * 1019: {2: 7, 1009: 2, 1019: 1},
    999999929 * 999999937: {999999929: 1, 999999937: 1},
    10**18: {2: 18, 5: 18},
    10**18 - 11: {10**18 - 11: 1},
}


def test_trial_division_alone_below_trial_limit_squared(monkeypatch):
    def refuse(n):
        raise AssertionError(f"{n} left the trial-division path")

    monkeypatch.setattr(arith, "is_prime", refuse)
    monkeypatch.setattr(arith, "_rho", refuse)
    rng = random.Random(4)
    top = _TRIAL_LIMIT**2 - 1
    for n in [top, 997**2, 991 * 997] + rng.sample(range(1, top), 300):
        assert factorize(n) == trial_division(n)


def test_pinned_values_above_the_trial_limit_reach_rho(monkeypatch):
    split = []
    rho = arith._rho
    monkeypatch.setattr(arith, "_rho", lambda n: split.append(n) or rho(n))
    for p in (1009, 1013, 1019):
        split.clear()
        assert factorize(p**2) == {p: 2}
        assert split == [p**2]


@pytest.mark.parametrize("n", PINNED)
def test_factorize_pinned(n):
    factors = factorize(n)
    assert factors == PINNED[n]
    assert list(factors) == sorted(factors)
    assert is_prime(n) == (PINNED[n] == {n: 1})


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1
                                  for i in range(1, s))


def test_is_prime_on_strong_pseudoprimes():
    # Each psi in the table is a composite that passes every base up to its
    # own, so is_prime must go on to the next base to reject it.
    for k, (_, psi) in enumerate(arith._MR_BASES[:-1]):
        assert all(strong_probable_prime(psi, a)
                   for a, _ in arith._MR_BASES[:k + 1])
        assert not is_prime(psi)
    # 3825123056546413051 = 149491 * 747451 * 34233211, above 10**18
    assert is_prime(149491) and is_prime(747451) and is_prime(34233211)
    with pytest.raises(ValueError, match="factorization range"):
        factorize(3825123056546413051)


def test_is_prime_refuses_beyond_its_exact_range():
    psi13 = arith._MR_BASES[-1][1]
    assert all(strong_probable_prime(psi13, a) for a, _ in arith._MR_BASES)
    assert not is_prime(psi13 + 1)  # even
    with pytest.raises(ValueError, match="primality test"):
        is_prime(psi13)


def test_arith_matches_sympy_on_pinned_values():
    sympy = pytest.importorskip("sympy")
    for n in PINNED:
        assert factorize(n) == sympy.factorint(n)
        assert is_prime(n) == sympy.isprime(n)
    for n in range(1, 3000):
        assert is_prime(n) == sympy.isprime(n)
    for _, psi in arith._MR_BASES:
        assert not sympy.isprime(psi)


def test_arith_matches_sympy_on_random_values():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(st.integers(1, 10**6),
                                st.integers(1, 10**12),
                                st.integers(1, 10**18)))
    def check(n):
        factors = factorize(n)
        assert factors == sympy.factorint(n)
        assert list(factors) == sorted(factors)
        assert is_prime(n) == sympy.isprime(n)

    check()


def test_divisors_match_sympy_on_random_values():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(st.integers(1, 10**6),
                                st.integers(1, 10**18)))
    def check(n):
        assert divisors(n) == sympy.divisors(n)

    check()
