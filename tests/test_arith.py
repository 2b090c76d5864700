import copy
import pickle
import random
from math import isqrt, prod

import pytest

from ftdesigns import arith
from ftdesigns.arith import (_TRIAL_LIMIT, PrimePower, cyclotomic, divisors,
                             factorize, is_prime, powers_of, prime_powers)


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
    two = PrimePower(2, 1)
    assert two.ppart(48) == 16
    assert two.ppart(35) == 1
    # 2456 factors as 2^3 * 307 by trial division
    assert trial_division(2456) == {2: 3, 307: 1}
    assert two.ppart(2456) == 8


def test_ppart_rejects_bad_input():
    with pytest.raises(ValueError, match="p-part undefined"):
        PrimePower(2, 1).ppart(0)
    with pytest.raises(ValueError, match="4 is not prime"):
        PrimePower(4, 1).ppart(10)


def test_ppart_of_a_prime_power_matches_ppart():
    # the p-part depends on p alone, not on the exponent of the power
    rng = random.Random(17)
    for q in (PrimePower(2, 3), PrimePower(3, 1), PrimePower(4093, 2)):
        for n in [1, q.q, q.q**3 * 10] + [rng.randrange(1, 10**12)
                                          for _ in range(50)]:
            assert q.ppart(n) == PrimePower(q.p, 1).ppart(n), (q, n)
    with pytest.raises(ValueError, match="p-part undefined"):
        PrimePower(2, 1).ppart(0)


def test_known_primes_are_not_tested_again(monkeypatch):
    # every q below 43^2 is told by division and one Miller-Rabin call, so
    # listing them, each as its own one-integer window too, needs no
    # is_prime call; nor do the p-parts of a parabolic sweep
    from ftdesigns.elimination import sweep
    calls = []
    monkeypatch.setattr(arith, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    listed = prime_powers(2, 43**2 - 1)
    assert [prime_powers(q.q, q.q) for q in listed] == [[q] for q in listed]
    assert len(sweep("parabolic", 2, 1024)) == 615
    assert calls == []
    # powers_of tests its prime once, not once per power
    assert len(powers_of(1009, 2, 10**18)) == 5
    assert calls == [1009]
    # a composite p is refused wherever it comes from
    for bad in (lambda: PrimePower(4, 2), lambda: PrimePower(4, 1).ppart(10),
                lambda: powers_of(4, 2, 64), lambda: PrimePower(1009**2, 1)):
        with pytest.raises(ValueError, match="is not prime"):
            bad()


def test_ppart_property():
    rng = random.Random(1)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        p = rng.choice(primes)
        part = PrimePower(p, 1).ppart(n)
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


def test_cyclotomic_matches_sympy_at_large_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    qs = [2, 3, 4096] + [rng.randrange(2, 10**6) for _ in range(40)] + [
        rng.randrange(2, 10**30) for _ in range(10)]
    for q in qs:
        for n in range(1, 13):
            assert cyclotomic(n, q) == sympy.cyclotomic_poly(n, q), (n, q)


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


def test_divisors_up_to_a_limit_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(16)
    values = [1, 2, 12, 128, 720720, 10**18, 999983**2, 2**59]
    values += [rng.randrange(1, 10**rng.randrange(2, 19)) for _ in range(60)]
    for n in values:
        every = sympy.divisors(n)
        limits = [0, 1, isqrt(n), n, n + 1]
        if n in (720720, 2**59):
            # each layer is cut at limit // p: step across every divisor
            limits += [d + step for d in every for step in (-1, 0, 1)]
        for limit in limits:
            assert divisors(n, limit) == [d for d in every if d <= limit], \
                (n, limit)


def test_divisors_match_sympy_on_drawn_values_and_limits():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**18)),
                      st.one_of(st.none(), st.integers(-1, 10),
                                st.integers(-1, 10**19)))
    def check(n, limit):
        every = sympy.divisors(n)
        want = every if limit is None else [d for d in every if d <= limit]
        assert divisors(n, limit) == want

    check()


@pytest.mark.parametrize("limit", [None, 0, 1, 12, 10**18, 10**30])
def test_divisors_refuse_above_the_range_whatever_the_limit(limit):
    with pytest.raises(ValueError, match="supported factorization range"):
        divisors(10**18 + 1, limit)


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
    assert prime_powers(8, 8) == [PrimePower(2, 3)]
    # q is stored, and a copy or a pickle is rebuilt from (p, a)
    assert pickle.loads(pickle.dumps(PrimePower(2, 3))) == (2, 3, 8)
    assert copy.copy(PrimePower(3, 2)).q == 9
    assert prime_powers(7, 7)[0].q == 7
    assert PrimePower(3, 3).q == 27
    for bad in (1, 6, 12, 100):
        assert prime_powers(bad, bad) == []
    with pytest.raises(ValueError):
        PrimePower(4, 2)


def test_prime_powers_range():
    qs = [pp.q for pp in prime_powers(2, 32)]
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_powers_of_match_prime_powers():
    rng = random.Random(59)
    windows = [(2, 5000), (-3, 1), (9, 7), (8, 8), (9, 9)] + [
        (rng.randrange(-5, 3000), rng.randrange(0, 6000)) for _ in range(40)]
    for lo, hi in windows:
        listed = prime_powers(lo, hi)
        for p in (2, 3, 5, 4093):
            assert powers_of(p, lo, hi) == [q for q in listed if q.p == p]
    top = 10**18
    assert [q.q for q in powers_of(2, 2, top)] == [2**a for a in range(1, 60)]
    assert [q.q for q in powers_of(3, top // 3, top)] == [3**37]
    with pytest.raises(ValueError, match="supported factorization range"):
        powers_of(2, 2, top + 1)
    with pytest.raises(ValueError, match="4 is not prime"):
        powers_of(4, 2, 64)


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
    # the one-integer windows of the bottom of the range; the sympy test
    # below draws them up to 10**18
    for q in range(-2, 4097):
        assert prime_powers(q, q) == ([PrimePower(*expected[q])]
                                      if q in expected else [])


# Powers of primes above the Miller-Rabin bases or above the trial primes,
# which a one-integer window of prime_powers finds from the roots; the
# largest powers of 2 and 3 below 10**18; and numbers with two prime
# factors, some of them perfect powers.
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
    assert prime_powers(q, q) == ([] if want is None else [PrimePower(*want)])


def test_prime_powers_near_the_top_match_factorize():
    # the window's prime powers as the factorization path used to find them
    lo = 10**18 - 1000
    old = [q for q in range(lo, 10**18 + 1) if len(factorize(q)) == 1]
    assert len(old) == 31
    assert [pp.q for pp in prime_powers(lo, 10**18)] == old


def prime_power_by_sympy(sympy, q):
    # independent oracle: (p, a) with q = p^a and p prime, or None, from
    # sympy's primality test and its largest perfect-power root
    if sympy.isprime(q):
        return (q, 1)
    power = sympy.perfect_power(q)
    if power and sympy.isprime(power[0]):
        return power
    return None


def test_prime_powers_match_sympy_on_random_values():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    powers = st.integers(2, 59).flatmap(
        lambda e: st.integers(2, sympy.integer_nthroot(10**18, e)[0]).map(
            lambda b: b**e))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.one_of(st.integers(2, 10**18), powers))
    def check(q):
        want = prime_power_by_sympy(sympy, q)
        assert prime_powers(q, q) == ([] if want is None
                                      else [PrimePower(*want)])

    check()


# Windows where the sieve changes how it decides: isqrt(hi) just below
# _TRIAL_LIMIT, where the sieve alone proves its survivors prime, and from
# _TRIAL_LIMIT on, where each survivor is tested; and windows holding prime
# powers that only the roots find: 43^2 (above the Miller-Rabin bases),
# 1009^2 (above the trial primes, so it survives the sieve), and the
# largest powers of 2 and 3 below 10**18.
SIEVE_WINDOWS = [
    (2, 2000),
    (_TRIAL_LIMIT**2 - 2000, _TRIAL_LIMIT**2 - 1),
    (_TRIAL_LIMIT**2 - 1000, _TRIAL_LIMIT**2 + 999),
    (_TRIAL_LIMIT**2, (_TRIAL_LIMIT + 1)**2),
    (43**2 - 1000, 43**2 + 999),
    (1009**2 - 1000, 1009**2 + 999),
    (2**59 - 1000, 2**59 + 999),
    (3**37 - 1999, 3**37),
    (10**18 - 1999, 10**18),
]


def test_prime_power_sieve_matches_sympy_integer_by_integer():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check(lo, hi):
        want = []
        for q in range(max(lo, 2), hi + 1):
            pa = prime_power_by_sympy(sympy, q)
            if pa is not None:
                want.append((q, *pa))
        assert [(pp.q, pp.p, pp.a) for pp in prime_powers(lo, hi)] == want, \
            (lo, hi)

    assert {isqrt(hi) < _TRIAL_LIMIT for _, hi in SIEVE_WINDOWS} == \
        {True, False}
    for lo, hi in SIEVE_WINDOWS:
        check(lo, hi)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(2, 10**18), st.integers(0, 1999))
    def drawn(hi, width):
        check(hi - width, hi)

    drawn()


def test_prime_powers_refuses_q_beyond_factorization_range():
    assert prime_powers(10**18, 10**18) == []
    # The window holds the primes 10**18 + 3, + 9, + 31 and + 79, which
    # lie above the factorization range; they must not be dropped silently.
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


# psi_k of OEIS A014233, k = 1..13: the least composite that is a strong
# probable prime to all of the first k primes
STAIRCASE = (2047, 1373653, 25326001, 3215031751, 2152302898747,
             3474749660383, 341550071728321, 341550071728321,
             3825123056546413051, 3825123056546413051, 3825123056546413051,
             318665857834031151167461, 3317044064679887385961981)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def passes_row(n, bases):
    """n is a strong probable prime to every base of a row, each reduced
    mod n, a residue below 2 skipped."""
    return all(strong_probable_prime(n, a % n) for a in bases if a % n >= 2)


def test_is_prime_on_strong_pseudoprimes():
    # Each psi in the table is a composite that passes every base of its
    # own row, so is_prime must use the next row to reject it.
    for bases, psi in arith._MR_ROWS[:-1]:
        assert passes_row(psi, bases)
        assert not is_prime(psi)
    assert [psi for _, psi in arith._MR_ROWS] \
        == sorted(psi for _, psi in arith._MR_ROWS)
    # the first-k-prime staircase: psi_k passes the first k primes, and
    # is_prime rejects each psi_k up to psi_12
    for k, psi in enumerate(STAIRCASE, 1):
        assert passes_row(psi, FIRST_PRIMES[:k])
    for psi in STAIRCASE[:-1]:
        assert not is_prime(psi)
    # 3825123056546413051 = 149491 * 747451 * 34233211, above 10**18
    assert is_prime(149491) and is_prime(747451) and is_prime(34233211)
    with pytest.raises(ValueError, match="factorization range"):
        factorize(3825123056546413051)


def test_is_prime_refuses_beyond_its_exact_range():
    bases, psi13 = arith._MR_ROWS[-1]
    assert psi13 == STAIRCASE[-1] and bases == FIRST_PRIMES
    assert passes_row(psi13, FIRST_PRIMES)
    assert not is_prime(psi13 + 1)  # even
    with pytest.raises(ValueError, match="primality test"):
        is_prime(psi13)


def test_is_prime_matches_strong_bpsw_on_every_row():
    """An oracle that shares no base with the table: the strong BPSW test,
    which has no pseudoprime below 2**64.  sympy.isprime runs the table's
    own bases below 2**64 when gmpy2 is absent, so it checks nothing there.
    Drawn from each row's range up to 10**18, and psi +- 2 for every row."""
    hypothesis = pytest.importorskip("hypothesis")
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    st = hypothesis.strategies
    for _, psi in arith._MR_ROWS:
        for n in (psi - 2, psi + 2):
            assert is_prime(n) == primetest.is_strong_bpsw_prp(n), n
    bounds = [43 * 43] + [psi for _, psi in arith._MR_ROWS
                          if psi <= 10**18] + [10**18]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.one_of(*(st.integers(lo, hi - 1)
                                  for lo, hi in zip(bounds, bounds[1:]))))
    def check(n):
        n |= 1
        assert is_prime(n) == primetest.is_strong_bpsw_prp(n)

    check()


def test_arith_matches_sympy_on_pinned_values():
    sympy = pytest.importorskip("sympy")
    for n in PINNED:
        assert factorize(n) == sympy.factorint(n)
        assert is_prime(n) == sympy.isprime(n)
    for n in range(1, 3000):
        assert is_prime(n) == sympy.isprime(n)
    for _, psi in arith._MR_ROWS:
        assert not sympy.isprime(psi)


def test_factorize_matches_sympy_around_the_trial_gcd():
    """factorize finds the trial primes dividing n as the prime factors of
    one gcd with their product.  Values built around that gcd: one trial
    prime to a high power, the two largest beside a prime just above the
    trial limit, the most trial primes whose product fits, the six
    largest, and such products times a prime above 10**6."""
    sympy = pytest.importorskip("sympy")
    trial = [p for p in range(2, _TRIAL_LIMIT) if is_prime(p)]
    # the first 15 primes, up to 47: the most distinct trial primes whose
    # product stays at most 10**18
    most = prod(trial[:15])
    top6 = prod(trial[-6:])
    assert most <= 10**18 < most * trial[15] and top6 <= 10**18
    values = [997**e for e in range(1, 7)]
    values += [991 * 997 * p for p in (1009, 1013, 1019, 1021)]
    values += [most, top6, 1, 2, 2**59]
    values += [prod(trial[:k]) * p for k, p in (
        (1, 999999000001), (6, 999999000001), (10, 1000003), (11, 1000003))]
    values += [prod(trial[-k:]) * 1000003 for k in (1, 2, 3, 4)]
    for n in values:
        factors = factorize(n)
        assert factors == sympy.factorint(n), n
        assert list(factors) == sorted(factors), n


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
