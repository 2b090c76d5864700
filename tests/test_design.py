import random
from math import gcd

import pytest

from ftdesigns.arith import divisors
from ftdesigns.design import (Parameters, admissibility_violations,
                              embeds_symmetric, enumerate_candidates)


def brute_force_candidates(v, lam, r_divides):
    """Independent double loop over (r, k); no shared code with the library.
    r(k-1) = lambda(v-1) with k >= 2 bounds r by lambda(v-1), so a modulus
    with a large cofactor costs no more than lambda(v-1) does."""
    found = set()
    for r in range(1, min(r_divides, lam * (v - 1)) + 1):
        if r_divides % r:
            continue
        for k in range(2, v + 1):
            if r * (k - 1) != lam * (v - 1):
                continue
            if (v * r) % k:
                continue
            b = v * r // k
            if v <= b and k <= r and lam * v < r * r and 2 < k < v - 1:
                found.add((v, b, r, k, lam))
    return sorted(found)


def test_admissibility_pass():
    assert admissibility_violations(Parameters(6, 10, 5, 3, 2)) == []


def test_admissibility_k_exceeds_r():
    # q = 3 instance with r = q^3 - 1 and k = q^3 + 3
    params = Parameters(378, 328, 26, 30, 2)
    violations = admissibility_violations(params)
    assert "k <= r violated" in violations


def test_admissibility_trivial_design():
    violations = admissibility_violations(Parameters(7, 7, 4, 7, 2))
    assert any("k < v-1" in v for v in violations)


def test_enumerate_candidates_fano():
    found = enumerate_candidates(7, 2, 12)
    assert Parameters(7, 7, 4, 4, 2) in found
    assert [tuple(p) for p in found] == brute_force_candidates(7, 2, 12)


def test_enumerate_candidates_suzuki_q8():
    # Pure parameter arithmetic leaves exactly one admissible tuple at
    # v = 65; closing it needs the block-stabilizer divisibility argument,
    # which eliminate_suzuki applies.
    found = enumerate_candidates(65, 2, 128)
    assert found == [Parameters(65, 416, 32, 5, 2)]
    assert [tuple(p) for p in found] == brute_force_candidates(65, 2, 128)


def test_enumerate_candidates_names_a_bad_lambda():
    # lambda is checked before the modulus lambda*(v-1) that it decides
    for lam in (0, -1):
        with pytest.raises(ValueError, match="need lambda >= 1"):
            enumerate_candidates(10, lam, lam * 9)


def test_enumerate_candidates_filters_trivial_tuples():
    # the complete pairs design (4,6,3,2,1) solves the counting identities
    # but has k = 2, so the nontriviality bound 2 < k < v-1 rejects it
    assert enumerate_candidates(4, 1, 3) == []
    assert enumerate_candidates(4, 2, 6) == []


def shared_moduli(rng, num):
    """Two moduli for lambda(v-1) = num: one that shares only a part of num,
    a divisor of it times a small factor, and that part times 10**9 + 7, a
    large prime that divides no num drawn here."""
    part = gcd(num, rng.randrange(1, 10**6))
    return [part * rng.randrange(1, 60), part * (10**9 + 7)]


def test_enumerate_candidates_matches_brute_force_randomly():
    rng = random.Random(7)
    extra = random.Random(8)
    for _ in range(40):
        v = rng.randrange(4, 400)
        lam = rng.randrange(1, 4)
        r_mod = rng.randrange(1, 3 * v)
        for modulus in [r_mod] + shared_moduli(extra, lam * (v - 1)):
            assert [tuple(p) for p in enumerate_candidates(v, lam, modulus)] \
                == brute_force_candidates(v, lam, modulus), (v, lam, modulus)


def test_enumerate_candidates_walks_the_divisors_of_the_gcd(monkeypatch):
    # r divides both the modulus and lambda(v-1) = 12, so only the divisors
    # of their gcd, 12, are listed, however large the modulus
    import ftdesigns.design
    walked = []

    def recording(n, limit=None):
        walked.append(n)
        return divisors(n, limit)

    monkeypatch.setattr(ftdesigns.design, "divisors", recording)
    found = enumerate_candidates(7, 2, 2**30 * 3**12)
    assert walked == [12]
    assert found == [Parameters(7, 7, 4, 4, 2), Parameters(7, 14, 6, 3, 2)]


def full_walk_candidates(v, lam, r_divides):
    """Every divisor r of r_divides tried in turn, with the tests of
    enumerate_candidates but no bound from lambda*v < r^2."""
    found = []
    for r in divisors(r_divides):
        num_k = lam * (v - 1)
        if num_k % r != 0:
            continue
        k = 1 + num_k // r
        if k < 2 or k > v:
            continue
        if (v * r) % k != 0:
            continue
        params = Parameters(v, v * r // k, r, k, lam)
        if not admissibility_violations(params):
            found.append(params)
    return sorted(set(found))


def test_enumerate_candidates_matches_the_full_walk_on_smooth_values():
    rng = random.Random(16)
    extra = random.Random(17)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for _ in range(300):
        # v - 1 is a product of small primes up to 10**15
        top = 10 ** rng.randrange(1, 16)
        n = 3
        while n * 23 <= top:
            n *= rng.choice(primes)
        v = n + 1
        lam = rng.randrange(1, 4)
        num = lam * (v - 1)
        moduli = [num, num * rng.randrange(2, 60),
                  # a modulus that need not divide lambda(v-1)
                  rng.randrange(1, num + 2) * rng.choice(primes)]
        for r_mod in moduli + shared_moduli(extra, num):
            assert enumerate_candidates(v, lam, r_mod) \
                == full_walk_candidates(v, lam, r_mod), (v, lam, r_mod)


def test_embeds_symmetric():
    assert embeds_symmetric(Parameters(6, 10, 5, 3, 2)) == (11, 5, 2)
    assert embeds_symmetric(Parameters(7, 7, 4, 4, 2)) is None
    # q = 4 instance with r = q^3 + 1, k = q^3 - 1
    target = embeds_symmetric(Parameters(2016, 2080, 65, 63, 2))
    assert target == (2081, 65, 2)
    # lambda = 3 lies outside the extension criterion
    with pytest.raises(ValueError, match="lambda <= 2"):
        embeds_symmetric(Parameters(7, 7, 4, 4, 3))


def test_embeds_symmetric_identity():
    rng = random.Random(11)
    hits = 0
    for _ in range(3000):
        v = rng.randrange(6, 500)
        k = rng.randrange(3, v - 1)
        lam = rng.randrange(1, 3)
        # r and b from the counting identities, when both are integers
        r, rem = divmod(lam * (v - 1), k - 1)
        if rem or v * r % k:
            continue
        params = Parameters(v, v * r // k, r, k, lam)
        target = embeds_symmetric(params)
        if target is not None:
            big_v, big_k, l = target
            assert big_k * (big_k - 1) == l * (big_v - 1)
            hits += 1
    assert hits > 0

