"""Certified factoring: deterministic Miller-Rabin below PRIME_CERT_BOUND,
Brent rho under a fixed budget, and a BitBudgetError refusal otherwise."""

import random
import time

import pytest

from relesc.places import Place
from relesc.rational import (PRIME_CERT_BOUND, BitBudgetError, UsageError,
                             factorization, is_prime, prime_factors,
                             primes_upto)

SIEVE = primes_upto(10**6)


def trial_set(n: int) -> set[int]:
    """Prime divisors of n < 10^12 by trial division over the sieve."""
    out = set()
    for q in SIEVE:
        if q * q > n:
            break
        while n % q == 0:
            out.add(q)
            n //= q
    if n > 1:
        out.add(n)
    return out


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if trial_set(n) == {n}:
            return n


def test_matches_trial_division_below_1e12():
    rng = random.Random(2024)
    cases = [1, 2, 41, 43, 43 * 43, 2**39, 3**25, 999983**2, 10**12 - 1]
    cases += [rng.randrange(1, 10**12) for _ in range(150)]
    cases += [rng.randrange(1, 10**6) * rng.randrange(1, 10**6) for _ in range(50)]
    for n in cases:
        assert prime_factors(n) == trial_set(n), n
        assert prime_factors(-n) == trial_set(n), n


def test_factorization_keeps_multiplicity():
    rng = random.Random(7)
    for _ in range(100):
        ps = sorted(rng.choice(SIEVE[:2000]) for _ in range(rng.randrange(1, 6)))
        n = 1
        for p in ps:
            n *= p
        assert factorization(n) == ps
    assert factorization(1) == []
    with pytest.raises(ValueError):
        factorization(0)


def test_semiprimes_of_30_bit_primes():
    rng = random.Random(30)
    for _ in range(8):
        p, q = random_prime(rng, 30), random_prime(rng, 30)
        assert prime_factors(p * q) == {p, q}
        assert factorization(p * p * q) == sorted([p, p, q])


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 3825123056546413051])
def test_pseudoprimes_split_never_certified(n):
    # 2047 is a strong pseudoprime to base 2, 3215031751 to the bases 2..7,
    # 3825123056546413051 to the bases 2..31; 561 is a Carmichael number
    assert not is_prime(n)
    fs = factorization(n)
    assert len(fs) > 1
    prod = 1
    for p in fs:
        assert trial_set(p) == {p}
        prod *= p
    assert prod == n


def test_certified_primes():
    for p in (2, 3, 41, 43, 999983, 1000000007, 2**61 - 1, 2**31 - 1):
        assert is_prime(p)
    assert not any(is_prime(n) for n in (-7, 0, 1, 4, 1849, 2**61 + 1))
    # the strong pseudoprime to the first 12 prime bases, caught by 41
    assert not is_prime(318665857834031151167461)


def test_no_primality_verdict_above_the_bound():
    # the bound is itself a strong pseudoprime to all 13 bases: above it a
    # passing number is refused, never called prime
    with pytest.raises(BitBudgetError):
        is_prime(PRIME_CERT_BOUND)
    with pytest.raises(BitBudgetError):
        prime_factors(2**89 - 1)
    # a witness still proves a large number composite
    assert not is_prime(2**89 + 1)


def test_unsplittable_composite_is_refused_in_bounded_time():
    # two primes of 61 and 89 bits: composite by Miller-Rabin, out of the
    # rho budget's reach
    t0 = time.perf_counter()
    with pytest.raises(BitBudgetError, match="rho"):
        prime_factors((2**61 - 1) * (2**89 - 1))
    assert time.perf_counter() - t0 < 10


def test_place_validation_is_certified():
    t0 = time.perf_counter()
    assert Place(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1
    for n in (3215031751, 561, 1, 0, -3):
        with pytest.raises(UsageError):
            Place(n)
    with pytest.raises(BitBudgetError):
        Place(2**89 - 1)
