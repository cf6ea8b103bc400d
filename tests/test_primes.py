import math
import random
from collections import Counter

import numpy as np
import pytest

from quadprimes.errors import FactorizationOverflow
from quadprimes.primes import factorize, is_prime, primes_upto, sqrt_mod_prime

from oracles import SMALL_PRIMES, simple_sieve, trial_is_prime


def test_primes_upto_matches_reference_sieve():
    for limit in (0, 1, 2, 3, 10, 97, 98, 1000, 10**4):
        assert primes_upto(limit).tolist() == simple_sieve(limit)


def test_primes_upto_shrinks_after_growing():
    big = primes_upto(5000)
    small = primes_upto(50)
    assert small.tolist() == [p for p in big.tolist() if p <= 50]
    # one read-only int64 cache: a smaller call is a view of a larger one
    assert small.dtype == big.dtype == np.int64
    assert np.shares_memory(small, big)
    with pytest.raises(ValueError):
        small[0] = 4


def test_is_prime_matches_trial_division():
    for n in range(-5, 20000):
        assert is_prime(n) == (n >= 2 and trial_is_prime(n))


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(10**9 + 7)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_factorize_round_trip():
    rng = random.Random(7)
    below_limit = simple_sieve(10**6)
    for high in (10**9, 10**14):
        for _ in range(300):
            n = rng.randint(2, high)
            try:
                fac = factorize(n)
            except FactorizationOverflow:
                # right only when the part of n free of primes to 10^6 is composite
                rest = n
                for p in below_limit:
                    while rest % p == 0:
                        rest //= p
                assert rest > 10**12 and not is_prime(rest), n
                continue
            prod = 1
            for p, e in fac:
                assert is_prime(p)
                prod *= p**e
            assert prod == n
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    # n above 2^63, so trial division reduces n limb by limb: a smooth part
    # times one prime cofactor above the trial-division limit
    for _ in range(40):
        q = rng.randint(10**6, 10**15)
        while not is_prime(q):
            q += 1
        smooth = Counter()
        while math.prod(p**e for p, e in smooth.items()) * q < 2**63:
            smooth[rng.choice(SMALL_PRIMES + [999983])] += 1
        n = math.prod(p**e for p, e in smooth.items()) * q
        assert factorize(n) == sorted(smooth.items()) + [(q, 1)], n


def test_factorize_edge_cases():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(2**20) == [(2, 20)]
    big_prime = 10**12 + 39
    assert factorize(big_prime) == [(big_prime, 1)]


def test_factorize_overflow_on_hard_semiprime():
    n = 10000019 * 10000079  # both factors above the trial-division limit
    with pytest.raises(FactorizationOverflow):
        factorize(n)


def test_sqrt_mod_prime_round_trip():
    rng = random.Random(11)
    odd_primes = [p for p in SMALL_PRIMES if p > 2][:200]
    for _ in range(400):
        p = rng.choice(odd_primes)
        x = rng.randrange(p)
        n = x * x % p
        r = sqrt_mod_prime(n, p)
        assert r is not None
        assert r * r % p == n


def test_sqrt_mod_prime_nonresidue_returns_none():
    assert sqrt_mod_prime(2, 3) is None
    assert sqrt_mod_prime(5, 7) is None
    count = sum(1 for n in range(13) if sqrt_mod_prime(n, 13) is not None)
    assert count == 7  # 0 plus the six quadratic residues
