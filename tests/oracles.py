"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: trial-division primality, brute-force
window scans, classical sieves. Nothing imports from quadprimes so a bug in
the package cannot hide in its own oracle.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

_SIEVE_LIMIT = 10**4


def simple_sieve(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [n for n, ok in enumerate(flags) if ok]


SMALL_PRIMES = simple_sieve(_SIEVE_LIMIT)


def trial_is_prime(v: int) -> bool:
    """Trial division; valid for v up to _SIEVE_LIMIT**2 = 1e8."""
    if v < 2:
        return False
    if v > _SIEVE_LIMIT * _SIEVE_LIMIT:
        raise ValueError(f"trial oracle only covers values up to {_SIEVE_LIMIT**2}")
    for p in SMALL_PRIMES:
        if p * p > v:
            return True
        if v % p == 0:
            return v == p
    return True


def trial_lpf(v: int) -> int:
    """Least prime factor of v >= 2 by trial division; valid up to 1e8."""
    if v > _SIEVE_LIMIT * _SIEVE_LIMIT:
        raise ValueError(f"trial oracle only covers values up to {_SIEVE_LIMIT**2}")
    for p in SMALL_PRIMES:
        if p * p > v:
            return v
        if v % p == 0:
            return p
    return v


def poly_value(a: int, b: int, c: int, n: int) -> int:
    return (a * n + b) * n + c


def window_bound(a: int, b: int, c: int, n_value: int) -> int:
    """|n| beyond this cannot satisfy |f(n)| <= N, whatever the signs."""
    disc = b * b + 4 * abs(a) * (abs(c) + n_value)
    return (abs(b) + isqrt(disc)) // (2 * abs(a)) + 2


def brute_domain(a: int, b: int, c: int, n_value: int) -> list[int]:
    m = window_bound(a, b, c, n_value)
    return [n for n in range(-m, m + 1) if 0 <= poly_value(a, b, c, n) <= n_value]


def brute_pi(a: int, b: int, c: int, n_value: int) -> int:
    return sum(
        1 for n in brute_domain(a, b, c, n_value) if trial_is_prime(poly_value(a, b, c, n))
    )


def brute_lpf_counts(
    a: int, b: int, c: int, n_value: int, key_cap: int
) -> tuple[int, int, dict[int, int]]:
    """(units, values with lpf > key_cap, histogram of lpf <= key_cap) over the
    domain, each value's least prime factor found by trial division."""
    units = large = 0
    hist: dict[int, int] = {}
    for n in brute_domain(a, b, c, n_value):
        v = poly_value(a, b, c, n)
        if v == 1:
            units += 1
            continue
        q = trial_lpf(v)
        if q > key_cap:
            large += 1
        else:
            hist[q] = hist.get(q, 0) + 1
    return units, large, hist


def is_admissible(a: int, b: int, c: int) -> bool:
    if a == 0:
        return False
    if gcd(gcd(abs(a), abs(b)), abs(c)) != 1:
        return False
    if (a + b) % 2 == 0 and c % 2 == 0:
        return False
    delta = b * b - 4 * a * c
    return delta < 0 or isqrt(delta) ** 2 != delta


def rand_admissible(rng: random.Random, cmax: int) -> tuple[int, int, int]:
    while True:
        a = rng.randint(-cmax, cmax)
        b = rng.randint(-cmax, cmax)
        c = rng.randint(-cmax, cmax)
        if is_admissible(a, b, c):
            return a, b, c


def squarefree_upto(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    for q in range(2, isqrt(limit) + 1):
        flags[q * q :: q * q] = [False] * len(flags[q * q :: q * q])
    return [n for n in range(1, limit + 1) if flags[n]]


def euler_symbol(delta: int, p: int) -> int:
    """(delta/p) for odd prime p via Euler's criterion."""
    r = pow(delta % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1
