"""Prime utilities: one cached Eratosthenes sieve, read as int64 arrays,
deterministic Miller-Rabin, trial-division factorization and modular square
roots (Tonelli-Shanks).

Every layer reads its primes from primes_upto, a read-only prefix of one
cached int64 array, so no caller converts, copies or mutates the sieve.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import FactorizationOverflow

# Deterministic witness set for n < 3.3e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_sieve_limit = 0
_sieve_primes = np.zeros(0, dtype=np.int64)

# factorize() refuses to trial divide past this point
TRIAL_DIVISION_LIMIT = 10**6


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as a read-only int64 view of one cached
    array from a sieve that grows geometrically: a smaller call shares the
    memory of a larger one, and a write raises ValueError. Each sieving
    prime strikes one bool array by a slice assignment, allocating nothing."""
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit, 1 << 10)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _sieve_primes = np.flatnonzero(flags).astype(np.int64, copy=False)
        _sieve_primes.flags.writeable = False
        _sieve_limit = limit
    return _sieve_primes[: _sieve_primes.searchsorted(n, "right")]


def _mod_each(x: int, p: np.ndarray) -> np.ndarray:
    """x mod each p < 2^32 for a Python int x of any size. An x outside
    int64 is reduced 30 bits at a time, so r * 2^30 + limb stays below 2^63."""
    if -(2**63) <= x < 2**63:
        return x % p
    m, r = abs(x), np.zeros_like(p)
    for shift in range(m.bit_length() // 30 * 30, -1, -30):
        r = ((r << 30) + ((m >> shift) & (2**30 - 1))) % p
    return r if x > 0 else -r % p


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_division(n: int) -> tuple[list[tuple[int, int]], int]:
    """([(p, e), ...], cofactor) for n >= 1: the prime powers p^e of n with p
    up to min(sqrt(n), TRIAL_DIVISION_LIMIT), p increasing, and the cofactor
    left, which is 1 or has no prime factor up to that bound. A cofactor > 1
    is therefore prime when it is at most TRIAL_DIVISION_LIMIT^2. The primes
    dividing n are found by one array remainder; only they are divided out."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: list[tuple[int, int]] = []
    rem = n
    primes = primes_upto(min(isqrt(n), TRIAL_DIVISION_LIMIT))
    for p in primes[_mod_each(n, primes) == 0].tolist():
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        out.append((p, e))
    return out, rem


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] with p increasing.

    Trial division by primes up to TRIAL_DIVISION_LIMIT, then a deterministic
    primality check on the cofactor; a composite cofactor out of trial range
    raises FactorizationOverflow.
    """
    out, rem = trial_division(n)
    if rem > 1:
        if rem <= TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT or is_prime(rem):
            out.append((rem, 1))
        else:
            raise FactorizationOverflow(f"composite cofactor {rem} exceeds trial division range")
    return out


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p, or None if n is a non-residue.

    Tonelli-Shanks; the p % 4 == 3 shortcut avoids the iteration entirely.
    """
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
