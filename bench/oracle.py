"""Reference values the benchmark checks the CLI's outputs against.

Nothing here shares an algorithm with the package under test:

- the enumeration domain comes from float roots corrected by exact integer
  steps, not from the package's integer square-root bracketing;
- primality of f(n) is a vectorised deterministic Miller-Rabin over every
  value in the domain, not a factoring sieve;
- L(1, chi_Delta) comes from the class-number formula when the fundamental
  discriminant D is negative and from the exponentially convergent erfc/E1
  series (Cohen, GTM 138, ch. 5) when D is positive, never from a partial
  sum of chi(n)/n. A non-fundamental Delta = D*m^2 multiplies by the Euler
  factors prod_{p | m} (1 - chi_D(p)/p).

The one package function used is ``class_number``, which counts reduced
binary quadratic forms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isqrt

import numpy as np
from quadprimes.character import class_number

# Miller-Rabin with these bases is exact below 2,152,302,898,747.
_MR_BASES = (2, 3, 5, 7, 11)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                 73, 79, 83, 89, 97)
# _mulmod splits one factor at this many bits so no product exceeds int64
_SPLIT = 20
_MAX_VALUE = (1 << 40) - 1
# values below this are looked up in an Eratosthenes table instead
_TABLE_LIMIT = 1 << 21


def _last(pred, x: int) -> int:
    """Largest integer satisfying pred, where pred holds on an interval and x
    is at or to the right of that interval's right end, or inside it."""
    while not pred(x):
        x -= 1
    while pred(x + 1):
        x += 1
    return x


def _first(pred, x: int) -> int:
    """Mirror of _last: smallest integer satisfying pred, starting at or left
    of the interval's left end, or inside it."""
    while not pred(x):
        x += 1
    while pred(x - 1):
        x -= 1
    return x


def domain(a: int, b: int, c: int, n_value: int) -> list[tuple[int, int]]:
    """Closed integer intervals where 0 <= a*x^2 + b*x + c <= N, for a > 0."""
    if a <= 0:
        raise ValueError("oracle domain expects a > 0")

    def f(x: int) -> int:
        return (a * x + b) * x + c

    def under(x: int) -> bool:
        return f(x) <= n_value

    def negative(x: int) -> bool:
        return f(x) < 0

    vertex = -b / (2 * a)
    outer = b * b - 4 * a * (c - n_value)
    if outer < 0:
        return []
    r = math.sqrt(outer) / (2 * a)
    if not (under(math.floor(vertex)) or under(math.ceil(vertex))):
        return []
    lo = _first(under, math.ceil(vertex - r))
    hi = _last(under, math.floor(vertex + r))
    delta = b * b - 4 * a * c
    if delta < 0 or not (negative(math.floor(vertex)) or negative(math.ceil(vertex))):
        return [(lo, hi)]
    s = math.sqrt(delta) / (2 * a)
    gap_lo = _first(negative, math.ceil(vertex - s))
    gap_hi = _last(negative, math.floor(vertex + s))
    return [iv for iv in ((lo, gap_lo - 1), (gap_hi + 1, hi)) if iv[0] <= iv[1]]


def _mulmod(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    hi = y >> _SPLIT
    lo = y & ((1 << _SPLIT) - 1)
    return ((((x * hi) % n) << _SPLIT) + x * lo) % n


def _strong_probable_prime(values: np.ndarray, base: int) -> np.ndarray:
    d = values - 1
    s = np.zeros_like(values)
    while True:
        even = (d & 1) == 0
        if not even.any():
            break
        d = np.where(even, d >> 1, d)
        s += even
    x = np.ones_like(values)
    sq = np.full_like(values, base) % values
    e = d.copy()
    while (e > 0).any():
        odd = (e & 1) == 1
        x = np.where(odd, _mulmod(x, sq, values), x)
        sq = _mulmod(sq, sq, values)
        e >>= 1
    ok = (x == 1) | (x == values - 1)
    for _ in range(int(s.max()) - 1):
        x = _mulmod(x, x, values)
        ok |= (x == values - 1) & (s > 1)
        s -= 1
    return ok


@lru_cache(maxsize=1)
def _prime_table() -> np.ndarray:
    flags = np.ones(_TABLE_LIMIT, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(_TABLE_LIMIT - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def count_primes(values: np.ndarray) -> int:
    """Number of primes among nonnegative int64 values below 2**40."""
    if values.size == 0:
        return 0
    if int(values.max()) > _MAX_VALUE or int(values.min()) < 0:
        raise ValueError("count_primes needs 0 <= value < 2**40")
    if int(values.max()) < _TABLE_LIMIT:
        return int(_prime_table()[values].sum())
    small = np.isin(values, _SMALL_PRIMES)
    candidate = values > _SMALL_PRIMES[-1]
    for p in _SMALL_PRIMES:
        candidate &= values % p != 0
    rest = values[candidate]
    for base in _MR_BASES:
        if rest.size:
            rest = rest[_strong_probable_prime(rest, base)]
    return int(small.sum()) + int(rest.size)


def domain_and_pi(a: int, b: int, c: int, n_value: int) -> tuple[int, int]:
    """(|A|, pi_f) by direct primality over the domain."""
    size = pi_f = 0
    for lo, hi in domain(a, b, c, n_value):
        x = np.arange(lo, hi + 1, dtype=np.int64)
        size += hi - lo + 1
        pi_f += count_primes((a * x + b) * x + c)
    return size, pi_f


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def fundamental_part(delta: int) -> tuple[int, int]:
    """(D, m) with delta = D * m^2 and D a fundamental discriminant."""
    sign = -1 if delta < 0 else 1
    core = sign
    for p, e in _factor(abs(delta)).items():
        if e % 2:
            core *= p
    d = core if core % 4 == 1 else 4 * core
    m = isqrt(delta // d)
    if d * m * m != delta:
        raise ValueError(f"{delta} is not a discriminant")
    return d, m


def _chi_prime(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _chi_table(d: int, limit: int) -> list[int]:
    """chi_d(n) for 0 <= n <= limit, from chi on primes by complete
    multiplicativity."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    chi = [0] * (limit + 1)
    if limit >= 1:
        chi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        chi[n] = _chi_prime(d, p) if p == n else chi[p] * chi[n // p]
    return chi


def _e1(x: float) -> float:
    """Exponential integral E1(x) for x > 0: power series up to 1, Lentz's
    continued fraction above."""
    if x <= 1.0:
        total, term, k = 0.0, 1.0, 1
        while True:
            term *= -x / k
            add = -term / k
            total += add
            if abs(add) < 1e-17 * abs(total):
                break
            k += 1
        return -0.5772156649015329 - math.log(x) + total
    b = x + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    i = 1
    while True:
        an = -i * i
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
        i += 1
    return h * math.exp(-x)


def _l_positive_fundamental(d: int) -> float:
    """L(1, chi_d) for fundamental d > 0 by the smoothed functional-equation
    series; terms beyond n*sqrt(pi/d) = 6.5 are below 1e-18 each."""
    scale = math.sqrt(math.pi / d)
    limit = math.ceil(6.5 / scale)
    chi = _chi_table(d, limit)
    root = math.sqrt(d)
    terms = []
    for n in range(1, limit + 1):
        if chi[n]:
            y = n * scale
            terms.append(chi[n] * (math.erfc(y) / n + _e1(y * y) / root))
    return math.fsum(terms)


@lru_cache(maxsize=4096)
def l_value(delta: int) -> float:
    """L(1, chi_delta) for any non-square discriminant delta."""
    d, m = fundamental_part(delta)
    if d < 0:
        w = 6 if d == -3 else 4 if d == -4 else 2
        value = 2.0 * math.pi * class_number(d) / (w * math.sqrt(-d))
    else:
        value = _l_positive_fundamental(d)
    for p in _factor(m):
        value *= 1.0 - _chi_prime(d, p) / p
    return value
