"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: trial-division primality, brute-force
window scans, classical sieves, and L(1, chi) from a partial sum or from
cycles of reduced forms and a Pell equation. Nothing imports from quadprimes
so a bug in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import math
import os
import random
from math import gcd, isqrt

import numpy as np

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


def strike_arrays(pairs: list[tuple[int, tuple[int, ...]]]) -> tuple[np.ndarray, ...]:
    """The sieve kernel's strikes (p, r, int32 position, prime_at) from
    (p, roots) pairs: each root at its pair's index, and the int64 maximum
    as the prime past the last pair."""
    flat = [(p, r, i) for i, (p, roots) in enumerate(pairs) for r in roots]
    p, r, pos = np.array(flat, np.int64).reshape(-1, 3).T
    prime_at = np.array([q for q, _ in pairs] + [np.iinfo(np.int64).max], np.int64)
    return p, r, pos.astype(np.int32), prime_at


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


def kronecker_symbol(d: int, n: int) -> int:
    """(d/n) for n >= 1, from the prime factors of n: Euler's criterion at
    odd primes, d mod 8 at 2."""
    out, m, p = 1, n, 2
    while p * p <= m:
        while m % p == 0:
            out *= _symbol_at_prime(d, p)
            m //= p
        p += 1
    return out * _symbol_at_prime(d, m) if m > 1 else out


def _symbol_at_prime(d: int, p: int) -> int:
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    return euler_symbol(d, p)


def partial_sum_l_value(delta: int, tol: float) -> tuple[float, float]:
    """(value, bound): L(1, chi_delta) as sum over n <= M of chi(n)/n, with M
    the least cutoff whose Polya-Vinogradov tail bound 2*sqrt(q)*log(q)/(M+1),
    q = |delta|, is at most tol."""
    q = abs(delta)
    k_bound = math.sqrt(q) * math.log(q)
    m_cut = math.ceil(2.0 * k_bound / tol)
    period = np.array([kronecker_symbol(delta, r) if r else 0 for r in range(q)], dtype=float)
    n = np.arange(1, m_cut + 1)
    return math.fsum((period[n % q] / n).tolist()), 2.0 * k_bound / (m_cut + 1)


# The per-Delta L(1, chi) series that character.l_batch evaluates for many
# Delta in one pass, kept term for term as the reference its every bit must
# equal: the same IEEE operations in the same order, one Delta at a time.
SERIES_TERM_ULPS = 32
SERIES_EPS = 2.0**-52


def fundamental_part(delta: int) -> tuple[int, list[int]]:
    """(D, the primes dividing m, ascending) with delta = D*m^2, D
    fundamental, by trial division of |delta| to its square root."""
    rest, core, p = abs(delta), -1 if delta < 0 else 1, 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2:
            core *= p
        p += 1
    core *= rest
    d = core if core % 4 == 1 else 4 * core
    m = isqrt(delta // d)
    return d, [q for q in simple_sieve(m) if m % q == 0] if m > 1 else []


def series_tail_bound(d: int, m_terms: int) -> float:
    y = m_terms * math.sqrt(math.pi / abs(d))
    return math.exp(-y * y) / (y * y if d < 0 else math.sqrt(math.pi) * y**3)


def series_length(d: int, target: float) -> int:
    """The least M >= 1 with series_tail_bound(d, M) <= target."""
    m = 1
    while series_tail_bound(d, m) > target:
        m += 1
    return m


def series_e1(x: np.ndarray) -> np.ndarray:
    """E1(x) for x > 0 on one array: the power series up to x = 1, above it
    the continued fraction with ceil(120/sqrt(min x)) + 10 levels."""
    out = np.empty_like(x)
    low = x <= 1.0
    s = x[low]
    term, total = np.ones_like(s), np.zeros_like(s)
    for k in range(1, 20):
        term *= -s / k
        total -= term / k
    out[low] = total - np.euler_gamma - np.log(s)
    s = x[~low]
    t = np.zeros_like(s)
    for k in range(math.ceil(120 / math.sqrt(s.min(initial=np.inf))) + 10, 0, -1):
        t = k * k / (s + (2 * k + 1) - t)
    out[~low] = np.exp(-s) / (s + 1.0 - t)
    return out


def series_sums(d: int, m_terms: int, chi: np.ndarray, block: int) -> tuple[float, float]:
    """(sum, sum of |terms|) of the first m_terms terms for L(1, chi_d), d
    fundamental, chi its table to m_terms, block terms per array."""
    q = abs(d)
    scale = math.sqrt(math.pi / q)
    sums, sizes = [], []
    for start in range(1, m_terms + 1, block):
        n = np.arange(start, min(start + block, m_terms + 1), dtype=np.float64)
        y = n * scale
        erfc = np.fromiter(map(math.erfc, y.tolist()), np.float64, y.size)
        if d < 0:
            terms = math.pi / math.sqrt(q) * (erfc + np.exp(-y * y) / (math.sqrt(math.pi) * y))
        else:
            terms = erfc / n + series_e1(y * y) / math.sqrt(q)
        terms *= chi[start : start + y.size]
        sums.append(math.fsum(terms.tolist()))
        sizes.append(float(np.abs(terms).sum()))
    return math.fsum(sums), math.fsum(sizes)


def series_l_value(delta: int, tol: float, chi_upto, block: int) -> tuple[float, float]:
    """(L(1, chi_delta), error bound) one Delta at a time, chi_upto(d, M) the
    table of chi_d to M. Raises ValueError where the bound exceeds tol."""
    d, m_primes = fundamental_part(delta)
    factor = math.prod(1.0 - kronecker_symbol(d, p) / p for p in m_primes)
    m_terms = series_length(d, tol / (2.0 * factor))
    total, size = series_sums(d, m_terms, chi_upto(d, m_terms), block)
    rounding = (SERIES_TERM_ULPS + 4.0 * math.pi * m_terms**2 / abs(d)) * SERIES_EPS * size
    value = total * factor
    euler_rounding = (2 * len(m_primes) + 2) * SERIES_EPS * abs(value)
    bound = factor * (series_tail_bound(d, m_terms) + rounding) + euler_rounding
    if bound > tol:
        raise ValueError(f"tol {tol} below the certified {bound}")
    return value, bound


def class_number_negative(d: int) -> int:
    """h(d) for a discriminant d < 0: reduced primitive forms (a, b, c) with
    b^2 - 4ac = d, |b| <= a <= c, b >= 0 when |b| = a or a = c, counted by a
    scalar loop over b and a."""
    h = 0
    b = d % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0 and gcd(gcd(a, b), m // a) == 1:
                # forms (a, +-b, m//a); the +-b pair collapses on the boundary
                h += 1 if (b == 0 or a == b or a * a == m) else 2
            a += 1
        b += 2
    return h


def _rho(d: int, form: tuple[int, int, int]) -> tuple[int, int, int]:
    """The reduction operator on an indefinite form: (c, b', (b'^2 - d)/4c)
    with b' = -b (mod 2|c|) and sqrt(d) - 2|c| < b' < sqrt(d)."""
    _, b, c = form
    s = isqrt(d)
    b2 = s - (s + b) % (2 * abs(c))
    return c, b2, (b2 * b2 - d) // (4 * c)


def narrow_class_number(d: int) -> int:
    """h+(d) for d > 0 not a square: the number of rho-cycles of reduced
    primitive forms (a, b, c), where 0 < b < sqrt(d) and
    sqrt(d) - b < 2|a| < sqrt(d) + b."""
    forms = set()
    for b in range(2 - d % 2, isqrt(d) + 1, 2):
        ac = (b * b - d) // 4
        for size in range(1, isqrt(d) + 1):  # |a| < sqrt(d) when reduced
            wide = d < (2 * size + b) ** 2
            narrow = 2 * size < b or (2 * size - b) ** 2 < d
            if -ac % size == 0 and wide and narrow:
                for a in (size, -size):
                    if gcd(gcd(a, b), ac // a) == 1:
                        forms.add((a, b, ac // a))
    cycles = 0
    while forms:
        start = forms.pop()
        form = _rho(d, start)
        while form != start:
            forms.remove(form)  # rho keeps a form reduced
            form = _rho(d, form)
        cycles += 1
    return cycles


def log_totally_positive_unit(d: int) -> float:
    """log eps+ for d > 0 not a square: eps+ = (x + y sqrt d)/2 from the least
    solution of x^2 - d*y^2 = 4 with y > 0, which is eps, or eps^2 when the
    fundamental unit eps has norm -1. Above d = 16 every solution comes from a
    convergent p/q of sqrt(d): as (p, q) when p^2 - d*q^2 = 4, as (2p, 2q) when
    it is 1."""
    if d <= 16:
        y = 1
        while isqrt(d * y * y + 4) ** 2 != d * y * y + 4:
            y += 1
        x = isqrt(d * y * y + 4)
    else:
        root = isqrt(d)
        m, den, a = 0, 1, root
        p_prev, p, q_prev, q = 1, root, 0, 1
        best = None
        while best is None or q < best[1]:
            norm = p * p - d * q * q
            hit = (p, q) if norm == 4 else (2 * p, 2 * q) if norm == 1 else None
            if hit and (best is None or hit[1] < best[1]):
                best = hit
            m = den * a - m
            den = (d - m * m) // den
            a = (root + m) // den
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        x, y = best
    return math.log(x) + math.log1p(y / x * math.sqrt(d)) - math.log(2.0)  # x may be huge


def l_value_positive(d: int) -> float:
    """L(1, chi_d) for a fundamental d > 0 by the class-number formula
    2*h*log(eps)/sqrt(d), written as h+ * log(eps+) / sqrt(d)."""
    return narrow_class_number(d) * log_totally_positive_unit(d) / math.sqrt(d)


def reparsed_records(path: str, parse) -> list:
    """Every record of a run log by a full reparse in text mode: universal
    newlines, each line stripped, blank lines skipped, each line given to
    parse (records.from_json_line, passed in so nothing here imports the
    package). A missing file has none. The reference for the memoised
    readers records.load_records and records.find_latest."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [parse(line) for line in filter(None, map(str.strip, fh))]


def reparsed_latest(path: str, key: tuple, parse):
    """The last record of the log with this key, or None."""
    found = None
    for record in reparsed_records(path, parse):
        if record.key == key:
            found = record
    return found
