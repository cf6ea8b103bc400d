"""The real character chi_Delta(n) = (Delta/n), rigorous evaluation of
L(1, chi_Delta), a class-number oracle for negative fundamental
discriminants, and the exceptionality metrics beta, L, B, g(Delta) derived
from L(1, chi_Delta).

L(1, chi_Delta) comes from the series of the functional equation (H. Cohen,
GTM 138, ch. 5) at the fundamental part D of Delta = D*m^2, q = |D|,
y_n = n*sqrt(pi/q), times the Euler factors prod_{p | m} (1 - chi_D(p)/p):

    D < 0:  (pi/sqrt q) * sum chi(n) [erfc(y_n) + e^(-y_n^2)/(sqrt(pi) y_n)]
    D > 0:  q^(-1/2) * sum chi(n) [(sqrt(q)/n) erfc(y_n) + E1(y_n^2)]

The terms fall with n, so with erfc(y) <= e^(-y^2)/(sqrt(pi) y) and
E1(z) <= e^(-z)/z the tail past M is at most its integral, e^(-Y^2)/Y^2
(D < 0) or e^(-Y^2)/(sqrt(pi) Y^3) (D > 0) at Y = y_M. The error bound adds
a rounding allowance to that tail bound and is rigorous, not a heuristic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

import numpy as np

from .errors import (
    DegenerateA,
    FactorizationOverflow,
    NotADiscriminant,
    NotFundamental,
    QuadprimesError,
    RangeExceeded,
    ToleranceUnreachable,
    UndefinedSymbol,
)
from .polynomial import AdmissiblePolynomial, _chi_upto, _ragged_blocks
from .primes import TRIAL_DIVISION_LIMIT, is_prime, trial_division

# the most series terms l_one builds; 9e6 terms peak at about 90 MB
DEFAULT_CUTOFF_CAP = 10**7

# Rounding allowance per series term in units of 2^-52, plus 4*y^2 for a
# term at y: erfc(y), exp(-y^2) and E1(y^2) magnify the rounding of y by
# about 2*y^2. Measured against 40-digit values, no term exceeds the 4*y^2
# part by more than 2.2 units.
TERM_ULPS = 32
_EPS = 2.0**-52
# series terms evaluated per array, so that no array outgrows a few MB
_BLOCK = 1 << 16
# (b, a) pairs tested per array in class_number, 64 KB per int64 array. At
# 128 KB they sit at glibc's default mmap and trim thresholds, and on some
# heap layouts each block's pages go back to the OS and fault in again.
_FORM_BLOCK = 1 << 13


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta/n) by reciprocity reduction.

    Completely multiplicative in n; periodic with period dividing |delta|
    when delta = 0, 1 (mod 4). (0/0) is undefined.
    """
    if delta == 0 and n == 0:
        raise UndefinedSymbol("(0/0) is undefined")
    a, m = delta, n
    if m == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if m < 0:
        m = -m
        if a < 0:
            result = -result
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= m
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def is_discriminant(delta: int) -> bool:
    """True when delta = 0 or 1 (mod 4) and delta is not a perfect square."""
    if delta % 4 not in (0, 1):
        return False
    return delta < 0 or isqrt(delta) ** 2 != delta


def _require_discriminant(delta: int) -> None:
    if not is_discriminant(delta):
        raise NotADiscriminant(f"{delta} is not a non-square discriminant (need 0 or 1 mod 4)")


def _fundamental_part(delta: int) -> tuple[int, list[int]]:
    """(D, the primes dividing m) with delta = D*m^2 and D fundamental.

    Trial division leaves a cofactor that is 1, a prime, or free of primes
    up to TRIAL_DIVISION_LIMIT, so below TRIAL_DIVISION_LIMIT^3 it is p, p^2
    or p*q: a square exactly when it is p^2, squarefree otherwise. A
    composite cofactor at or above that raises FactorizationOverflow."""
    factors, rem = trial_division(abs(delta))
    if rem >= TRIAL_DIVISION_LIMIT**3 and not is_prime(rem):
        raise FactorizationOverflow(f"composite cofactor {rem} exceeds trial division range")
    if rem > 1:
        root = isqrt(rem)
        factors.append((root, 2) if root * root == rem else (rem, 1))  # (p*q, 1) is squarefree
    core = math.prod((p for p, e in factors if e % 2), start=-1 if delta < 0 else 1)
    d = core if core % 4 == 1 else 4 * core
    m = isqrt(delta // d)
    return d, [p for p, _ in factors if m % p == 0]


def _tail_bound(d: int, m_terms: int) -> float:
    """Bound on the sum of |term| over n > m_terms in the series for chi_d."""
    y = m_terms * math.sqrt(math.pi / abs(d))
    return math.exp(-y * y) / (y * y if d < 0 else math.sqrt(math.pi) * y**3)


def _series_length(d: int, target: float) -> int:
    """The least M >= 1 with _tail_bound(d, M) <= target; the bound falls with M."""
    hi = 1
    while _tail_bound(d, hi) > target:
        hi *= 2
    return bisect_left(range(hi + 1), True, lo=1, key=lambda m: _tail_bound(d, m) <= target)


def _e1(x: np.ndarray, edges: list[int]) -> np.ndarray:
    """Exponential integral E1(x) for x > 0, ascending in each piece
    x[edges[i]:edges[i + 1]], in one pass: the power series -gamma - log x -
    sum_k (-x)^k/(k*k!) up to x = 1, above it e^-x/(x+1- 1/(x+3- 4/(x+5- ...)))
    from the bottom, so rounding does not build up, with ceil(120/sqrt(least
    value above 1)) + 10 levels per piece (100 suffice at x = 1); deepest
    first, the values due at each level are a prefix."""
    out = np.empty_like(x)
    low = x <= 1.0
    s = x[low]
    minus, term, total = -s, np.ones_like(s), np.zeros_like(s)
    for k in range(1, 20):  # 1/(19*19!) < 2^-60
        term *= minus / k
        total -= term / k
    out[low] = total - np.euler_gamma - np.log(s)
    firsts = [(start + int(x[start:stop].searchsorted(1.0, "right")), stop)
              for start, stop in zip(edges, edges[1:])]
    deep = sorted(((math.ceil(120 / math.sqrt(x[first])) + 10, first, stop)
                   for first, stop in firsts if first < stop), reverse=True)
    take = np.concatenate([np.arange(first, stop) for _, first, stop in deep] or [np.arange(0)])
    s, t, scratch, rows, j = x[take], np.zeros(take.size), np.empty(take.size), 0, 0
    for k in range(deep[0][0] if deep else 0, 0, -1):
        while j < len(deep) and deep[j][0] == k:  # the prefix grows
            rows, j = rows + deep[j][2] - deep[j][1], j + 1
            s_k, t_k, scratch_k = s[:rows], t[:rows], scratch[:rows]
        # t = k^2/(s + (2k+1) - t) in place; both constants are exact doubles
        np.add(s_k, 2.0 * k + 1.0, out=scratch_k)
        scratch_k -= t_k
        np.divide(float(k * k), scratch_k, out=t_k)
    out[take] = np.exp(-s) / (s + 1.0 - t)
    return out


def _series(ds: list[int], counts: list[int]) -> list[tuple[float, float]]:
    """(sum, sum of |terms|) of the first counts[k] terms of the series for
    L(1, chi_d), d = ds[k] fundamental, for each k. The pieces (d, at most
    _BLOCK of its terms) go in runs of at most _BLOCK terms, with one _e1 pass
    over a run's pieces of d > 0; each piece, then each d, is summed alone."""
    chis, runs, size = {}, [[]], 0  # chis[k]: d's chi table, kept from its first piece to its last
    for k, m_terms in enumerate(counts):
        for start in range(1, m_terms + 1, _BLOCK):
            stop = min(start + _BLOCK, m_terms + 1)
            if size + stop - start > _BLOCK:
                runs, size = [*runs, []], 0
            runs[-1].append((k, start, stop))
            size += stop - start
    parts = [[] for _ in ds]  # per d, (sum, sum of |terms|) per piece
    for run in runs:
        if fresh := [k for k, start, _ in run if start == 1]:
            chis.update(zip(fresh, _chi_upto([ds[k] for k in fresh], [counts[k] for k in fresh])))
        ns = [np.arange(start, stop, dtype=np.float64) for _, start, stop in run]
        ys = [n * math.sqrt(math.pi / abs(ds[k])) for (k, _, _), n in zip(run, ns)]
        xs = [y * y for (k, _, _), y in zip(run, ys) if ds[k] > 0]
        edges = list(accumulate(map(len, xs), initial=0))
        e1, at = _e1(np.concatenate(xs), edges) if xs else None, 0
        for (k, start, stop), n, y in zip(run, ns, ys):
            q = abs(ds[k])
            erfc = np.fromiter(map(math.erfc, y.tolist()), np.float64, y.size)
            if ds[k] < 0:
                terms = math.pi / math.sqrt(q) * (erfc + np.exp(-y * y) / (math.sqrt(math.pi) * y))
            else:
                terms = erfc / n + e1[at : at + n.size] / math.sqrt(q)
                at += n.size
            terms *= (chis[k] if stop <= counts[k] else chis.pop(k))[start:stop]
            parts[k].append((math.fsum(terms.tolist()), float(np.abs(terms).sum())))
    return [tuple(map(math.fsum, zip(*piece_sums))) for piece_sums in parts]


def l_batch(deltas, tolerance: float, *, cutoff_cap: int = DEFAULT_CUTOFF_CAP) -> dict:
    """{Delta: what l_one(Delta, tolerance, cutoff_cap=cutoff_cap) returns or
    raises} for each Delta of deltas, each checked alone and all summed in one
    _series pass. An error of that shared pass raises."""
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    out, jobs = {}, []  # jobs: (Delta, D, primes dividing m, Euler factor, series length)
    for delta in dict.fromkeys(deltas):
        try:
            _require_discriminant(delta)
            d, m_primes = _fundamental_part(delta)
            factor = math.prod(1.0 - kronecker(d, p) / p for p in m_primes)
            m_terms = _series_length(d, tolerance / (2.0 * factor))
            if m_terms > cutoff_cap:
                raise ToleranceUnreachable(f"tolerance {tolerance:g} needs {m_terms} series"
                                           f" terms, cap is {cutoff_cap}")
            jobs.append((delta, d, m_primes, factor, m_terms))
        except QuadprimesError as exc:
            out[delta] = exc
    series = _series([job[1] for job in jobs], [job[4] for job in jobs]) if jobs else []
    for (delta, d, m_primes, factor, m_terms), (total, size) in zip(jobs, series):
        rounding = (TERM_ULPS + 4.0 * math.pi * m_terms**2 / abs(d)) * _EPS * size  # Y^2 = pi*M^2/q
        value = total * factor
        # each Euler factor, their product and the multiply by it add an ulp or two
        euler_rounding = (2 * len(m_primes) + 2) * _EPS * abs(value)
        bound = factor * (_tail_bound(d, m_terms) + rounding) + euler_rounding
        out[delta] = ToleranceUnreachable(
            f"tolerance {tolerance:g} is below the {bound:.1e} that double precision"
            f" certifies for L(1, chi_{delta})") if bound > tolerance else (value, bound)
    return out


def l_one(
    delta: int, tolerance: float, *, cutoff_cap: int = DEFAULT_CUTOFF_CAP, batch: dict | None = None
) -> tuple[float, float]:
    """(L(1, chi_Delta), error bound) with 0 < bound <= tolerance, from batch
    (an l_batch result holding delta) or an l_batch of delta alone. The series
    stops at the least M whose tail bound, times the Euler factors, is at most
    tolerance/2. Raises ToleranceUnreachable, before any array is built, when
    M exceeds cutoff_cap, and when the rounding allowance of TERM_ULPS + 4*Y^2
    units per term times the sum of |terms| leaves the bound above tolerance."""
    result = (l_batch([delta], tolerance, cutoff_cap=cutoff_cap) if batch is None else batch)[delta]
    if isinstance(result, QuadprimesError):
        raise result
    return result


def is_fundamental_discriminant(delta: int) -> bool:
    """Classical predicate: delta = 1 (mod 4) squarefree, or delta = 4m with
    m = 2 or 3 (mod 4) squarefree; that is, delta is its own fundamental part."""
    return delta % 4 in (0, 1) and delta != 0 and _fundamental_part(delta)[0] == delta


def class_number(delta: int) -> int:
    """h(delta) for a discriminant delta < 0: the number of reduced primitive
    forms (a, b, c), b^2 - 4ac = delta, |b| <= a <= c, b >= 0 when |b| = a or
    a = c, and gcd(a, b, c) = 1 (every form of a fundamental delta is
    primitive). The pairs (b, a) with b = delta (mod 2), 3b^2 <= |delta| and
    max(b, 1) <= a <= sqrt((b^2 - delta)/4) are tested over arrays,
    _FORM_BLOCK pairs at a time. Raises NotADiscriminant unless delta = 0, 1
    (mod 4)."""
    if delta >= 0:
        raise ValueError("class_number expects delta < 0")
    _require_discriminant(delta)
    b = np.arange(delta % 2, isqrt(-delta // 3) + 1, 2, dtype=np.int64)
    m = (b * b - delta) // 4
    low = np.maximum(b, 1)
    top = np.fromiter(map(isqrt, m.tolist()), np.int64, m.size)
    h = 0
    for rows, j in _ragged_blocks(top - low + 1, _FORM_BLOCK):
        a = low[rows] + j
        hit = np.flatnonzero(m[rows] % a == 0)
        a, rows = a[hit], rows[hit]
        b_a, c = b[rows], m[rows] // a
        primitive = np.gcd(np.gcd(a, b_a), c) == 1
        # forms (a, +-b, c); the +-b pair collapses on the boundary
        pair = primitive & (b_a != 0) & (a != b_a) & (a != c)
        h += int(np.count_nonzero(primitive)) + int(np.count_nonzero(pair))
    return h


def l_one_class_number_oracle(delta: int) -> float:
    """Independent value of L(1, chi_Delta) for fundamental delta < 0:
    2*pi*h / (w*sqrt(|Delta|)) with w = 6, 4, 2 for delta = -3, -4, below."""
    if not -(10**6) < delta < 0:
        raise RangeExceeded(f"oracle supports -1e6 < delta < 0, got {delta}")
    if not is_fundamental_discriminant(delta):
        raise NotFundamental(f"{delta} is not a fundamental discriminant")
    w = 6 if delta == -3 else 4 if delta == -4 else 2
    return 2.0 * math.pi * class_number(delta) / (w * math.sqrt(-delta))


@dataclass(frozen=True)
class ExceptionalityMetrics:
    """beta, L, B, g(Delta) and the theorem-hypothesis verdict for one run.

    The *_radius fields propagate the L-value error bound through the logs
    as interval arithmetic; b_cap is exact in the inputs and carries none.
    l_cap is the paper's L; no command prints it yet.
    """

    delta: int
    n_value: int
    a_count: int
    l_one_value: float
    l_one_error: float
    beta: float
    beta_radius: float
    l_cap: float
    l_cap_radius: float
    b_cap: float
    g_delta: float
    g_delta_radius: float
    hypotheses_hold: bool


def _g_of_beta(delta: int, abs_a: int, beta: float) -> float:
    if delta > 0:
        return delta * math.exp(-beta / 2.0)
    denom = 4.0 * abs_a - math.exp(-beta / 2.0)
    return math.inf if denom <= 0 else -delta / denom


def metrics(
    f: AdmissiblePolynomial,
    n_value: int,
    a_count: int,
    l_one_value: float,
    l_one_error: float = 0.0,
) -> ExceptionalityMetrics:
    """Closed-form exceptionality metrics from a computed L(1, chi_Delta).

        beta = -log(L(1,chi)*log|Delta|)      l_cap = -log(L(1,chi)*log A)
        b_cap = 3*log|Delta| / log A
        g = Delta*e^(-beta/2)                 (Delta > 0)
        g = |Delta| / (4|a| - e^(-beta/2))    (Delta < 0)

    hypotheses_hold tests 1 <= |a| <= e^(beta/5) and g <= N <= |a|*|Delta|^(beta/2)
    at the central values. Requires A >= 3 so that log A > 1.
    """
    if a_count < 3:
        raise DegenerateA(f"metrics require A >= 3, got {a_count}")
    if l_one_value <= 0:
        raise ValueError("l_one_value must be positive")
    if l_one_error < 0:
        raise ValueError("l_one_error must be nonnegative")
    abs_delta = abs(f.delta)
    log_delta = math.log(abs_delta)
    log_a = math.log(a_count)

    l_lo = l_one_value - l_one_error
    l_hi = l_one_value + l_one_error

    beta = -math.log(l_one_value * log_delta)
    beta_lo = -math.log(l_hi * log_delta)
    beta_hi = math.inf if l_lo <= 0 else -math.log(l_lo * log_delta)
    beta_radius = max(beta - beta_lo, beta_hi - beta)

    l_cap = -math.log(l_one_value * log_a)
    l_cap_lo = -math.log(l_hi * log_a)
    l_cap_hi = math.inf if l_lo <= 0 else -math.log(l_lo * log_a)
    l_cap_radius = max(l_cap - l_cap_lo, l_cap_hi - l_cap)

    b_cap = 3.0 * log_delta / log_a

    abs_a = abs(f.a)
    g_mid = _g_of_beta(f.delta, abs_a, beta)
    # g is decreasing in beta on both branches
    g_hi = _g_of_beta(f.delta, abs_a, beta_lo)
    g_lo = _g_of_beta(f.delta, abs_a, beta_hi) if math.isfinite(beta_hi) else 0.0
    if math.isinf(g_mid):
        g_radius = math.inf
    else:
        g_radius = max(g_hi - g_mid, g_mid - g_lo)

    try:
        n_ceiling = abs_a * abs_delta ** (beta / 2.0)
    except OverflowError:
        n_ceiling = math.inf
    hypotheses = abs_a <= math.exp(beta / 5.0) and g_mid <= n_value <= n_ceiling

    return ExceptionalityMetrics(
        delta=f.delta,
        n_value=n_value,
        a_count=a_count,
        l_one_value=l_one_value,
        l_one_error=l_one_error,
        beta=beta,
        beta_radius=beta_radius,
        l_cap=l_cap,
        l_cap_radius=l_cap_radius,
        b_cap=b_cap,
        g_delta=g_mid,
        g_delta_radius=g_radius,
        hypotheses_hold=hypotheses,
    )
