"""The real character chi_Delta(n) = (Delta/n), its divisor convolution
lambda = 1*chi, rigorous evaluation of L(1, chi_Delta), a class-number
oracle for negative fundamental discriminants, and the exceptionality
metrics beta, L, B, g(Delta) derived from L(1, chi_Delta).

The L-value is a partial sum sum_{n<=M} chi(n)/n whose cutoff M is chosen
so that the Abel-summation tail bound

    |tail| <= 2*K/(M+1),   K = sqrt(|Delta|)*log|Delta|

(K bounding all partial character sums, Polya-Vinogradov form) is below the
requested tolerance. The returned error bound is rigorous, not a heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import (
    DegenerateA,
    NotADiscriminant,
    NotFundamental,
    RangeExceeded,
    ToleranceUnreachable,
    UndefinedSymbol,
)
from .polynomial import AdmissiblePolynomial
from .primes import factorize

# l_one builds a full period table of chi when |Delta| is at most this;
# beyond it each term falls back to a direct symbol evaluation (slow but
# memory-safe for huge discriminants).
CHI_PERIOD_LIMIT = 4 * 10**6

DEFAULT_CUTOFF_CAP = 10**9

_spf_limit = 0
_spf: list[int] = []


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


def lambda_(delta: int, n: int) -> int:
    """The divisor convolution (1*chi_Delta)(n) = sum over d|n of chi_Delta(d).

    Multiplicative; on primes it is 1 + chi_Delta(p). Nonnegative for every
    discriminant because each local factor is a geometric character sum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    for p, e in factorize(n):
        chi_p = kronecker(delta, p)
        if chi_p == 1:
            out *= e + 1
        elif chi_p == -1 and e % 2 == 1:
            return 0
        # chi_p == 0 or (-1 with even e): factor 1
    return out


def _spf_table(limit: int) -> list[int]:
    """Smallest-prime-factor table up to limit, cached and grown geometrically."""
    global _spf_limit, _spf
    if limit > _spf_limit:
        size = max(limit, 2 * _spf_limit, 1 << 10)
        spf = list(range(size + 1))
        for p in range(2, isqrt(size) + 1):
            if spf[p] == p:
                for m in range(p * p, size + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        _spf, _spf_limit = spf, size
    return _spf


@lru_cache(maxsize=128)
def _chi_period(delta: int) -> tuple[int, ...]:
    """chi_Delta over one period: entry r is chi(n) for n = r (mod |delta|)."""
    q = abs(delta)
    spf = _spf_table(q)
    vals = [0] * (q + 1)
    vals[1] = 1
    for n in range(2, q + 1):
        p = spf[n]
        vals[n] = kronecker(delta, p) if n == p else vals[p] * vals[n // p]
    table = vals[:q]
    table[0] = vals[q]  # n = 0 (mod q) shares a factor with delta, so this is 0
    return tuple(table)


def _partial_sum(delta: int, m_cut: int) -> float:
    """sum_{n<=m_cut} chi_Delta(n)/n with block-compensated accumulation."""
    q = abs(delta)
    parts: list[float] = []
    if q <= CHI_PERIOD_LIMIT:
        period = np.array(_chi_period(delta), dtype=np.float64)
        chi_row = np.roll(period, -1)  # row r is chi(k*q + r + 1)
        full_blocks = m_cut // q
        group = max(1, (1 << 21) // q)
        k = 0
        while k < full_blocks:
            kb = min(group, full_blocks - k)
            ns = np.arange(k * q + 1, (k + kb) * q + 1, dtype=np.float64)
            np.reciprocal(ns, out=ns)
            parts.append(float((ns.reshape(kb, q) @ chi_row).sum()))
            k += kb
        start = full_blocks * q + 1
        if start <= m_cut:
            ns = np.arange(start, m_cut + 1, dtype=np.int64)
            vals = period[ns % q]
            parts.append(float(np.dot(vals, 1.0 / ns.astype(np.float64))))
    else:
        # huge modulus: no table, evaluate the symbol term by term
        acc = 0.0
        comp = 0.0
        for n in range(1, m_cut + 1):
            chi_n = kronecker(delta, n)
            if chi_n:
                y = chi_n / n - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
        parts.append(acc)
    return math.fsum(parts)


def l_one(
    delta: int, tolerance: float, *, cutoff_cap: int = DEFAULT_CUTOFF_CAP
) -> tuple[float, float]:
    """L(1, chi_Delta) as a partial sum with a rigorous tail bound.

    Returns (value, error_bound) with error_bound = 2*K/(M+1) <= tolerance,
    K = sqrt(|Delta|)*log|Delta|. Raises ToleranceUnreachable when the
    required cutoff M would exceed cutoff_cap.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    _require_discriminant(delta)
    q = abs(delta)
    k_bound = math.sqrt(q) * math.log(q)
    m_cut = max(math.ceil(2.0 * k_bound / tolerance), 16)
    if m_cut > cutoff_cap:
        raise ToleranceUnreachable(
            f"tolerance {tolerance:g} needs cutoff {m_cut}, cap is {cutoff_cap}"
        )
    value = _partial_sum(delta, m_cut)
    return value, 2.0 * k_bound / (m_cut + 1)


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def is_fundamental_discriminant(delta: int) -> bool:
    """Classical predicate: delta = 1 (mod 4) squarefree, or delta = 4m with
    m = 2 or 3 (mod 4) squarefree."""
    if delta == 0:
        return False
    if delta % 4 == 1:
        return _squarefree(abs(delta))
    if delta % 4 == 0:
        m = delta // 4
        return m % 4 in (2, 3) and _squarefree(abs(m))
    return False


def class_number(delta: int) -> int:
    """h(delta) for delta < 0 by enumeration of reduced binary quadratic forms
    (a, b, c): b^2 - 4ac = delta, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    if delta >= 0:
        raise ValueError("class_number expects delta < 0")
    h = 0
    b = delta % 2
    while 3 * b * b <= -delta:
        m = (b * b - delta) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                # forms (a, +-b, m//a); the +-b pair collapses on the boundary
                h += 1 if (b == 0 or a == b or a * a == m) else 2
            a += 1
        b += 2
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
    s_diagnostic is 0.5*sqrt(beta/B), defined only when beta > 0.
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
    s_diagnostic: float | None


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

    s_diag = 0.5 * math.sqrt(beta / b_cap) if beta > 0 else None

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
        s_diagnostic=s_diag,
    )
