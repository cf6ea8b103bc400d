"""Singular-series products, the Buchstab decomposition of the sifting
function, and the main-term comparison A * V(A) against the exact prime
count.

V is a product of factors num/den over the primes. It is taken as a
pairwise product of double words (Dekker's error-free transforms) that
carries a rigorous relative error bound. Its nearest double is returned when
an exact integer check shows that the bound keeps the product clear of every
rounding boundary, and the exact big-integer ratio decides otherwise, so the
result is always the exact rational rounded once. The Buchstab identity is
evaluated entirely in integers so its residual is a hard consistency check,
not a float artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DegenerateMainTerm
from .polynomial import (
    AdmissiblePolynomial,
    PrimeRootTable,
    check_table_limit,
    prime_rho,
)
from .polynomial import roots_mod_prime  # noqa: F401  (bench/tracer.py wraps this name)
from .primes import primes_upto
from .sieve import SieveBudget, SieveResult, s_count, sieve_pi

# Relative error bounds, with u = 2^-53: u^2 for one factor num/den taken as
# the double word fl(num/den) + fl(remainder/den), the remainder exact by
# TwoProduct; 7u^2 for one double-word product by Algorithm 10 (DWTimesDW1,
# no fused multiply-add needed) of M. Joldes, J.-M. Muller and V. Popescu,
# "Tight and rigorous error bounds for basic building blocks of double-word
# arithmetic", ACM TOMS 44(2), 2017.
QUOTIENT_ERROR = 2.0**-106
PRODUCT_ERROR = 7 * 2.0**-106
# Veltkamp's constant 2^27 + 1 splits a double into two 26-bit halves
_SPLITTER = 134217729.0


def _balanced_product(factors: list[int]) -> int:
    # pairing similar-sized operands keeps big-int multiplies near O(n log n)
    if not factors:
        return 1
    while len(factors) > 1:
        nxt = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0]


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a*b) and p + e = a*b exactly: TwoProduct with
    Veltkamp splitting (T. J. Dekker, Numer. Math. 18, 1971), as numpy has
    no fused multiply-add."""
    p = a * b
    ca, cb = _SPLITTER * a, _SPLITTER * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _double_word_quotients(
    num: np.ndarray, den: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """num/den for integer-valued doubles below 2^53 as normalised double
    words (hi, lo), within QUOTIENT_ERROR: hi = fl(num/den), and the
    remainder num - hi*den, exact by TwoProduct, divided by den."""
    hi = num / den
    ph, pl = _two_product(hi, den)
    lo = ((num - ph) - pl) / den
    s = hi + lo  # Fast2Sum, as |hi| >= |lo|
    return s, lo - (s - hi)


def _double_word_product(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The products down the first axis of the double words (hi, lo) by a
    pairwise tree of DWTimesDW1 multiplies, and the number of multiplies
    each took. An odd level is padded with (1.0, 0.0), by which a multiply
    is exact."""
    products = 0
    while hi.shape[0] > 1:
        if hi.shape[0] % 2:
            hi, lo = (np.append(x, np.full_like(x[:1], v), 0) for x, v in ((hi, 1.0), (lo, 0.0)))
        xh, xl, yh, yl = hi[::2], lo[::2], hi[1::2], lo[1::2]
        ch, cl1 = _two_product(xh, yh)
        cl3 = cl1 + (xh * yl + xl * yh)
        hi = ch + cl3  # Fast2Sum
        lo = cl3 - (hi - ch)
        products += hi.shape[0]
    return hi[0], lo[0], products


def _certified_double(hi: float, lo: float, radius: float) -> float | None:
    """The double nearest to every real within radius of hi + lo, or None
    when that interval reaches a midpoint between fl(hi + lo) and a
    neighbour. Decided exactly, over the integers."""
    c = hi + lo
    values = (hi, lo, radius, math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of 2
    scale = max(d for _, d in ratios)
    h, l, r, below, mid, above = (n * (scale // d) for n, d in ratios)
    if below + mid < 2 * (h + l - r) and 2 * (h + l + r) < mid + above:
        return c
    return None


def v_product(f: AdmissiblePolynomial, z: float, *, table: PrimeRootTable | None = None) -> float:
    """V(z) = prod_{p < z} (1 - rho(p)/p), rounded to the nearest double.
    Equals 1 for z = 2 (empty product). rho(p) is read from table where it
    is f's, and above its limit is 1 + (delta/p) from the table's chi period
    or by Euler's criterion (p = 2 and p | a solved directly); no roots are
    solved. Raises BudgetExceeded, before allocating, when the primes below
    z exceed MAX_TABLE_PRIME."""
    return v_products([f], [z], [table])[0]


def v_products(fs: list, zs: list, tables: list) -> list[float]:
    """v_product(f, z, table=table) for each f, z and table, each from one
    product tree: V(z)'s factors num/den (integers below 2^53) are a column
    of a 2-D array padded with 1/1, whose double word (1.0, 0.0) multiplies
    exactly. With n factors and m multiplies, the product is within the
    relative bound S = n QUOTIENT_ERROR + m PRODUCT_ERROR of the exact value,
    which lies within 2 S (hi + lo) of it while S <= 1/4 (S is below 1e-20
    for any array that fits in memory); the radius 8 S |hi| also covers the
    rounding of S. When that interval reaches a rounding boundary, the exact
    big-integer ratio decides."""
    factors = []  # (p - rho(p), p) over the p < z with rho(p) > 0; None where V(z) = 0
    for f, z, table in zip(fs, zs, tables):
        if z < 2:
            raise ValueError("z must be >= 2")
        limit = math.ceil(z) - 1  # the largest integer below z
        check_table_limit(limit)
        primes = rho = np.empty(0, dtype=np.int64)
        own = table is not None and table.f == f
        if own:
            primes = table.primes[: np.searchsorted(table.primes, z)]
            roots = table.roots[: primes.size]
            rho = (roots[:, 0] >= 0).astype(np.int64) + (roots[:, 1] >= 0)
        if not own or table.limit < limit:
            more = primes_upto(limit)[primes.size :]
            period = table.period if own else None
            primes = np.concatenate((primes, more))
            rho = np.concatenate((rho, prime_rho(f, more, period)))
        keep = rho > 0
        primes, rho = primes[keep], rho[keep]
        factors.append(None if (rho == primes).any() else (primes - rho, primes))
    values = [0.0 if pair is None else 1.0 for pair in factors]
    live = [i for i, pair in enumerate(factors) if pair is not None and pair[0].size]
    if not live:
        return values
    sizes = [factors[i][0].size for i in live]
    num, den = np.ones((2, max(sizes), len(live)))
    for col, i in enumerate(live):
        num[: sizes[col], col], den[: sizes[col], col] = factors[i]
    hi, lo, products = _double_word_product(*_double_word_quotients(num, den))
    for i, size, h, l in zip(live, sizes, hi.tolist(), lo.tolist()):
        bound = size * QUOTIENT_ERROR + products * PRODUCT_ERROR
        values[i] = _certified_double(h, l, 8 * bound * abs(h))
        if values[i] is None:
            num_i, den_i = factors[i]
            values[i] = _balanced_product(num_i.tolist()) / _balanced_product(den_i.tolist())
    return values


@dataclass(frozen=True)
class BuchstabReport:
    """One application of Buchstab's identity

        S(A, z) - S(A, sqrt(N)) = sum_{z <= p < sqrt(N)} S(A_p, p)

    with the right-hand side split at A/z^2 and A into s1 + s2 + s3. All
    quantities are integers; identity_residual must be 0. include_sqrt_n
    switches the convention to a closed prime range z <= p <= sqrt(N) and
    simultaneously sifts S(A, sqrt(N)) by primes up to and including sqrt(N),
    which keeps the identity exact either way.
    """

    z: float
    n_value: int
    a_count: int
    s_a_z: int
    s_a_sqrt_n: int
    per_prime: tuple[tuple[int, int], ...]
    s1: int
    s2: int
    s3: int
    identity_residual: int
    include_sqrt_n: bool


def buchstab(
    f: AdmissiblePolynomial,
    n_value: int,
    z: float,
    *,
    include_sqrt_n: bool = False,
    budget: SieveBudget | None = None,
    result: SieveResult | None = None,
) -> BuchstabReport:
    """Evaluate both sides of Buchstab's identity exactly. Requires
    2 <= z <= sqrt(N)."""
    if z < 2:
        raise ValueError("z must be >= 2")
    if z * z > n_value:
        raise ValueError("z must satisfy z^2 <= N")
    res = result if result is not None else sieve_pi(f, n_value, budget=budget)
    s_a_z = s_count(res, z)
    # survivors have lpf > sqrt(N) when sqrt(N) is sifted, else lpf >= sqrt(N)
    s_sqrt = s_count(res, isqrt(n_value if include_sqrt_n else n_value - 1) + 1)

    hist = res.lpf_histogram
    per_prime = []
    for p in primes_upto(isqrt(n_value)).tolist():
        if p < z or (not include_sqrt_n and p * p == n_value):
            continue
        per_prime.append((p, hist.get(p, 0)))

    a_count = res.cardinality_a
    cut_low = a_count / (z * z)
    s1 = s2 = s3 = 0
    for p, c in per_prime:
        if p <= cut_low:
            s1 += c
        elif p <= a_count:
            s2 += c
        else:
            s3 += c

    residual = s_a_z - s_sqrt - (s1 + s2 + s3)
    return BuchstabReport(
        z=z,
        n_value=n_value,
        a_count=a_count,
        s_a_z=s_a_z,
        s_a_sqrt_n=s_sqrt,
        per_prime=tuple(per_prime),
        s1=s1,
        s2=s2,
        s3=s3,
        identity_residual=residual,
        include_sqrt_n=include_sqrt_n,
    )


@dataclass(frozen=True)
class MainTermReport:
    """pi_f(N) against the predicted main term A * V(A).

    relative_error is (pi_f - main_term) / main_term, None when the main term
    is zero or the domain is empty. theorem_bound = exp(-sqrt(beta)/6) is the
    error quality the comparison is judged against when beta > 0.
    """

    pi_f: int
    a_count: int
    v_of_a: float
    main_term: float
    relative_error: float | None
    theorem_bound: float | None
    degenerate: bool


def main_term_report(
    f: AdmissiblePolynomial,
    n_value: int,
    result: SieveResult | None = None,
    beta: float | None = None,
    *,
    budget: SieveBudget | None = None,
    v_of_a: float | None = None,
) -> MainTermReport:
    """Compare the exact prime count against A * V(A). Raises
    DegenerateMainTerm when A > 0 but V(A) vanishes; flags (rather than
    raises) the empty-domain case. A caller that has V(A) passes it as v_of_a."""
    res = result if result is not None else sieve_pi(f, n_value, budget=budget)
    a_count = res.cardinality_a
    if a_count == 0:
        return MainTermReport(res.pi_f, 0, 1.0, 0.0, None, None, True)
    v = 1.0  # the empty product for |A| = 1
    if a_count >= 2:
        v = v_of_a if v_of_a is not None else v_product(f, a_count, table=res.root_table)
    main = a_count * v
    if main == 0.0:
        raise DegenerateMainTerm(
            f"V({a_count}) = 0: some prime divides every value of f"
        )
    rel = (res.pi_f - main) / main
    bound = math.exp(-math.sqrt(beta) / 6.0) if beta is not None and beta > 0 else None
    return MainTermReport(
        pi_f=res.pi_f,
        a_count=a_count,
        v_of_a=v,
        main_term=main,
        relative_error=rel,
        theorem_bound=bound,
        degenerate=False,
    )
