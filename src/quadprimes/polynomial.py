"""Quadratic polynomials f(x) = a x^2 + b x + c as prime-value candidates.

Admissibility screens out families that fail for trivial reasons: a zero
leading coefficient, a common coefficient factor, values that are always
even (a+b and c both even), or a square discriminant, which makes f split
over the rationals. For admissible f the module solves 0 <= f(n) <= N
exactly, and counts/locates roots of f modulo primes, prime powers and
general moduli.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt

import numpy as np

from .errors import (
    BudgetExceeded,
    CommonFactor,
    ConsistencyError,
    NotPrime,
    ParityObstruction,
    SquareDiscriminant,
    ZeroLeadingCoefficient,
)
from .primes import _mod_each, factorize, is_prime, primes_upto, sqrt_mod_prime


@dataclass(frozen=True)
class AdmissiblePolynomial:
    """Validated f(x) = a x^2 + b x + c with discriminant delta = b^2 - 4ac."""

    a: int
    b: int
    c: int
    delta: int

    def __call__(self, n: int) -> int:
        return (self.a * n + self.b) * n + self.c

    def derivative(self, n: int) -> int:
        return 2 * self.a * n + self.b

    def __str__(self) -> str:
        def term(coef: int, var: str) -> str:
            if coef == 0:
                return ""
            sign = "+" if coef > 0 else "-"
            mag = abs(coef)
            head = "" if (mag == 1 and var) else str(mag)
            return f" {sign} {head}{var}"

        body = (term(self.a, "x^2") + term(self.b, "x") + term(self.c, "")).strip()
        if body.startswith("+ "):
            body = body[2:]
        elif body.startswith("- "):
            body = "-" + body[2:]
        return body


@dataclass(frozen=True)
class EnumerationDomain:
    """Integer solution set of 0 <= f(n) <= N.

    intervals: one or two disjoint closed integer ranges (lo, hi), exact.
    x_length: the real length X from the four-branch case analysis; the
        branches not covered there are the generically empty configurations
        and report X = 0.
    cardinality_a: exact number of integers n in the ranges (the count A).
    """

    intervals: tuple[tuple[int, int], ...]
    x_length: float
    cardinality_a: int


@dataclass(frozen=True)
class RootSet:
    """All residues r mod modulus with f(r) = 0 (mod modulus)."""

    modulus: int
    roots: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.roots)


def validate(a: int, b: int, c: int) -> AdmissiblePolynomial:
    """Check the admissibility conditions and attach the discriminant.

    Raises the error naming the first violated condition: a != 0,
    gcd(a,b,c) = 1, a+b or c odd, b^2 - 4ac not a perfect square.
    """
    if a == 0:
        raise ZeroLeadingCoefficient("leading coefficient a must be nonzero")
    g = gcd(gcd(a, b), c)
    if g != 1:
        raise CommonFactor(f"gcd(a,b,c) = {g} > 1")
    if (a + b) % 2 == 0 and c % 2 == 0:
        raise ParityObstruction("a+b and c both even: every value is even")
    delta = b * b - 4 * a * c
    if delta >= 0 and isqrt(delta) ** 2 == delta:
        raise SquareDiscriminant(f"discriminant {delta} is a perfect square")
    return AdmissiblePolynomial(a, b, c, delta)


def _floor_shifted_sqrt(t: int, d: int, q: int, sign: int) -> int:
    """Exact floor((t + sign*sqrt(d)) / q) for integers t, d >= 0, q > 0."""

    def le(m: int) -> bool:
        # m <= (t + sign*sqrt(d)) / q
        r = m * q - t
        if sign > 0:
            return r <= 0 or r * r <= d
        return r <= 0 and r * r >= d

    n = (t + sign * isqrt(d)) // q
    while le(n + 1):
        n += 1
    while not le(n):
        n -= 1
    return n


def _ceil_shifted_sqrt(t: int, d: int, q: int, sign: int) -> int:
    """Exact ceil((t + sign*sqrt(d)) / q)."""
    return -_floor_shifted_sqrt(-t, d, q, -sign)


def enumeration_domain(f: AdmissiblePolynomial, n_value: int) -> EnumerationDomain:
    """Solve 0 <= f(n) <= N over the integers.

    The ranges and the count A are exact (integer square root bracketing of
    the quadratic roots). X follows the case table

        X = sqrt(delta + 4aN) / a            delta < 0, a > 0, N > |delta|/4|a|
        X = 4N / (sqrt(delta+4aN) + sqrt(delta))
                                             delta > 0, a > 0, or
                                             delta > 0, a < 0, N <= |delta|/4|a|
        X = sqrt(delta) / |a|                delta > 0, a < 0, N > |delta|/4|a|
        X = 0                                otherwise (empty configurations)

    For a < 0 the domain is solved for N - f instead: 0 <= f <= N holds
    exactly where 0 <= N - f <= N, N - f opens upward, and its discriminants
    are those of f, swapped. With a > 0 from then on, n lies between the
    roots of the outer quadratic (value N) and outside the open interval
    between the roots of the inner one (value 0), so two ranges occur exactly
    when the inner roots are real, distinct and inside the outer interval,
    and an integer lies strictly between them.
    """
    if n_value < 0:
        raise ValueError("n_value must be nonnegative")
    a, b = f.a, f.b
    outer, inner = f.delta + 4 * a * n_value, f.delta
    if a < 0:
        a, b, outer, inner = -a, -b, inner, outer
    intervals: tuple[tuple[int, int], ...] = ()
    if outer >= 0:
        lo = _ceil_shifted_sqrt(-b, outer, 2 * a, -1)
        hi = _floor_shifted_sqrt(-b, outer, 2 * a, +1)
        pieces = [(lo, hi)]
        if inner > 0:  # a double inner root (inner = 0) cuts nothing
            gap_lo = _floor_shifted_sqrt(-b, inner, 2 * a, -1) + 1
            gap_hi = _ceil_shifted_sqrt(-b, inner, 2 * a, +1) - 1
            if gap_lo <= gap_hi:  # else no integer lies between the roots
                pieces = [(lo, min(hi, gap_lo - 1)), (max(lo, gap_hi + 1), hi)]
        intervals = tuple(iv for iv in pieces if iv[0] <= iv[1])

    if inner >= 0:
        x_length = 4 * n_value / (math.sqrt(float(outer)) + math.sqrt(float(inner)))
    elif outer > 0:
        x_length = math.sqrt(float(outer)) / a
    else:
        x_length = 0.0

    cardinality = sum(hi - lo + 1 for lo, hi in intervals)
    return EnumerationDomain(intervals, x_length, cardinality)


def _roots_mod_known_prime(f: AdmissiblePolynomial, p: int) -> tuple[int, ...]:
    """Roots of f modulo p, increasing, for p already known to be prime.

    For p coprime to 2a the congruence completes to (2an+b)^2 = delta (mod p)
    and reduces to a modular square root; p = 2 and p | a fall back to
    enumeration or a linear solve.
    """
    if p == 2:
        return tuple(r for r in (0, 1) if f(r) % 2 == 0)
    if f.a % p == 0:
        if f.b % p != 0:
            return ((-f.c * pow(f.b, -1, p)) % p,)
        # p | a and p | b force p coprime to c, so no roots
        return ()
    d = f.delta % p
    if d == 0:
        return ((-f.b * pow(2 * f.a, -1, p)) % p,)
    s = sqrt_mod_prime(d, p)
    if s is None:
        return ()
    inv = pow(2 * f.a, -1, p)
    return tuple(sorted({(-f.b + s) * inv % p, (-f.b - s) * inv % p}))


def roots_mod_prime(f: AdmissiblePolynomial, p: int) -> RootSet:
    """Roots of f modulo a prime p; there are at most two."""
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return RootSet(p, _roots_mod_known_prime(f, p))


# every product of two residues mod a prime up to this bound fits int64
MAX_TABLE_PRIME = isqrt(2**63 - 1)
# below this bound p^3 < 2^63: a product of three residues, or (a r + b) r + c
# for residues a, b, c, r, fits int64 before its one reduction
_CUBE_SAFE = 1 << 21
# odd primes l tried as quadratic non-residues mod p = 1 (mod 8), each with
# the table of which residues mod l are squares
_NON_RESIDUE_CANDIDATES = tuple(
    (ell, np.isin(np.arange(ell), np.arange(ell) ** 2 % ell))
    for ell in (3, 5, 7, 11, 13, 17, 19, 23)
)
# (p, k) pairs per gather in _chi_upto, 512 KB per int64 index array; a
# gather takes whole k, so k = 1 alone holds every prime above sqrt(limit)
_CHI_GATHER = 1 << 16


@dataclass(frozen=True, eq=False)
class PrimeRootTable:
    """Roots of f modulo every prime p <= limit. Row i of roots holds the
    roots mod primes[i] in increasing order, padded with -1. period is
    chi_period(delta, primes.size), read by V above the limit too."""

    f: AdmissiblePolynomial
    limit: int
    primes: np.ndarray
    roots: np.ndarray
    period: np.ndarray | None


def check_table_limit(limit: int) -> None:
    """Raise BudgetExceeded when primes up to limit would overflow the int64
    products of the array solvers."""
    if limit > MAX_TABLE_PRIME:
        raise BudgetExceeded(
            f"root table to {limit} exceeds the int64-safe bound {MAX_TABLE_PRIME}"
        )


def prime_root_table(f: AdmissiblePolynomial, limit: int) -> PrimeRootTable:
    """Roots of f modulo each prime up to limit, solved once per polynomial.
    The primes come from a sieve, so none is tested again. Raises
    BudgetExceeded for limit > MAX_TABLE_PRIME before allocating."""
    return prime_root_tables([f], [limit])[0]


def prime_root_tables(fs: list[AdmissiblePolynomial], limits: list[int]) -> list[PrimeRootTable]:
    """prime_root_table(f, limit) for each f and its limit, the rows of all
    stacked and solved in one pass; each table equals the one solved alone."""
    for limit in limits:
        check_table_limit(limit)
    primes = primes_upto(max(limits))
    heads = [primes[: primes.searchsorted(limit, "right")] for limit in limits]
    periods = [chi_period(f.delta, head.size) for f, head in zip(fs, heads)]
    rows, ends = _root_rows(fs, heads, periods), np.cumsum([head.size for head in heads])
    return [PrimeRootTable(f, limit, head, rows[end - head.size : end], period)
            for f, limit, head, end, period in zip(fs, limits, heads, ends.tolist(), periods)]


def _scalar_primes(f: AdmissiblePolynomial, primes: np.ndarray) -> np.ndarray:
    """Indices of the primes the array solvers leave out, 2 and those dividing
    a: only the ascending primes up to max(|a|, 2) are reduced."""
    head = primes[: primes.searchsorted(min(max(abs(f.a), 2), MAX_TABLE_PRIME), "right")]
    return np.flatnonzero((head == 2) | (_mod_each(f.a, head) == 0))


def _mod_rows(values: list[int], parts: list, order=slice(None)) -> np.ndarray:
    """values[k] mod each prime of parts[k], stacked in turn, taken in order."""
    return np.concatenate([_mod_each(v, part) for v, part in zip(values, parts)])[order]


def _root_rows(fs: list, heads: list, periods: list) -> np.ndarray:
    """The (len(head), 2) root rows of each f mod the primes of its head,
    stacked in turn: p = 2 and p | a one at a time, every other row of every
    f at once over arrays, with (delta/p) from f's period if given."""
    scalars = [_scalar_primes(f, head) for f, head in zip(fs, heads)]
    rows, start = _odd_root_rows(fs, heads, scalars, periods), 0
    for f, head, scalar in zip(fs, heads, scalars):
        for i in scalar.tolist():
            roots = _roots_mod_known_prime(f, int(head[i]))
            rows[start + i, : len(roots)] = roots
        start += head.size
    return rows


def prime_rho(
    f: AdmissiblePolynomial, primes: np.ndarray, period: np.ndarray | None = None
) -> np.ndarray:
    """rho(p), the number of roots of f mod p, for each prime p <= MAX_TABLE_PRIME
    without solving for the roots: 1 + (delta/p) from legendre (given
    period, delta's chi_period table) for odd p not dividing a, p = 2 and
    p | a one at a time as in _root_rows."""
    rho = 1 + legendre(f.delta, primes, period)
    for i in _scalar_primes(f, primes).tolist():
        rho[i] = len(_roots_mod_known_prime(f, int(primes[i])))
    return rho


def _pow_mod(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base**exp mod p elementwise for 0 <= base < p, left to right over the bits
    of exp: r = r^2 base^bit in place, one reduction per bit below _CUBE_SAFE."""
    small = p.max(initial=0) < _CUBE_SAFE
    result, times, factor = np.ones_like(base), base - 1, np.empty_like(base)
    for k in range(int(exp.max(initial=0)).bit_length() - 1, -1, -1):
        np.right_shift(exp, k, out=factor)
        factor &= 1
        factor *= times
        factor += 1  # base where bit k of exp is set, else 1
        result *= result
        if not small:
            result %= p
        result *= factor
        result %= p
    return result


def _ragged_blocks(width: np.ndarray, block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (rows, j) over the flat pairs (row, j), 0 <= j < width[row], in
    runs of whole rows that hold at most block pairs (a longer row alone)."""
    # array methods skip the np.* wrappers, whose cost shows on tiny tables
    ends = width.cumsum()
    first = ends - width
    row = 0
    while row < width.size:
        stop = max(int(ends.searchsorted(first[row] + block, "right")), row + 1)
        rows = np.arange(row, stop).repeat(width[row:stop])
        yield rows, np.arange(first[row], ends[stop - 1]) - first[rows]
        row = stop


def _chi_upto(ds: list[int], limits: list[int]) -> list[np.ndarray]:
    """chi_d(n) for 0 <= n <= limit as int8, for each d and its limit: on
    primes by one _euler_symbols call, then on every n by complete
    multiplicativity: a loop over the powers of each prime up to sqrt(limit),
    then gathers over the pairs (p, k), p > sqrt(limit) and p*k <= limit, of
    at most _CHI_GATHER pairs (one gather for every limit up to 10^5)."""
    primes = primes_upto(max(limits))
    heads = [primes[: primes.searchsorted(limit, "right")] for limit in limits]
    chi_ps, end, tables = _euler_symbols(ds, heads).astype(np.int8), 0, []
    for head, limit in zip(heads, limits):
        chi_p, end = chi_ps[end : end + head.size], end + head.size
        chi = np.ones(limit + 1, dtype=np.int8)
        chi[0] = 0
        root = isqrt(limit)
        small = head.searchsorted(root, side="right")
        for p, c in zip(head[:small].tolist(), chi_p[:small].tolist()):
            power = p
            while c != 1 and power <= limit:
                chi[power::power] *= c
                power *= p
        # a prime p above sqrt(limit) divides n <= limit once, as n = p*k with
        # k < p, so no n occurs twice among the pairs (p, k) and a fancy-index
        # multiply applies each factor once
        big, chi_big = head[small:], chi_p[small:]
        k = np.arange(1, limit // (root + 1) + 1)
        for rows, j in _ragged_blocks(big.searchsorted(limit // k, "right"), _CHI_GATHER):
            chi[big[j] * k[rows]] *= chi_big[j]
        tables.append(chi)
    return tables


def chi_period(x: int, count: int) -> np.ndarray | None:
    """(x/n) for 0 <= n < |x| as int8, one period of n -> (x/n), when
    x = 0, 1 (mod 4) and 0 < |x| <= count (a table worth building for count
    primes), else None. n -> (x/n) has period |x| for such x (H. Cohen,
    GTM 138, Sec. 1.4), and the table is built by Euler's criterion on
    fewer than |x| primes."""
    m = abs(x)
    if x % 4 > 1 or not 0 < m <= count:
        return None
    [table] = _chi_upto([x], [m])
    table[0] = table[m]  # chi(|x|): 0, or 1 for x = 1
    return table[:m]


def legendre(x: int, p: np.ndarray, period: np.ndarray | None = None) -> np.ndarray:
    """The Kronecker symbol (x/p) in {-1, 0, 1} for each prime p <= MAX_TABLE_PRIME:
    by one gather p mod |x| from period, x's chi_period table (built here when
    chi_period(x, p.size) gives one), else by _euler_symbols."""
    if period is None:
        period = chi_period(x, p.size)
    if period is not None:
        return period[p % period.size].astype(np.int64)
    return _euler_symbols([x], [p])


def _euler_symbols(xs: list[int], parts: list[np.ndarray]) -> np.ndarray:
    """(x/p) in {-1, 0, 1} for each x of xs and each prime p <= MAX_TABLE_PRIME
    of its part, stacked in turn: Euler's criterion x^((p-1)/2) mod p for odd
    p, all in one _pow_mod call, and (x/2) from x mod 8. Any power other than
    0, 1 or p - 1 shows that p is not prime and raises ConsistencyError."""
    p = np.concatenate(parts)
    euler = _pow_mod(_mod_rows(xs, parts), (p - 1) >> 1, p)
    ends = list(accumulate(part.size for part in parts))
    bad = np.flatnonzero((euler > 1) & (euler != p - 1))
    if bad.size:
        x, q = xs[bisect_right(ends, bad[0])], int(p[bad[0]])
        raise ConsistencyError(f"Euler's criterion for {x} fails mod {q}: {q} is not prime")
    for i in np.flatnonzero(p == 2).tolist():
        euler[i] = (0, 1, 0, -1, 0, -1, 0, 1)[xs[bisect_right(ends, i)] % 8]
    return np.where(euler > 1, -1, euler)


def _non_residues(p: np.ndarray) -> np.ndarray:
    """A quadratic non-residue mod each prime p = 1 (mod 8): the first
    candidate l with (l/p) = -1. By reciprocity (l/p) = (p/l) for such p, a
    lookup of p mod l on the rows still open; the rare p without one among
    the candidates is searched one at a time."""
    z, open_rows = np.zeros_like(p), np.arange(p.size)
    for ell, is_square in _NON_RESIDUE_CANDIDATES:
        hit = ~is_square[p[open_rows] % ell]
        z[open_rows[hit]] = ell
        open_rows = open_rows[~hit]
    for i in open_rows.tolist():
        q = int(p[i])
        z[i] = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
    return z


def _inverse_mod(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """1/m mod p for each 0 <= m < p by the extended Euclidean algorithm over
    arrays: s0 m = r0 and s1 m = r1 (mod p) throughout; a row ends on a
    remainder 1, whose coefficient is the inverse, within Lame's log_phi(p) + 2
    steps, and one whose last nonzero remainder is not 1 raises ConsistencyError."""
    r0, r1, s0, s1 = p, m, np.zeros_like(p), np.ones_like(p)
    for _ in range(int(math.log(max(int(p.max(initial=2)), 2), (1 + 5**0.5) / 2)) + 2):
        if not (r1 > 1).any():
            break
        q = r0 // np.maximum(r1, 1)
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    wrong = np.flatnonzero((r1 != 1) & ((r1 != 0) | (r0 != 1)))
    if wrong.size:
        raise ConsistencyError(f"{m[wrong[0]]} has no inverse mod {p[wrong[0]]}")
    return np.where(r1 == 1, s1, s0) % p


def _tonelli_shanks(
    d: np.ndarray, w: np.ndarray, y: np.ndarray, p: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """s with s^2 = d mod p = q 2^e + 1 (q odd, e >= 3 non-increasing) from
    w = d^((q-1)/2) and y = z^q, z a non-residue: Tonelli-Shanks (H. Cohen,
    GTM 138, Alg. 1.5.1) on a fixed schedule. s = d^((q+1)/2), t = d^q keep
    s^2 = d t; at k = e, ..., 2 (the prefix with e >= k), t^(2^(k-2)) = -1
    multiplies s by y and t by y^2, then y is squared; a non-residue d ends too."""
    s = w * d % p
    t = w * s % p
    for k in range(int(e.max(initial=2)), 2, -1):
        n = int(np.count_nonzero(e >= k))
        c, pk, yk = t[:n], p[:n], y[:n]
        for _ in range(k - 2):
            c = c * c % pk
        flip = c != 1
        y2 = yk * yk % pk
        s[:n] = s[:n] * (1 + flip * (yk - 1)) % pk
        t[:n] = t[:n] * (1 + flip * (y2 - 1)) % pk
        y[:n] = y2
    return s * (1 + (t != 1) * (y - 1)) % p  # k = 2


def _odd_root_rows(fs: list, heads: list, scalars: list, periods: list) -> np.ndarray:
    """Root rows of each f mod each prime p <= MAX_TABLE_PRIME of its head,
    stacked in turn, left at -1 at the indices scalars (which must hold p = 2
    and each p | a) and where f's period, delta's chi_period table, gives
    (delta/p) = -1. Every row is solved at once, with its own f's residues,
    each reduced by _mod_each over the solved primes of its f.

    Completing the square turns f = 0 into (2an + b)^2 = delta, so the roots
    are (-b +- s)/(2a) with s^2 = d = delta mod p. With p - 1 = q 2^e, q odd,
    one sort on e makes each class a contiguous run, and one _pow_mod call
    serves them all: s = d^((p+1)/4) for p = 3 (mod 4); Atkin's v =
    (2d)^((p-5)/8), i = 2d v^2, s = d v (i - 1) for p = 5 (mod 8) (S. Muller,
    Des. Codes Cryptogr. 31, 2004); _tonelli_shanks for p = 1 (mod 8). d is
    a residue exactly when s^2 = d, so a row a period calls a residue that is
    none raises ConsistencyError."""
    ends = np.cumsum([head.size for head in heads])
    # the stacked primes in half the bytes; MAX_TABLE_PRIME < 2^32
    p32 = np.concatenate(heads, dtype=np.uint32, casting="unsafe")
    # 2^e is the lowest set bit of p - 1, exact in float32; e = 0 at p = 2
    e = np.frexp(((p32 - 1) & (1 - p32)).astype(np.float32))[1].astype(np.int8) - 1
    chi = np.full(p32.size, 2, dtype=np.int8)  # (delta/p) from f's period; 2 where none
    for end, head, scalar, period in zip(ends.tolist(), heads, scalars, periods):
        e[end - head.size + scalar] = 0
        if period is not None:
            chi[end - head.size : end] = period[p32[end - head.size : end] % period.size]
    e *= chi >= 0
    live = np.flatnonzero(e > 0)  # the rows solved: a run of each head in turn
    p = p32[live].astype(np.int64)
    parts = np.split(p, live.searchsorted(ends[:-1]))  # each f's solved primes
    order = np.argsort(-e[live], kind="stable")  # e >= 3, 2, 1 in turn
    solve = live[order]
    n2, m = (-e[solve]).searchsorted((-2, -1))
    p, e = p[order], e[solve][:n2]
    d = _mod_rows([f.delta for f in fs], parts, order)
    q, p1, d1 = p[:n2] >> e, p[n2:m], d[n2:m]
    two_d = 2 * d1 % p1
    power = _pow_mod(
        np.concatenate((_non_residues(p[:n2]), d[:n2], two_d, d[m:])),
        np.concatenate((q, (q - 1) >> 1, (p1 - 5) >> 3, (p[m:] + 1) >> 2)),
        np.concatenate((p[:n2], p)),
    )
    s = power[n2:]
    v = s[n2:m]
    s[n2:m] = d1 * v % p1 * (two_d * v % p1 * v % p1 - 1) % p1
    s[:n2] = _tonelli_shanks(d[:n2], s[:n2], power[:n2], p[:n2], e)
    residue = s * s % p == d
    minus_b = _mod_rows([-f.b for f in fs], parts, order)
    inv_2a = _inverse_mod(_mod_rows([2 * f.a for f in fs], parts, order), p)
    r1 = (minus_b + s) % p * inv_2a % p
    r2 = (minus_b - s) % p * inv_2a % p
    solved = np.stack((np.minimum(r1, r2), np.maximum(r1, r2)), axis=1)
    solved[d == 0, 1] = -1
    if not residue.all():
        wrong = np.flatnonzero(~residue & (chi[solve] < 2))
        if wrong.size:
            i = wrong[0]
            f = fs[ends.searchsorted(solve[i], "right")]
            raise ConsistencyError(f"the period table of {f.delta} is wrong mod {p[i]}")
        solved[~residue] = -1
    _check_roots(fs, parts, order, solved)
    rows = np.full((p32.size, 2), -1, dtype=np.int64)
    rows[solve] = solved
    return rows


def _check_roots(fs: list, parts: list, order: np.ndarray, rows: np.ndarray) -> None:
    """Raise ConsistencyError unless (a r + b) r + c = 0 (mod p) for every
    root r >= 0 of every row i, with p the prime order[i] of parts (the
    primes of each f, stacked in turn) and a, b, c those of its f; a real
    check, so it also runs under python -O."""
    p = np.concatenate(parts)[order]
    a, b, c = (_mod_rows([getattr(f, k) for f in fs], parts, order) for k in "abc")
    small = p.max(initial=0) < _CUBE_SAFE
    bad = np.zeros(p.size, dtype=bool)
    for r in rows.T:
        value = (a * r + b) * r + c if small else (a * r % p + b) % p * r + c
        bad |= (r >= 0) & (value % p != 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        f = fs[np.cumsum([part.size for part in parts]).searchsorted(order[i], "right")]
        raise ConsistencyError(f"{rows[i].tolist()} mod {p[i]}: not all roots of {f}")


def _roots_mod_prime_power(f: AdmissiblePolynomial, p: int, e: int) -> list[int]:
    """Roots of f mod p^e by Hensel lifting.

    Nonsingular roots (f'(r) nonzero mod p) lift uniquely; singular roots are
    lifted exhaustively over the p candidates per level.
    """
    roots = list(roots_mod_prime(f, p).roots)
    step = p
    for _ in range(e - 1):
        mod = step * p
        lifted: list[int] = []
        for r in roots:
            df = f.derivative(r) % p
            if df != 0:
                t = (-(f(r) // step) * pow(df, -1, p)) % p
                lifted.append(r + t * step)
            else:
                for t in range(p):
                    cand = r + t * step
                    if f(cand) % mod == 0:
                        lifted.append(cand)
        roots = lifted
        step = mod
    return sorted(roots)


def roots_mod(f: AdmissiblePolynomial, modulus: int) -> RootSet:
    """Roots of f modulo an arbitrary modulus >= 1, combined by CRT."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus == 1:
        return RootSet(1, (0,))
    residues = [0]
    m = 1
    for p, e in factorize(modulus):
        pe = p**e
        local = _roots_mod_prime_power(f, p, e)
        if not local:
            return RootSet(modulus, ())
        inv = pow(m, -1, pe)
        residues = [r + m * ((s - r) * inv % pe) for r in residues for s in local]
        m *= pe
    return RootSet(modulus, tuple(sorted(residues)))


def rho(f: AdmissiblePolynomial, d: int) -> int:
    """rho(d) = #{n mod d : f(n) = 0 (mod d)}."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return len(roots_mod(f, d))
