"""Least-prime-factor sieve over the values f(n) on the enumeration domain.

When a | b, f(c2 - n) = f(n) with c2 = -b/a, and the domain is symmetric
under n -> c2 - n, so only n > c2/2 is sieved, each count taken twice, with
the centre c2/2 once when it is an integer of the domain. Each span of
consecutive n is one int32 array of least-prime positions. Every root r of
f modulo a prime p <= sqrt(max f), read off the polynomial's root table as
flat (p, r) arrays, strikes the positions n = r (mod p) with p's position
in the table, so the least position is the least prime. A prime that hits
the span at least SLICE_HITS times does so by one strided slice write,
smallest last; the other hits are gathered into batches of positions, each
written by one np.minimum.at: the bucket sieve of Oliveira e Silva, Herzog
and Pardi (Math. Comp. 83, 2014). A value nothing struck keeps position
T = table size: it is 1, a prime above the strike limit, or 0 when T = 0.
One np.bincount over the positions counts each table prime as an lpf; the
values f(n) themselves are computed only where f(n) <= isqrt(N), the only
values a count reads: on the enumeration domain for isqrt(N), solved once.

The histogram keys every lpf up to isqrt(N) exactly and pools anything
larger into a single bucket, which is all the resolution the sifting counts
S(A, z) need for z <= isqrt(N) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, NotPrime, ResolutionExceeded
from .polynomial import (
    AdmissiblePolynomial,
    EnumerationDomain,
    PrimeRootTable,
    enumeration_domain,
    prime_root_table,
    roots_mod,
    roots_mod_prime,  # noqa: F401  (unused here; bench/tracer.py wraps this name)
)
from .primes import _mod_each, is_prime, primes_upto  # noqa: F401  (primes_upto: as above)

DEFAULT_MAX_N = 10**12
DEFAULT_MAX_SIEVE_PRIME = 2 * 10**6
# values per span: the kernel's arrays are this long
SPAN = 1 << 20
# the kernel's values are at most isqrt(N), but the root table to isqrt(max f)
# needs p^2 < 2^63 (MAX_TABLE_PRIME): N is refused above this round bound
MAX_SAFE_N = 10**18
# a prime with at least this many hits in a span strikes by a slice write
SLICE_HITS = 64
# the prime at position T: above any key_cap, so no value at most key_cap is it
ABOVE_KEYS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SieveBudget:
    """Resource caps for a sieve run. Exceeding one raises BudgetExceeded
    before any heavy allocation happens. max_sieve_prime caps every prime a
    run lists: the root table's are at most it, and V(|A|)'s at most
    2 max_sieve_prime + 1 (checked_domain)."""

    max_n: int = DEFAULT_MAX_N
    max_sieve_prime: int = DEFAULT_MAX_SIEVE_PRIME


@dataclass(frozen=True)
class SieveResult:
    """Exact counts from one sieve pass.

    lpf_histogram maps least prime factors <= key_cap to multiplicities;
    large_prime_count pools values whose least prime factor exceeds key_cap
    (necessarily prime values themselves when key_cap = isqrt(N) and the
    value is a single prime above the strike limit, or composites whose
    smallest factor is large). unit_count counts f(n) = 1, zero_count counts
    f(n) = 0 (always 0 for admissible f, kept as a consistency check).
    """

    pi_f: int
    cardinality_a: int
    n_value: int
    key_cap: int
    max_value: int
    unit_count: int
    zero_count: int
    large_prime_count: int
    lpf_histogram: dict[int, int] = field(repr=False)
    domain: EnumerationDomain = field(repr=False)
    root_table: PrimeRootTable | None = field(default=None, compare=False, repr=False)


def _max_value(f: AdmissiblePolynomial, domain: EnumerationDomain) -> int:
    # f is convex or concave, so its max over [lo, hi] is at an endpoint or
    # at one of the integers flanking the vertex -b/(2a)
    vertex = -f.b // (2 * f.a)
    return max(
        f(n) for lo, hi in domain.intervals for n in (lo, hi, vertex, vertex + 1) if lo <= n <= hi
    )


def _strike_rows(table: PrimeRootTable) -> tuple[np.ndarray, ...]:
    """The table flattened to (p, r, int32 position in table.primes) per root,
    p ascending; then the prime at each position, and ABOVE_KEYS at T."""
    flat = np.flatnonzero(table.roots >= 0)  # root j of row i sits at 2 i + j
    rows = flat >> 1
    prime_at = np.append(table.primes, ABOVE_KEYS)
    return table.primes[rows], table.roots.take(flat), rows.astype(np.int32), prime_at


def _scatter_min(
    lpf: np.ndarray, p: np.ndarray, first: np.ndarray, hits: np.ndarray, pos: np.ndarray
) -> None:
    """lpf[first + k p] = min(lpf[...], pos) for 0 <= k < hits, row by row.
    The positions are a cumsum of steps: p within a row, and from the last
    hit of one row to the first hit of the next between rows."""
    steps = np.repeat(p, hits)
    last = first + (hits - 1) * p
    steps[np.cumsum(hits) - hits] = first - np.concatenate(([0], last[:-1]))
    np.minimum.at(lpf, np.cumsum(steps), np.repeat(pos, hits))


def _pieces(f: AdmissiblePolynomial, domain: EnumerationDomain) -> list[tuple[int, int, int]]:
    """(lo, hi, weight) runs of n holding each value of f on the domain
    weight times in all. When a | b, f(c2 - n) = f(n) with c2 = -b/a, and
    the domain, where 0 <= f <= N, is symmetric under n -> c2 - n: each
    interval is cut to n > c2/2 with weight 2, and the centre c2/2, when it
    is an integer of the interval, is its own piece with weight 1. Else each
    interval is a piece with weight 1."""
    if f.b % f.a:
        return [(lo, hi, 1) for lo, hi in domain.intervals]
    c2 = -f.b // f.a
    pieces = []
    for lo, hi in domain.intervals:
        if c2 % 2 == 0 and lo <= c2 // 2 <= hi:
            pieces.append((c2 // 2, c2 // 2, 1))
        pieces.append((max(lo, c2 // 2 + 1), hi, 2))
    return [piece for piece in pieces if piece[0] <= piece[1]]


def _values(f: AdmissiblePolynomial, lo: int, hi: int) -> np.ndarray:
    """f(n) for lo <= n <= hi as int64 by two cumulative sums over f(lo),
    f(lo+1) - f(lo), then the second difference 2a (bounded by the values
    once there are three): every partial sum is some f(n+1) - f(n) or f(n),
    so none overflows where the values fit, even for coefficients beyond
    int64, where (a n + b) n + c would."""
    length = hi - lo + 1
    values = np.full(length, 2 * f.a if length > 2 else 0, dtype=np.int64)
    values[0] = f(lo)
    if length > 1:
        values[1] = f(lo + 1) - f(lo)
        np.cumsum(values[1:], out=values[1:])
    np.cumsum(values, out=values)
    return values


def _segment_counts(
    f: AdmissiblePolynomial,
    lo: int,
    hi: int,
    strikes: tuple[np.ndarray, ...],
    small: tuple[tuple[int, int], ...],
) -> tuple[int, int, int, int, np.ndarray, np.ndarray]:
    """(pi, units, zeros, large, counts, apart) over n in [lo, hi], a span
    where f >= 0. small is enumeration_domain(f, key_cap).intervals: the n
    where f(n) <= key_cap, whose values must fit int64. counts[i] counts the
    values above 0 whose lpf is the prime at table position i; apart holds
    the unstruck primes at most key_cap. strikes is _strike_rows' (p, r,
    position, prime_at).

    A prime with at least SLICE_HITS hits in the span strikes by a slice
    write, smallest last; the others by np.minimum.at in batches of fewer
    than 2 * length hit positions. f is evaluated only on small clipped to
    the span. Beside the span's lpf array and those values, only per-row
    arrays the size of strikes are allocated."""
    p, r, pos, prime_at = strikes
    unstruck = prime_at.size - 1
    length = hi - lo + 1
    lpf = np.full(length, unstruck, dtype=np.int32)
    first = (r - _mod_each(lo, p)) % p
    split = int(np.searchsorted(p, length // SLICE_HITS, side="right"))
    hits = (length - 1 - first[split:]) // p[split:] + 1
    rows = split + np.flatnonzero(hits)
    hits = hits[hits > 0]
    # cut after the last row whose running hit count is within each multiple
    # of length: a row has at most length hits, so no batch is empty and
    # none holds 2 * length positions
    cuts = np.searchsorted(np.cumsum(hits), np.arange(length, hits.sum(), length), side="right")
    for batch, batch_hits in zip(np.split(rows, cuts), np.split(hits, cuts)):
        _scatter_min(lpf, p[batch], first[batch], batch_hits, pos[batch])
    for q, start, at in zip(*(x[:split][::-1].tolist() for x in (p, first, pos))):
        lpf[start::q] = at
    counts = np.bincount(lpf, minlength=unstruck + 1)
    # the units, the zeros and each prime keyed as its own lpf are at most key_cap
    runs = [(max(s, lo), min(e, hi)) for s, e in small]
    runs = [(s, e) for s, e in runs if s <= e]
    v = np.concatenate([_values(f, s, e) for s, e in runs] or [np.zeros(0, np.int64)])
    at = np.concatenate([lpf[s - lo : e - lo + 1] for s, e in runs] or [lpf[:0]])
    below = at[v < 1]
    if below.size:  # no bucket but the zero count holds a zero value
        np.subtract.at(counts, below, 1)
    units = int(np.count_nonzero(v == 1))
    apart = v[(at == unstruck) & (v > 1)]
    # an unstruck value above 1 is prime, and a struck one if it is its prime
    pi_count = int(counts[unstruck]) - units + int(np.count_nonzero(prime_at[at] == v))
    large = int(counts[unstruck]) - units - apart.size
    zeros = int(below.size)
    return pi_count, units, zeros, large, counts[:unstruck], apart


def strike_limit(f: AdmissiblePolynomial, domain: EnumerationDomain) -> int:
    """isqrt(max f on the domain), 0 if it is empty: sieve_pi's root table limit."""
    return isqrt(_max_value(f, domain)) if domain.intervals else 0


def checked_domain(
    f: AdmissiblePolynomial, n_value: int, budget: SieveBudget
) -> EnumerationDomain:
    """The enumeration domain, once every check sieve_pi makes before it
    allocates has passed; raises what sieve_pi would raise.

    These checks also bound V(|A|), whose primes are below |A|. Let M be the
    max of f on the domain and s = sqrt(M / |a|). Each n of the domain lies
    within s of the vertex v = -b/2a when Delta < 0 (f >= |a| (n - v)^2), or
    within s of its nearer real root r, on the one side of r where f >= 0
    (f = |a| |n - r| |n - r'| >= |a| (n - r)^2). Either way the domain lies
    in two real segments of length s, or one of length 2 s, so |A| <=
    2 isqrt(M) + 2: V's primes are at most 2 strike_limit + 1 <=
    2 max_sieve_prime + 1. As M <= N <= MAX_SAFE_N, that is also at most
    2 10^9 + 1 < MAX_TABLE_PRIME."""
    if n_value < 1:
        raise ValueError("n_value must be >= 1")
    if n_value > budget.max_n:
        raise BudgetExceeded(f"N = {n_value} exceeds budget max_n = {budget.max_n}")
    if n_value > MAX_SAFE_N:
        raise BudgetExceeded(f"N = {n_value} exceeds the int64-safe bound {MAX_SAFE_N}")
    domain = enumeration_domain(f, n_value)
    limit = strike_limit(f, domain)
    if limit > budget.max_sieve_prime:
        raise BudgetExceeded(
            f"sieve needs primes to {limit}, budget max_sieve_prime = "
            f"{budget.max_sieve_prime}"
        )
    return domain


def sieve_pi(
    f: AdmissiblePolynomial,
    n_value: int,
    budget: SieveBudget | None = None,
    *,
    domain: EnumerationDomain | None = None,
    table: PrimeRootTable | None = None,
) -> SieveResult:
    """Count primes among f(n) on the enumeration domain and classify every
    value by least prime factor. Every count is an exact integer, so the
    result does not depend on the span. A caller that has already
    run checked_domain(f, n_value, budget) passes its result as domain, and
    f's root table to strike_limit(f, domain) as table."""
    budget = budget or SieveBudget()
    if domain is None:
        domain = checked_domain(f, n_value, budget)
    key_cap = isqrt(n_value)
    if not domain.intervals:
        return SieveResult(0, 0, n_value, key_cap, 0, 0, 0, 0, {}, domain)
    vmax = _max_value(f, domain)
    # V(|A|) reads rho from this same table, and above it from Euler's criterion
    if table is None:
        table = prime_root_table(f, isqrt(vmax))
    elif table.f != f or table.limit != isqrt(vmax):
        raise ValueError(f"not the root table of {f} to {isqrt(vmax)}")
    strikes = _strike_rows(table)
    small = enumeration_domain(f, key_cap).intervals

    pi_f = units = zeros = large = 0
    counts, apart = np.zeros(table.primes.size, dtype=np.int64), []
    for lo, hi, weight in _pieces(f, domain):
        for start in range(lo, hi + 1, SPAN):
            part = _segment_counts(f, start, min(start + SPAN - 1, hi), strikes, small)
            pi_f, units, zeros, large = (
                x + weight * y for x, y in zip((pi_f, units, zeros, large), part)
            )
            counts += weight * part[4]
            apart += part[5].tolist() * weight
    keyed = np.flatnonzero(counts)
    hist = dict(zip(table.primes[keyed].tolist(), counts[keyed].tolist()))
    for q in sorted(apart):  # the unstruck primes at most key_cap, above the table
        hist[q] = hist.get(q, 0) + 1

    # every count is weighted by its piece, so this checks the fold as well
    total = units + zeros + large + sum(hist.values())
    if total != domain.cardinality_a:
        raise ConsistencyError(f"buckets hold {total} values, the domain {domain.cardinality_a}")
    if zeros:
        raise ConsistencyError(f"{zeros} zero values: admissible f has no integer roots")
    return SieveResult(
        pi_f=pi_f,
        cardinality_a=domain.cardinality_a,
        n_value=n_value,
        key_cap=key_cap,
        max_value=vmax,
        unit_count=units,
        zero_count=zeros,
        large_prime_count=large,
        lpf_histogram=hist,
        domain=domain,
        root_table=table,
    )


def s_count(result: SieveResult, z: float) -> int:
    """S(A, z) = #{n in the domain : gcd(f(n), P(z)) = 1}, P(z) the product of
    primes strictly below z. Exact for 2 <= z <= key_cap + 1."""
    if z < 2:
        raise ValueError("z must be >= 2")
    if z > result.key_cap + 1:
        raise ResolutionExceeded(
            f"z = {z} beyond histogram resolution {result.key_cap + 1}"
        )
    count = result.unit_count + result.large_prime_count
    count += sum(c for q, c in result.lpf_histogram.items() if q >= z)
    if z <= 2:
        # nothing is sifted: zero values survive the empty product too
        count += result.zero_count
    return count


def s_p_count(
    f: AdmissiblePolynomial,
    n_value: int,
    p: int,
    *,
    result: SieveResult | None = None,
    budget: SieveBudget | None = None,
) -> int:
    """S(A_p, p) = #{n : p | f(n) and no prime below p divides f(n)}, i.e. the
    multiplicity of p as a least prime factor. Requires prime p <= sqrt(N)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p * p > n_value:
        raise ValueError("s_p_count requires p <= sqrt(N)")
    res = result if result is not None else sieve_pi(f, n_value, budget=budget)
    return res.lpf_histogram.get(p, 0)


@dataclass(frozen=True)
class CongruenceCount:
    """|A_d| split as rho(d)/d * |A| + r_d with r_d exact up to rounding.

    within_rho records whether |r_d| <= rho(d); that holds provably when the
    domain is a single interval but can fail on split domains, so it is
    reported rather than asserted. Each interval of a split domain satisfies
    |r_d^(i)| < rho(d) on its own, so the total stays below 2 rho(d).
    """

    d: int
    a_d: int
    rho_d: int
    r_d: float
    within_rho: bool


def a_d_count(
    f: AdmissiblePolynomial,
    n_value: int,
    d: int,
    *,
    domain: EnumerationDomain | None = None,
) -> CongruenceCount:
    """Exact |A_d| = #{n in the domain : f(n) = 0 (mod d)} by counting each
    root's residue class, plus the remainder against the expected density."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    dom = domain if domain is not None else enumeration_domain(f, n_value)
    roots = roots_mod(f, d).roots
    a_d = 0
    for lo, hi in dom.intervals:
        for r in roots:
            a_d += (hi - r) // d - (lo - 1 - r) // d
    rho_d = len(roots)
    r_num = a_d * d - rho_d * dom.cardinality_a
    # each interval and root contributes an error below 1 in absolute value
    if not (abs(r_num) < 2 * rho_d * d or r_num == 0):
        raise ConsistencyError(
            f"|A_d| remainder {r_num}/{d} breaks the bound 2 rho(d) = {2 * rho_d}"
        )
    r_d = r_num / d
    return CongruenceCount(
        d=d,
        a_d=a_d,
        rho_d=rho_d,
        r_d=r_d,
        within_rho=abs(r_num) <= rho_d * d,
    )
