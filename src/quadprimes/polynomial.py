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
from array import array
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import (
    CommonFactor,
    ConsistencyError,
    NotPrime,
    ParityObstruction,
    SquareDiscriminant,
    ZeroLeadingCoefficient,
)
from .primes import factorize, is_prime, primes_upto, sqrt_mod_prime


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
    when the inner roots are real, distinct and inside the outer interval.
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


@dataclass(frozen=True, eq=False)
class PrimeRootTable:
    """Roots of f modulo every prime p <= limit. Row i of roots holds the
    roots mod primes[i] in increasing order, padded with -1."""

    f: AdmissiblePolynomial
    limit: int
    primes: np.ndarray
    roots: np.ndarray


def prime_root_table(f: AdmissiblePolynomial, limit: int) -> PrimeRootTable:
    """Roots of f modulo each prime up to limit, solved once for both the
    sieve and V. The primes come from a sieve, so none is tested again."""
    primes = primes_upto(limit)
    flat = array("q")  # 8 bytes a root, where a list of tuples costs ~15x that
    for p in primes:
        roots = _roots_mod_known_prime(f, p)
        if len(roots) > 2:
            raise ConsistencyError(f"{len(roots)} roots mod {p}: a quadratic has at most two")
        flat.extend(roots + (-1,) * (2 - len(roots)))
    roots = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    return PrimeRootTable(f, limit, np.array(primes, dtype=np.int64), roots)


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
