import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from quadprimes import polynomial
from quadprimes.character import kronecker
from quadprimes.errors import (
    BudgetExceeded,
    CommonFactor,
    ConsistencyError,
    NotPrime,
    ParityObstruction,
    SquareDiscriminant,
    ZeroLeadingCoefficient,
)
from quadprimes.polynomial import (
    MAX_TABLE_PRIME,
    enumeration_domain,
    legendre,
    prime_root_table,
    rho,
    roots_mod,
    roots_mod_prime,
    validate,
)
from quadprimes.primes import is_prime, primes_upto

from oracles import brute_domain, poly_value, rand_admissible


def test_validate_accepts_known_admissible():
    f = validate(1, 1, 41)
    assert (f.a, f.b, f.c, f.delta) == (1, 1, 41, -163)
    assert validate(1, 0, 1).delta == -4
    assert validate(-1, 1, 3).delta == 13
    assert validate(2, 1, -2).delta == 17


def test_validate_rejections_and_order():
    # each failure class, and the precedence when several apply at once
    with pytest.raises(ZeroLeadingCoefficient):
        validate(0, 1, 1)
    with pytest.raises(ZeroLeadingCoefficient):
        validate(0, 2, 4)  # zero leading coefficient outranks the common factor
    with pytest.raises(CommonFactor):
        validate(2, 2, 4)  # common factor outranks the parity obstruction
    with pytest.raises(CommonFactor):
        validate(3, 6, 9)
    with pytest.raises(ParityObstruction):
        validate(1, 1, 2)  # a+b and c both even
    with pytest.raises(ParityObstruction):
        validate(1, 3, 8)
    with pytest.raises(SquareDiscriminant):
        validate(1, 0, -1)  # delta = 4
    with pytest.raises(SquareDiscriminant):
        validate(1, 2, 1)  # delta = 0
    with pytest.raises(SquareDiscriminant):
        validate(2, 1, 0)  # delta = 1


def test_validate_matches_independent_predicate():
    from oracles import is_admissible

    rng = random.Random(2)
    for _ in range(2000):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        c = rng.randint(-20, 20)
        try:
            validate(a, b, c)
            ok = True
        except Exception:
            ok = False
        assert ok == is_admissible(a, b, c), (a, b, c)


def test_polynomial_evaluation_and_str():
    f = validate(2, -3, 2)
    assert f(0) == 2 and f(5) == 37 and f(-2) == 16
    assert f.derivative(1) == 1
    assert str(validate(1, 1, 41)) == "x^2 + x + 41"
    assert str(validate(-1, 0, 5)) == "-x^2 + 5"


def test_domain_golden_euler_polynomial():
    f = validate(1, 1, 41)
    dom = enumeration_domain(f, 100)
    assert dom.intervals == ((-8, 7),)
    assert dom.cardinality_a == 16


def test_domain_golden_two_intervals():
    f = validate(1, 0, -2)
    dom = enumeration_domain(f, 7)
    assert dom.intervals == ((-3, -2), (2, 3))
    assert dom.cardinality_a == 4
    assert dom.x_length == pytest.approx(3.17157287525381, abs=1e-10)


def test_domain_merges_touching_intervals():
    # no integer lies between the roots 0.37 and 0.77 of 7x^2 - 8x + 2
    f = validate(7, -8, 2)
    dom = enumeration_domain(f, 4481)
    assert dom.intervals == ((-24, 25),)
    assert dom.cardinality_a == 50


def test_domain_golden_negative_definite():
    f = validate(1, 0, 1)
    dom = enumeration_domain(f, 10)
    assert dom.intervals == ((-3, 3),)
    assert dom.cardinality_a == 7
    assert dom.x_length == pytest.approx(6.0, abs=1e-12)  # sqrt(delta + 4aN)
    small = enumeration_domain(f, 4)
    assert small.cardinality_a == 3
    assert small.x_length == pytest.approx(12**0.5, abs=1e-12)


def test_domain_negative_leading_branches():
    f = validate(-1, 0, 10)  # delta = 40 > 0, a < 0
    small = enumeration_domain(f, 5)  # N below |delta|/4|a| = 10
    assert small.intervals == ((-3, -3), (3, 3))
    assert small.cardinality_a == 2
    big = enumeration_domain(f, 20)  # N above the threshold
    assert big.intervals == ((-3, 3),)
    assert big.cardinality_a == 7
    assert big.x_length == pytest.approx(40**0.5, abs=1e-12)
    vertex = enumeration_domain(f, 10)  # N = delta/4|a|: f peaks at N, at n = 0
    assert vertex.intervals == ((-3, 3),)
    assert vertex.cardinality_a == 7


def test_domain_empty_when_values_never_land():
    f = validate(-1, 0, -5)  # always <= -5
    dom = enumeration_domain(f, 100)
    assert dom.intervals == ()
    assert dom.cardinality_a == 0
    assert dom.x_length == 0.0


def test_domain_matches_brute_scan_and_interval_bound():
    rng = random.Random(3)
    for _ in range(400):
        a, b, c = rand_admissible(rng, 12)
        f = validate(a, b, c)
        n_value = rng.randint(1, 4000)
        dom = enumeration_domain(f, n_value)
        got = [n for lo, hi in dom.intervals for n in range(lo, hi + 1)]
        assert got == brute_domain(a, b, c, n_value), (a, b, c, n_value)
        assert len(dom.intervals) <= 2
        for lo, hi in dom.intervals:
            assert lo <= hi
        if len(dom.intervals) == 2:
            assert dom.intervals[0][1] + 1 < dom.intervals[1][0]
        if dom.x_length >= 2:
            assert dom.x_length - 2 < dom.cardinality_a < dom.x_length + 2


def test_domain_membership_and_iteration():
    f = validate(1, 0, -2)
    dom = enumeration_domain(f, 7)
    assert dom.intervals == ((-3, -2), (2, 3))


def test_roots_mod_prime_matches_enumeration():
    rng = random.Random(4)
    plist = primes_upto(97).tolist()
    for _ in range(60):
        a, b, c = rand_admissible(rng, 15)
        f = validate(a, b, c)
        for p in plist:
            want = tuple(n for n in range(p) if poly_value(a, b, c, n) % p == 0)
            got = roots_mod_prime(f, p)
            assert got.roots == want, (a, b, c, p)
            assert got.modulus == p
            assert len(got) <= 2


def test_roots_mod_prime_matches_enumeration_to_1e4():
    # fewer polynomials, much larger primes: full enumeration below 2000,
    # then a random sample up to the 1e4 ceiling
    rng = random.Random(9)
    big = [p for p in primes_upto(10**4).tolist() if p > 2000]
    for _ in range(8):
        a, b, c = rand_admissible(rng, 30)
        f = validate(a, b, c)
        for p in primes_upto(2000).tolist() + rng.sample(big, 30):
            want = tuple(n for n in range(p) if poly_value(a, b, c, n) % p == 0)
            assert roots_mod_prime(f, p).roots == want, (a, b, c, p)


def test_roots_mod_prime_rejects_composite():
    f = validate(1, 1, 41)
    with pytest.raises(NotPrime):
        roots_mod_prime(f, 6)


def test_roots_mod_prime_linear_when_p_divides_a():
    f = validate(3, 1, 1)
    assert roots_mod_prime(f, 3).roots == (2,)  # 3*4+2+1 = 15
    g = validate(4, 2, 1)  # p=2 divides a and b, c odd: no roots
    assert roots_mod_prime(g, 2).roots == ()


def test_roots_mod_prime_powers_including_singular():
    # delta = -3 makes p = 3 singular: the root mod 3 does not lift to mod 9
    f = validate(1, 1, 1)
    assert rho(f, 3) == 1
    assert rho(f, 9) == 0
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = rand_admissible(rng, 9)
        f = validate(a, b, c)
        for pe in (2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49, 121):
            brute = sum(1 for n in range(pe) if poly_value(a, b, c, n) % pe == 0)
            assert rho(f, pe) == brute, (a, b, c, pe)


def test_roots_mod_crt_and_rho_multiplicative():
    rng = random.Random(6)
    for _ in range(80):
        a, b, c = rand_admissible(rng, 9)
        f = validate(a, b, c)
        d = rng.randint(1, 400)
        roots = roots_mod(f, d)
        brute = tuple(n for n in range(d) if poly_value(a, b, c, n) % d == 0)
        assert roots.roots == brute, (a, b, c, d)
        assert rho(f, d) == len(brute)
        d2 = rng.randint(1, 60)
        if gcd(d, d2) == 1:
            assert rho(f, d * d2) == rho(f, d) * rho(f, d2)


def test_rho_prime_at_most_two_and_rho2_at_most_one():
    rng = random.Random(8)
    for _ in range(100):
        a, b, c = rand_admissible(rng, 25)
        f = validate(a, b, c)
        assert rho(f, 2) <= 1
        for p in (3, 5, 7, 11, 13):
            assert rho(f, p) <= 2


def assert_rows_match_per_prime_solver(f, limit):
    table = prime_root_table(f, limit)
    assert table.limit == limit
    assert table.primes.tolist() == primes_upto(limit).tolist()
    assert table.roots.shape == (table.primes.size, 2)
    for p, row in zip(table.primes.tolist(), table.roots.tolist()):
        roots = roots_mod_prime(f, p).roots
        assert row == list(roots) + [-1] * (2 - len(roots)), (str(f), p)


def test_prime_root_table_matches_per_prime_solver():
    # 786433 = 3 * 2^18 + 1 has the deepest Tonelli-Shanks loop below 2e6,
    # and delta of the first polynomial has t of order 2^17 there
    for a, b, c in (
        (-30, 397, -11),  # a < 0, delta = 7 * 83 * 269 > 0, p | 2a for 2, 3, 5
        (3, 2**64 + 1, -(2**80) - 3),  # b and c beyond int64
        (1, 1, 41),
    ):
        assert_rows_match_per_prime_solver(validate(a, b, c), 786433)
    assert prime_root_table(validate(1, 1, 41), 1).primes.size == 0


def test_prime_root_table_refuses_limits_beyond_int64_products(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"primes_upto({n}) allocated")

    f = validate(1, 1, 41)
    monkeypatch.setattr(polynomial, "primes_upto", no_sieve)
    assert MAX_TABLE_PRIME == 3_037_000_499
    with pytest.raises(BudgetExceeded):
        prime_root_table(f, MAX_TABLE_PRIME + 1)
    # at the bound itself the guard lets the table through
    monkeypatch.setattr(
        polynomial, "primes_upto", lambda n: np.array([2, 3, 5, 7, 11, 13], np.int64)
    )
    table = prime_root_table(f, MAX_TABLE_PRIME)
    assert table.limit == MAX_TABLE_PRIME and table.roots.tolist() == [[-1, -1]] * 6


def test_prime_root_table_checks_every_vector_root():
    f = validate(1, 1, 41)
    p = np.array([41, 43, 47], dtype=np.int64)
    rows = np.array([[0, 40], [1, 41], [2, -1]], dtype=np.int64)
    every = np.arange(p.size)  # each of f's primes, in turn
    polynomial._check_roots([f], [p], every, rows)  # padding is not checked
    with pytest.raises(ConsistencyError):
        polynomial._check_roots([f], [p], every, rows + [[0, 0], [0, 0], [1, 0]])


def euler_legendre(x, p):
    """(x/p) by Euler's criterion alone for odd p, and kronecker(x, 2) at
    p = 2: the Kronecker symbol legendre gives on both of its paths."""
    power = polynomial._pow_mod(polynomial._mod_each(x, p), (p - 1) >> 1, p)
    return np.where(p == 2, kronecker(x, 2), np.where(power > 1, -1, power))


def test_legendre_period_table_matches_euler():
    p = primes_upto(10**4)
    # every discriminant-like x with |x| <= 400, squares and x = 1 included
    for x in (x for x in range(-400, 401) if x and x % 4 < 2):
        period = polynomial.chi_period(x, p.size)
        assert period is not None, x
        assert np.array_equal(legendre(x, p), euler_legendre(x, p)), x
        assert np.array_equal(legendre(x, p, period), euler_legendre(x, p)), x
    # the switch: |x| at the prime count takes the table, one above it does not
    q = p[:1228]
    for x in (1228, -1228, 1229):
        period = polynomial.chi_period(x, q.size)
        assert (period is None) == (abs(x) > q.size), x
        assert np.array_equal(legendre(x, q), euler_legendre(x, q)), x
    # against kronecker at every prime to 1e5, p = 2 and p | x included: x = 2, 3,
    # 6, 7 (mod 8), a non-fundamental x and |x| beyond int64
    p = primes_upto(10**5)
    for x in (-6, 3, 6, 7, -163 * 25, -(2**66 + 3), 2**70 + 1):
        assert legendre(x, p).tolist() == [kronecker(x, q) for q in p.tolist()], x


def test_inverse_mod_matches_pow():
    rng = random.Random(13)
    p = np.array(primes_upto(10**5)[1:], dtype=np.int64)
    for a in [1, -1, 2, 3, -7, 10**6 + 3, 2**62 + 1, -(2**80) - 3] + [
        rng.randint(-(2**80), 2**80) for _ in range(20)
    ]:
        odd = p[polynomial._mod_each(a, p) != 0]
        m = polynomial._mod_each(2 * a, odd)
        want = [pow(2 * a, -1, q) for q in odd.tolist()]
        assert polynomial._inverse_mod(m, odd).tolist() == want, a


# [6, 15] mod [9, 21]: the two rows' remainders alternate out of phase, which
# once kept the loop from ending; [6] mod [9] once returned 8 (6*8 = 3 mod 9)
NOT_COPRIME = (([6, 15], [9, 21]), ([6], [9]), ([0, 1], [7, 7]))


def test_inverse_mod_refuses_rows_not_coprime():
    for m, p in NOT_COPRIME[1:]:  # the first, which once hung, runs in a subprocess below
        with pytest.raises(ConsistencyError, match="no inverse"):
            polynomial._inverse_mod(np.array(m), np.array(p))
    # Lame's worst case, consecutive Fibonacci numbers, ends within the bound
    fib = [1, 2]
    while fib[-1] < MAX_TABLE_PRIME:
        fib.append(fib[-1] + fib[-2])
    m, p = np.array(fib[:-1]), np.array(fib[1:])
    assert polynomial._inverse_mod(m, p).tolist() == [pow(a, -1, q) for a, q in zip(fib, fib[1:])]


def test_inverse_mod_refuses_rows_not_coprime_under_python_o():
    code = (
        "import numpy as np\n"
        "from quadprimes import polynomial\n"
        "from quadprimes.errors import ConsistencyError\n"
        f"for m, p in {NOT_COPRIME!r}:\n"
        "    try:\n"
        "        polynomial._inverse_mod(np.array(m), np.array(p))\n"
        "    except ConsistencyError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_prime_root_table_solves_only_residue_rows():
    limit = 20000
    count = len(primes_upto(limit))  # the table's primes, which size its chi period
    assert count == 2262
    # a = 1 and |delta| two and one below and two above that count: -2260,
    # 2261, -2264 (no admissible f with a = 1 has |delta| = 2262 or 2263)
    near = [validate(1, 0, 565), validate(1, 1, -565), validate(1, 0, 566)]
    assert [prime_root_table(f, limit).period is None for f in near] == [False, False, True]
    for f in near + [
        validate(1, 1, 41),  # |delta| far below the count
        validate(-3, 1, 187),  # a < 0, delta = 2245
        validate(7, 2**64 + 1, -(2**80) - 3),  # coefficients beyond int64
        validate(-(2**70) - 1, 3, 5),
    ]:
        assert_rows_match_per_prime_solver(f, limit)


def test_period_table_calling_every_class_a_residue_raises(monkeypatch):
    monkeypatch.setattr(
        polynomial, "_chi_upto", lambda ds, limits: [np.ones(m + 1, np.int8) for m in limits])
    with pytest.raises(ConsistencyError, match="period table"):
        prime_root_table(validate(1, 1, 41), 1000)


# primes on both sides of 2^21, where _pow_mod and _check_roots go from one
# reduction per product to two, and up to MAX_TABLE_PRIME; 65537 (q = 1),
# 786433 = 3 * 2^18 + 1 and 2013265921 = 15 * 2^27 + 1 run Tonelli-Shanks deep
BELOW_2_21 = [65537, 786433] + [q for q in range(2**21 - 300, 2**21) if is_prime(q)]
ABOVE_2_21 = [q for q in range(2**21, 2**21 + 300) if is_prime(q)]
NEAR_MAX = [2013265921] + [q for q in range(MAX_TABLE_PRIME - 300, MAX_TABLE_PRIME) if is_prime(q)]
PRIME_GROUPS = (BELOW_2_21, ABOVE_2_21, NEAR_MAX, BELOW_2_21 + ABOVE_2_21 + NEAR_MAX)


def test_pow_mod_and_legendre_match_pow_across_the_one_reduction_bound():
    assert 3037000493 in NEAR_MAX and {q % 8 for q in BELOW_2_21} == {1, 3, 5, 7}
    rng = random.Random(21)
    for primes in PRIME_GROUPS:
        p = np.array(primes, dtype=np.int64)
        # (p - 1)^3 as one product overflows int64 just above 2^21
        cases = [([q - 1 for q in primes], [3] * len(primes))]
        cases += [([rng.randrange(q) for q in primes], [rng.randrange(2 * q) for q in primes])
                  for _ in range(4)]
        for base, exp in cases:
            got = polynomial._pow_mod(np.array(base), np.array(exp), p)
            assert got.tolist() == [pow(*bxq) for bxq in zip(base, exp, primes)]
        # |x| above the prime count, so legendre takes Euler's criterion
        for x in (-163, 2**61 + 1, -(2**80) - 3, rng.randrange(-(2**62), 2**62)):
            euler = [pow(x, (q - 1) // 2, q) for q in primes]
            assert legendre(x, p).tolist() == [-1 if r > 1 else r for r in euler], x
    # a composite raises on either side of the bound
    for primes, n in ((BELOW_2_21, 2**21 - 1), (NEAR_MAX, MAX_TABLE_PRIME)):
        with pytest.raises(ConsistencyError, match="not prime"):
            legendre(-163, np.array(primes + [n], dtype=np.int64))


def test_root_rows_match_per_prime_solver_across_the_one_reduction_bound():
    for a, b, c in (
        (1, 1, 41),
        (-30, 397, -11),
        (-1, -1, 2097169),  # the root p - 1 mod 2097169 makes f's value near p^3
        (1, 0, 2097143),  # delta = -4 * 2097143: a double root mod that prime
        (2097211, 1, 1),  # a prime above 2^21 divides a
        (3, 2**64 + 1, -(2**80) - 3),
    ):
        f = validate(a, b, c)
        periods = [None]
        if abs(f.delta) < 10**7:
            periods.append(polynomial.chi_period(f.delta, abs(f.delta)))
        for primes in PRIME_GROUPS:
            p = np.array(primes, dtype=np.int64)
            want = [list(roots_mod_prime(f, q).roots) for q in primes]
            want = [r + [-1] * (2 - len(r)) for r in want]
            for period in periods:
                assert polynomial._root_rows([f], [p], [period]).tolist() == want, (a, b, c)
            rows = np.array(want)
            with pytest.raises(ConsistencyError, match="not all roots"):
                polynomial._check_roots(
                    [f], [p], np.arange(p.size),
                    np.where(rows >= 0, (rows + 1) % p[:, None], rows),
                )


def _wrong_period_rows(p):
    """Root rows of x^2 + x + 41 mod p from a period table that calls
    (-163/p) = -1 a residue; x^2 + x + 41 has no root mod a prime below 41."""
    f = validate(1, 1, 41)
    period = polynomial.chi_period(f.delta, 163).copy()
    period[p] = 1
    return polynomial._root_rows([f], [np.array([p], dtype=np.int64)], [period])


@pytest.mark.parametrize("p", [7, 13, 17])  # 3 (mod 4), 5 (mod 8), 1 (mod 8)
def test_wrong_period_table_raises_in_each_class(p):
    with pytest.raises(ConsistencyError, match="period table"):
        _wrong_period_rows(p)
