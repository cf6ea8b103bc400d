import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quadprimes import analytic
from quadprimes.analytic import (
    _certified_double,
    buchstab,
    main_term_report,
    v_product,
)
from quadprimes.errors import BudgetExceeded, ConsistencyError
from quadprimes.polynomial import MAX_TABLE_PRIME, prime_root_table, roots_mod_prime, validate
from quadprimes.primes import primes_upto
from quadprimes.sieve import sieve_pi

from oracles import SMALL_PRIMES, rand_admissible


def _fraction_v(f, z):
    out = Fraction(1)
    for p in SMALL_PRIMES:
        if p >= z:
            break
        out *= Fraction(p - len(roots_mod_prime(f, p).roots), p)
    return out


def test_v_product_golden_and_empty():
    f = validate(1, 0, 1)
    assert v_product(f, 2) == 1.0
    assert v_product(f, 10) == pytest.approx(0.3, abs=0)  # (1/2)*(3/5) exactly
    euler = validate(1, 1, 41)
    assert v_product(euler, 16) == 1.0  # rho vanishes below 16 for delta=-163


def test_v_product_matches_fraction_reference():
    rng = random.Random(20)
    for _ in range(25):
        f = validate(*rand_admissible(rng, 10))
        z = rng.uniform(2, 300)
        want = _fraction_v(f, z)
        assert v_product(f, z) == float(want), (f, z)


def test_v_product_budget(monkeypatch):
    # the int64 guard of the root table is V's only cap: primes below
    # MAX_TABLE_PRIME + 2 reach past it, refused before any prime is listed
    def no_work(*args):
        raise AssertionError("primes were listed")

    monkeypatch.setattr(analytic, "primes_upto", no_work)
    f = validate(1, 0, 1)
    with pytest.raises(BudgetExceeded, match=f"exceeds the int64-safe bound {MAX_TABLE_PRIME}"):
        v_product(f, MAX_TABLE_PRIME + 2)
    with pytest.raises(ValueError):
        v_product(f, 1.5)


def test_v_product_extends_a_short_table_bit_for_bit():
    for a, b, c in ((1, 1, 41), (-3, 7, 11), (6, 5, -13)):
        f = validate(a, b, c)
        for z in (3000, 2000.5):
            want = v_product(f, z)
            full = prime_root_table(f, 2999)
            for short in (0, 1, 2, 3, 100, 1000, 1999, 2998):
                table = prime_root_table(f, short)
                assert v_product(f, z, table=table) == want, (a, b, c, z, short)
            assert v_product(f, z, table=full) == want
            assert v_product(f, z, table=prime_root_table(validate(1, 0, 1), 5000)) == want


def _exact_v(f, z):
    primes = primes_upto(math.ceil(z) - 1).tolist()
    rho = [len(roots_mod_prime(f, p).roots) for p in primes]
    return float(Fraction(math.prod(p - r for p, r in zip(primes, rho)), math.prod(primes)))


V_CASES = (
    ((1, 1, 41), (2, 17, 3000, 54321.5, 10**5)),
    ((-3, 7, 11), (100.5, 10**5)),
    ((-30, 397, -11), (999, 77777)),
    ((3, 2**64 + 1, -(2**80) - 3), (5000, 10**5)),
    ((-(2**63) - 5, 2**70 + 1, 2**66 + 3), (2**12 + 0.25, 60000)),
)


def test_v_product_equals_the_exact_fraction():
    other = prime_root_table(validate(1, 0, 1), 10**5)
    for coefficients, zs in V_CASES:
        f = validate(*coefficients)
        for z in zs:
            want = _exact_v(f, z)
            limit = math.ceil(z) - 1
            for table in (None, prime_root_table(f, limit // 3), prime_root_table(f, limit),
                          prime_root_table(f, 2 * limit), other):
                assert v_product(f, z, table=table) == want, (coefficients, z)


def test_certificate_refuses_a_midpoint_and_accepts_just_inside():
    up, down = 2.0**-53, 2.0**-54  # midpoints from 1 to its neighbours, above and below
    assert _certified_double(1.0, up, 0.0) is None
    assert _certified_double(1.0, up - 2.0**-105, 2.0**-106) == 1.0
    assert _certified_double(1.0, up - 2.0**-105, 2.0**-105) is None
    assert _certified_double(1.0, -down, 0.0) is None
    assert _certified_double(1.0, -down + 2.0**-106, 2.0**-107) == 1.0
    assert _certified_double(1.0 + 2.0**-52, -up, 0.0) is None


def test_double_word_product_is_within_its_bound():
    rng = random.Random(31)
    for size in (1, 2, 3, 1000, 9592):
        den = np.array(rng.sample(range(2, 2**40), size), dtype=np.int64)
        num = den - np.array([rng.randint(1, 2) for _ in range(size)], dtype=np.int64)
        hi, lo, products = analytic._double_word_product(
            *analytic._double_word_quotients(num.astype(float), den.astype(float))
        )
        exact = Fraction(math.prod(num.tolist()), math.prod(den.tolist()))
        bound = size * analytic.QUOTIENT_ERROR + products * analytic.PRODUCT_ERROR
        assert products >= size - 1
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= Fraction(bound) * exact


def test_exact_fallback_gives_the_certified_values(monkeypatch):
    cases = [(validate(*coefficients), z) for coefficients, zs in V_CASES for z in zs]
    certified = [v_product(f, z) for f, z in cases]
    results = []

    def refusing(*args):
        results.append(_certified_double(*args))
        return results[-1]

    monkeypatch.setattr(analytic, "QUOTIENT_ERROR", 1.0)
    monkeypatch.setattr(analytic, "PRODUCT_ERROR", 1.0)
    monkeypatch.setattr(analytic, "_certified_double", refusing)
    assert [v_product(f, z) for f, z in cases] == certified
    # one refused certificate per non-empty product: all but z = 2 and 17 for x^2+x+41
    assert len(results) == sum(v < 1.0 for v in certified) == 11 and not any(results)


def test_euler_criterion_refuses_a_composite(monkeypatch):
    f = validate(1, 1, 41)
    monkeypatch.setattr(
        analytic, "primes_upto", lambda n: np.array([2, 3, 5, 7, 11, 13, 15, 17, 19], np.int64)
    )
    with pytest.raises(ConsistencyError):
        v_product(f, 20)


def test_v_product_non_increasing_in_z():
    rng = random.Random(24)
    for _ in range(10):
        f = validate(*rand_admissible(rng, 8))
        prev = 1.0
        for z in (2, 3, 5, 10, 30, 100, 300):
            cur = v_product(f, z)
            assert 0 < cur <= prev, (f, z)
            prev = cur


def test_buchstab_identity_golden():
    f = validate(1, 0, 1)
    rep = buchstab(f, 10**4, 5.0)
    assert rep.identity_residual == 0
    assert rep.s_a_z == 99  # even n survive sifting by {2, 3}
    assert rep.s1 + rep.s2 + rep.s3 == rep.s_a_z - rep.s_a_sqrt_n
    assert rep.s1 == 40  # only p = 5 sits below A/z^2 = 7.96
    assert rep.s3 == 0
    assert dict(rep.per_prime)[5] == 40


def test_buchstab_residual_zero_on_randoms():
    rng = random.Random(23)
    for _ in range(80):
        f = validate(*rand_admissible(rng, 10))
        n_value = rng.randint(100, 50000)
        z = rng.uniform(2, math.sqrt(n_value))
        flag = rng.random() < 0.5
        rep = buchstab(f, n_value, z, include_sqrt_n=flag)
        assert rep.identity_residual == 0, (f, n_value, z, flag)
        assert rep.s1 >= 0 and rep.s2 >= 0 and rep.s3 >= 0


def test_buchstab_endpoint_convention_switches_both_sides():
    # N = 49 puts sqrt(N) = 7 exactly on a prime; f = x^2+x+1 has rho(7) = 2
    f = validate(1, 1, 1)
    strict = buchstab(f, 49, 3.0)
    closed = buchstab(f, 49, 3.0, include_sqrt_n=True)
    assert strict.identity_residual == 0
    assert closed.identity_residual == 0
    strict_ps = [p for p, _ in strict.per_prime]
    closed_ps = [p for p, _ in closed.per_prime]
    assert 7 not in strict_ps and 7 in closed_ps
    lpf7 = dict(closed.per_prime)[7]
    assert lpf7 > 0
    assert strict.s_a_sqrt_n - closed.s_a_sqrt_n == lpf7
    assert strict.s_a_z == closed.s_a_z


def test_buchstab_z_validation():
    f = validate(1, 0, 1)
    with pytest.raises(ValueError):
        buchstab(f, 100, 11.0)  # z^2 > N
    with pytest.raises(ValueError):
        buchstab(f, 100, 1.0)


def test_main_term_golden_euler():
    f = validate(1, 1, 41)
    rep = main_term_report(f, 100)
    assert rep.pi_f == 16
    assert rep.a_count == 16
    assert rep.v_of_a == 1.0
    assert rep.main_term == 16.0
    assert rep.relative_error == 0.0
    assert not rep.degenerate
    assert rep.theorem_bound is None  # no beta supplied


def test_main_term_theorem_bound():
    f = validate(1, 1, 41)
    rep = main_term_report(f, 100, beta=4.0)
    assert rep.theorem_bound == pytest.approx(math.exp(-2 / 6), rel=1e-15)
    rep_neg = main_term_report(f, 100, beta=-0.5)
    assert rep_neg.theorem_bound is None


def test_main_term_empty_domain_flagged():
    f = validate(-1, 0, -5)
    rep = main_term_report(f, 100)
    assert rep.degenerate
    assert rep.main_term == 0.0
    assert rep.relative_error is None


def test_main_term_reuses_sieve_result():
    f = validate(1, 0, 1)
    res = sieve_pi(f, 10**4)
    rep = main_term_report(f, 10**4, res)
    assert rep.pi_f == res.pi_f == 38
    assert rep.a_count == 199
    assert rep.main_term == pytest.approx(199 * v_product(f, 199), rel=1e-15)
    assert rep.relative_error == pytest.approx(
        (38 - rep.main_term) / rep.main_term, rel=1e-15
    )


def test_sieve_and_v_build_one_chi_period_per_polynomial(monkeypatch):
    # the root table solves from chi_Delta's period table, and V reads the
    # same table above the root table's limit instead of building another
    from quadprimes import polynomial

    calls = []
    real = polynomial._chi_upto

    def counting(ds, limits):
        calls.append((ds, limits))
        return real(ds, limits)

    monkeypatch.setattr(polynomial, "_chi_upto", counting)
    f = validate(1, 1, 41)
    res = sieve_pi(f, 10**8)
    assert res.root_table.limit < res.cardinality_a
    v = main_term_report(f, 10**8, res).v_of_a
    assert calls == [([-163], [163])]
    assert v == v_product(f, res.cardinality_a) == _exact_v(f, res.cardinality_a)
