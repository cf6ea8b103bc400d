import math
import random

import pytest

from quadprimes import character
from quadprimes.character import (
    _chi_upto,
    _fundamental_part,
    class_number,
    is_discriminant,
    is_fundamental_discriminant,
    kronecker,
    l_one,
    l_one_class_number_oracle,
    metrics,
)
from quadprimes.errors import (
    DegenerateA,
    FactorizationOverflow,
    NotADiscriminant,
    NotFundamental,
    RangeExceeded,
    ToleranceUnreachable,
    UndefinedSymbol,
)
from quadprimes.polynomial import validate

from oracles import (
    SMALL_PRIMES,
    class_number_negative,
    euler_symbol,
    kronecker_symbol,
    l_value_positive,
    partial_sum_l_value,
    simple_sieve,
)


def test_kronecker_matches_euler_criterion():
    rng = random.Random(10)
    odd_primes = [p for p in SMALL_PRIMES if 2 < p < 700]
    for _ in range(1500):
        delta = rng.randint(-600, 600)
        p = rng.choice(odd_primes)
        assert kronecker(delta, p) == euler_symbol(delta, p), (delta, p)


def test_kronecker_at_two_and_units():
    # (delta/2) follows delta mod 8: 0 for even, +1 for 1,7 and -1 for 3,5
    table = {1: 1, 3: -1, 5: -1, 7: 1}
    for delta in range(-50, 51):
        want = 0 if delta % 2 == 0 else table[delta % 8]
        assert kronecker(delta, 2) == want, delta
    assert kronecker(7, 1) == 1
    assert kronecker(7, -1) == 1
    assert kronecker(-7, -1) == -1
    assert kronecker(0, 1) == 1
    assert kronecker(0, -1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(5, 0) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1  # (a/0) = 1 exactly when a is a unit


def test_kronecker_undefined_at_zero_zero():
    with pytest.raises(UndefinedSymbol):
        kronecker(0, 0)


def test_kronecker_completely_multiplicative_and_periodic():
    rng = random.Random(11)
    for delta in (-163, -20, -4, -3, 5, 8, 13, 21, 40):
        for _ in range(200):
            m = rng.randint(1, 3000)
            n = rng.randint(1, 3000)
            assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)
            assert kronecker(delta, m + abs(delta)) == kronecker(delta, m)


def test_is_discriminant():
    assert is_discriminant(-3) and is_discriminant(-4) and is_discriminant(5)
    assert is_discriminant(8) and is_discriminant(-163) and is_discriminant(40)
    assert not is_discriminant(3)  # 3 mod 4
    assert not is_discriminant(2)
    assert not is_discriminant(4)  # square
    assert not is_discriminant(9)  # 1 mod 4 but square
    assert not is_discriminant(0)
    assert not is_discriminant(1)


def test_chi_table_matches_symbol():
    # the limits cross a prime square and leave primes above sqrt(limit);
    # 3568, the series length at |Delta| near 4e6, has about 60 cofactors k
    for delta in (-163, -15, -4, -3, 5, 8, 12, 21, -3999971, 3999997):
        for limit in (1, 2, 3, 4, 10, 48, 49, 50, 1000, 3568):
            [table] = _chi_upto([delta], [limit])
            table = table.tolist()
            assert table == [kronecker(delta, n) for n in range(limit + 1)], (delta, limit)


def test_l_one_golden_values():
    # closed forms: L(1,chi_-4) = pi/4, L(1,chi_-3) = pi/(3*sqrt(3)),
    # L(1,chi_5) = (2/sqrt(5)) * log((1+sqrt(5))/2)
    for delta, closed in (
        (-4, math.pi / 4),
        (-3, math.pi / (3 * math.sqrt(3))),
        (5, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
    ):
        value, bound = l_one(delta, 1e-6)
        assert bound <= 1e-6
        assert abs(value - closed) <= bound, (delta, value, closed)


def test_l_one_bound_tightens_with_tolerance():
    oracle = l_one_class_number_oracle(-23)
    prev = None
    for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        value, bound = l_one(-23, tol)
        assert bound <= tol
        assert abs(value - oracle) <= bound + 1e-12
        if prev is not None:
            assert bound < prev
        prev = bound


def test_l_one_input_validation():
    with pytest.raises(NotADiscriminant):
        l_one(3, 1e-4)
    with pytest.raises(NotADiscriminant):
        l_one(9, 1e-4)
    with pytest.raises(ValueError):
        l_one(-4, 0.0)
    _, bound = l_one(-163, 1e-8)
    assert 0 < bound <= 1e-8
    with pytest.raises(ToleranceUnreachable):
        l_one(-163, 1e-15)  # below the rounding allowance of the sum
    with pytest.raises(ToleranceUnreachable):
        l_one(-163, 1e-8, cutoff_cap=10)  # the series needs 30 terms


def _euler_factor(d, m):
    """prod over primes p | m of (1 - chi_d(p)/p), from the oracle's symbol."""
    return math.prod(1 - kronecker_symbol(d, p) / p for p in simple_sieve(m) if m % p == 0)


def test_l_one_matches_exact_oracle_on_positive_discriminants():
    # every fundamental 5 <= D < 2000, times m^2 for m <= 6
    for d in range(5, 2000):
        if not is_fundamental_discriminant(d):
            continue
        exact = l_value_positive(d)
        for m in range(1, 7):
            value, bound = l_one(d * m * m, 1e-4)
            assert 0 < bound <= 1e-4
            assert abs(value - exact * _euler_factor(d, m)) <= bound + 1e-12, (d, m)


def test_l_one_matches_class_number_oracle_on_negative_discriminants():
    # every fundamental -2000 < D < 0, times m^2 for m <= 6
    for d in range(-3, -2000, -1):
        if not is_fundamental_discriminant(d):
            continue
        exact = l_one_class_number_oracle(d)
        for m in range(1, 7):
            value, bound = l_one(d * m * m, 1e-4)
            assert 0 < bound <= 1e-4
            assert abs(value - exact * _euler_factor(d, m)) <= bound + 1e-12, (d, m)


def test_l_one_bound_holds_near_the_rounding_floor():
    # (Delta, D, m) with Delta = D*m^2
    for delta, d, m in ((-3, -3, 1), (-4, -4, 1), (-163, -163, 1), (-5460, -5460, 1),
                        (5, 5, 1), (8, 8, 1), (1997, 1997, 1), (-980, -20, 7),
                        (468, 13, 6)):
        exact = l_value_positive(d) if d > 0 else l_one_class_number_oracle(d)
        value, bound = l_one(delta, 1e-11)
        assert 0 < bound <= 1e-11
        assert abs(value - exact * _euler_factor(d, m)) <= bound + 1e-14, delta


def test_l_one_matches_partial_sum_oracle():
    for delta in (-3, -4, -7, -12, -15, -16, -23, -28, -63, -75, -163, -300,
                  5, 8, 12, 13, 20, 21, 45, 60, 65, 125, 229, 300, 401, 512):
        value, bound = l_one(delta, 1e-4)
        oracle, oracle_bound = partial_sum_l_value(delta, 1e-3)
        assert abs(value - oracle) <= bound + oracle_bound, delta


def test_fundamental_part_of_cofactors_beyond_trial_division():
    # 1000003, 1000033 and 1000037 are primes above the trial-division limit
    semiprime = -1000003 * 1000033
    assert _fundamental_part(semiprime) == (semiprime, [])
    delta = -3 * 1000003**2
    assert _fundamental_part(delta) == (-3, [1000003])
    value, bound = l_one(delta, 1e-6)
    base, base_bound = l_one(-3, 1e-6)
    factor = 1 - kronecker(-3, 1000003) / 1000003
    assert 0 < bound <= 1e-6
    assert abs(value - base * factor) <= bound + base_bound * factor
    with pytest.raises(FactorizationOverflow):
        _fundamental_part(-1000003 * 1000033 * 1000037)


def test_class_number_goldens():
    # the non-fundamental values follow from the order class-number formula
    # h(D f^2) = h(D) f / [O* : O_f*] * prod over p | f of (1 - chi_D(p)/p)
    goldens = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
               -47: 5, -163: 1, -9999: 88, -12: 1, -16: 1, -27: 1, -28: 1,
               -36: 2, -44: 3}
    for delta, h in goldens.items():
        assert class_number(delta) == h, delta


def test_class_number_refuses_non_discriminants():
    for delta in (-1, -2, -5, -6):
        with pytest.raises(NotADiscriminant):
            class_number(delta)
    with pytest.raises(ValueError):
        class_number(5)


def test_class_number_matches_scalar_form_count():
    for delta in range(-3, -20001, -1):
        if delta % 4 in (0, 1):
            assert class_number(delta) == class_number_negative(delta), delta
    rng = random.Random(17)
    drawn = 0
    while drawn < 50:
        delta = -rng.randrange(20001, 10**6)
        if delta % 4 in (0, 1):
            assert class_number(delta) == class_number_negative(delta), delta
            drawn += 1


def test_class_number_across_block_boundaries(monkeypatch):
    # a block holds whole b-rows: here less than one row (each row alone),
    # a few rows, and many, so blocks end after every kind of row
    for block in (1, 5, 64, 1000):
        monkeypatch.setattr(character, "_FORM_BLOCK", block)
        for delta in (-3, -4, -2087, -9999, -20000, -31415, -123456, -999995):
            assert class_number(delta) == class_number_negative(delta), (block, delta)


def test_is_fundamental_discriminant():
    for d in (-3, -4, -7, -8, -11, -15, -20, -163, 5, 8, 12, 13):
        assert is_fundamental_discriminant(d), d
    for d in (-9, -12, -16, -18, -27, 9, 25, 0, 48):
        assert not is_fundamental_discriminant(d), d


def test_oracle_matches_partial_sum_on_fundamentals():
    for delta in (-3, -4, -15, -55, -163, -5460):
        value, bound = l_one(delta, 1e-4)
        oracle = l_one_class_number_oracle(delta)
        assert abs(value - oracle) <= bound + 1e-12, delta


def test_oracle_input_validation():
    with pytest.raises(NotFundamental):
        l_one_class_number_oracle(-12)
    with pytest.raises(RangeExceeded):
        l_one_class_number_oracle(-2 * 10**6)
    with pytest.raises(RangeExceeded):
        l_one_class_number_oracle(5)


def test_metrics_beta_golden():
    # x^2 + 1: delta = -4, L(1,chi) = pi/4, beta = -log((pi/4) * log 4)
    f = validate(1, 0, 1)
    value, bound = l_one(-4, 1e-7)
    m = metrics(f, 10**4, 199, value, bound)
    expect = -math.log((math.pi / 4) * math.log(4))
    assert m.beta == pytest.approx(expect, abs=1e-6)
    assert m.beta == pytest.approx(-0.0850697, abs=2e-6)
    assert m.beta_radius >= 0
    assert m.b_cap == pytest.approx(3 * math.log(4) / math.log(199), abs=1e-12)


def test_metrics_interval_propagation():
    f = validate(1, 0, 1)
    m = metrics(f, 100, 19, 0.7853, 0.01)
    lo = -math.log((0.7853 + 0.01) * math.log(4))
    hi = -math.log((0.7853 - 0.01) * math.log(4))
    assert lo <= m.beta <= hi
    assert m.beta_radius == pytest.approx(max(m.beta - lo, hi - m.beta), abs=1e-12)
    tight = metrics(f, 100, 19, 0.7853, 0.0)
    assert tight.beta_radius == 0.0


def test_metrics_g_delta_branches():
    pos = validate(1, 1, -1)  # delta = 5
    m_pos = metrics(pos, 50, 30, 0.4304, 0.0)
    assert m_pos.g_delta == pytest.approx(5 * math.exp(-m_pos.beta / 2), rel=1e-12)
    neg = validate(1, 0, 1)  # delta = -4
    m_neg = metrics(neg, 50, 13, 0.7853, 0.0)
    expect = 4 / (4 * 1 - math.exp(-m_neg.beta / 2))
    assert m_neg.g_delta == pytest.approx(expect, rel=1e-12)


def test_metrics_hypotheses_window():
    # synthetic small L-value gives beta > 0 and a wide admissible N window
    f = validate(1, 1, -1)  # delta = 5
    m = metrics(f, 100, 50, 1e-3, 0.0)
    assert m.beta > 0
    assert m.hypotheses_hold  # 1 <= e^(beta/5), g <= 100 <= 5^(beta/2)
    too_big = metrics(f, 10**9, 50, 1e-3, 0.0)
    assert not too_big.hypotheses_hold  # N above |a|*|delta|^(beta/2)
    real = metrics(f, 100, 50, 0.4304, 0.0)
    assert not real.hypotheses_hold  # beta < 0 collapses the window


def test_metrics_requires_nondegenerate_a():
    f = validate(1, 0, 1)
    with pytest.raises(DegenerateA):
        metrics(f, 10, 2, 0.785, 0.0)
    with pytest.raises(ValueError):
        metrics(f, 10, 5, -0.1, 0.0)
