"""End-to-end acceptance gate: one test per shipped guarantee, each with
its tolerance pinned in the assertion. Exact guarantees assert equality with
no epsilon; timed ones assert their wall-clock budget. Random inputs use
fixed seeds so a failure is reproducible.
"""

import math
import random
import time
from math import isqrt

import pytest

from quadprimes import sieve
from quadprimes.analytic import buchstab, main_term_report
from quadprimes.character import (
    is_fundamental_discriminant,
    kronecker,
    l_one,
    l_one_class_number_oracle,
)
from quadprimes.polynomial import (
    EnumerationDomain,
    enumeration_domain,
    rho,
    roots_mod_prime,
    validate,
)
from quadprimes.primes import primes_upto
from quadprimes.sieve import (
    a_d_count,
    s_p_count,
    sieve_pi,
    _segment_counts,
)

from oracles import (
    brute_pi,
    rand_admissible,
    squarefree_upto,
    strike_arrays,
    trial_is_prime,
)


def test_01_sieve_equals_bruteforce_oracle_on_1000_randoms():
    # >= 1000 random admissible polynomials, |a|,|b|,|c| <= 50, N <= 1e6,
    # exact equality against trial-division enumeration, within 10 minutes
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = rand_admissible(rng, 50)
        f = validate(a, b, c)
        n_value = rng.randint(1, 10**6)
        assert sieve_pi(f, n_value).pi_f == brute_pi(a, b, c, n_value), (a, b, c, n_value)
    assert time.monotonic() - start < 600


def test_02_euler_polynomial_golden_value():
    f = validate(1, 1, 41)
    rep = main_term_report(f, 100)
    assert rep.pi_f == 16
    assert rep.a_count == 16
    assert rep.v_of_a == 1.0
    assert rep.main_term == 16.0
    assert rep.relative_error == 0.0


def test_03_buchstab_identity_exact_on_200_random_triples():
    rng = random.Random(103)
    for _ in range(200):
        f = validate(*rand_admissible(rng, 20))
        n_value = rng.randint(16, 10**5)
        z = rng.uniform(2, math.sqrt(n_value))
        rep = buchstab(f, n_value, z)
        assert rep.identity_residual == 0, (f, n_value, z)


def test_04_interval_bound_on_every_x_table_branch():
    # X - 2 < A < X + 2 whenever X >= 2, exercising all four branches
    f = validate(1, 0, -2)
    dom = enumeration_domain(f, 7)
    assert dom.x_length == pytest.approx(3.17157287525381, abs=1e-10)
    assert dom.cardinality_a == 4
    assert dom.x_length - 2 < 4 < dom.x_length + 2

    def branch(f, n_value):
        if f.delta < 0 and f.a > 0:
            return "neg_disc" if 4 * f.a * n_value > -f.delta else None
        if f.delta > 0 and f.a > 0:
            return "pos_disc_up"
        if f.delta > 0 and f.a < 0:
            over = 4 * abs(f.a) * n_value > f.delta
            return "pos_disc_down_over" if over else "pos_disc_down_under"
        return None

    rng = random.Random(104)
    seen = {"neg_disc": 0, "pos_disc_up": 0, "pos_disc_down_over": 0,
            "pos_disc_down_under": 0}

    def check(a, b, c, n_value):
        f = validate(a, b, c)
        kind = branch(f, n_value)
        if kind is None:
            return
        dom = enumeration_domain(f, n_value)
        if dom.x_length >= 2:
            assert dom.x_length - 2 < dom.cardinality_a < dom.x_length + 2, (
                a, b, c, n_value, kind)
            seen[kind] += 1

    under = "pos_disc_down_under"
    while min(count for kind, count in seen.items() if kind != under) < 50:
        a, b, c = rand_admissible(rng, 12)
        check(a, b, c, rng.randint(1, 10**5))
    # N <= delta/4|a| is rare among N up to 1e5, so that branch is drawn
    # directly: a < 0 and delta > 0, then N in [1, delta // 4|a|]
    while seen[under] < 50:
        a, b, c = rand_admissible(rng, 12)
        delta = b * b - 4 * a * c
        if a < 0 and delta >= 4 * -a:
            check(a, b, c, rng.randint(1, delta // (4 * -a)))


def test_05_rho_dominated_by_lambda_on_squarefree_moduli():
    rng = random.Random(105)
    # factor every squarefree d <= 1e4 once; both sides are multiplicative,
    # so the exhaustive sweep is a product of per-prime table entries
    factored = []
    for d in squarefree_upto(10**4):
        dd, ps = d, []
        for p in primes_upto(100).tolist():
            if p * p > dd:
                break
            if dd % p == 0:
                ps.append(p)
                dd //= p
        if dd > 1:
            ps.append(dd)
        factored.append((d, tuple(ps)))
    for _ in range(100):
        a, b, c = rand_admissible(rng, 30)
        f = validate(a, b, c)
        rho_p = {p: len(roots_mod_prime(f, p).roots) for p in primes_upto(10**4).tolist()}
        lam_p = {p: 1 + kronecker(f.delta, p) for p in primes_upto(10**4).tolist()}
        for d, ps in factored:
            rho_d = lam_d = 1
            for p in ps:
                rho_d *= rho_p[p]
                lam_d *= lam_p[p]
            assert rho_d <= lam_d, (a, b, c, d)
        # spot-check the table products against the public function
        for d, ps in rng.sample(factored, 25):
            assert rho(f, d) == math.prod(rho_p[p] for p in ps)


def test_06_l_function_accuracy_and_classnumber_sweep():
    start = time.monotonic()
    value, bound = l_one(-4, 1e-8)
    assert abs(value - math.pi / 4) <= 2e-8
    assert abs(value - math.pi / 4) <= bound
    checked = 0
    for delta in range(-3, -10**4, -1):
        if not is_fundamental_discriminant(delta):
            continue
        v, err = l_one(delta, 1e-2)
        oracle = l_one_class_number_oracle(delta)
        assert abs(v - oracle) <= err + 1e-12, (delta, v, oracle, err)
        checked += 1
    assert checked >= 3000
    assert time.monotonic() - start < 60


def test_07_sifting_vanishes_where_character_is_minus_one():
    rng = random.Random(107)
    n_value = 10**6
    plist = primes_upto(10**3).tolist()
    hits = 0
    for _ in range(50):
        a, b, c = rand_admissible(rng, 10)
        f = validate(a, b, c)
        res = sieve_pi(f, n_value)
        for p in plist:
            if (2 * f.a) % p == 0 or f.delta % p == 0:
                continue
            if kronecker(f.delta, p) == -1:
                assert s_p_count(f, n_value, p, result=res) == 0, (a, b, c, p)
                hits += 1
    assert hits > 3000  # the condition must actually have been exercised


def test_08_determinism_and_subrange_spot_checks_at_1e8(monkeypatch):
    f = validate(1, 0, 1)
    n_value = 10**8
    base = sieve_pi(f, n_value)
    assert base.pi_f == 1682
    for seg in (1 << 10, 1 << 16, 1 << 20):
        monkeypatch.setattr(sieve, "SPAN", seg)
        assert sieve_pi(f, n_value) == base, seg
    # full-domain oracle equality, then 10 random subranges of 1e4 consecutive
    # n pushed through the segment engine against trial division
    direct = sum(
        1 for lo, hi in base.domain.intervals
        for n in range(lo, hi + 1) if trial_is_prime(f(n))
    )
    assert base.pi_f == direct
    rng = random.Random(108)
    for _ in range(10):
        lo = rng.randint(-9999, 0)
        hi = lo + 10**4 - 1
        vmax = max(f(lo), f(hi))
        strikes = []
        for p in primes_upto(isqrt(vmax)).tolist():
            roots = roots_mod_prime(f, p).roots
            if roots:
                strikes.append((p, roots))
        small = enumeration_domain(f, isqrt(vmax)).intervals
        seg_pi = _segment_counts(f, lo, hi, strike_arrays(strikes), small)[0]
        brute = sum(1 for n in range(lo, hi + 1) if trial_is_prime(f(n)))
        assert seg_pi == brute, (lo, hi)


def test_09_remainder_bound_on_squarefree_moduli():
    # |A_d| = rho(d)/d * |A| + r_d with |r_d| <= rho(d), for squarefree
    # d <= 1e3 over 100 random (f, N), in exact integers r_d * d. The bound
    # is provable on one interval. A split domain is two intervals, each
    # with its own error below rho(d): there the bound is asserted interval
    # by interval, and the total below 2 rho(d). within_rho must report the
    # one-interval bound truthfully everywhere, breaches included.
    rng = random.Random(109)
    squarefree = squarefree_upto(10**3)
    shapes = {0: 0, 1: 0, 2: 0}
    split_breaches = []
    for _ in range(100):
        a, b, c = rand_admissible(rng, 20)
        f = validate(a, b, c)
        n_value = rng.randint(10, 10**5)
        domain = enumeration_domain(f, n_value)
        shapes[len(domain.intervals)] += 1
        # a_d_count reads only the intervals and their cardinality
        pieces = [
            EnumerationDomain(((lo, hi),), float(hi - lo + 1), hi - lo + 1)
            for lo, hi in domain.intervals
        ]
        for d in squarefree:
            cc = a_d_count(f, n_value, d, domain=domain)
            case = (a, b, c, n_value, d, cc.a_d, cc.rho_d)
            r_num = cc.a_d * d - cc.rho_d * domain.cardinality_a
            assert cc.within_rho == (abs(r_num) <= cc.rho_d * d), case
            if len(pieces) < 2:
                assert cc.within_rho, case
                continue
            parts = [a_d_count(f, n_value, d, domain=piece) for piece in pieces]
            assert sum(part.a_d for part in parts) == cc.a_d, case
            assert all(part.within_rho for part in parts), case
            assert abs(r_num) < 2 * cc.rho_d * d or r_num == 0, case
            if not cc.within_rho:
                split_breaches.append(case)
    # empty domains satisfy every bound vacuously, so both shapes must occur
    assert shapes[1] >= 20 and shapes[2] >= 20, (shapes, split_breaches)
