import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from math import isqrt

import pytest

import quadprimes
from quadprimes import sieve
from quadprimes.analytic import main_term_report
from quadprimes.errors import BudgetExceeded, NotPrime, ResolutionExceeded
from quadprimes.polynomial import enumeration_domain, prime_root_table, validate
from quadprimes.sieve import (
    SieveBudget,
    _segment_counts,
    _strike_rows,
    a_d_count,
    s_count,
    s_p_count,
    sieve_pi,
)

from oracles import (
    brute_domain,
    brute_lpf_counts,
    brute_pi,
    is_admissible,
    poly_value,
    rand_admissible,
    strike_arrays,
    trial_is_prime,
)


def test_sieve_golden_x_squared_plus_one():
    f = validate(1, 0, 1)
    res = sieve_pi(f, 10)
    # values over [-3, 3]: 10 5 2 1 2 5 10
    assert res.cardinality_a == 7
    assert res.pi_f == 4
    assert res.key_cap == 3
    assert res.unit_count == 1
    assert res.zero_count == 0
    assert res.lpf_histogram == {2: 4}
    assert res.large_prime_count == 2  # the two 5s sit above key_cap = 3
    assert res.max_value == 10


def test_sieve_golden_euler_polynomial():
    f = validate(1, 1, 41)
    res = sieve_pi(f, 100)
    assert res.cardinality_a == 16
    assert res.pi_f == 16  # every value 41..97 on [-8, 7] is prime
    res1000 = sieve_pi(f, 1000)
    assert res1000.cardinality_a == 62
    assert res1000.pi_f == 62


def test_sieve_empty_domain():
    f = validate(-1, 0, -5)
    res = sieve_pi(f, 50)
    assert res.cardinality_a == 0
    assert res.pi_f == 0
    assert res.lpf_histogram == {}


def test_sieve_counts_multiplicity_over_n_not_distinct_values():
    # f(n) = f(-n) for even polynomials: each prime value counts once per n
    f = validate(1, 0, 1)
    res = sieve_pi(f, 100)
    # n in [-9, 9]; primes at n = +-1 (2), +-2 (5), +-4 (17), +-6 (37), +-8 (65? no)
    direct = sum(1 for n in range(-9, 10) if trial_is_prime(n * n + 1))
    assert res.pi_f == direct == 8


def test_sieve_matches_bruteforce_on_randoms():
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = rand_admissible(rng, 16)
        f = validate(a, b, c)
        n_value = rng.randint(2, 30000)
        res = sieve_pi(f, n_value)
        assert res.pi_f == brute_pi(a, b, c, n_value), (a, b, c, n_value)
        total = (res.unit_count + res.zero_count + res.large_prime_count
                 + sum(res.lpf_histogram.values()))
        assert total == res.cardinality_a
        assert res.zero_count == 0
        assert all(k <= res.key_cap for k in res.lpf_histogram)


def test_sieve_exact_when_n_is_the_peak_of_a_downward_f():
    # a < 0 and N = delta/4|a| = max f: f - N has a double root at the
    # vertex, which must neither split the domain nor be counted twice
    checked = 0
    for a in range(-6, 0):
        for b in range(-12, 13):
            for c in range(1, 121):
                delta = b * b - 4 * a * c
                if not is_admissible(a, b, c) or delta % (4 * -a):
                    continue
                n_value = delta // (4 * -a)
                res = sieve_pi(validate(a, b, c), n_value)
                assert len(res.domain.intervals) <= 1, (a, b, c)
                assert res.cardinality_a == len(brute_domain(a, b, c, n_value)), (a, b, c)
                assert res.pi_f == brute_pi(a, b, c, n_value), (a, b, c)
                checked += 1
    assert checked == 3071


def test_sieve_invariant_under_segmentation(monkeypatch):
    f = validate(3, -1, 5)
    base = sieve_pi(f, 10**6)
    for seg in (64, 1 << 10, 1 << 14):
        monkeypatch.setattr(sieve, "SPAN", seg)
        assert sieve_pi(f, 10**6) == base, seg


def test_sieve_invariant_under_segmentation_at_scale(monkeypatch):
    # the span sizes move primes between the slice writes and the scatter
    for coeffs in ((1, 1, 41), (3, 5, -7)):
        f = validate(*coeffs)
        monkeypatch.setattr(sieve, "SPAN", 1 << 20)
        base = sieve_pi(f, 10**9)
        if coeffs[0] == 3:
            assert len(base.domain.intervals) == 2
        for seg in (1 << 8, 1 << 12, 1 << 16):
            monkeypatch.setattr(sieve, "SPAN", seg)
            assert sieve_pi(f, 10**9) == base, (coeffs, seg)


def _slice_loop_counts(f, lo, hi, strikes, key_cap):
    """The per-prime reference: every root of every prime strikes by a slice
    write, largest prime first, so the least prime is written last."""
    length = hi - lo + 1
    values = [f(n) for n in range(lo, hi + 1)]
    lpf = [0] * length
    for p, roots in reversed(strikes):
        for r in roots:
            lpf[(r - lo) % p :: p] = [p] * len(range((r - lo) % p, length, p))
    lpf = [q or v for q, v in zip(lpf, values)]
    above_one = [(q, v) for q, v in zip(lpf, values) if v > 1]
    hist = Counter(q for q, _ in above_one if q <= key_cap)
    return (sum(q == v for q, v in above_one), values.count(1), values.count(0),
            sum(q > key_cap for q, _ in above_one), dict(hist))


def _kernel_counts(f, lo, hi, strikes, primes, key_cap):
    """The kernel's counts with the table positions read back as primes,
    in _slice_loop_counts' form."""
    small = enumeration_domain(f, key_cap).intervals
    pi, units, zeros, large, counts, apart = _segment_counts(f, lo, hi, strikes, small)
    assert counts.size == len(primes)
    hist = Counter({q: int(c) for q, c in zip(primes, counts) if c})
    hist.update(apart.tolist())
    return pi, units, zeros, large, dict(hist)


def test_segment_counts_match_the_slice_loop(monkeypatch):
    batches = []
    real_scatter = sieve._scatter_min

    def recording_scatter(lpf, p, first, hits, pos):
        batches.append((lpf, int(hits.sum())))
        real_scatter(lpf, p, first, hits, pos)

    monkeypatch.setattr(sieve, "_scatter_min", recording_scatter)
    k = 2**70  # x^2 + x + 41 moved to n near 2^70: b and c exceed int64, and so does n
    polys = [(1, 1, 41), (-3, 7, 11), (3, 5, -7), (1, 2 * k + 1, k * k + k + 41)]
    for coeffs in polys:
        f = validate(*coeffs)
        domain = enumeration_domain(f, 10**7)
        vmax = sieve._max_value(f, domain)
        table = prime_root_table(f, isqrt(vmax))
        arrays = _strike_rows(table)
        pairs = [(p, tuple(r for r in row if r >= 0))
                 for p, row in zip(table.primes.tolist(), table.roots.tolist()) if row[0] >= 0]
        # each span clipped to the domain, where f >= 0, as sieve_pi's spans are;
        # spans ending one n either side of each end of the runs f(n) <= sqrt(N)
        # check the kernel's clip of those runs to the span
        edges = [e + d for run in enumeration_domain(f, isqrt(10**7)).intervals
                 for e in run for d in (-1, 0, 1)]
        for lo, hi in domain.intervals:
            mid = (lo + hi) // 2
            spans = [(lo, lo), (hi, hi), (lo, lo + 15), (hi - 15, hi), (lo + 7, lo + 1006),
                     (mid - 5000, mid + 5000), (lo, lo + 70000)]
            spans += [span for e in edges for span in ((e, e + 40), (e - 40, e), (e, hi), (lo, e))]
            for a, b in spans:
                a, b = max(a, lo), min(b, hi)
                if a > b:
                    continue
                want = _slice_loop_counts(f, a, b, pairs, isqrt(10**7))
                got = _kernel_counts(f, a, b, arrays, table.primes.tolist(), isqrt(10**7))
                assert got == want, (coeffs, a, b)
                got = _kernel_counts(f, a, b, strike_arrays(pairs), [p for p, _ in pairs],
                                     isqrt(10**7))
                assert got == want, (coeffs, a, b)
    assert any(lo < 0 for coeffs in polys[:3]
               for lo, _ in enumeration_domain(validate(*coeffs), 10**7).intervals)
    # spans of one value and of 16, and spans cut into several batches
    assert all(hits < 2 * lpf.size for lpf, hits in batches)
    assert {1, 16} <= {lpf.size for lpf, _ in batches}
    assert any(this[0] is last[0] for last, this in zip(batches, batches[1:]))


def test_lpf_histogram_matches_bruteforce_on_both_domain_shapes(monkeypatch):
    # 30 one-interval and 30 split domains; a span of 16 values cuts the
    # intervals into many spans, 1 << 20 keeps each interval whole
    rng = random.Random(17)
    wanted = {1: 30, 2: 30}
    while any(wanted.values()):
        a, b, c = rand_admissible(rng, 12)
        n_value = rng.randint(100, 10**5)
        f = validate(a, b, c)
        shape = len(enumeration_domain(f, n_value).intervals)
        if not wanted.get(shape):
            continue
        wanted[shape] -= 1
        for seg in (16, 1 << 20):
            monkeypatch.setattr(sieve, "SPAN", seg)
            res = sieve_pi(f, n_value)
            got = (res.unit_count, res.large_prime_count, res.lpf_histogram)
            assert got == brute_lpf_counts(a, b, c, n_value, res.key_cap), (a, b, c, n_value, seg)


def test_counting_branches_match_bruteforce(monkeypatch):
    # a < 0 with N at least (delta/4|a|)^2 puts key_cap above every value, so
    # each prime value above the strike limit is keyed apart from the table;
    # N <= 3 leaves the root table empty, so every value is unstruck
    rng = random.Random(19)
    cases = []
    while len(cases) < 40:
        a, b, c = -rng.randint(1, 3), rng.randint(-60, 60), rng.randint(-60, 60)
        peak = (b * b - 4 * a * c) // (4 * -a)
        if is_admissible(a, b, c) and peak > 0:
            cases.append((a, b, c, rng.randint(1, 20) * (peak + 1) ** 2))
    while len(cases) < 80:
        cases.append((*rand_admissible(rng, 3), rng.randint(1, 3)))
    apart = empty_table = split_spans = 0
    for a, b, c, n_value in cases:
        f = validate(a, b, c)
        want = brute_lpf_counts(a, b, c, n_value, isqrt(n_value))
        for seg in (16, 1 << 20):
            monkeypatch.setattr(sieve, "SPAN", seg)
            res = sieve_pi(f, n_value)
            got = (res.unit_count, res.large_prime_count, res.lpf_histogram)
            assert got == want, (a, b, c, n_value, seg)
            assert res.pi_f == brute_pi(a, b, c, n_value), (a, b, c, n_value, seg)
        apart += any(q > isqrt(res.max_value) for q in res.lpf_histogram)
        empty_table += res.cardinality_a > 0 and res.root_table.primes.size == 0
        split_spans += res.cardinality_a > 16
    assert apart >= 20 and empty_table >= 10 and split_spans >= 20


def test_folded_domains_match_bruteforce(monkeypatch):
    # when a | b the domain is symmetric under n -> c2 - n, c2 = -b/a, and
    # only n > c2/2 is sieved, weighted 2: steer in a = +-1, +-2, +-3 with
    # an even c2 whose centre lies inside the domain (a piece of weight 1,
    # with spans of 16 cut around it) and outside it (split domains whose
    # intervals mirror each other), and an odd c2 both ways
    rng = random.Random(23)
    cases = []
    for a in (1, -1, 2, -2, 3, -3):
        wanted = {("centre", 0): 2, ("gap", 0): 2, ("centre", 1): 2, ("gap", 1): 2}
        while any(wanted.values()):
            b, c = a * rng.randint(-12, 12), rng.randint(-3000, 3000)
            n_value = rng.choice((rng.randint(1, 300), rng.randint(300, 20000)))
            if not is_admissible(a, b, c):
                continue
            domain = enumeration_domain(validate(a, b, c), n_value)
            c2 = -b // a
            if len(domain.intervals) == 2:
                (lo, hi), (lo2, hi2) = domain.intervals
                assert (lo, hi) == (c2 - hi2, c2 - lo2), (a, b, c, n_value)
                kind = "gap"
            elif domain.cardinality_a > 16:
                kind = "centre"
            else:
                continue
            if wanted[kind, c2 % 2]:
                wanted[kind, c2 % 2] -= 1
                cases.append((a, b, c, n_value))
    for a, b, c, n_value in cases:
        f = validate(a, b, c)
        pieces = sieve._pieces(f, enumeration_domain(f, n_value))
        c2 = -b // a
        assert [w for _, _, w in pieces] == [1, 2][(c2 % 2 or len(pieces) == 1):], (a, b, c)
        assert all(lo > c2 / 2 for lo, _, w in pieces if w == 2)
        want = brute_lpf_counts(a, b, c, n_value, isqrt(n_value))
        for seg in (16, 1 << 20):
            monkeypatch.setattr(sieve, "SPAN", seg)
            res = sieve_pi(f, n_value)
            assert (res.unit_count, res.large_prime_count, res.lpf_histogram) == want, (
                a, b, c, n_value, seg)
            assert res.pi_f == brute_pi(a, b, c, n_value), (a, b, c, n_value, seg)


def test_sieve_exact_when_coefficients_exceed_int64():
    # x^2 + x + 41 shifted by k: c = k^2 + k + 41 > 2^63, the values are not
    k = 10**10
    base_f, shifted_f = validate(1, 1, 41), validate(1, 2 * k + 1, k * k + k + 41)
    base, shifted = sieve_pi(base_f, 10**8), sieve_pi(shifted_f, 10**8)
    assert shifted.pi_f == base.pi_f == 8298
    assert shifted.lpf_histogram == base.lpf_histogram
    assert (shifted.unit_count, shifted.large_prime_count) == (
        base.unit_count, base.large_prime_count)
    assert (main_term_report(shifted_f, 10**8, shifted).v_of_a
            == main_term_report(base_f, 10**8, base).v_of_a)
    # x^2 + 1 shifted the same way: c2 = -2k is even, so the centre n = -k,
    # where f = 1, is a piece of its own beside the folded half
    base, shifted = sieve_pi(validate(1, 0, 1), 10**8), sieve_pi(validate(1, 2 * k, k * k + 1), 10**8)
    assert shifted.pi_f == base.pi_f == 1682
    assert shifted.lpf_histogram == base.lpf_histogram
    assert (shifted.unit_count, shifted.large_prime_count) == (
        base.unit_count, base.large_prime_count) == (1, 1644)


def test_sieve_refuses_n_beyond_int64_safe_bound():
    f = validate(1, 1, 41)
    with pytest.raises(BudgetExceeded):
        sieve_pi(f, 2**63, SieveBudget(max_n=2**64, max_sieve_prime=2**40))


def _raises_consistency_error_under_python_O(script):
    src = os.path.dirname(os.path.dirname(quadprimes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bucket_partition_checked_under_python_O():
    # a span that loses one value must raise ConsistencyError even with
    # assert statements compiled out
    _raises_consistency_error_under_python_O("""
        import quadprimes.sieve as sieve
        from quadprimes.errors import ConsistencyError
        from quadprimes.polynomial import validate

        real = sieve._segment_counts

        def drop_one_value(*args):
            pi, units, zeros, large, counts, apart = real(*args)
            return pi, units, zeros, large - 1, counts, apart

        sieve._segment_counts = drop_one_value
        try:
            sieve.sieve_pi(validate(1, 1, 41), 10**4)
        except ConsistencyError:
            raise SystemExit(0)
        raise SystemExit(1)
    """)


def test_fold_weight_checked_under_python_O():
    # a folded half counted once instead of twice leaves the bucket total
    # short of |A|, which must raise ConsistencyError with asserts compiled out
    _raises_consistency_error_under_python_O("""
        import quadprimes.sieve as sieve
        from quadprimes.errors import ConsistencyError
        from quadprimes.polynomial import validate

        real = sieve._pieces

        def weight_one(f, domain):
            return [(lo, hi, 1) for lo, hi, _ in real(f, domain)]

        sieve._pieces = weight_one
        f = validate(1, 1, 41)
        if [w for _, _, w in real(f, sieve.enumeration_domain(f, 10**4))] != [2]:
            raise SystemExit(2)
        try:
            sieve.sieve_pi(f, 10**4)
        except ConsistencyError:
            raise SystemExit(0)
        raise SystemExit(1)
    """)


def test_sieve_budget_checks():
    f = validate(1, 0, 1)
    with pytest.raises(BudgetExceeded):
        sieve_pi(f, 10**7, SieveBudget(max_n=10**6))
    with pytest.raises(BudgetExceeded):
        sieve_pi(f, 10**8, SieveBudget(max_sieve_prime=100))
    with pytest.raises(ValueError):
        sieve_pi(f, 0)


def test_s_count_golden_and_resolution():
    f = validate(1, 0, 1)
    res = sieve_pi(f, 10)
    assert s_count(res, 2) == res.cardinality_a == 7  # P(2) = 1 sifts nothing
    assert s_count(res, 3) == 3  # survivors 5, 1, 5
    assert s_count(res, 3.5) == 3
    assert s_count(res, 4) == 3  # z = key_cap + 1 still resolvable
    with pytest.raises(ResolutionExceeded):
        s_count(res, 4.5)
    with pytest.raises(ValueError):
        s_count(res, 1.5)


def test_s_count_gcd_conventions_on_synthetic_result():
    # gcd(0, P(z)) = P(z) > 1 for z > 2, so zeros survive only the empty
    # product at z = 2; gcd(1, P(z)) = 1, so units always survive
    from quadprimes.sieve import SieveResult

    res = SieveResult(
        pi_f=0, cardinality_a=10, n_value=100, key_cap=10, max_value=100,
        unit_count=3, zero_count=2, large_prime_count=1,
        lpf_histogram={2: 3, 7: 1}, domain=None,
    )
    assert s_count(res, 2) == 10  # everything, zeros included
    assert s_count(res, 2.5) == 3 + 1 + 1  # zeros and the lpf-2 bucket drop
    assert s_count(res, 3) == 3 + 1 + 1  # P(3) = 2 sifts the same set
    assert s_count(res, 8) == 3 + 1  # units and the large bucket remain
    assert s_count(res, 11) == 4  # z = key_cap + 1 is the last resolvable level


def test_s_count_matches_bruteforce_definition():
    rng = random.Random(14)
    for _ in range(40):
        a, b, c = rand_admissible(rng, 10)
        f = validate(a, b, c)
        n_value = rng.randint(10, 5000)
        res = sieve_pi(f, n_value)
        dom = enumeration_domain(f, n_value)
        for _ in range(5):
            z = rng.uniform(2, res.key_cap + 1)
            smalls = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 47, 53, 59, 61, 67) if p < z]
            brute = 0
            for lo, hi in dom.intervals:
                for n in range(lo, hi + 1):
                    v = poly_value(a, b, c, n)
                    if all(v % p for p in smalls):
                        brute += 1
            assert s_count(res, z) == brute, (a, b, c, n_value, z)


def test_s_p_count_golden_and_validation():
    f = validate(1, 0, 1)
    assert s_p_count(f, 10, 2) == 4  # 10, 2, 2, 10 all have lpf 2
    assert s_p_count(f, 10, 3) == 0  # x^2+1 is never divisible by 3
    res = sieve_pi(f, 10**4)
    assert s_p_count(f, 10**4, 5, result=res) == res.lpf_histogram[5]
    with pytest.raises(NotPrime):
        s_p_count(f, 100, 4)
    with pytest.raises(ValueError):
        s_p_count(f, 10, 5)  # 25 > 10


def test_s_p_count_matches_bruteforce_definition():
    rng = random.Random(15)
    for _ in range(25):
        a, b, c = rand_admissible(rng, 8)
        f = validate(a, b, c)
        n_value = rng.randint(200, 20000)
        res = sieve_pi(f, n_value)
        dom = enumeration_domain(f, n_value)
        for p in (2, 3, 5, 7, 11, 13):
            if p * p > n_value:
                continue
            brute = 0
            for lo, hi in dom.intervals:
                for n in range(lo, hi + 1):
                    v = poly_value(a, b, c, n)
                    if v % p == 0 and all(v % q for q in (2, 3, 5, 7, 11) if q < p):
                        brute += 1
            assert s_p_count(f, n_value, p, result=res) == brute, (a, b, c, n_value, p)


def test_a_d_count_golden():
    f = validate(1, 0, 1)
    cc = a_d_count(f, 100, 5)
    assert (cc.d, cc.a_d, cc.rho_d) == (5, 8, 2)
    assert cc.r_d == pytest.approx(8 - 2 * 19 / 5, abs=1e-15)
    assert cc.within_rho
    unit = a_d_count(f, 100, 1)
    assert unit.a_d == 19 and unit.rho_d == 1 and unit.r_d == 0.0


def test_a_d_count_matches_bruteforce():
    rng = random.Random(16)
    for _ in range(120):
        a, b, c = rand_admissible(rng, 12)
        f = validate(a, b, c)
        n_value = rng.randint(50, 20000)
        d = rng.randint(1, 150)
        dom = enumeration_domain(f, n_value)
        cc = a_d_count(f, n_value, d, domain=dom)
        brute = 0
        for lo, hi in dom.intervals:
            brute += sum(1 for n in range(lo, hi + 1) if poly_value(a, b, c, n) % d == 0)
        assert cc.a_d == brute, (a, b, c, n_value, d)
        assert abs(cc.r_d) < 2 * cc.rho_d or cc.r_d == 0.0
        if len(dom.intervals) == 1 and cc.rho_d:
            assert abs(cc.r_d) < cc.rho_d


def test_a_d_count_remainder_can_exceed_rho_on_split_domains():
    # two-interval domain where both residue classes land unevenly: the
    # remainder bound |r_d| <= rho(d) fails, and within_rho reports it
    f = validate(1, -5, -19)
    cc = a_d_count(f, 4277, 23)
    assert not cc.within_rho
    assert abs(cc.r_d) > cc.rho_d
    dom = enumeration_domain(f, 4277)
    assert len(dom.intervals) == 2
    brute = 0
    for lo, hi in dom.intervals:
        brute += sum(1 for n in range(lo, hi + 1) if f(n) % 23 == 0)
    assert cc.a_d == brute
