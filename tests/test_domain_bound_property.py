"""Property test of the bound checked_domain's docstring proves: |A| <=
2 strike_limit + 2, so the primes below |A| that V(|A|) reads are at most
2 strike_limit + 1, within the sieve budget's 2 max_sieve_prime + 1. Kept
apart from test_sieve because it needs hypothesis, the optional test extra;
derandomized, so every run draws the same cases."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadprimes.errors import ValidationError
from quadprimes.polynomial import enumeration_domain, validate
from quadprimes.sieve import strike_limit


def test_the_bound_is_reached():
    # f = 1, 3, 3, 1 on n = -7 ... -4: |A| = 4 = 2 isqrt(3) + 2
    f = validate(-1, -11, -27)
    domain = enumeration_domain(f, 3)
    assert domain.cardinality_a - 1 == 2 * strike_limit(f, domain) + 1 == 3


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    a=st.one_of(st.sampled_from([-1, 1]), st.integers(-40, 40).filter(lambda a: a != 0)),
    k=st.integers(-60, 60),
    b=st.integers(-400, 400),
    divisible=st.booleans(),
    data=st.data(),
)
def test_v_range_is_bounded_by_the_strike_limit(a, k, b, divisible, data):
    # a = +-1 (where the bound is reached), a < 0, a | b (the folded domains)
    # and small |Delta| (c near b^2/4a) are drawn often, and N at the domain's
    # edges: |Delta|/4|a|, where a split domain joins, and values of f, where
    # an interval gains an end point
    b = a * k if divisible else b
    c = data.draw(st.one_of(
        st.integers(-5000, 5000), st.integers(-30, 30).map(lambda t: b * b // (4 * a) + t)))
    try:
        f = validate(a, b, c)
    except ValidationError:
        assume(False)
    vertex = -f.b // (2 * f.a)
    n_value = data.draw(st.one_of(
        st.integers(1, 10**7),
        st.just(max(abs(f.delta) // (4 * abs(a)), 1)),
        st.one_of(st.integers(-3, 4), st.integers(-100, 100)).map(
            lambda n: max(abs(f(vertex + n)), 1)),
    ))
    domain = enumeration_domain(f, n_value)
    assume(domain.cardinality_a > 0)
    assert domain.cardinality_a - 1 <= 2 * strike_limit(f, domain) + 1, (f, n_value)
