"""Property test of the prime root table over random admissible f. Kept
apart from test_polynomial because it needs hypothesis, the optional test
extra; derandomized, so every run draws the same cases."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadprimes.errors import ValidationError
from quadprimes.polynomial import validate
from test_polynomial import assert_rows_match_per_prime_solver


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.integers(-60, 60).filter(lambda a: a != 0),
    b=st.integers(-(2**70), 2**70),
    c=st.integers(-(2**80), 2**80),
    limit=st.integers(0, 5000),
)
def test_prime_root_table_property(a, b, c, limit):
    try:
        f = validate(a, b, c)
    except ValidationError:
        assume(False)
    assert_rows_match_per_prime_solver(f, limit)
