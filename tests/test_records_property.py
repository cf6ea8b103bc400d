"""Property test of the memoised record readers against a full reparse,
over random sequences of appends, same-length rewrites and truncations of
one log. Kept apart from test_records because it needs hypothesis, the
optional test extra; derandomized, so every run draws the same cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from quadprimes.records import to_json_line
from test_records import _record, assert_reads_as_reparsed

# few keys, so that find_latest has earlier matches to pass over
LINES = [to_json_line(_record(n_value=n, pi_f=p)) for n in (5, 1000) for p in (1, 22)]
KEYS = [(1, 1, 41, 5), (1, 1, 41, 1000), (9, 9, 9, 9)]

appends = st.tuples(
    st.just("append"),
    st.sampled_from(LINES + ["", "  ", "{", LINES[0][:30]]),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
)
# overwrite one digit with another: the size stays, a value or key may change
rewrites = st.tuples(st.just("rewrite"), st.floats(0, 1), st.sampled_from("0123456789"))
truncations = st.tuples(st.just("truncate"), st.floats(0, 1), st.just(""))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.one_of(appends, appends, rewrites, truncations), max_size=12))
def test_readers_equal_full_reparse_after_every_edit(tmp_path_factory, edits):
    # one path for every example, so an example may start on the log that the
    # readers kept from the one before
    path = str(tmp_path_factory.getbasetemp() / "runs-property.jsonl")
    data = b""
    for kind, arg, text in edits:
        if kind == "append":
            data += (arg + text).encode()
        elif kind == "rewrite":
            digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
            if digits:
                i = digits[int(arg * (len(digits) - 1))]
                data = data[:i] + text.encode() + data[i + 1:]
        else:
            data = data[:int(arg * len(data))]
        with open(path, "wb") as fh:
            fh.write(data)
        assert_reads_as_reparsed(path, KEYS)
