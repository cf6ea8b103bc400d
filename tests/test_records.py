import json
import os

import pytest

from oracles import reparsed_latest, reparsed_records
from quadprimes import records
from quadprimes.errors import SpecParseError
from quadprimes.records import (
    SCHEMA_VERSION,
    RunRecord,
    append_record,
    find_latest,
    from_json_line,
    load_records,
    to_json_line,
    utc_timestamp,
)


def _record(**overrides):
    base = dict(
        a=1, b=1, c=41, n_value=1000,
        pi_f=62, cardinality_a=62,
        v_of_a=0.808215714582409, main_term=50.10937430410936,
        relative_error=0.2372934378251759,
        l_one=0.24606860443815104, l_one_bound=1e-5,
        beta=-0.22586943532957812, beta_bound=4.06e-5,
        hypotheses_hold=False,
        version="0.1.0", timestamp="2026-08-14T00:00:00+00:00",
    )
    base.update(overrides)
    return RunRecord(**base)


def test_round_trip_preserves_every_field():
    rec = _record()
    again = from_json_line(to_json_line(rec))
    assert again == rec


def test_round_trip_none_fields():
    rec = _record(relative_error=None, beta=None, beta_bound=None,
                  hypotheses_hold=None, l_one=None, l_one_bound=None)
    assert from_json_line(to_json_line(rec)) == rec


def test_schema_field_leads_the_line():
    line = to_json_line(_record())
    assert line.startswith('{"schema":1,')
    assert json.loads(line)["schema"] == SCHEMA_VERSION


def test_rejects_wrong_schema_and_shape():
    good = json.loads(to_json_line(_record()))
    bad_schema = dict(good, schema=2)
    with pytest.raises(SpecParseError):
        from_json_line(json.dumps(bad_schema))
    extra = dict(good, surprise=1)
    with pytest.raises(SpecParseError):
        from_json_line(json.dumps(extra))
    missing = dict(good)
    del missing["pi_f"]
    with pytest.raises(SpecParseError):
        from_json_line(json.dumps(missing))
    with pytest.raises(SpecParseError):
        from_json_line("not json")
    with pytest.raises(SpecParseError):
        from_json_line("[1, 2]")


def test_append_and_load(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    first = _record()
    second = _record(n_value=2000, pi_f=100)
    append_record(path, first)
    append_record(path, second)
    assert load_records(path) == [first, second]


def test_append_makes_missing_parent_directories(tmp_path):
    path = tmp_path / "runs" / "2026" / "log.jsonl"
    first, second = _record(), _record(n_value=2000)
    append_record(str(path), first)
    append_record(str(path), second)  # the parents exist now
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == [to_json_line(first) + "\n", to_json_line(second) + "\n"]
    assert load_records(str(path)) == [first, second]


def test_find_latest_respects_key_and_order(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    early = _record(timestamp="2026-08-13T00:00:00+00:00", pi_f=1)
    late = _record(timestamp="2026-08-14T00:00:00+00:00", pi_f=62)
    other = _record(n_value=5, pi_f=3)
    append_record(path, early)
    append_record(path, other)
    append_record(path, late)
    assert find_latest(path, (1, 1, 41, 1000)) == late
    assert find_latest(path, (1, 1, 41, 5)) == other
    assert find_latest(path, (9, 9, 9, 9)) is None
    assert find_latest(str(tmp_path / "absent.jsonl"), (1, 1, 41, 1000)) is None


def test_find_latest_checks_lines_it_does_not_return(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    append_record(path, _record())
    bad = dict(json.loads(to_json_line(_record(n_value=5))), surprise=1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    with pytest.raises(SpecParseError):
        find_latest(path, (1, 1, 41, 1000))


def _outcome(read):
    try:
        return read()
    except SpecParseError:
        return SpecParseError


def assert_reads_as_reparsed(path, keys=()):
    """load_records and find_latest on every key give what a full reparse
    gives, or both raise SpecParseError."""
    want = _outcome(lambda: reparsed_records(path, from_json_line))
    assert _outcome(lambda: load_records(path)) == want
    if want is not SpecParseError:
        keys = {*keys, *(r.key for r in want)}
    for key in keys:
        assert _outcome(lambda: find_latest(path, key)) == _outcome(
            lambda: reparsed_latest(path, key, from_json_line)), key


def _line(**overrides):
    return to_json_line(_record(**overrides))


def _write(path, text, mode="w"):
    with open(path, mode, encoding="utf-8", newline="") as fh:
        fh.write(text)


def test_appends_read_as_reparsed(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    for i in range(6):
        append_record(path, _record(n_value=1000 + i % 3, pi_f=i))
        assert_reads_as_reparsed(path)
    assert find_latest(path, (1, 1, 41, 1000)).pi_f == 3


def test_same_length_rewrite_and_truncation_read_as_reparsed(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    lines = [_line(pi_f=10), _line(n_value=5, pi_f=11), _line(pi_f=12)]
    _write(path, "\n".join(lines) + "\n")
    assert_reads_as_reparsed(path)
    # the first line changes, the size does not
    _write(path, "\n".join([_line(pi_f=13)] + lines[1:]) + "\n")
    assert_reads_as_reparsed(path)
    assert load_records(path)[0].pi_f == 13
    for size in (len(lines[0]) + 1 + len(lines[1]) + 1, len(lines[0]) + 5, 0):
        with open(path, "r+b") as fh:
            fh.truncate(size)
        assert_reads_as_reparsed(path, keys=[(1, 1, 41, 1000)])
    assert load_records(path) == []


def test_partial_last_line_completed_later(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    first, second = _line(pi_f=1), _line(pi_f=2)
    _write(path, first + "\n" + second[:40])
    with pytest.raises(SpecParseError):
        load_records(path)
    assert_reads_as_reparsed(path)
    _write(path, second[40:], "a")
    assert_reads_as_reparsed(path)
    assert find_latest(path, (1, 1, 41, 1000)).pi_f == 2
    _write(path, "\n" + _line(pi_f=3) + "\n", "a")
    assert_reads_as_reparsed(path)
    assert [r.pi_f for r in load_records(path)] == [1, 2, 3]


def test_crlf_and_lone_cr_line_endings(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    _write(path, _line(pi_f=1) + "\r\n" + _line(n_value=5) + "\r")
    assert_reads_as_reparsed(path)
    # a \r\n split between two reads, then blank and space-only lines
    _write(path, "\n" + _line(pi_f=2) + "\r\r\n  \r" + _line(pi_f=3) + "\r\n", "a")
    assert_reads_as_reparsed(path)
    assert [r.pi_f for r in load_records(path)] == [1, 62, 2, 3]


def test_bad_line_after_good_read_raises_on_every_read(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    good = _line() + "\n"
    _write(path, good)
    assert_reads_as_reparsed(path)
    _write(path, _line(n_value=5)[:-1] + ',"surprise":1}\n', "a")
    for _ in range(2):
        with pytest.raises(SpecParseError):
            load_records(path)
        with pytest.raises(SpecParseError):
            find_latest(path, (1, 1, 41, 1000))
    _write(path, good)
    assert_reads_as_reparsed(path)


def test_two_logs_read_alternately(tmp_path):
    one, two = str(tmp_path / "one.jsonl"), str(tmp_path / "two.jsonl")
    for i in range(3):
        append_record(one, _record(pi_f=i))
        append_record(two, _record(pi_f=10 + i))
        append_record(two, _record(n_value=5, pi_f=20 + i))
        for path in (one, two, one):
            assert_reads_as_reparsed(path, keys=[(1, 1, 41, 5)])
    assert find_latest(one, (1, 1, 41, 1000)).pi_f == 2
    assert find_latest(two, (1, 1, 41, 1000)).pi_f == 12


def test_deleted_log_reads_empty(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    append_record(path, _record())
    assert len(load_records(path)) == 1
    os.remove(path)
    assert load_records(path) == []
    assert find_latest(path, (1, 1, 41, 1000)) is None


def test_read_failures_raise_spec_parse_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_record(str(path), _record())
    assert len(load_records(str(path))) == 1
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    directory = tmp_path / "logs"
    directory.mkdir()
    for bad in (str(path), str(directory)):
        with pytest.raises(SpecParseError, match="cannot read records"):
            load_records(bad)
        with pytest.raises(SpecParseError, match="cannot read records"):
            find_latest(bad, (1, 1, 41, 1000))


def test_each_line_is_parsed_once(tmp_path, monkeypatch):
    path = str(tmp_path / "runs.jsonl")
    n = 40
    for i in range(n):
        append_record(path, _record(n_value=1000 + i % 25, pi_f=i))
    parsed = []

    def counting(line):
        parsed.append(line)
        return from_json_line(line)

    monkeypatch.setattr(records, "_memo", records._Log(b"", [], {}))
    monkeypatch.setattr(records, "from_json_line", counting)
    loaded = load_records(path)
    assert [find_latest(path, r.key) for r in loaded] == [
        reparsed_latest(path, r.key, from_json_line) for r in loaded]
    assert len(parsed) == n


def test_payload_excludes_timestamp_only():
    rec = _record()
    pay = rec.payload()
    assert "timestamp" not in pay
    assert pay["pi_f"] == 62
    other_time = _record(timestamp="2030-01-01T00:00:00+00:00")
    assert other_time.payload() == rec.payload()
    assert other_time != rec


def test_utc_timestamp_shape():
    ts = utc_timestamp()
    assert ts.endswith("+00:00") and "T" in ts
