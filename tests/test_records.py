import json

import pytest

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
