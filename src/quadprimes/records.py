"""Append-only JSONL persistence for run results.

One line per run, schema-versioned, keyed by (a, b, c, N). Numeric payload
fields round-trip exactly through json (ints stay ints, floats via repr
semantics); the timestamp is carried but excluded from key lookups and
comparisons so reruns can be diffed against history.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from typing import Iterator

from .errors import SpecParseError

SCHEMA_VERSION = 1

RunKey = tuple[int, int, int, int]


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to reproduce and compare one analyze run."""

    a: int
    b: int
    c: int
    n_value: int
    pi_f: int
    cardinality_a: int
    v_of_a: float
    main_term: float
    relative_error: float | None
    l_one: float | None
    l_one_bound: float | None
    beta: float | None
    beta_bound: float | None
    hypotheses_hold: bool | None
    version: str
    timestamp: str
    schema: int = SCHEMA_VERSION

    @property
    def key(self) -> RunKey:
        return (self.a, self.b, self.c, self.n_value)

    def payload(self) -> dict:
        """Comparison view: every field except the timestamp."""
        d = asdict(self)
        d.pop("timestamp")
        return d


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def json_line(payload: dict) -> str:
    """One compact JSON line with the schema first, so a reader can dispatch
    before parsing the rest; a schema the payload carries keeps its value."""
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, separators=(",", ":"))


def to_json_line(record: RunRecord) -> str:
    return json_line(asdict(record))


_FIELD_NAMES = {f.name for f in fields(RunRecord)}


def from_json_line(line: str) -> RunRecord:
    return RunRecord(**_checked_fields(line))


def _checked_fields(line: str) -> dict:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"bad record line: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecParseError("record line is not an object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise SpecParseError(f"unsupported record schema {schema!r}")
    unknown = set(raw) - _FIELD_NAMES
    if unknown:
        raise SpecParseError(f"unknown record fields {sorted(unknown)}")
    missing = _FIELD_NAMES - set(raw)
    if missing:
        raise SpecParseError(f"missing record fields {sorted(missing)}")
    return raw


def append_record(path: str, record: RunRecord) -> None:
    """Append one line; creates the file (and parents) on first use. A path
    that cannot be written raises SpecParseError."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(to_json_line(record) + "\n")
    except OSError as exc:
        raise SpecParseError(f"cannot write records {path}: {exc}") from None


def _lines(path: str) -> Iterator[str]:
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            yield from filter(None, map(str.strip, fh))


def load_records(path: str) -> list[RunRecord]:
    return [from_json_line(line) for line in _lines(path)]


def find_latest(path: str, key: RunKey) -> RunRecord | None:
    """Most recent record for (a, b, c, N); the log is append-only so the
    last match wins. Every line is checked, but only the match is built."""
    found = None
    for raw in map(_checked_fields, _lines(path)):
        if (raw["a"], raw["b"], raw["c"], raw["n_value"]) == key:
            found = raw
    return None if found is None else RunRecord(**found)
