"""Append-only JSONL persistence for run results.

One line per run, schema-versioned, keyed by (a, b, c, N). Numeric payload
fields round-trip exactly through json (ints stay ints, floats via repr
semantics); the timestamp is carried but excluded from key lookups and
comparisons so reruns can be diffed against history.

The readers keep the last log they read: its bytes, the record of each line
in them, and the latest record per key. A file whose bytes equal those is
answered from them, so reading a log back once per key parses each line
once; any other file is parsed whole, and every line is validated. Bytes
that are not UTF-8, and a path that exists but cannot be read, raise
SpecParseError, as a bad line does.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

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
    # every field is a plain value, so asdict's deep copy is not needed
    return json_line({f.name: getattr(record, f.name) for f in fields(record)})


_FIELD_NAMES = {f.name for f in fields(RunRecord)}


def from_json_line(line: str) -> RunRecord:
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
    return RunRecord(**raw)


def append_record(path: str, record: RunRecord) -> None:
    """Append one line; creates the file (and parents) on first use. A path
    that cannot be written raises SpecParseError."""
    try:
        try:
            fh = open(path, "a", encoding="utf-8")
        except FileNotFoundError:  # the parents are made only when missing
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            fh = open(path, "a", encoding="utf-8")
        with fh:
            fh.write(to_json_line(record) + "\n")
    except OSError as exc:
        raise SpecParseError(f"cannot write records {path}: {exc}") from None


@dataclass(frozen=True)
class _Log:
    """The records of a log's bytes: one per non-blank line, and the latest
    one per key."""

    data: bytes
    rows: list[RunRecord]
    latest: dict[RunKey, RunRecord]


_EMPTY = _Log(b"", [], {})
# the last log read; replaced only by a read that raised nothing
_memo = _EMPTY


def _read(path: str) -> _Log:
    """The records of the file as it is now, parsed only if its bytes differ
    from the last log read. A missing file reads as empty."""
    global _memo
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        if not os.path.exists(path):
            return _EMPTY
        raise SpecParseError(f"cannot read records {path}: {exc}") from None
    if data == _memo.data:
        return _memo
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecParseError(
            f"cannot read records {path}: not UTF-8 at byte {exc.start}") from None
    # the lines text-mode reading gives: universal newlines, stripped, blanks skipped
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [from_json_line(line) for line in map(str.strip, lines) if line]
    _memo = _Log(data, rows, {row.key: row for row in rows})
    return _memo


def load_records(path: str) -> list[RunRecord]:
    return list(_read(path).rows)


def find_latest(path: str, key: RunKey) -> RunRecord | None:
    """Most recent record for (a, b, c, N); the log is append-only so the
    last match wins. Every line of the log has been checked."""
    return _read(path).latest.get(key)
