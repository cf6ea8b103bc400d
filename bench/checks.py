"""Output checks, run after the timed phase.

Each check turns one CLI call's captured output into operation outcomes:
one per analyze or lfun call, one per admissible polynomial of a scan. An
outcome carries the operation's wall time (None when the output gives no
time for it) and a problem string, None when the operation succeeded. An
operation fails on a non-zero exit, an exception, or an output that
disagrees with the reference values in oracle.py.
"""

from __future__ import annotations

import re
from itertools import product

import oracle
import workloads

# the CLI's default tolerance; every run uses the default settings
TOL = 1e-4
# rounding allowance on top of the CLI's rigorous L bound
L_SLACK = 1e-9


def _flag(argv: list[str], name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    raise KeyError(name)


def _call_problem(op: dict) -> str | None:
    if op["error"]:
        return "exception: " + op["error"].strip().splitlines()[-1]
    if op["rc"] != 0:
        return f"exit {op['rc']}: {op['stderr'].strip()}"
    return None


def _table(op: dict) -> dict[str, str]:
    rows = {}
    for _, line in op["lines"]:
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


def l_problem(delta: int, value: float, bound: float) -> str | None:
    if not 0 < bound <= TOL:
        return f"L bound {bound} for Delta={delta} not in (0, tol]"
    reference = oracle.l_value(delta)
    if abs(value - reference) > bound + L_SLACK:
        return f"L(1, chi_{delta}) = {value}, reference {reference}, bound {bound}"
    return None


def _count_problem(a: int, b: int, c: int, n_value: int, size: int, pi_f: int) -> str | None:
    want_size, want_pi = oracle.domain_and_pi(a, b, c, n_value)
    if (size, pi_f) != (want_size, want_pi):
        return (f"f=({a},{b},{c}) N={n_value}: |A|={size} pi_f={pi_f}, "
                f"reference |A|={want_size} pi_f={want_pi}")
    return None


def check_analyze(op: dict) -> list[tuple[float | None, str | None]]:
    argv = op["argv"]
    a, b, c, n_value = (int(_flag(argv, k)) for k in ("-a", "-b", "-c", "-N"))
    problem = _call_problem(op)
    if problem is None:
        try:
            rows = _table(op)
            problem = _count_problem(a, b, c, n_value, int(rows["|A|"]), int(rows["pi_f"]))
            problem = problem or l_problem(
                b * b - 4 * a * c, float(rows["L(1,chi)"]), float(rows["L bound"]))
        except (KeyError, ValueError) as exc:
            problem = f"unreadable output: {exc!r}"
    return [(op["end"] - op["start"], problem)]


def check_lfun(op: dict) -> list[tuple[float | None, str | None]]:
    delta = int(_flag(op["argv"], "--delta"))
    problem = _call_problem(op)
    if problem is None:
        try:
            rows = _table(op)
            if int(rows["delta"]) != delta:
                problem = f"output is for Delta={rows['delta']}, asked {delta}"
            else:
                problem = l_problem(delta, float(rows["L(1,chi)"]), float(rows["error bound"]))
        except (KeyError, ValueError) as exc:
            problem = f"unreadable output: {exc!r}"
    return [(op["end"] - op["start"], problem)]


def _record_problem(row: tuple[int, ...], record: dict | None, latest: dict | None,
                    n_value: int) -> str | None:
    a, b, c, size, pi_f = row
    if record is None:
        return f"no record read back for f=({a},{b},{c})"
    if (record["a"], record["b"], record["c"], record["n_value"]) != (a, b, c, n_value):
        return f"record for f=({a},{b},{c}) read back as {record}"
    if (record["cardinality_a"], record["pi_f"]) != (size, pi_f):
        return f"record for f=({a},{b},{c}) disagrees with its row"
    if latest != record:
        return f"find_latest for f=({a},{b},{c}) returned {latest}"
    return l_problem(b * b - 4 * a * c, record["l_one"], record["l_one_bound"])


def check_scan(op: dict) -> list[tuple[float | None, str | None]]:
    """Rows are timed from the stamp of the line before them. Every row must
    match the box, admissible polynomials must be ``ok`` with reference
    counts, and each must read back from the log as the record it wrote."""
    argv = op["argv"]
    n_value = int(_flag(argv, "-N"))
    ranges = []
    for name in ("--a-range", "--b-range", "--c-range"):
        lo, hi = (int(v) for v in _flag(argv, name).split(":"))
        ranges.append(range(lo, hi + 1))
    expected = list(product(*ranges))
    admissible = [key for key in expected if workloads.is_admissible(*key)]
    problem = _call_problem(op)
    if problem is not None:
        return [(None, problem)] * len(admissible)

    lines = op["lines"]
    if len(lines) != 1 + len(expected):
        return [(None, f"scan printed {len(lines)} lines for a box of {len(expected)}")] * len(admissible)
    rows = lines[1:]
    loaded = iter(zip(op.get("loaded", []), op.get("latest", [])))
    outcomes = []
    previous = lines[0][0]
    for key, (stamp, line) in zip(expected, rows):
        fields = line.split()
        elapsed, previous = stamp - previous, stamp
        is_op = workloads.is_admissible(*key)
        if tuple(int(v) for v in fields[:3]) != key:
            outcomes.append((elapsed, f"row {fields[:3]} where {key} was due"))
            continue
        status = fields[-1]
        if not is_op:
            if not status.startswith("skip:"):
                outcomes.append((elapsed, f"inadmissible {key} reported {status}"))
            continue
        if status != "ok":
            outcomes.append((elapsed, f"{key} reported {status}"))
            continue
        size, pi_f = int(fields[4]), int(fields[5])
        record, latest = next(loaded, (None, None))
        problem = (_count_problem(*key, n_value, size, pi_f)
                   or _record_problem((*key, size, pi_f), record, latest, n_value))
        outcomes.append((elapsed, problem))
    if next(loaded, None) is not None:
        outcomes.append((None, "log holds more records than the scan printed"))
    return outcomes


CHECKS = {"analyze": check_analyze, "lfun": check_lfun, "scan": check_scan}


def outcomes(ops: list[dict]) -> list[tuple[float | None, str | None]]:
    out = []
    for op in ops:
        out.extend(CHECKS[op["argv"][0]](op))
    return out
