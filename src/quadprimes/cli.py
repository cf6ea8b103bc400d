"""Command-line interface.

Subcommands: analyze (one polynomial end to end), scan (a coefficient
family), buchstab (identity check), lfun (L(1, chi_Delta) only).

Settings resolve with precedence flag > environment (QUADPRIMES_*) > config
file (key=value lines) > built-in defaults. Exit codes: 0 success,
2 validation or usage, 3 budget exceeded, 4 consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

from . import __version__, character, sieve
from .analytic import buchstab, main_term_report, v_products
from .character import (
    is_fundamental_discriminant,
    l_one,
    l_one_class_number_oracle,
    metrics,
)
from .errors import (
    DegenerateA,
    QuadprimesError,
    SpecParseError,
)
from .polynomial import prime_root_tables, validate
from .records import RunRecord, append_record, json_line, utc_timestamp
from .sieve import SieveBudget, sieve_pi

ENV_PREFIX = "QUADPRIMES_"
FORMATS = ("table", "records")


@dataclass(frozen=True)
class Settings:
    """The CLI settings, declared only here. A field's name is its config key,
    its QUADPRIMES_<NAME> suffix and its argparse dest; its type picks how
    config and environment text is parsed. The int settings are the budget
    caps, each with a --budget-<name> flag on every command."""

    max_n: int = sieve.DEFAULT_MAX_N
    max_sieve_prime: int = sieve.DEFAULT_MAX_SIEVE_PRIME
    l_cutoff: int = character.DEFAULT_CUTOFF_CAP
    tol: float = 1e-4
    records: str = "quadprimes-runs.jsonl"
    format: str = "table"

    def budget(self) -> SieveBudget:
        return SieveBudget(max_n=self.max_n, max_sieve_prime=self.max_sieve_prime)


# "int", "float" or "str": annotations stay strings under the __future__ import
_TYPES = {f.name: f.type for f in fields(Settings)}


def _parse_int(text: str) -> int:
    t = text.strip().replace("_", "")
    try:
        return int(t, 10)
    except ValueError:
        pass
    import decimal  # read exactly, not through a float; loaded only for such text

    try:
        v = decimal.Decimal(t)
    except decimal.DecimalException:
        raise SpecParseError(f"not an integer: {text!r}") from None
    # the magnitude check comes first, so that 1e999999999 builds no integer
    if not (v.is_finite() and v.copy_abs() <= sys.float_info.max and v == v.to_integral_value()):
        raise SpecParseError(f"not an integer: {text!r}")
    return int(v)


def _coerce(key: str, raw: str):
    if _TYPES[key] == "int":
        return _parse_int(raw)
    if _TYPES[key] == "float":
        try:
            return float(raw)
        except ValueError:
            raise SpecParseError(f"not a number: {raw!r}") from None
    if key == "format" and raw not in FORMATS:
        raise SpecParseError(f"format must be 'table' or 'records', got {raw!r}")
    return raw


def load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecParseError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SpecParseError(f"{path}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise SpecParseError(f"{path}:{lineno}: unknown setting {key!r}")
        out[key] = _coerce(key, raw.strip())
    return out


def resolve_settings(args: argparse.Namespace) -> Settings:
    values = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        values.update(load_config_file(config_path))
    for key in _TYPES:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _coerce(key, env)
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    settings = Settings(**values)
    if not 0 < settings.tol < math.inf:
        raise SpecParseError(f"tol must be positive and finite, got {settings.tol!r}")
    return settings


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="settings file with key=value lines")
    for key, kind in _TYPES.items():
        if kind == "int":
            flag = "--budget-" + key.replace("_", "-")
            sub.add_argument(flag, dest=key, type=_parse_int, default=None, metavar="INT")
    sub.add_argument("--format", choices=FORMATS, default=None)


def _add_poly_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-a", type=_parse_int, required=True, help="leading coefficient")
    sub.add_argument("-b", type=_parse_int, required=True, help="linear coefficient")
    sub.add_argument("-c", type=_parse_int, required=True, help="constant term")
    sub.add_argument("-N", type=_parse_int, required=True, help="value ceiling")


@functools.cache  # defaults are constants; resolve_settings reads env and config
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadprimes",
        description="Exact prime counts and sieve diagnostics for a*x^2 + b*x + c",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="full report for one polynomial")
    _add_poly_flags(p_an)
    p_an.add_argument("--tol", type=float, default=None, help="L(1,chi) error bound")
    p_an.add_argument("--records", default=None, help="JSONL run log path")
    p_an.add_argument("--no-record", action="store_true", help="skip the run log")
    _add_budget_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sc = subs.add_parser("scan", help="sweep coefficient ranges")
    p_sc.add_argument("-a", type=_parse_int, default=None)
    p_sc.add_argument("-b", type=_parse_int, default=None)
    p_sc.add_argument("-c", type=_parse_int, default=None)
    range_help = "inclusive bounds; write --%s-range=-3:3 when LO is negative"
    p_sc.add_argument("--a-range", metavar="LO:HI", default=None, help=range_help % "a")
    p_sc.add_argument("--b-range", metavar="LO:HI", default=None, help=range_help % "b")
    p_sc.add_argument("--c-range", metavar="LO:HI", default=None, help=range_help % "c")
    p_sc.add_argument("-N", type=_parse_int, required=True)
    p_sc.add_argument("--tol", type=float, default=None)
    p_sc.add_argument("--records", default=None)
    p_sc.add_argument("--no-record", action="store_true")
    _add_budget_flags(p_sc)
    p_sc.set_defaults(func=cmd_scan)

    p_bu = subs.add_parser("buchstab", help="evaluate the sifting identity exactly")
    _add_poly_flags(p_bu)
    p_bu.add_argument("--z", type=float, required=True, help="sifting level")
    p_bu.add_argument(
        "--include-sqrt-n",
        action="store_true",
        help="close the prime range at sqrt(N) on both sides of the identity",
    )
    p_bu.add_argument("--per-prime", action="store_true", help="print each S(A_p, p)")
    _add_budget_flags(p_bu)
    p_bu.set_defaults(func=cmd_buchstab)

    p_lf = subs.add_parser("lfun", help="L(1, chi_Delta) with a rigorous tail bound")
    p_lf.add_argument("--delta", type=_parse_int, required=True)
    p_lf.add_argument("--tol", type=float, default=None)
    _add_budget_flags(p_lf)
    p_lf.set_defaults(func=cmd_lfun)

    return parser


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# One value of a command's result: (table label, records key, value). A row
# without a label is left out of the table, and one without a key out of the
# records line; each side keeps the order of the list.
Row = tuple[str | None, str | None, object]


def _keyed(rows: list[Row]) -> dict:
    return {key: value for _, key, value in rows if key is not None}


def _emit(settings: Settings, rows: list[Row]) -> None:
    """Print one result as a records line or as a table."""
    if settings.format == "records":
        print(json_line(_keyed(rows)))
        return
    table = [(label, value) for label, _, value in rows if label is not None]
    width = max(len(label) for label, _ in table) + 2
    for label, value in table:
        print(f"{label:<{width}}{_fmt(value)}")


def _poly_rows(f) -> list[Row]:
    return [(None, "a", f.a), (None, "b", f.b), (None, "c", f.c), ("polynomial", None, str(f))]


# The most rows (primes of a root table or of V) times polynomials one chunk
# holds (at least one polynomial), so that no array of a chunk reaches the
# 128 KB above which each new array costs page faults.
CHUNK_ROWS = 1 << 12


def _analyze(triples, n_value: int, settings: Settings):
    """Yield (a, b, c), f (None where validate refused it) and f's (record,
    rows) or the QuadprimesError its analysis raised. Each f is validated
    and its budgets checked alone; a chunk shares one root-table solve, one V
    product tree and one l_batch for its new Delta; then each is reported alone."""
    budget = settings.budget()
    l_values: dict[int, tuple[float, float]] = {}  # by Delta: one L(1, chi) per call

    def finish(chunk):
        work = [item for *_, item in chunk if isinstance(item, tuple)]
        ready = (_prepared(work, n_value, settings, l_values) if work else [])[::-1]
        for triple, f, item in chunk:
            if isinstance(item, tuple):
                item = ready.pop()  # reversed above, so in chunk order
            if isinstance(item, tuple):
                try:
                    item = _report(*item, n_value, settings, l_values)
                except QuadprimesError as exc:
                    item = exc
            yield triple, f, item

    chunk, width = [], 1
    for triple in triples:
        f, rows = None, 0
        try:
            f = validate(*triple)
            domain = sieve.checked_domain(f, n_value, budget)
            item = (f, domain)
            x = max(sieve.strike_limit(f, domain), domain.cardinality_a - 1, 2)
            rows = int(1.25506 * x / math.log(x))  # > pi(x) (Rosser-Schoenfeld), sieving none
        except QuadprimesError as exc:
            item = exc
        if chunk and (len(chunk) + 1) * max(width, rows) > CHUNK_ROWS:
            yield from finish(chunk)
            chunk, width = [], 1
        chunk.append((triple, f, item))
        width = max(width, rows)
    yield from finish(chunk)


def _prepared(work: list, n_value: int, settings: Settings, l_values: dict) -> list:
    """(f, sieve result, V(|A|) or None where |A| < 2, l_batch) for each
    checked (f, domain): the root tables solved in one pass, each f sieved,
    then V from one product tree (after the sieves, whose arrays then reuse
    fewer fresh pages) and one l_batch for the Delta not in l_values; where
    that raises, each f alone, so that an error takes the place of its own
    polynomial."""
    try:
        fs = [f for f, _ in work]
        tables = prime_root_tables(fs, [sieve.strike_limit(f, d) for f, d in work])
        results = [sieve_pi(f, n_value, domain=d, table=t) for (f, d), t in zip(work, tables)]
        needs = [i for i, result in enumerate(results) if result.cardinality_a >= 2]
        v_of = dict(zip(needs, v_products(
            [fs[i] for i in needs], [results[i].cardinality_a for i in needs],
            [tables[i] for i in needs])))
        new = [f.delta for f in fs if f.delta not in l_values]
        batch = character.l_batch(new, settings.tol, cutoff_cap=settings.l_cutoff)
    except QuadprimesError as exc:
        if len(work) == 1:
            return [exc]
        return [e for item in work for e in _prepared([item], n_value, settings, l_values)]
    return [(fs[i], result, v_of.get(i), batch) for i, result in enumerate(results)]


def _report(
    f, result, v_of_a, batch, n_value: int, settings: Settings, l_values
) -> tuple[RunRecord, list[Row]]:
    if f.delta not in l_values:
        l_values[f.delta] = l_one(f.delta, settings.tol, cutoff_cap=settings.l_cutoff, batch=batch)
    l_value, l_bound = l_values[f.delta]
    try:
        met = metrics(f, n_value, result.cardinality_a, l_value, l_bound)
    except DegenerateA:
        met = None
    report = main_term_report(f, n_value, result, met.beta if met else None, v_of_a=v_of_a)
    domain_text = " union ".join(f"[{lo}, {hi}]" for lo, hi in result.domain.intervals)
    # in RunRecord's field order; |A|, V, the main term and the relative error
    # stand where the table puts them and again where the record does
    rows: list[Row] = [
        *_poly_rows(f),
        ("delta", None, f.delta),
        ("N", "n_value", n_value),
        ("domain", None, domain_text or "(empty)"),
        ("|A|", None, result.cardinality_a),
        ("pi_f", "pi_f", result.pi_f),
        (None, "cardinality_a", result.cardinality_a),
        (None, "v_of_a", report.v_of_a),
        (None, "main_term", report.main_term),
        (None, "relative_error", report.relative_error),
        ("L(1,chi)", "l_one", l_value),
        ("L bound", "l_one_bound", l_bound),
        ("beta", "beta", met.beta if met else None),
        ("beta radius", "beta_bound", met.beta_radius if met else None),
        ("B", None, met.b_cap if met else None),
        ("g(Delta)", None, met.g_delta if met else None),
        ("hypotheses", None, "hold" if met and met.hypotheses_hold else "fail" if met else None),
        (None, "hypotheses_hold", met.hypotheses_hold if met else None),
        ("V(|A|)", None, report.v_of_a),
        ("main term", None, report.main_term),
        ("relative error", None, report.relative_error),
        ("theorem bound", None, report.theorem_bound),
        (None, "version", __version__),
        (None, "timestamp", utc_timestamp()),
    ]
    return RunRecord(**_keyed(rows)), rows


def _require_positive_n(n_value: int) -> None:
    if n_value < 1:
        raise SpecParseError("N must be >= 1")


def cmd_analyze(args: argparse.Namespace, settings: Settings) -> int:
    _require_positive_n(args.N)
    [(_, _, outcome)] = _analyze([(args.a, args.b, args.c)], args.N, settings)
    if isinstance(outcome, QuadprimesError):
        raise outcome
    record, rows = outcome
    if not args.no_record:
        append_record(settings.records, record)
    _emit(settings, rows)
    return 0


def _scan_row(a, b, c, delta, size, pi_f, main, rel, status) -> str:
    """One line of scan's table, the header included."""
    return f"{a:>6} {b:>6} {c:>6} {delta:>12} {size:>8} {pi_f:>8} {main:>14} {rel:>11}  {status}"


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise SpecParseError(f"range must be LO:HI, got {text!r}")
    lo_i, hi_i = _parse_int(lo), _parse_int(hi)
    if hi_i < lo_i:
        raise SpecParseError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def _coef_values(args: argparse.Namespace, name: str) -> range:
    single = getattr(args, name)
    span = getattr(args, f"{name}_range")
    if single is not None and span is not None:
        raise SpecParseError(f"give -{name} or --{name}-range, not both")
    if span is not None:
        return _parse_range(span)
    if single is not None:
        return range(single, single + 1)
    raise SpecParseError(f"missing -{name} or --{name}-range")


def cmd_scan(args: argparse.Namespace, settings: Settings) -> int:
    _require_positive_n(args.N)
    a_vals = _coef_values(args, "a")
    b_vals = _coef_values(args, "b")
    c_vals = _coef_values(args, "c")
    n_value = args.N
    if settings.format == "table":
        print(_scan_row("a", "b", "c", "delta", "|A|", "pi_f", "main", "rel_err", "status"))
    exit_code = 0
    triples = ((a, b, c) for a in a_vals for b in b_vals for c in c_vals)
    for (a, b, c), f, outcome in _analyze(triples, n_value, settings):
        if f is None:
            if settings.format == "table":
                print(_scan_row(a, b, c, *["-"] * 5, f"skip:{type(outcome).__name__}"))
            else:
                print(f"skip a={a} b={b} c={c} {type(outcome).__name__}", file=sys.stderr)
            continue
        if isinstance(outcome, QuadprimesError):
            exit_code = max(exit_code, outcome.exit_code)
            if settings.format == "table":
                print(_scan_row(a, b, c, f.delta, *["-"] * 4, f"error:{type(outcome).__name__}"))
            else:
                print(f"error a={a} b={b} c={c} {type(outcome).__name__}: {outcome}",
                      file=sys.stderr)
            continue
        record, rows = outcome
        if not args.no_record:
            append_record(settings.records, record)
        if settings.format == "records":
            _emit(settings, rows)
        else:
            rel = record.relative_error
            print(_scan_row(
                a, b, c, f.delta, record.cardinality_a, record.pi_f,
                f"{record.main_term:.6g}", "-" if rel is None else f"{rel:+.3e}", "ok",
            ))
        sys.stdout.flush()
    return exit_code


def cmd_buchstab(args: argparse.Namespace, settings: Settings) -> int:
    _require_positive_n(args.N)
    f = validate(args.a, args.b, args.c)
    if not (2 <= args.z and args.z * args.z <= args.N):
        raise SpecParseError("--z must satisfy 2 <= z <= sqrt(N)")
    report = buchstab(
        f, args.N, args.z,
        include_sqrt_n=args.include_sqrt_n,
        budget=settings.budget(),
    )
    rows: list[Row] = [
        *_poly_rows(f),
        ("N", "n_value", args.N),
        ("z", "z", report.z),
        ("|A|", None, report.a_count),
        ("S(A, z)", "s_a_z", report.s_a_z),
        ("S(A, sqrt N)", "s_a_sqrt_n", report.s_a_sqrt_n),
        ("s1 (p <= A/z^2)", "s1", report.s1),
        ("s2 (A/z^2 < p <= A)", "s2", report.s2),
        ("s3 (p > A)", "s3", report.s3),
        ("residual", "identity_residual", report.identity_residual),
        (None, "include_sqrt_n", report.include_sqrt_n),
    ]
    if args.per_prime:
        rows.append((None, "per_prime", report.per_prime))
    _emit(settings, rows)
    if args.per_prime and settings.format == "table":
        for p, count in report.per_prime:
            print(f"  S(A_{p}, {p}) = {count}")
    if report.identity_residual != 0:
        print("consistency failure: nonzero Buchstab residual", file=sys.stderr)
        return 4
    return 0


def cmd_lfun(args: argparse.Namespace, settings: Settings) -> int:
    value, bound = l_one(args.delta, settings.tol, cutoff_cap=settings.l_cutoff)
    oracle = None
    if -(10**6) < args.delta < 0 and is_fundamental_discriminant(args.delta):
        oracle = l_one_class_number_oracle(args.delta)
    rows: list[Row] = [
        ("delta", "delta", args.delta),
        ("L(1,chi)", "l_one", value),
        ("error bound", "error_bound", bound),
        # the records line carries a null oracle; the table leaves it out
        (None if oracle is None else "class-number oracle", "class_number_oracle", oracle),
    ]
    if oracle is not None:
        rows.append(("|difference|", None, abs(value - oracle)))
    _emit(settings, rows)
    if oracle is not None and abs(value - oracle) > bound + 1e-12:
        print("consistency failure: erfc series disagrees with oracle", file=sys.stderr)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = resolve_settings(args)
        return args.func(args, settings)
    except QuadprimesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
