"""analyze and scan solve the root tables of a chunk of polynomials in one
pass and take their V(|A|) from one product tree. Every table, V, printed
line and record must equal what each polynomial gives alone, whatever the
chunk size, and an error must stay with the polynomial that raised it."""

import importlib.util
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadprimes import analytic, character, cli, polynomial, sieve
from quadprimes.analytic import v_products
from quadprimes.cli import main
from quadprimes.errors import ConsistencyError, ValidationError
from quadprimes.polynomial import (
    AdmissiblePolynomial,
    prime_root_table,
    prime_root_tables,
    roots_mod_prime,
    validate,
)
from quadprimes.primes import primes_upto

from oracles import fundamental_part, kronecker_symbol, series_length

TIMESTAMP = re.compile(r'"timestamp":"[^"]*"')
R = 2**64 + 3  # n near R: a box whose b, c and n lie beyond int64
# the table rows of one polynomial at N = 1e6 and a = 1: V's primes below 2000
ROWS = primes_upto(2000).size


def boxes(seed: int) -> list[list[str]]:
    """Two scan boxes at N = 1e6. The first has a < 0, p | a for p = 2, 3,
    skip rows, Delta > 0 with split domains, and Delta shared by (a, c) and
    (c, a). In the second, f = (n - R)(n - R - 1) + j: Delta = 1 - 4j from
    25 down to -23, with square and parity skips."""
    rng = random.Random(seed)
    b0, c0, j0 = rng.randint(-5, 0), rng.randint(-6, -2), rng.randint(-6, -2)
    return [
        ["--a-range=-3:3", f"--b-range={b0}:{b0 + 4}", f"--c-range={c0}:{c0 + 7}"],
        ["-a", "1", "-b", str(-2 * R - 1), f"--c-range={R * R + R + j0}:{R * R + R + j0 + 12}"],
    ]


def scan(capsys, tmp_path, box, *flags):
    path = tmp_path / "scan.jsonl"
    path.unlink(missing_ok=True)
    code = main(["scan", *box, "-N", "1e6", "--records", str(path), *flags])
    out, err = capsys.readouterr()
    records = TIMESTAMP.sub("", path.read_text()) if path.exists() else ""
    return code, out, err, records


@pytest.mark.parametrize("seed", [7, 19])
def test_chunk_size_changes_no_output_byte(seed, capsys, tmp_path, monkeypatch):
    for box in boxes(seed):
        runs = []
        for cap in (1, 2 * ROWS, 7 * ROWS, cli.CHUNK_ROWS):
            monkeypatch.setattr(cli, "CHUNK_ROWS", cap)
            runs.append(scan(capsys, tmp_path, box))
        assert all(run == runs[0] for run in runs[1:])
        code, out, _, records = runs[0]
        assert code == 0 and "skip:" in out and " ok" in out
        # each record is the line analyze prints for that polynomial alone
        for line in records.splitlines():
            a, b, c = (re.search(f'"{k}":(-?\\d+)', line).group(1) for k in "abc")
            assert main(["analyze", "-a", a, "-b", b, "-c", c, "-N", "1e6", "--no-record",
                         "--format", "records"]) == 0
            assert TIMESTAMP.sub("", capsys.readouterr().out) == line + "\n"


def random_polynomials(rng: random.Random, count: int) -> list[AdmissiblePolynomial]:
    fs = []
    while len(fs) < count:
        if rng.random() < 0.1:  # coefficients beyond int64
            abc = (rng.choice([-1, 1]) * rng.randint(1, 2**66), rng.randint(-(2**70), 2**70),
                   rng.randint(-(2**80), 2**80))
        else:
            abc = tuple(rng.randint(-30, 30) for _ in range(3))
        try:
            fs.append(validate(*abc))
        except ValidationError:
            pass
    return fs


def test_batched_tables_equal_tables_solved_alone():
    rng = random.Random(25)
    fs = random_polynomials(rng, 520)
    limits = [rng.choice([0, 1, 2, 3, rng.randint(4, 3000)]) for _ in fs]
    order = list(range(len(fs)))
    rng.shuffle(order)
    fs, limits = [fs[i] for i in order], [limits[i] for i in order]
    tables = prime_root_tables(fs, limits)
    assert any(t.period is not None for t in tables) and any(t.period is None for t in tables)
    for k, (f, limit, table) in enumerate(zip(fs, limits, tables)):
        alone = prime_root_table(f, limit)
        assert (table.f, table.limit) == (f, limit)
        assert np.array_equal(table.primes, alone.primes)
        assert np.array_equal(table.roots, alone.roots)
        assert (table.period is None) == (alone.period is None)
        if k % 25 == 0:  # and, on some, with the per-prime solver
            for p, row in zip(table.primes.tolist(), table.roots.tolist()):
                roots = list(roots_mod_prime(f, p).roots)
                assert row == roots + [-1] * (2 - len(roots)), (str(f), p)


def exact_v(f: AdmissiblePolynomial, z: float) -> float:
    primes = primes_upto(math.ceil(z) - 1).tolist()
    v = Fraction(1)
    for p in primes:
        v *= Fraction(p - len(roots_mod_prime(f, p).roots), p)
    return float(v)


def v_cases():
    rng = random.Random(26)
    fs = random_polynomials(rng, 60)
    zs = [rng.choice([2, 2.5, 17, rng.uniform(3, 5000)]) for _ in fs]
    tables = [rng.choice([None, prime_root_table(f, rng.randint(0, 3000))]) for f in fs]
    # every value of x^2 + x + 2 is even: rho(2) = 2 and V = 0 from z = 3 on
    even = AdmissiblePolynomial(1, 1, 2, -7)
    fs += [even, even, validate(1, 1, 41)]
    zs += [3, 1000, 2]
    tables += [None, prime_root_table(even, 30), None]
    return fs, zs, tables


def test_batched_v_equals_the_exact_fraction(monkeypatch):
    fs, zs, tables = v_cases()
    want = [exact_v(f, z) for f, z in zip(fs, zs)]
    assert 0.0 in want and 1.0 in want
    assert v_products(fs, zs, tables) == want
    refused = []

    def refusing(*args):
        refused.append(args)
        return None

    monkeypatch.setattr(analytic, "_certified_double", refusing)
    assert v_products(fs, zs, tables) == want  # every product by the exact fallback
    assert len(refused) == sum(0.0 < v < 1.0 for v in want)


def test_a_wrong_period_table_fails_only_its_own_rows(capsys, tmp_path, monkeypatch):
    box = boxes(7)[0]
    clean = scan(capsys, tmp_path, box)
    ok = [validate(*map(int, line.split()[:3]))
          for line in clean[1].splitlines() if line.endswith(" ok")]

    def table_primes(f):
        return primes_upto(sieve.strike_limit(f, polynomial.enumeration_domain(f, 10**6))).size

    # a Delta whose every polynomial has a table of at least |Delta| primes,
    # so that each root solve reads Delta's period table
    target = next(f.delta for f in ok if all(
        abs(f.delta) <= table_primes(g) for g in ok if g.delta == f.delta))
    real = polynomial.chi_period

    def wrong(x, count):
        table = real(x, count)
        return np.ones_like(table) if x == target and table is not None else table

    monkeypatch.setattr(polynomial, "chi_period", wrong)
    code, out, err, records = scan(capsys, tmp_path, box)
    assert code == 4 and err == clean[2]
    failed = [line for line in out.splitlines() if "error:" in line]
    assert failed and all(line.split()[3] == str(target) for line in failed)
    assert all(line.endswith("error:ConsistencyError") for line in failed)
    kept = [line for line in clean[1].splitlines()
            if not (line.endswith(" ok") and line.split()[3] == str(target))]
    assert [line for line in out.splitlines() if "error:" not in line] == kept
    assert records == "".join(line + "\n" for line in clean[3].splitlines()
                              if _delta(line) != target)


def _delta(record_line: str) -> int:
    a, b, c = (int(re.search(f'"{k}":(-?\\d+)', record_line).group(1)) for k in "abc")
    return b * b - 4 * a * c


def test_each_row_reports_its_own_budget_error(capsys, tmp_path, monkeypatch):
    box = boxes(19)[0]
    flags = ["--budget-max-sieve-prime", "995"]
    runs = []
    for cap in (1, cli.CHUNK_ROWS):
        monkeypatch.setattr(cli, "CHUNK_ROWS", cap)
        runs.append(scan(capsys, tmp_path, box, *flags))
    assert runs[0] == runs[1]
    code, out, _, _ = runs[0]
    rows = [line.split() for line in out.splitlines()[1:]]
    statuses = {row[-1] for row in rows}
    assert code == 3 and {"ok", "error:BudgetExceeded"} <= statuses
    for row in rows:
        if row[-1].startswith("skip:"):
            continue
        code = main(["analyze", "-a", row[0], "-b", row[1], "-c", row[2], "-N", "1e6",
                     "--no-record", *flags])
        err = capsys.readouterr().err
        assert (code == 0) == (row[-1] == "ok")
        if code:
            assert row[-1] == "error:" + err.split(":")[1].strip()


def _bench_worker():
    """bench/worker.py as a module, for the fault it injects; importing it
    runs nothing."""
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_l_fault_reaches_every_row_of_every_chunk(capsys, tmp_path, monkeypatch):
    # one l_batch per chunk, and still one cli.l_one call per new Delta, so
    # the bench's --fault l wrapper perturbs every reported row
    chunks, batches = [], []
    real_prepared, real_batch = cli._prepared, character.l_batch

    def prepared(work, *args):
        chunks.append(len(work))
        return real_prepared(work, *args)

    def batch(deltas, *args, **kwargs):
        batches.append(list(deltas))
        return real_batch(deltas, *args, **kwargs)

    monkeypatch.setattr(cli, "_prepared", prepared)
    monkeypatch.setattr(character, "l_batch", batch)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 6 * ROWS)
    monkeypatch.setattr(cli, "l_one", cli.l_one)  # undone after the test
    _bench_worker().inject_fault(cli, "l")
    code, out, _, records = scan(capsys, tmp_path, boxes(7)[0])
    assert code == 0 and len(batches) == len(chunks) > 1
    lines = records.splitlines()
    assert len(lines) == sum(line.endswith(" ok") for line in out.splitlines())
    deltas = [_delta(line) for line in lines]
    assert len(set(deltas)) < len(deltas) and min(deltas) < 0 < max(deltas)
    for line, delta in zip(lines, deltas):
        value, bound = character.l_one(delta, cli.Settings().tol)
        assert float(re.search('"l_one":([^,]*)', line).group(1)) == value + 3.0 * bound, delta


def _per_delta(delta, tolerance, *, cutoff_cap, batch=None):
    """cli.l_one as it was before l_batch: each Delta's series alone."""
    return character.l_one(delta, tolerance, cutoff_cap=cutoff_cap)


def _term_count(delta: int, tol: float) -> int:
    d, primes = fundamental_part(delta)
    factor = math.prod(1.0 - kronecker_symbol(d, p) / p for p in primes)
    return series_length(d, tol / (2.0 * factor))


def test_rows_over_the_l_cutoff_fail_alone(capsys, tmp_path, monkeypatch):
    box = ["-a", "1", "--b-range=-40:40", "--c-range=-1:2"]
    tol = cli.Settings().tol
    counts = sorted({_term_count(b * b - 4 * c, tol) for b in range(-40, 41) for c in range(-1, 3)
                     if (b * b - 4 * c) % 4 < 2 and math.isqrt(abs(b * b - 4 * c)) ** 2 != b * b - 4 * c})
    flags = ["--budget-l-cutoff", str(counts[len(counts) // 2])]
    monkeypatch.setattr(cli, "CHUNK_ROWS", 8 * ROWS)
    run = scan(capsys, tmp_path, box, *flags)
    monkeypatch.setattr(cli, "l_one", _per_delta)
    assert scan(capsys, tmp_path, box, *flags) == run  # byte for byte, exit code included
    code, out, _, records = run
    rows = [line.split() for line in out.splitlines()[1:]]
    assert code == 3 and {"ok", "error:ToleranceUnreachable"} <= {row[-1] for row in rows}
    reported = iter(records.splitlines())
    for row in rows:
        if row[-1].startswith("skip:"):
            continue
        assert (row[-1] == "ok") == (_term_count(int(row[3]), tol) <= int(flags[1]))
        code = main(["analyze", "-a", row[0], "-b", row[1], "-c", row[2], "-N", "1e6",
                     "--no-record", "--format", "records", *flags])
        printed, err = capsys.readouterr()
        if row[-1] == "ok":
            assert code == 0 and TIMESTAMP.sub("", printed) == next(reported) + "\n"
        else:
            assert code == 3 and row[-1] == "error:" + err.split(":")[1].strip()


def test_a_failing_series_pass_fails_only_its_own_delta(capsys, tmp_path, monkeypatch):
    box = boxes(19)[0]
    clean = scan(capsys, tmp_path, box)
    deltas = [_delta(line) for line in clean[3].splitlines()]
    target = fundamental_part(max(set(deltas), key=deltas.count))[0]
    real = character._chi_upto

    def failing(ds, limits):
        if target in ds:
            raise ConsistencyError(f"chi table of {target}")
        return real(ds, limits)

    monkeypatch.setattr(character, "_chi_upto", failing)
    code, out, err, records = scan(capsys, tmp_path, box)
    assert code == 4 and err == clean[2]
    hit = [line for line in clean[1].splitlines()
           if line.endswith(" ok") and fundamental_part(int(line.split()[3]))[0] == target]
    assert len(hit) > 1
    assert out.splitlines() == [
        cli._scan_row(*line.split()[:4], *["-"] * 4, "error:ConsistencyError") if line in hit
        else line for line in clean[1].splitlines()]
    assert records == "".join(line + "\n" for line in clean[3].splitlines()
                              if fundamental_part(_delta(line))[0] != target)
