"""analyze and scan solve the root tables of a chunk of polynomials in one
pass and take their V(|A|) from one product tree. Every table, V, printed
line and record must equal what each polynomial gives alone, whatever the
chunk size, and an error must stay with the polynomial that raised it."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from quadprimes import analytic, cli, polynomial, sieve
from quadprimes.analytic import v_products
from quadprimes.cli import main
from quadprimes.errors import ValidationError
from quadprimes.polynomial import (
    AdmissiblePolynomial,
    prime_root_table,
    prime_root_tables,
    roots_mod_prime,
    validate,
)
from quadprimes.primes import primes_upto

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
