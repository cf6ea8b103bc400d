import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import quadprimes
from quadprimes import sieve
from quadprimes.character import DEFAULT_CUTOFF_CAP
from quadprimes.cli import Settings, build_parser, main, resolve_settings
from quadprimes.polynomial import validate
from quadprimes.records import from_json_line, load_records
from quadprimes.sieve import SieveBudget


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_table_output(capsys, tmp_path):
    code, out, err = run(
        capsys, "analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "1000",
        "--records", str(tmp_path / "r.jsonl"),
    )
    assert code == 0
    assert "x^2 + x + 41" in out
    assert "pi_f" in out and "62" in out
    assert "main term" in out
    assert err == ""


def test_analyze_records_output_parses(capsys, tmp_path):
    path = str(tmp_path / "r.jsonl")
    code, out, _ = run(
        capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "10000",
        "--format", "records", "--records", path,
    )
    assert code == 0
    rec = from_json_line(out.strip())
    assert rec.pi_f == 38 and rec.cardinality_a == 199
    assert rec.key == (1, 0, 1, 10000)
    stored = load_records(path)
    assert len(stored) == 1
    assert stored[0].payload() == rec.payload()


def test_analyze_appends_to_log(capsys, tmp_path):
    path = str(tmp_path / "r.jsonl")
    run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100",
        "--records", path)
    run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "200",
        "--records", path)
    recs = load_records(path)
    assert [r.n_value for r in recs] == [100, 200]


def test_analyze_no_record_skips_log(capsys, tmp_path):
    path = tmp_path / "r.jsonl"
    code, _, _ = run(
        capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100",
        "--records", str(path), "--no-record",
    )
    assert code == 0
    assert not path.exists()


def test_validation_failure_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "-a", "0", "-b", "1", "-c", "1",
                         "-N", "100", "--no-record")
    assert code == 2
    assert "ZeroLeadingCoefficient" in err
    code, _, err = run(capsys, "analyze", "-a", "2", "-b", "2", "-c", "4",
                       "-N", "100", "--no-record")
    assert code == 2
    assert "CommonFactor" in err


def test_budget_failure_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "100", "--budget-max-n", "50", "--no-record")
    assert code == 3
    assert "BudgetExceeded" in err
    code, _, err = run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "1000000", "--tol", "1e-15", "--no-record")
    assert code == 3  # below what double precision certifies for L(1, chi_-4)
    assert "ToleranceUnreachable" in err


def test_l_cutoff_is_checked_before_the_series(capsys, monkeypatch):
    from quadprimes import character

    def no_work(*args):
        raise AssertionError("the series was built")

    monkeypatch.setattr(character, "_chi_upto", no_work)
    monkeypatch.setattr(character, "_series", no_work)
    code, _, err = run(capsys, "lfun", "--delta", "-163", "--budget-l-cutoff", "10")
    assert code == 3
    assert "ToleranceUnreachable" in err and "cap is 10" in err


def test_main_term_budget_fails_before_the_sieve(capsys, monkeypatch):
    # the sieve's budget is the only cap on V's primes: at 1e14 it refuses the
    # run before any table, kernel or V work, and raised it lets V run in full
    from quadprimes import analytic, cli

    argv = ("analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "1e14",
            "--budget-max-n", "1e14", "--no-record")

    def no_work(*args):
        raise AssertionError("the sieve ran")

    with monkeypatch.context() as patch:
        for module, name in ((cli, "prime_root_tables"), (sieve, "_segment_counts"),
                             (cli, "v_products")):
            patch.setattr(module, name, no_work)
        code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == ("error: BudgetExceeded: sieve needs primes to 9999999, "
                   "budget max_sieve_prime = 2000000\n")

    code, out, err = run(capsys, *argv, "--budget-max-sieve-prime", "1e7", "--format", "records")
    rec = from_json_line(out.strip())
    assert code == 0 and err == "" and rec.cardinality_a == 2 * 10**7
    assert rec.v_of_a == analytic.v_product(validate(1, 1, 41), rec.cardinality_a)


def test_scan_table_skips_inadmissible(capsys, tmp_path):
    code, out, _ = run(
        capsys, "scan", "--a-range", "1:1", "--b-range", "0:1",
        "--c-range", "0:2", "-N", "500",
        "--records", str(tmp_path / "r.jsonl"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].lstrip().startswith("a")
    body = "\n".join(lines[1:])
    assert "skip:SquareDiscriminant" in body   # (1,0,0)
    assert "skip:ParityObstruction" in body    # (1,1,0)
    assert "ok" in body


def test_scan_records_stream(capsys, tmp_path):
    path = str(tmp_path / "r.jsonl")
    code, out, err = run(
        capsys, "scan", "--a-range", "1:1", "--b-range", "0:0",
        "--c-range", "1:2", "-N", "500", "--format", "records",
        "--records", path,
    )
    assert code == 0
    recs = [from_json_line(line) for line in out.strip().splitlines()]
    assert [(r.a, r.b, r.c) for r in recs] == [(1, 0, 1), (1, 0, 2)]
    assert len(load_records(path)) == 2
    assert "skip" not in out


def test_scan_solves_each_delta_once(capsys, tmp_path, monkeypatch):
    import quadprimes.cli as cli

    solved = []
    l_one = cli.l_one

    def counting(delta, *args, **kwargs):
        solved.append(delta)
        return l_one(delta, *args, **kwargs)

    monkeypatch.setattr(cli, "l_one", counting)
    path = str(tmp_path / "r.jsonl")
    # (1, 0, 2) and (2, 0, 1) share Delta = -8
    code, _, _ = run(
        capsys, "scan", "--a-range", "1:2", "--b-range", "0:0",
        "--c-range", "1:2", "-N", "500", "--records", path,
    )
    assert code == 0
    recs = load_records(path)
    assert len(recs) == 3 and sorted(solved) == [-8, -4]
    for rec in recs:
        alone = str(tmp_path / f"{rec.a}{rec.c}.jsonl")
        run(capsys, "analyze", "-a", str(rec.a), "-b", "0", "-c", str(rec.c),
            "-N", "500", "--records", alone)
        assert load_records(alone)[0].payload() == rec.payload()


def _bench_hooks() -> list[tuple[str, str]]:
    """(module, attribute) of every name the bench replaces: bench/tracer.py's
    TARGETS and the cli names bench/worker.py patches, read without running
    either file."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    tracer = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value) for node in tracer.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    worker = ast.parse((bench / "worker.py").read_text(encoding="utf-8"))
    patched = sorted(
        node.targets[0].attr for node in ast.walk(worker)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute)
        and isinstance(node.targets[0].value, ast.Name) and node.targets[0].value.id == "cli"
    )
    assert patched == ["l_one", "sieve_pi"]
    return [(module, attr) for module, attr, _ in targets] + [
        ("quadprimes.cli", attr) for attr in patched
    ]


def test_bench_hooks_resolve_and_reach_every_scan_row(capsys, tmp_path, monkeypatch):
    # the bench's fault self-test and its per-layer spans replace these names;
    # each must exist, and scan must call the cli ones once per row or Delta
    from quadprimes import cli

    for module, attr in _bench_hooks():
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    calls = {name: [] for name in ("sieve_pi", "main_term_report", "l_one")}
    for name, seen in calls.items():
        def counting(first, *args, _fn=getattr(cli, name), _seen=seen, **kwargs):
            _seen.append(first)
            return _fn(first, *args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    code, out, _ = run(capsys, "scan", "--a-range=-2:3", "--b-range=-3:3", "--c-range=-4:5",
                       "-N", "1e5", "--records", str(tmp_path / "r.jsonl"))
    ok = [line.split() for line in out.splitlines() if line.endswith(" ok")]
    assert code == 0 and len(ok) > 100
    polys = [validate(*map(int, row[:3])) for row in ok]
    assert calls["sieve_pi"] == calls["main_term_report"] == polys
    assert sorted(calls["l_one"]) == sorted({f.delta for f in polys})


def test_every_import_is_read_but_the_bench_hooks():
    # no linter ships with the package: an imported name no module code reads
    # is dead, unless the bench replaces it there
    hooks = set(_bench_hooks())
    unread = []
    for path in sorted(Path(quadprimes.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unread += [(f"quadprimes.{path.stem}", name) for name in sorted(names - read)]
    assert [pair for pair in unread if pair not in hooks] == []
    assert unread  # the tracer's hook names, imported unread by sieve and analytic


def test_scan_range_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "scan", "--a-range", "1--2", "-b", "0",
                       "-c", "1", "-N", "10")
    assert code == 2
    assert "SpecParseError" in err


def test_buchstab_command(capsys):
    code, out, _ = run(capsys, "buchstab", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "10000", "--z", "5")
    assert code == 0
    assert "residual" in out and " 0" in out
    code, out, _ = run(capsys, "buchstab", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "10000", "--z", "5", "--format", "records")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["identity_residual"] == 0
    assert payload["s_a_z"] == 99
    assert "per_prime" not in payload
    code, out, _ = run(capsys, "buchstab", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "10000", "--z", "5", "--format", "records", "--per-prime")
    assert code == 0
    with_per_prime = json.loads(out.strip())
    per_prime = with_per_prime.pop("per_prime")
    assert with_per_prime == payload
    assert per_prime[0] == [5, 40] and per_prime[-1][0] == 97
    assert payload["s_a_z"] - payload["s_a_sqrt_n"] == sum(s for _, s in per_prime)


@pytest.mark.parametrize("argv", [
    ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "abc", "--no-record"],
    ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100", "--budget-max-n", "abc",
     "--no-record"],
    ["lfun", "--delta", "1.5"],
    ["lfun", "--delta", "-4", "--tol", "-1"],
    ["lfun", "--delta", "-4", "--tol", "0"],
    ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100", "--tol", "nan", "--no-record"],
    ["buchstab", "-a", "1", "-b", "0", "-c", "1", "-N", "100", "--z", "nan"],
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: SpecParseError: ") and err.count("\n") == 1


def test_buchstab_bad_z_exits_2(capsys):
    code, _, err = run(capsys, "buchstab", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "100", "--z", "50")
    assert code == 2
    assert "SpecParseError" in err


def test_lfun_command_with_oracle(capsys):
    code, out, _ = run(capsys, "lfun", "--delta", "-163", "--tol", "1e-5")
    assert code == 0
    assert "class-number oracle" in out
    code, out, _ = run(capsys, "lfun", "--delta", "-163", "--tol", "1e-5",
                       "--format", "records")
    payload = json.loads(out.strip())
    assert abs(payload["l_one"] - payload["class_number_oracle"]) <= payload["error_bound"]


def test_lfun_on_a_semiprime_beyond_trial_division(capsys):
    # -1000003 * 1000033: both primes lie above the trial-division limit
    code, out, err = run(capsys, "lfun", "--delta", "-1000036000099", "--tol", "1e-4",
                         "--format", "records")
    assert code == 0 and err == ""
    payload = json.loads(out.strip())
    assert 0 < payload["error_bound"] <= 1e-4


def test_lfun_rejects_non_discriminant(capsys):
    code, _, err = run(capsys, "lfun", "--delta", "7")
    assert code == 2
    assert "NotADiscriminant" in err


def test_settings_precedence(capsys, tmp_path, monkeypatch):
    import quadprimes.cli as cli

    cfg = tmp_path / "q.cfg"
    cfg.write_text("# comment\ntol = 1e-3\n")
    path = str(tmp_path / "r.jsonl")
    seen = []
    l_one = cli.l_one

    def recording(delta, tol, **kwargs):
        seen.append(tol)
        return l_one(delta, tol, **kwargs)

    monkeypatch.setattr(cli, "l_one", recording)

    def tol_of(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert from_json_line(out.strip()).l_one_bound <= seen[-1]
        return seen[-1]

    base = ("analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100",
            "--format", "records", "--records", path)
    assert tol_of(*base, "--config", str(cfg)) == 1e-3
    monkeypatch.setenv("QUADPRIMES_TOL", "1e-2")
    assert tol_of(*base, "--config", str(cfg)) == 1e-2  # env beats config
    assert tol_of(*base, "--config", str(cfg), "--tol", "1e-5") == 1e-5  # flag beats env
    monkeypatch.setenv("QUADPRIMES_CONFIG", str(cfg))
    monkeypatch.delenv("QUADPRIMES_TOL")
    assert tol_of(*base) == 1e-3  # config path via environment


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    code, _, err = run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "10", "--config", str(bad), "--no-record")
    assert code == 2 and "key=value" in err
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wibble = 3\n")
    code, _, err = run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1",
                       "-N", "10", "--config", str(unknown), "--no-record")
    assert code == 2 and "unknown setting" in err


def test_repeat_runs_identical_up_to_timestamp(capsys, tmp_path):
    argv = ("analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "1000",
            "--format", "records", "--records", str(tmp_path / "r.jsonl"))
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    ra, rb = from_json_line(first.strip()), from_json_line(second.strip())
    assert ra.payload() == rb.payload()
    # table mode carries no timestamp at all, so it is byte-identical
    argv_t = ("analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "1000",
              "--no-record")
    _, t1, _ = run(capsys, *argv_t)
    _, t2, _ = run(capsys, *argv_t)
    assert t1 == t2


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ("buchstab", "-a", "1", "-b", "1", "-c", "41", "-N", "1e4", "--z", "20")
    _, plain, _ = run(capsys, *argv)
    _, per_prime, _ = run(capsys, *argv, "--per-prime")
    _, again, _ = run(capsys, *argv)
    assert again == plain != per_prime


def test_cli_never_raises_across_error_taxonomy(capsys):
    import random

    rng = random.Random(30)
    cases = []
    for _ in range(120):
        cases.append(["analyze",
                      "-a", str(rng.randint(-4, 4)),
                      "-b", str(rng.randint(-6, 6)),
                      "-c", str(rng.randint(-6, 6)),
                      "-N", str(rng.choice([0, 1, 7, 100, 10**6])),
                      "--no-record"])
    cases += [
        ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "1e99", "--no-record"],
        ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100",
         "--tol", "1e-15", "--no-record"],
        ["lfun", "--delta", "0"],
        ["lfun", "--delta", "49"],
        ["lfun", "--delta", "-3", "--tol", "1e-30"],
        ["buchstab", "-a", "1", "-b", "0", "-c", "1", "-N", "4", "--z", "2"],
        ["buchstab", "-a", "-1", "-b", "0", "-c", "-5", "-N", "9", "--z", "3"],
        ["scan", "-a", "1", "-b", "0", "--c-range", "0:0", "-N", "10",
         "--no-record"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv


def test_scientific_notation_accepted_for_n(capsys, tmp_path):
    code, out, _ = run(
        capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "1e4",
        "--format", "records", "--records", str(tmp_path / "r.jsonl"),
    )
    assert code == 0
    assert from_json_line(out.strip()).n_value == 10000


# flag spelling, then the config, environment and flag values: each value
# differs from the source below it, and the config value from the default
_SOURCES = {
    "max_n": ("--budget-max-n", 11, 12, 13),
    "max_sieve_prime": ("--budget-max-sieve-prime", 11, 12, 13),
    "l_cutoff": ("--budget-l-cutoff", 11, 12, 13),
    "tol": ("--tol", 0.25, 0.5, 0.125),
    "records": ("--records", "c.jsonl", "e.jsonl", "f.jsonl"),
    "format": ("--format", "records", "table", "records"),
}


@pytest.mark.parametrize("setting", fields(Settings), ids=lambda f: f.name)
def test_each_setting_resolves_flag_over_env_over_config(setting, tmp_path, monkeypatch):
    for other in fields(Settings):
        monkeypatch.delenv("QUADPRIMES_" + other.name.upper(), raising=False)
    monkeypatch.delenv("QUADPRIMES_CONFIG", raising=False)
    spelling, config, env, flag = _SOURCES[setting.name]
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"{setting.name} = {config}\n")
    parser = build_parser()

    def resolved(*extra):
        args = parser.parse_args(["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100",
                                  *extra])
        return getattr(resolve_settings(args), setting.name)

    assert resolved() == setting.default
    assert resolved("--config", str(cfg)) == config
    monkeypatch.setenv("QUADPRIMES_" + setting.name.upper(), str(env))
    assert resolved("--config", str(cfg)) == env
    assert resolved("--config", str(cfg), spelling, str(flag)) == flag


def test_settings_defaults_are_the_library_defaults():
    settings = Settings()
    assert settings.budget() == SieveBudget()
    assert settings.l_cutoff == DEFAULT_CUTOFF_CAP


def test_threads_setting_is_rejected(capsys, tmp_path):
    # threads (a no-op since the LPF sieve) and segment_size (the span is a
    # constant of the sieve) are retired: no command takes their flag or key
    commands = [
        ["analyze", "-a", "1", "-b", "0", "-c", "1", "-N", "100", "--no-record"],
        ["scan", "--a-range", "1:1", "--b-range", "0:0", "--c-range", "1:1", "-N", "100",
         "--no-record"],
        ["buchstab", "-a", "1", "-b", "0", "-c", "1", "-N", "100", "--z", "5"],
        ["lfun", "--delta", "-4"],
    ]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
        for flag in ("--threads", "--budget-segment-size"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "2"])
            assert exc.value.code == 2, (argv, flag)
    capsys.readouterr()
    for key in ("threads", "segment_size"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run(capsys, *commands[0], "--config", str(cfg))
        assert code == 2 and f"unknown setting '{key}'" in err


def test_segment_size_variable_is_ignored(capsys, monkeypatch):
    # QUADPRIMES_SEGMENT_SIZE names no setting, so like any unknown
    # variable it changes nothing, whatever its value
    monkeypatch.delenv("QUADPRIMES_CONFIG", raising=False)
    poly = ["analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "1000", "--no-record"]
    monkeypatch.delenv("QUADPRIMES_SEGMENT_SIZE", raising=False)
    want = run(capsys, *poly)
    assert want[0] == 0
    monkeypatch.setenv("QUADPRIMES_SEGMENT_SIZE", "-5")
    assert run(capsys, *poly) == want


def test_lfun_imports_no_scipy():
    # numpy is the only declared dependency; scipy would also cost start-up time
    src = str(Path(quadprimes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = ("import sys, quadprimes.cli as cli\n"
              "code = cli.main(['lfun', '--delta', '-163'])\n"
              "sys.exit(code or 10 * ('scipy' in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_configuration_table_matches_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("|")]
    table = [(key.strip(), default.strip()) for key, default, _ in rows[2:]]
    assert table == [(f.name, str(f.default)) for f in fields(Settings)]


def test_readme_commands_and_api_names_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = readme.split("## Commands", 1)[1].split("\n## ", 1)[0]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert re.findall(r"^### (\S+)$", commands, re.M) == list(subparsers.choices)
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`(\w+)\(", library))
    assert "sieve_pi" in names
    assert names - set(quadprimes.__all__) == set()
    for module, name in re.findall(r"`quadprimes\.(\w+)\.(\w+)\(", library):
        assert hasattr(importlib.import_module(f"quadprimes.{module}"), name), (module, name)


def _readme_examples() -> list[tuple[str, str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in readme.split("```\n$ quadprimes ")[1:]:
        command, _, rest = block.partition("\n")
        examples.append((command, rest.split("```", 1)[0]))
    return examples


_EXAMPLES = _readme_examples()


@pytest.fixture
def default_settings(monkeypatch):
    for name in [*os.environ]:
        if name.startswith("QUADPRIMES_"):
            monkeypatch.delenv(name)


def test_readme_has_an_example_for_each_reporting_command():
    assert [c.split()[0] for c, _ in _EXAMPLES] == ["analyze", "scan", "buchstab", "lfun"]


@pytest.mark.parametrize("command, expected", _EXAMPLES, ids=[c.split()[0] for c, _ in _EXAMPLES])
def test_readme_example_output_is_byte_exact(command, expected, capsys, default_settings):
    assert run(capsys, *command.split()) == (0, expected, "")


_PER_PRIME = ("[[11,0],[13,12],[17,6],[19,0],[23,0],[29,2],[31,0],[37,4],[41,2],[43,0],"
              "[47,0],[53,2],[59,0],[61,0],[67,0],[71,0],[73,0],[79,0],[83,0],[89,0],"
              "[97,0]]")
_BUCHSTAB_LINE = ('{"schema":1,"a":1,"b":0,"c":1,"n_value":10000,"z":10.0,"s_a_z":59,'
                  '"s_a_sqrt_n":31,"s1":0,"s2":28,"s3":0,"identity_residual":0,'
                  '"include_sqrt_n":false')


@pytest.mark.parametrize("argv, line", [
    (["analyze", "-a", "1", "-b", "1", "-c", "41", "-N", "100000", "--no-record"],
     '{"schema":1,"a":1,"b":1,"c":41,"n_value":100000,"pi_f":442,"cardinality_a":632,'
     '"v_of_a":0.5786211281789372,"main_term":365.6885530090883,'
     '"relative_error":0.20867879610389434,"l_one":0.24606204044625174,'
     '"l_one_bound":2.3946917683645543e-05,"beta":-0.2258427595191284,'
     '"beta_bound":9.732538582796213e-05,"hypotheses_hold":false,'
     '"version":"0.1.0","timestamp":"T"}'),
    (["buchstab", "-a", "1", "-b", "0", "-c", "1", "-N", "10000", "--z", "10"],
     _BUCHSTAB_LINE + "}"),
    (["buchstab", "-a", "1", "-b", "0", "-c", "1", "-N", "10000", "--z", "10",
      "--per-prime"],
     _BUCHSTAB_LINE + ',"per_prime":' + _PER_PRIME + "}"),
    (["lfun", "--delta", "-163"],
     '{"schema":1,"delta":-163,"l_one":0.24606204044625174,'
     '"error_bound":2.3946917683645543e-05,"class_number_oracle":0.24606852755296024}'),
    (["lfun", "--delta", "1997"],
     '{"schema":1,"delta":1997,"l_one":0.4082816336009897,'
     '"error_bound":4.275159995796421e-05,"class_number_oracle":null}'),
], ids=["analyze", "buchstab", "buchstab-per-prime", "lfun-oracle", "lfun-no-oracle"])
def test_records_lines_are_byte_exact(argv, line, capsys, default_settings):
    code, out, err = run(capsys, *argv, "--format", "records")
    assert (code, err) == (0, "")
    assert re.sub(r'"timestamp":"[^"]+"', '"timestamp":"T"', out) == line + "\n"


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_unwritable_records_path_exits_2(command, capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    poly = ["-a", "1", "-b", "1", "-c", "41", "-N", "1000"]
    for path in (tmp_path, blocker / "r.jsonl"):
        code, _, err = run(capsys, command, *poly, "--records", str(path))
        assert code == 2, path
        assert err.startswith("error: SpecParseError: cannot write records ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_integer_flags_are_read_exactly():
    parser = build_parser()

    def parsed(text):
        args = parser.parse_args(["analyze", "-a", "1", "-b", "0", "-c", "1", f"-N={text}",
                                  f"--budget-max-n={text}"])
        return args.N, resolve_settings(args).max_n

    assert parsed("9007199254740993.0") == (9007199254740993,) * 2
    assert parsed("123456789012345678.0") == (123456789012345678,) * 2
    assert parsed("1.2345678901234567891e19") == (12345678901234567891,) * 2
    assert parsed("-4E3") == (-4000,) * 2


@pytest.mark.parametrize("text", ["1.5", "1.0000000000000000001", "1e-999999999", "nan",
                                  "-inf", "Infinity", "1e309", "1e999999999", "0x10"])
def test_integer_flags_refuse_what_is_not_an_integer(text, capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "analyze", "-a", "1", "-b", "0", "-c", "1", f"-N={text}",
                         "--no-record")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: SpecParseError: not an integer: {text!r}\n"


def test_plain_integer_call_loads_no_decimal():
    # decimal is read only for integers written with a point or an exponent
    src = str(Path(quadprimes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = ("import sys, quadprimes.cli as cli\n"
              "code = cli.main(['analyze', '-a', '1', '-b', '1', '-c', '41', '-N', '1000',\n"
              "                 '--no-record'])\n"
              "sys.exit(code or 10 * ('decimal' in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_coefficient_and_seed_flags_are_read_as_integers(capsys):
    rest = ["-b", "1", "-c", "41", "-N", "1e3", "--no-record"]
    plain = run(capsys, "analyze", "-a", "1", *rest)
    assert plain[0] == 0
    assert run(capsys, "analyze", "-a", "1e0", *rest) == plain
    scan = run(capsys, "scan", "-a", "1", "-b", "1", "-c", "41", "-N", "1e3", "--no-record")
    assert scan[0] == 0
    assert run(capsys, "scan", "-a", "1.0", "-b", "1e0", "-c", "4.1e1", "-N", "1e3",
               "--no-record") == scan
    for command in ("analyze", "scan"):
        for flag in ("-a", "-b", "-c"):
            argv = {"-a": "1", "-b": "1", "-c": "41", flag: "1.5"}
            code, out, err = run(capsys, command, *(x for kv in argv.items() for x in kv),
                                 "-N", "1e3", "--no-record")
            assert (code, out) == (2, ""), (command, flag)
            assert err == "error: SpecParseError: not an integer: '1.5'\n"
    # verify, with its --seed, is no longer a command: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "1.5"])
    assert exc.value.code == 2 and "invalid choice: 'verify'" in capsys.readouterr().err
