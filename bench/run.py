"""quadprimes benchmark: drives the shipped CLI on one seeded workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the package in ./src. The
workloads and the reasons for them are in bench/workloads.json.

--trace 0 starts one interpreter that runs the workload's operations for S
seconds (bench/worker.py), and before and after it fresh interpreters that
only set up, whose median start-to-ready time is the set-up time. It
checks every output against bench/oracle.py and prints the end-to-end
metrics. --trace 1 runs the workload with the per-layer wrappers of
bench/tracer.py installed, replays the same operations untraced to measure
the tracing overhead, and prints the per-layer metrics. Either way the last
line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# set-up samples taken before the timed worker, and as many again after it,
# so that the median does not rest on one stretch of the machine's speed
SETUP_SAMPLES_EACH_SIDE = 12
# a worker still running after this long is killed and the run fails
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(BENCH_DIR, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(src: str) -> dict:
    # settings come from flags > QUADPRIMES_* > config file > defaults; the
    # benchmark measures the defaults, so none of the others may leak in
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUADPRIMES_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # one thread, as the CLI's threads = 1 intends: numpy's BLAS would
    # otherwise spread the L-value's block sums over every core and make the
    # figures depend on what else runs on the machine
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(args: argparse.Namespace, env: dict, *extra: str) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to ready, its result)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {ready}{rest[-2000:]}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def _environment(root: str) -> dict:
    import numpy

    sha = "unknown"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    else:
        if os.path.realpath(top) == os.path.realpath(root):
            sha = head
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def end_to_end(run: dict, outcomes: list, setups: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the printed summary)."""
    times = [t for t, _ in outcomes if t is not None]
    duration = run["finish"] - run["begin"]
    failed = sum(1 for _, problem in outcomes if problem)
    metrics = {
        "ops_per_s": (len(outcomes) / duration, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"error_rate": (failed / len(outcomes), "1")}
    # a percentile is reported only with at least ten samples beyond it
    if len(times) >= 100:
        extra["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
    return metrics, extra


def per_layer(traced: dict, plain: dict, ops: int) -> dict:
    """Per-layer figures of the traced run, per operation."""
    summary = traced["trace"]
    self_s, total_s, calls = summary["self_s"], summary["total_s"], summary["calls"]
    root_calls = calls.get("polynomial.roots_sieve", 0) + calls.get("polynomial.roots_v", 0)
    sieve_total = total_s.get("sieve", 0.0)
    overhead = (traced["finish"] - traced["begin"]) / (plain["finish"] - plain["begin"]) - 1.0
    return {
        "polynomial.roots_sieve_s": (self_s.get("polynomial.roots_sieve", 0.0) / ops, "s"),
        "polynomial.roots_sieve_calls": (calls.get("polynomial.roots_sieve", 0) / ops, "count"),
        "polynomial.roots_v_s": (self_s.get("polynomial.roots_v", 0.0) / ops, "s"),
        "polynomial.roots_v_calls": (calls.get("polynomial.roots_v", 0) / ops, "count"),
        "polynomial.roots_dup_ratio": (summary["root_repeats"] / root_calls if root_calls else 0.0, "1"),
        "primes.is_prime_s": (self_s.get("primes.is_prime", 0.0) / ops, "s"),
        "primes.is_prime_calls": (calls.get("primes.is_prime", 0) / ops, "count"),
        "sieve.self_s": (self_s.get("sieve", 0.0) / ops, "s"),
        "sieve.values": (summary["values"] / ops, "count"),
        "sieve.values_per_s": (summary["values"] / sieve_total if sieve_total else 0.0, "1/s"),
        "polynomial.domain_s": (self_s.get("polynomial.domain", 0.0) / ops, "s"),
        "primes.upto_s": (self_s.get("primes.upto", 0.0) / ops, "s"),
        "character.l_one_s": (self_s.get("character.l_one", 0.0) / ops, "s"),
        "character.l_one_calls": (calls.get("character.l_one", 0) / ops, "count"),
        "character.oracle_s": (self_s.get("character.oracle", 0.0) / ops, "s"),
        "analytic.v_self_s": (self_s.get("analytic.v", 0.0) / ops, "s"),
        "analytic.main_term_self_s": (self_s.get("analytic.main_term", 0.0) / ops, "s"),
        "records.append_s": (self_s.get("records.append", 0.0) / ops, "s"),
        "records.append_calls": (calls.get("records.append", 0) / ops, "count"),
        "records.bytes_written": (summary["bytes_written"] / ops, "bytes"),
        "records.read_s": (self_s.get("records.read", 0.0) / ops, "s"),
        "records.lines_parsed": (summary["lines_parsed"] / ops, "count"),
        "cli.self_s": (self_s.get("cli", 0.0) / ops, "s"),
        "trace.op_s": (summary["root_s"] / ops, "s"),
        "trace.overhead": (overhead, "1"),
    }


def main() -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; defaults to the workload's default_seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("pi", "l"), default=None,
                        help="make the CLI report a wrong pi_f or L-value (self-test)")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = spec["workloads"][args.workload]["default_seed"]

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quadprimes", "cli.py")):
        print("error: run from the repository root; no src/quadprimes here", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import checks

    env = _child_env(src)
    fault = ["--fault", args.fault] if args.fault else []
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=root) as scratch:
        if args.trace:
            _, run = spawn(args, env, *fault, "--seconds", str(args.seconds), "--trace", "1",
                           "--records-dir", os.path.join(scratch, "traced"))
            _, plain = spawn(args, env, *fault, "--ops", str(len(run["ops"])),
                             "--records-dir", os.path.join(scratch, "plain"))
        else:
            setups = [spawn(args, env, "--setup-only")[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            _, run = spawn(args, env, *fault, "--seconds", str(args.seconds),
                           "--records-dir", scratch)
            setups += [spawn(args, env, "--setup-only")[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        outcomes = checks.outcomes(run["ops"])
    if not outcomes:
        print("error: the run completed no operation", file=sys.stderr)
        return 1

    failed = [problem for _, problem in outcomes if problem]
    if args.trace:
        metrics = per_layer(run, plain, len(outcomes))
        shown = metrics
    else:
        metrics, more = end_to_end(run, outcomes, setups)
        shown = {**metrics, **more}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(outcomes)} operations in {len(run['ops'])} CLI calls, "
          f"{run['finish'] - run['begin']:.2f} s timed")
    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    if args.trace:
        # the spans against the clock around each call, read-back included
        measured = sum(op["end"] - op["start"] for op in run["ops"])
        print(f"  wrapped layers account for {run['trace']['root_s']:.6g} s of the "
              f"{measured:.6g} s the traced calls took; "
              f"{1.0 - run['trace']['root_s'] / measured:.3%} unaccounted")
    print("environment " + json.dumps(_environment(root)))
    for problem in failed[:10]:
        print("FAILED " + problem)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
