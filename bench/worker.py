"""The measured process of one benchmark run.

A fresh interpreter imports the CLI, builds its parser and makes one small
warm-up call, then prints ``ready``: that is the end of set-up. It then
calls ``quadprimes.cli.main`` on the workload's inputs back to back, in
this process, cycle by cycle until the time is up (or on exactly a given
number of inputs), capturing each call's output with a timestamp per
line. After each scan it reads the scan's records log back. The last line
it prints is a JSON object with every operation's outputs and times.

Run by bench/run.py, with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

WARMUP = ["analyze", "-a", "1", "-b", "1", "-c", "1", "-N", "1000", "--no-record"]


class LineClock(io.TextIOBase):
    """Text sink that stamps each completed line with perf_counter()."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        *complete, self._partial = (self._partial + text).split("\n")
        if complete:
            now = time.perf_counter()
            self.lines.extend((now, line) for line in complete)
        return len(text)


def inject_fault(cli, fault: str) -> None:
    """Make the CLI report a wrong result, for the benchmark's self-test."""
    if fault == "pi":
        sieve_pi = cli.sieve_pi

        def off_by_one(*args, **kwargs):
            result = sieve_pi(*args, **kwargs)
            return dataclasses.replace(result, pi_f=result.pi_f + 1)

        cli.sieve_pi = off_by_one
    elif fault == "l":
        l_one = cli.l_one

        def outside_bound(*args, **kwargs):
            value, bound = l_one(*args, **kwargs)
            return value + 3.0 * bound, bound

        cli.l_one = outside_bound


def run_operation(cli, records, argv: list[str], tracer) -> dict:
    out, err = LineClock(), io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.begin_operation()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    op = {"argv": argv, "rc": rc, "error": error, "stderr": err.getvalue(),
          "start": start, "end": time.perf_counter(), "lines": out.lines}
    if argv[0] == "scan" and error is None:
        path = argv[argv.index("--records") + 1]
        try:
            loaded = records.load_records(path)
            op["loaded"] = loaded
            op["latest"] = [records.find_latest(path, r.key) for r in loaded]
        except Exception:
            op["error"] = traceback.format_exc()
        op["end"] = time.perf_counter()
    return op


def _plain(record):
    return None if record is None else dataclasses.asdict(record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many inputs instead of timing")
    parser.add_argument("--records-dir", default=".")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("pi", "l"), default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import quadprimes.cli as cli
    import quadprimes.records as records

    cli.build_parser()
    with redirect_stdout(io.StringIO()):
        if cli.main(WARMUP) != 0:
            raise SystemExit("warm-up call failed")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import workloads

    cycles = workloads.inputs(args.workload, args.seed, args.records_dir)
    if args.ops is not None:
        cycles = [[v for cycle in cycles for v in cycle][:args.ops]]
    if args.fault:
        inject_fault(cli, args.fault)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    peak_rss_kb = None
    begin = time.perf_counter()
    try:
        for cycle in cycles:
            ops.extend(run_operation(cli, records, argv, tracer) for argv in cycle)
            if peak_rss_kb is None:
                # taken after the first cycle, so that it does not grow with
                # the number of cycles a faster program fits in the time
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.ops is None and time.perf_counter() - begin >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    finish = time.perf_counter()
    for op in ops:
        if "loaded" in op:
            op["loaded"] = [_plain(r) for r in op["loaded"]]
            op["latest"] = [_plain(r) for r in op["latest"]]
    result = {"begin": begin, "finish": finish, "peak_rss_mb": peak_rss_kb / 1024.0,
              "ops": ops, "trace": tracer.summary() if tracer else None}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
