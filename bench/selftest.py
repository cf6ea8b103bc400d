"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the repository root. Each workload runs briefly three ways: as
shipped, which must count no failure; with the CLI made to report pi_f off
by one; and with it made to report L(1, chi) outside its own error bound.
A fault must fail every operation it reaches (error_rate 1.0) while the
end-to-end timings are still reported. The lfun workload never calls the
sieve, so the pi_f fault is not tried there. Exits 1 if any case is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CASES = (
    ("sieve-large-n", None), ("sieve-large-n", "pi"), ("sieve-large-n", "l"),
    ("lfun-large-delta", None), ("lfun-large-delta", "l"),
    ("scan-box", None), ("scan-box", "pi"), ("scan-box", "l"),
)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["end_to_end"]}
    bad = 0
    for workload, fault in CASES:
        cmd = [sys.executable, RUN, "--workload", workload, "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd + (["--fault", fault] if fault else []),
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            ok, detail = False, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        else:
            rate = result["failed"] / result["attempted"]
            ok = (set(result["metrics"]) == wanted
                  and result["correct"] == (fault is None)
                  and rate == (1.0 if fault else 0.0))
            detail = f"error_rate {rate:g} over {result['attempted']} operations"
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:<17} fault={fault or '-':<4} {detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
