#!/usr/bin/env python3
"""Self-check of the benchmark's correctness gate.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seconds S]

For each workload (default: all four) the benchmark runs twice at the pinned
seed: once with `pins.json`, expecting exit 0 and no failed session; once
with a copy whose `metrics` digest for that workload has one character
changed, expecting a nonzero exit and failed == attempted (failed_frac 1).
Prints one verdict line per run and exits 0 only if every one holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
WORKLOADS = ("agentic_sessions", "token_sessions", "experiment_serial", "experiment_parallel")


def run_bench(workload: str, seed: int, seconds: float, pins: Path):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--pins", str(pins),
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def tampered(pins: dict, workload: str) -> dict:
    out = json.loads(json.dumps(pins))
    digest = out["workloads"][workload]["metrics"]
    out["workloads"][workload]["metrics"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    pins = json.loads(PINS.read_text())
    ok = True
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in args.workload or WORKLOADS:
            bad_pins = Path(tmp) / f"pins-{workload}.json"
            bad_pins.write_text(json.dumps(tampered(pins, workload)))
            for label, path, want_pass in (("pinned", PINS, True), ("tampered", bad_pins, False)):
                code, result = run_bench(workload, pins["seed"], args.seconds, path)
                if result is None:
                    holds, detail = False, f"exit {code}, no result line"
                else:
                    frac = result["failed"] / result["attempted"]
                    detail = f"exit {code}, failed_frac {frac:g} ({result['failed']}/{result['attempted']})"
                    if want_pass:
                        holds = code == 0 and result["correct"] and frac == 0
                    else:
                        holds = code != 0 and not result["correct"] and frac == 1
                ok &= holds
                print(f"{'ok  ' if holds else 'FAIL'} {workload:<20} {label:<9} {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
