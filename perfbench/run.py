"""The fedhh benchmark: two workloads, each in its own process.

    python3 perfbench/run.py                          # both workloads, untraced
    python3 perfbench/run.py --trace 1                # both workloads, traced
    python3 perfbench/run.py --workload syn-sweep --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --workload wide-domain-oracles --seed 3 --seconds 50

With ``--workload`` the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
non-zero when a check fails or the workload cannot run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD = Path(__file__).resolve().parent / "workloads.py"
WORKLOADS = ("syn-sweep", "population-scale")  # the workloads BENCHMARK.json lists
# Runs by name only: too unsteady on a shared host to be part of the benchmark.
DIAGNOSTIC = ("wide-domain-oracles",)
SETUP_PROBES = 10  # extra processes that only set up, for a steadier setup_s
TIMEOUT_S = 170


def _child(args, extra=()) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        *extra,
    ]
    # --t0 goes last so that it is read as close to the start as possible.
    return subprocess.run(
        command + ["--t0", repr(time.monotonic())],
        capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
    )


def run_workload(args) -> tuple[int, dict | None]:
    """Run one workload; print its report; return (exit code, result or None)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = _child(args, ["--probe"])
            if probe.returncode != 0:
                sys.stderr.write(probe.stdout + probe.stderr)
                return probe.returncode, None
            setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    proc = _child(args)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result), flush=True)
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + DIAGNOSTIC, help="one workload; every benchmark workload when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)[0]
    worst = 0
    summary = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code, result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        worst = worst or code
        summary.append((name, code, result))
    print("== summary")
    for name, code, result in summary:
        if result is None:
            print(f"{name}: did not run (exit {code})")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {metric} = {value} {entry['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
