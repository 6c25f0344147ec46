"""Run a workload with several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload explore --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every metric the
median of its values and the distance between the first and third
quartiles as a share of that median — the figure each end-to-end
metric's ``bound`` must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(arguments.first_seed, arguments.first_seed + arguments.runs):
        command = contract["command"] + [
            "--workload", arguments.workload, "--seed", str(seed),
            "--seconds", str(contract["run_seconds"]), "--trace", str(arguments.trace),
        ]
        started = perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=600, check=False)
        elapsed = perf_counter() - started
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
              ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        quartiles = statistics.quantiles(series, n=4)
        spread = (quartiles[2] - quartiles[0]) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'} under a third)"
        )
        print(f"{name:28s} median {median:12.6g}  spread {spread:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
