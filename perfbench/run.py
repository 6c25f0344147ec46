"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only if the workload's correctness check passed and no request
failed; otherwise it is 1, after the result is printed.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from the traced stretches of a run that alternates untraced and
traced stretches (see ``workloads.py``).  A line
before it records the host (CPUs, Python, commit, calibration time).

The workload ``serve-stored`` runs but is not listed in
``BENCHMARK.json``: some of its requests fail on the current program
(see ``perfbench/README.md``); it reports them by cause and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(value: float) -> float | None:
    """JSON has no infinity: a latency quantile that lands on a failed
    request (counted as missing every limit) is printed as ``null``."""
    return value if math.isfinite(value) else None


def main(argv: list[str]) -> int:
    arguments = _arguments(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program's sources come first, then the benchmark's own modules.
    sys.path[0:1] = [str(ROOT / "src"), str(BENCH)]

    import provenance
    import workloads

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = workloads.WORKLOADS.get(arguments.workload)
    if run is None:
        print(f"perfbench: unknown workload {arguments.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    artifacts = ROOT / ".perfbench" / f"{arguments.workload}-seed{arguments.seed}"
    try:
        outcome = run(arguments.seed, arguments.seconds, bool(arguments.trace), artifacts)
    finally:
        # The service shuts its worker processes down; make sure none outlives the run.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()

    listed = contract["per_layer" if arguments.trace else "end_to_end"]
    missing = [entry["name"] for entry in listed if entry["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 3
    print("host " + json.dumps(provenance.host(ROOT), sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            entry["name"]: {"value": _finite(outcome.metrics[entry["name"]]),
                            "unit": entry["unit"]}
            for entry in listed
        },
    }))
    if not outcome.correct or outcome.failed:
        print(f"perfbench: {arguments.workload} failed its check "
              f"({outcome.failed} of {outcome.attempted} requests failed)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
