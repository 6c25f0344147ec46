"""Confirm the benchmark's expected counts against the frozen seed explorer.

Usage (from the repository root; takes about a minute)::

    python3 perfbench/confirm_counts.py

``explore`` and ``check`` judge each query by fixed counts (see
``workloads.py``).  This script derives them again, independently of
the engine the benchmark measures, from :mod:`repro.search.baseline` —
the pre-engine breadth-first explorer and recursive run enumeration —
and exits non-zero if any differs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[0:1] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from repro.casestudies.booking import booking_agency_system
    from repro.fol.evaluator import evaluate_sentence
    from repro.fol.parser import parse_query
    from repro.search.baseline import (
        SeedExplorationLimits,
        SeedRecencyExplorer,
        seed_iterate_b_bounded_runs,
    )

    import workloads

    system = booking_agency_system()
    condition = parse_query(workloads.NEVER)
    problems = []
    for bound, depth, configurations, edges in workloads.EXPLORE_QUERIES:
        explorer = SeedRecencyExplorer(system, bound, SeedExplorationLimits(max_depth=depth))
        witness, stats = explorer.find_configuration(
            lambda configuration: evaluate_sentence(condition, configuration.instance)
        )
        seen = (witness is None, stats.configuration_count, stats.edge_count)
        print(f"explore b={bound} d={depth}: unreached={seen[0]} "
              f"configurations={seen[1]} edges={seen[2]}")
        if seen != (True, configurations, edges):
            problems.append(f"explore b={bound} d={depth}: expected {configurations}/{edges}")

    runs, prefixes = 0, set()
    for run in seed_iterate_b_bounded_runs(system, workloads.CHECK_BOUND, workloads.CHECK_DEPTH):
        runs += 1
        labels = run.labels()
        prefixes.update(labels[:length] for length in range(len(labels) + 1))
    print(f"check b={workloads.CHECK_BOUND} d={workloads.CHECK_DEPTH}: runs={runs} "
          f"run-tree configurations={len(prefixes)}")
    if (runs, len(prefixes)) != (workloads.CHECK_RUNS, workloads.CHECK_TREE_CONFIGURATIONS):
        problems.append(f"check: expected {workloads.CHECK_RUNS} runs and "
                        f"{workloads.CHECK_TREE_CONFIGURATIONS} configurations")
    for problem in problems:
        print("MISMATCH " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
