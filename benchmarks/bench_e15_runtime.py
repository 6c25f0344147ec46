"""E15 — the persistent parallel runtime (warm pools, async sweeps, resume).

Gates two contracts of :mod:`repro.runtime` (warm worker contexts are
gated by E21, which reuses them across service queries):

* **Parallel sweeps beat sequential sweeps** — an E9-style convergence
  grid (state-space size over the booking study, recency bounds 2–5)
  run through the sweep scheduler at 4 workers must be ≥ 1.5× faster
  than the sequential run of the same grid.
* **Resume reproduces the row set** — a sweep interrupted after N
  points and resumed from its JSONL checkpoint must produce rows
  bit-identical to an uninterrupted run, recomputing only the missing
  points.

Row equality is asserted **unconditionally** on every host.  The timing
assertion only makes sense where the runtime can actually win: it is
skipped on hosts without the ``fork`` start method, below 4 usable
CPUs, or under ``REPRO_BENCH_QUICK=1`` (tiny inputs are
noise-dominated).  Timings and rows persist to
``benchmarks/results/BENCH_E15.json`` via the shared ``run_once``
fixture.
"""

import os
import time

from repro.casestudies.booking import booking_agency_system
from repro.harness.reporting import print_experiment
from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.runtime import SweepCheckpoint
from repro.search import RETAIN_COUNTS, process_backend_available, usable_cpu_count
from repro.workloads.sweeps import sweep

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORK = process_backend_available()
CPUS = usable_cpu_count()

_BOOKING = booking_agency_system()


def _convergence_measure(parameters: dict) -> dict:
    """One cell of the E9-style convergence grid (deterministic, JSON-clean)."""
    explorer = RecencyExplorer(
        _BOOKING,
        parameters["b"],
        RecencyExplorationLimits(max_depth=parameters["max_depth"]),
        retention=RETAIN_COUNTS,
    )
    result = explorer.explore()
    return {"configurations": result.configuration_count, "edges": result.edge_count}


def _convergence_grid(quick: bool) -> list[dict]:
    """Recency bounds 2–5 over the booking study — comparably sized cells."""
    return [{"b": bound, "max_depth": 4 if quick else 5} for bound in (2, 3, 4, 5)]


def _rows(points) -> list[dict]:
    return [point.as_row() for point in points]


# -- parallel sweep vs sequential sweep ---------------------------------------


def parallel_vs_sequential_grid(quick: bool) -> list[dict]:
    """The convergence grid, sequential and at 4 workers, rows compared."""
    grid = _convergence_grid(quick)

    started = time.perf_counter()
    sequential = sweep(grid, _convergence_measure)
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = sweep(grid, _convergence_measure, parallel=4)
    parallel_seconds = time.perf_counter() - started

    identical = _rows(sequential) == _rows(parallel)
    return [
        {
            "mode": "sequential",
            "points": len(grid),
            "seconds": round(sequential_seconds, 4),
            "speedup": 1.0,
            "rows_identical": identical,
        },
        {
            "mode": "parallel (4 workers)",
            "points": len(grid),
            "seconds": round(parallel_seconds, 4),
            "speedup": (
                round(sequential_seconds / parallel_seconds, 2) if parallel_seconds else None
            ),
            "rows_identical": identical,
        },
    ]


def test_e15_parallel_grid_vs_sequential(benchmark, run_once):
    rows = run_once(benchmark, parallel_vs_sequential_grid, QUICK)
    print_experiment("E15", "Parallel convergence grid vs sequential", rows)
    for row in rows:
        assert row["rows_identical"], row
    if not QUICK and FORK and CPUS >= 4:
        parallel = rows[1]
        assert parallel["speedup"] >= 1.5, parallel


# -- checkpoint / resume equivalence ------------------------------------------


def resume_round_trip(quick: bool, checkpoint_path) -> list[dict]:
    """Interrupt a checkpointed sweep after 2 points, resume, compare rows."""
    grid = _convergence_grid(True)  # the cheap depth keeps this unconditional
    checkpoint = SweepCheckpoint(checkpoint_path)

    uninterrupted = sweep(grid, _convergence_measure, checkpoint=checkpoint)
    # Records are separated by blank isolator lines; keep records only.
    lines = [line for line in checkpoint.path.read_text().splitlines() if line.strip()]
    completed_before_kill = 2
    checkpoint.path.write_text("\n".join(lines[:completed_before_kill]) + "\n")

    recomputed = []
    resumed = sweep(
        grid,
        _convergence_measure,
        checkpoint=checkpoint,
        resume=True,
        on_point=lambda record: recomputed.append(record.index) if not record.cached else None,
    )
    return [
        {
            "points": len(grid),
            "completed_before_kill": completed_before_kill,
            "recomputed_after_resume": len(recomputed),
            "rows_identical": _rows(resumed) == _rows(uninterrupted),
            "memo_complete": len(checkpoint.load()) == len(grid),
        }
    ]


def test_e15_checkpoint_resume_equivalence(benchmark, run_once, tmp_path):
    rows = run_once(benchmark, resume_round_trip, QUICK, tmp_path / "e15.jsonl")
    print_experiment("E15", "Checkpointed sweep resume round trip", rows)
    row = rows[0]
    assert row["rows_identical"], row
    assert row["recomputed_after_resume"] == row["points"] - row["completed_before_kill"], row
    assert row["memo_complete"], row
