"""The persistent parallel runtime.

This package is the layer between the exploration engine
(:mod:`repro.search`) and the experiment harness (:mod:`repro.harness`):
it owns long-lived execution resources and the operational concerns of
running many explorations, where the engine owns a single exploration.

* :class:`~repro.runtime.pool.WorkerPool` — warm fork-based worker
  contexts reused across sweeps and isolated queries, health-checked,
  with crashed workers respawned and their tasks re-run.
* :class:`~repro.runtime.scheduler.SweepScheduler` — executes sweep and
  experiment grids concurrently on the pool with bounded parallelism,
  per-point timeout/retry, and results that are identical regardless of
  completion order.
* :class:`~repro.runtime.checkpoint.SweepCheckpoint` — streaming JSONL
  record of completed points enabling ``resume`` of interrupted sweeps
  and content-keyed memoisation.

Quick start::

    from repro.runtime import SweepScheduler, WorkerPool

    with WorkerPool(workers=4) as pool:
        scheduler = SweepScheduler(
            parallel=4, pool=pool, checkpoint="sweep.jsonl", resume=True
        )
        records = scheduler.run(grid, measure)   # grid-order, memo-backed

Everything degrades deterministically: without the ``fork`` start
method (or with one worker) pools fall back to in-process execution and
the scheduler runs points sequentially — identical rows, no processes.
"""

from repro.errors import SchedulerError, WorkerPoolError
from repro.runtime.checkpoint import SweepCheckpoint, canonical_parameters, point_key
from repro.runtime.pool import (
    DEFAULT_POOL_WORKERS,
    ProcessWorkerContext,
    SerialWorkerContext,
    WorkerPool,
)
from repro.runtime.scheduler import PointRecord, SweepScheduler

__all__ = [
    "DEFAULT_POOL_WORKERS",
    "PointRecord",
    "ProcessWorkerContext",
    "SchedulerError",
    "SerialWorkerContext",
    "SweepCheckpoint",
    "SweepScheduler",
    "WorkerPool",
    "WorkerPoolError",
    "canonical_parameters",
    "point_key",
]
