"""Convergence of recency-bounded analysis in the bound ``b`` (paper, Section 5).

Recency boundedness is an *exhaustive* under-approximation: every finite
behaviour is captured once ``b`` is large enough, and safety verdicts
converge to the exact ones in the limit (Example 5.2 derives a concrete
``k_mb`` for the booking case study).  The helpers in this module sweep
the bound and report how verdicts and the amount of explored behaviour
evolve, which is what experiment E9 measures.

The bound sweeps are grids of independent points, so both sweep
functions execute through the runtime's
:class:`~repro.runtime.scheduler.SweepScheduler`: ``parallel=`` runs
points concurrently on forked workers, ``checkpoint=``/``resume=``
persist completed points to a JSONL memo and resume interrupted sweeps.
Rows are identical regardless of parallelism or completion order.

Every sweep additionally accepts ``store=`` (a path, a
:class:`repro.store.ResultStore`, ``False`` to disable; ``None``
consults ``REPRO_STORE``): points are then served from the
content-addressed result store in O(lookup) on repeat runs — across
processes and sessions, unlike the per-file checkpoint memo — with rows
bit-identical to cold exploration.  The store object is fork-safe, so
``parallel > 1`` sweeps share one store across their point workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dms.system import DMS
from repro.fol.syntax import Query
from repro.modelcheck.reachability import query_reachable, query_reachable_bounded
from repro.modelcheck.result import Verdict
from repro.recency.explorer import RecencyExplorationLimits, RecencyExplorer
from repro.runtime import SweepScheduler
from repro.search import RETAIN_COUNTS, RETAIN_PARENTS

__all__ = ["BoundSweepEntry", "reachability_bound_sweep", "state_space_bound_sweep", "convergence_bound"]


@dataclass(frozen=True)
class BoundSweepEntry:
    """One row of a sweep over the recency bound."""

    bound: int
    verdict: Verdict
    configurations: int
    edges: int

    def as_row(self) -> tuple:
        """The row printed by the benchmark harness."""
        return (self.bound, self.verdict.value, self.configurations, self.edges)


def _heuristic_key(heuristic) -> str | None:
    """A (best-effort) stable memo-key component for a search heuristic.

    Heuristics are callables, so the key uses the qualified name — stable
    across runs for named functions and per-definition-site for lambdas.
    Distinct heuristics defined at the same site would collide; name your
    heuristic when checkpointing a best-first sweep.
    """
    if heuristic is None:
        return None
    return getattr(heuristic, "__qualname__", repr(heuristic))


def reachability_bound_sweep(
    system: DMS,
    condition: Query | str,
    bounds: tuple[int, ...] = (0, 1, 2, 3, 4),
    max_depth: int = 6,
    *,
    strategy: str = "bfs",
    heuristic=None,
    retention: str = RETAIN_PARENTS,
    shards: int = 1,
    nodes: int = 1,
    transport=None,
    store=None,
    parallel: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
    resume: bool = False,
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """Reachability verdict and explored state space for increasing bounds.

    ``strategy`` (with its ``heuristic`` for ``"best-first"``) and
    ``retention`` are passed through to the exploration engine; the
    default keeps only parent links, so sweeping large bounds does not
    hold every edge in memory.  ``shards`` selects the sharded engine
    and ``nodes`` the distributed one for each point of the sweep
    (bit-identical verdicts; any-shard truncation reports ``UNKNOWN``,
    never ``FAILS``).

    ``parallel`` runs the bounds concurrently through the sweep
    scheduler; ``checkpoint``/``resume`` memoise completed bounds.  The
    memo is content-keyed on what determines the result — sweep kind,
    system, condition, bound, depth, strategy, heuristic (by qualified
    name) and retention, but not ``shards``/``nodes``, which never
    change results — so a shared checkpoint file cannot serve one
    query's rows to another.  ``on_point`` streams each completed bound.
    """
    # Resolve once so forked point workers inherit a fork-safe store
    # object (per-process connections) instead of re-resolving the
    # environment per point.
    from repro.store.service import resolve_store

    exploration_store = resolve_store(store)

    def measure(parameters: dict) -> dict:
        result = query_reachable_bounded(
            system, condition, parameters["b"], max_depth=max_depth,
            strategy=strategy, heuristic=heuristic, retention=retention,
            shards=shards, nodes=nodes, transport=transport,
            store=exploration_store if exploration_store is not None else False,
        )
        return {
            "verdict": result.reachable.value,
            "configurations": result.configurations_explored,
            "edges": result.edges_explored,
        }

    scheduler = SweepScheduler(
        parallel=parallel, timeout=timeout, retries=retries,
        checkpoint=checkpoint, resume=resume,
    )
    grid = [
        {
            "sweep": "reachability-bound",
            "system": system.name,
            "condition": condition if isinstance(condition, str) else repr(condition),
            "b": bound,
            "max_depth": max_depth,
            "strategy": strategy,
            "heuristic": _heuristic_key(heuristic),
            "retention": retention,
        }
        for bound in bounds
    ]
    records = scheduler.run(grid, measure, on_point=on_point)
    return tuple(
        BoundSweepEntry(
            bound=record.parameters["b"],
            verdict=Verdict(record.measurements["verdict"]),
            configurations=record.measurements["configurations"],
            edges=record.measurements["edges"],
        )
        for record in records
    )


def state_space_bound_sweep(
    system: DMS,
    bounds: tuple[int, ...] = (0, 1, 2, 3),
    max_depth: int = 5,
    *,
    strategy: str = "bfs",
    heuristic=None,
    retention: str = RETAIN_COUNTS,
    shards: int = 1,
    nodes: int = 1,
    transport=None,
    store=None,
    parallel: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
    resume: bool = False,
    on_point=None,
) -> tuple[BoundSweepEntry, ...]:
    """How many configurations/edges are explored as the bound grows (no property).

    Only sizes are reported, so the sweep defaults to the engine's
    ``"counts-only"`` retention: no edge objects are held in memory.
    ``shards``/``nodes`` select the sharded/distributed engine per point;
    ``parallel``/``checkpoint``/``resume`` schedule the points as in
    :func:`reachability_bound_sweep`, with the memo content-keyed the
    same way.  ``store`` serves repeat points from the content-addressed
    result store (exploration results cached whole).
    """
    from repro.recency.semantics import enumerate_b_bounded_successors
    from repro.store.service import cached_compute, resolve_store

    exploration_store = resolve_store(store)

    def measure(parameters: dict) -> dict:
        bound = parameters["b"]
        effective = RecencyExplorationLimits(max_depth=max_depth)

        def compute(successors):
            explorer = RecencyExplorer(
                system, bound, effective,
                strategy=strategy, heuristic=heuristic, retention=retention,
                shards=shards, nodes=nodes, transport=transport,
                successors=successors,
            )
            return explorer.explore()

        single_shard = shards == 1 and nodes == 1
        result, _ = cached_compute(
            store=exploration_store if exploration_store is not None else False,
            system=system,
            graph=f"recency:{bound}",
            parameters={
                "payload": "exploration",
                "max_depth": effective.max_depth,
                "max_configurations": effective.max_configurations,
                "max_steps": effective.max_steps,
                "strategy": strategy,
                "retention": retention,
            },
            compute=compute,
            capture_base=(
                (lambda configuration: enumerate_b_bounded_successors(
                    system, configuration, bound
                ))
                if single_shard else None
            ),
            enumerate_subset=(
                (lambda configuration, actions: enumerate_b_bounded_successors(
                    system, configuration, bound, actions
                ))
                if single_shard else None
            ),
            cacheable=heuristic is None,
        )
        return {
            "configurations": result.configuration_count,
            "edges": result.edge_count,
        }

    scheduler = SweepScheduler(
        parallel=parallel, timeout=timeout, retries=retries,
        checkpoint=checkpoint, resume=resume,
    )
    grid = [
        {
            "sweep": "state-space-bound",
            "system": system.name,
            "b": bound,
            "max_depth": max_depth,
            "strategy": strategy,
            "heuristic": _heuristic_key(heuristic),
            "retention": retention,
        }
        for bound in bounds
    ]
    records = scheduler.run(grid, measure, on_point=on_point)
    return tuple(
        BoundSweepEntry(
            bound=record.parameters["b"],
            verdict=Verdict.UNKNOWN,
            configurations=record.measurements["configurations"],
            edges=record.measurements["edges"],
        )
        for record in records
    )


def convergence_bound(
    system: DMS,
    condition: Query | str,
    max_bound: int = 8,
    max_depth: int = 6,
    *,
    strategy: str = "bfs",
    heuristic=None,
    shards: int = 1,
    nodes: int = 1,
    transport=None,
    store=None,
) -> int | None:
    """The least bound at which the bounded reachability verdict matches the
    unbounded (depth-bounded) verdict.

    Returns ``None`` when no bound up to ``max_bound`` agrees — which, for
    exhaustive exploration depths, indicates the behaviour of interest
    genuinely needs a deeper recency window.  ``shards``/``nodes``
    select the sharded/distributed engine for every exploration of the
    scan, and ``store`` serves the scan's queries from the
    content-addressed result store.
    """
    reference = query_reachable(
        system, condition, max_depth=max_depth, strategy=strategy, heuristic=heuristic,
        shards=shards, nodes=nodes, transport=transport, store=store,
    )
    for bound in range(max_bound + 1):
        bounded = query_reachable_bounded(
            system, condition, bound, max_depth=max_depth, strategy=strategy,
            heuristic=heuristic, shards=shards, nodes=nodes, transport=transport,
            store=store,
        )
        if bounded.reachable == reference.reachable:
            return bound
    return None
