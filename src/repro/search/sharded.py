"""Sharded, work-stealing exploration with merged results.

The single-process :class:`~repro.search.engine.Engine` expands one
state at a time from one frontier.  This module runs the ``"bfs"``
exploration over hash-partitioned per-shard frontiers while keeping the
results **bit-identical** to a single-shard breadth-first exploration:

* interned configuration ids are hash-partitioned across ``shards``
  shards — each shard owns the states whose structural hash falls into
  its partition and keeps **its own frontier**
  (:class:`ShardFrontiers`);
* exploration is *level-synchronous*: all states at depth ``d`` are
  expanded before any state at depth ``d + 1``, in batches
  (``batch_size`` states per batch);
* when a shard's frontier drains before the level is finished it
  **steals** the tail half of the fullest remaining frontier, so batch
  composition stays balanced across shards even under skewed hash
  partitions;
* successors are enumerated in-process (:class:`SerialExpansionBackend`);
* the coordinator then **replays** the expansions in global discovery
  (interned-id) order — the exact order in which single-shard BFS pops
  its FIFO frontier — interning targets, recording parent links and
  checking limits after every generated edge.

Because interning, parent assignment, limit checks and predicate
evaluation all happen in the deterministic replay, the merged result is
bit-identical to the single-shard engine's on the visited set, edge
counts, truncation flags, parent links and reconstructed witnesses, for
every retention mode and shard count.  The only speculative work is
successor enumeration past a limit, which the replay discards.

Each shard accumulates its discoveries in its own partial
:class:`~repro.search.engine.SearchResult` (states it owns, parent links
of those states, edges generated from them); the public entry points
fold the partials with the associative
:meth:`~repro.search.engine.SearchResult.merge`, which re-keys parent
links across shard boundaries and ORs truncation flags — any truncated
shard makes the merged exploration truncated, which the reachability
layer maps to ``UNKNOWN`` (never ``FAILS``).

Sharding is inherently level-synchronous, so only the ``"bfs"`` frontier
strategy is supported; requesting ``"dfs"``/``"best-first"`` raises
:class:`~repro.errors.SearchError`.

Multi-process exploration is the two-level distributed engine
(:mod:`repro.distributed`), reached with ``nodes > 1``: node agents own
the intern tables of their hash-partitions and run this module's shard
queues and stealing policy locally.  Successor expansion on worker
processes *inside* one exploration lost to a single worker on every
measured setup, so it does not exist.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.errors import SearchError
from repro.obs.metrics import resolve_metrics
from repro.obs.trace import get_tracer
from repro.search.engine import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETENTION_MODES,
    SearchLimits,
    SearchResult,
)
from repro.search.interning import InternTable

__all__ = [
    "ShardFrontiers",
    "ShardedEngine",
    "SerialExpansionBackend",
    "shard_of",
    "process_backend_available",
    "usable_cpu_count",
]

DEFAULT_BATCH_SIZE = 16


def shard_of(state: Any, shards: int) -> int:
    """The shard owning ``state``: its structural hash modulo ``shards``.

    Ownership only balances work across shards — the replay makes the
    exploration result independent of the partition, so per-process hash
    randomisation is harmless.
    """
    return hash(state) % shards


def process_backend_available() -> bool:
    """Whether this process may fork worker processes.

    True exactly where the ``fork`` start method exists (POSIX) and the
    current process may have children at all: inside a daemonic pool
    worker (e.g. a sweep point running on the runtime's scheduler)
    Python forbids spawning processes.  The localhost distributed
    cluster and the worker pool consult it; where it is false they fall
    back to in-process execution with bit-identical results.
    """
    if multiprocessing.current_process().daemon:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class ShardFrontiers:
    """Per-shard FIFO frontiers with tail-half work stealing.

    One instance holds the frontiers of a single exploration level: the
    coordinator pushes every ``(state_id, state)`` entry onto its owning
    shard's queue, and the expansion backend drains the queues in batches.
    :meth:`take_batch` serves a shard from its own queue first; when that
    queue has drained it steals the tail half of the fullest remaining
    queue (the classic work-stealing split: the victim keeps the head it
    is about to process, the thief takes the colder tail).

    ``steals`` counts the steal operations of this level; the engine
    reads it after the backend drains the frontiers and flushes it into
    the metrics registry.
    """

    __slots__ = ("_queues", "steals")

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise SearchError("the number of shards must be positive")
        self._queues: list[deque] = [deque() for _ in range(shards)]
        self.steals = 0

    @property
    def shards(self) -> int:
        """Number of shard queues."""
        return len(self._queues)

    def push(self, shard: int, entry: Any) -> None:
        """Append ``entry`` to ``shard``'s frontier."""
        self._queues[shard].append(entry)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def __bool__(self) -> bool:
        return any(self._queues)

    def take_batch(self, shard: int, size: int) -> list:
        """Up to ``size`` entries for ``shard``, stealing when it drained.

        Returns ``[]`` only when every frontier is empty.
        """
        queue = self._queues[shard]
        if not queue:
            victim = self._fullest()
            if victim is None:
                return []
            self._steal(victim, into=shard)
        batch = []
        while queue and len(batch) < size:
            batch.append(queue.popleft())
        return batch

    def _fullest(self) -> int | None:
        """The index of the fullest non-empty queue (smallest index on ties)."""
        best: int | None = None
        for index, queue in enumerate(self._queues):
            if queue and (best is None or len(queue) > len(self._queues[best])):
                best = index
        return best

    def _steal(self, victim: int, into: int) -> None:
        """Move the tail half (at least one entry) of ``victim`` to ``into``."""
        self.steals += 1
        source = self._queues[victim]
        count = max(1, len(source) // 2)
        stolen = [source.pop() for _ in range(count)]
        stolen.reverse()  # preserve the tail segment's original order
        self._queues[into].extend(stolen)


# -- expansion backend -------------------------------------------------------------


def _drain_batches(frontiers: ShardFrontiers, batch_size: int) -> list[list]:
    """Materialise all expansion batches of a level, round-robin with stealing.

    A cursor cycles over the shards the way a pool of per-shard workers
    would: each shard takes batches from its own frontier and steals from
    the fullest one once its own has drained.
    """
    batches: list[list] = []
    shard = 0
    shards = frontiers.shards
    while frontiers:
        batch = frontiers.take_batch(shard, batch_size)
        shard = (shard + 1) % shards
        if batch:
            batches.append(batch)
    return batches


class SerialExpansionBackend:
    """Deterministic in-process expansion of a level's shard queues.

    Drains the queues batch by batch with the stealing schedule of
    :func:`_drain_batches`, enumerating successors inline.
    """

    name = "serial"

    def __init__(self, successors: Callable[[Any], Iterable]) -> None:
        self._successors = successors

    def expand(self, frontiers: ShardFrontiers, batch_size: int) -> dict:
        """Expand every queued state; returns ``{state_id: [edges]}``."""
        successors = self._successors
        expansions: dict = {}
        for batch in _drain_batches(frontiers, batch_size):
            for state_id, state in batch:
                expansions[state_id] = list(successors(state))
        return expansions


def _flush_level(record, new_states: int, level_edges: int, replay_seconds: float) -> None:
    """Flush one replayed level's counters into the registry.

    Called at each level barrier (and before an early predicate/limit
    return), so the folded ``engine_states_total``/``engine_edges_total``
    counters reconcile exactly with the merged result — the E20 bench
    gates that identity.  A "duplicate" is an edge whose target was
    already interned.
    """
    record.counter("engine_states_total", kind="interned").inc(new_states)
    duplicates = level_edges - new_states
    if duplicates > 0:
        record.counter("engine_states_total", kind="duplicate").inc(duplicates)
    record.counter("engine_edges_total").inc(level_edges)
    record.histogram("sharded_level_seconds", phase="replay").observe(replay_seconds)


# -- the sharded engine ------------------------------------------------------------


class ShardedEngine:
    """Level-synchronous sharded exploration (see module docs).

    Drop-in for :class:`~repro.search.engine.Engine` on the ``"bfs"``
    strategy: :meth:`explore` and :meth:`search` return results
    bit-identical to the single-shard engine's.

    Args:
        successors: deterministic successor function
            ``state -> iterable of edges`` (objects with
            ``.source``/``.target``).  Must be pure — the engine may
            enumerate successors speculatively past a limit.
        limits: depth/state/edge limits (:class:`SearchLimits`).
        shards: number of hash partitions / per-level frontiers.
        retention: edge-retention mode (as for :class:`Engine`).
        strategy: must be ``"bfs"`` — sharding is level-synchronous.
        batch_size: states per expansion batch.
        nodes: with ``nodes > 1`` the exploration runs **two-level
            distributed** (:mod:`repro.distributed`): each of ``nodes``
            node agents owns the intern table and partial result of its
            hash-partition, ``shards`` becomes each node's *local* shard
            count, and the merged result stays bit-identical to the
            single-shard engine's.
        transport: how node agents are reached when ``nodes > 1`` —
            ``None``/``"tcp"`` forks a localhost TCP cluster owned by
            the engine; a :class:`repro.distributed.Coordinator` with
            already-accepted agents is borrowed instead (and left
            connected on :meth:`close`).
        context: a picklable
            :class:`~repro.distributed.context.ExplorationContext`
            shipped to *external* node agents in their lease (the
            localhost launcher inherits the successor closure through
            fork and needs none).
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` (the
            default) resolves to the process-wide registry per call —
            the no-op null registry unless one was installed, so the
            uninstrumented path costs nothing.  Per-level counters
            (interned vs duplicate states, edges, steals, expand/replay
            timings) are flushed at level barriers, never per edge.

    A distributed engine keeps its cluster for the **engine's
    lifetime**: repeated :meth:`explore`/:meth:`search` calls reuse the
    same node agents.  The engine is a context manager; ``close()``
    tears an owned cluster down (a GC finalizer backstops forgotten
    engines).
    """

    __slots__ = (
        "_successors",
        "_limits",
        "_shards",
        "_retention",
        "_batch_size",
        "_backend",
        "_nodes",
        "_transport",
        "_context",
        "_distributed_instance",
        "_metrics",
    )

    def __init__(
        self,
        successors: Callable[[Any], Iterable],
        *,
        limits: SearchLimits | None = None,
        shards: int = 1,
        retention: str = RETAIN_FULL,
        strategy: str = "bfs",
        batch_size: int = DEFAULT_BATCH_SIZE,
        nodes: int = 1,
        transport: Any = None,
        context: Any = None,
        metrics=None,
    ) -> None:
        if retention not in RETENTION_MODES:
            raise SearchError(
                f"unknown edge-retention mode {retention!r}; expected one of {RETENTION_MODES}"
            )
        if strategy != "bfs":
            raise SearchError(
                "sharded exploration is level-synchronous and supports only the 'bfs' "
                f"strategy (got {strategy!r})"
            )
        if shards < 1:
            raise SearchError("the number of shards must be positive")
        if nodes < 1:
            raise SearchError("the node count must be positive")
        if batch_size < 1:
            raise SearchError("batch_size must be positive")
        self._successors = successors
        self._limits = limits or SearchLimits()
        self._shards = shards
        self._retention = retention
        self._batch_size = batch_size
        self._backend = SerialExpansionBackend(successors)
        self._nodes = nodes
        self._transport = transport
        self._context = context
        self._distributed_instance = None
        self._metrics = metrics

    @property
    def limits(self) -> SearchLimits:
        """The exploration limits."""
        return self._limits

    @property
    def shards(self) -> int:
        """Number of hash partitions."""
        return self._shards

    @property
    def retention(self) -> str:
        """The edge-retention mode."""
        return self._retention

    @property
    def strategy(self) -> str:
        """Always ``"bfs"`` (level-synchronous sharding)."""
        return "bfs"

    @property
    def nodes(self) -> int:
        """Number of distributed node agents (1 = this process only)."""
        return self._nodes

    @property
    def backend_name(self) -> str:
        """``"distributed"`` across node agents, ``"serial"`` in-process."""
        if self._distributed_active():
            return "distributed"
        return SerialExpansionBackend.name

    def _distributed_active(self) -> bool:
        """Whether explorations actually run on node agents.

        ``nodes > 1`` with the default localhost transport needs the
        ``fork`` start method to launch agents; where it is unavailable
        (or inside a daemonic sweep worker, which may not have children)
        the engine silently falls back to the single-node path — the
        replay makes results bit-identical either way.  An external
        coordinator's agents already exist, so that path never degrades.
        """
        if self._nodes <= 1:
            return False
        if self._transport not in (None, "tcp"):
            return True
        return process_backend_available()

    def _distributed(self):
        """The two-level distributed engine (created once, then reused).

        Engine-lifetime state: the localhost cluster (or the borrowed
        coordinator's lease) stays warm across successive explorations
        until :meth:`close`.
        """
        if self._distributed_instance is None:
            from repro.distributed.coordinator import DistributedEngine

            self._distributed_instance = DistributedEngine(
                self._successors,
                nodes=self._nodes,
                limits=self._limits,
                retention=self._retention,
                local_shards=self._shards,
                batch_size=self._batch_size,
                transport=self._transport,
                context=self._context,
                metrics=self._metrics,
            )
        return self._distributed_instance

    def close(self) -> None:
        """Release the distributed cluster (idempotent).

        An owned cluster is torn down; a borrowed coordinator stays
        connected.  The engine may be used again — the next distributed
        exploration simply launches or leases a fresh cluster.
        """
        distributed, self._distributed_instance = self._distributed_instance, None
        if distributed is not None:
            distributed.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public entry points ---------------------------------------------------

    def explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> SearchResult:
        """Explore every reachable state within the limits (merged result).

        ``on_state`` fires in global discovery order, exactly as under
        the single-shard engine.
        """
        if self._distributed_active():
            return self._distributed().explore(initial, on_state=on_state)
        registry = resolve_metrics(self._metrics)
        started = perf_counter()
        with get_tracer().span("explore", engine="sharded", shards=self._shards):
            partials, _ = self._run(initial, on_state=on_state)
            merged = self._merged(partials, initial)
        if registry.enabled:
            registry.counter("engine_explorations_total", engine="sharded").inc()
            registry.gauge("engine_depth_reached").high_water(merged.depth_reached)
            registry.histogram("engine_explore_seconds", engine="sharded").observe(
                perf_counter() - started
            )
        return merged

    def explore_shards(self, initial: Any) -> list[SearchResult]:
        """The per-shard partial results of an exploration (one per shard).

        Each partial holds the states its shard owns, the parent links of
        those states (cross-shard parents marked ``-1``) and the edges
        generated from them.  Fold them with
        :meth:`SearchResult.merge_all` to recover the full exploration —
        this is exactly what :meth:`explore` returns.  Distributed
        engines keep their partials node-resident; use
        :meth:`explore` (merged) or the distributed engine's summary
        mode instead.
        """
        if self._distributed_active():
            raise SearchError(
                "explore_shards() is single-node only: distributed partials live on "
                "their node agents (use explore(), or DistributedEngine.explore_summary)"
            )
        partials, _ = self._run(initial)
        return partials

    def search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool],
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """Search for a state satisfying ``predicate``.

        Same contract as :meth:`Engine.search`: returns
        ``(witness_path, merged_result)``; the parent map is maintained
        in every retention mode, and the breadth-first replay makes the
        witness minimal and identical to the single-shard one.
        ``on_state`` fires in global discovery order for each newly
        interned state, exactly as the single-shard engine fires it.
        """
        if self._distributed_active():
            return self._distributed().search(initial, predicate, on_state=on_state)
        registry = resolve_metrics(self._metrics)
        started = perf_counter()
        with get_tracer().span("search", engine="sharded", shards=self._shards):
            partials, hit = self._run(initial, predicate=predicate, on_state=on_state)
            merged = self._merged(partials, initial)
        if registry.enabled:
            registry.counter("engine_explorations_total", engine="sharded").inc()
            registry.gauge("engine_depth_reached").high_water(merged.depth_reached)
            registry.histogram("engine_explore_seconds", engine="sharded").observe(
                perf_counter() - started
            )
        if hit is None:
            return None, merged
        source, edge = hit
        if edge is None:
            return [], merged  # the initial state satisfied the predicate
        path = merged.path_to(source)
        path.append(edge)
        return path, merged

    # -- the coordinator -------------------------------------------------------

    def _merged(self, partials: list[SearchResult], initial: Any) -> SearchResult:
        merged = SearchResult.merge_all(partials)
        merged.initial = merged.interning.canonical(initial)
        return merged

    def _run(
        self,
        initial: Any,
        *,
        predicate: Callable[[Any], bool] | None = None,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list[SearchResult], tuple | None]:
        """Level-synchronous exploration; returns ``(partials, hit)``.

        ``hit`` is ``None`` (no predicate or no match), ``(state, None)``
        when the initial state matches, or ``(source_state, edge)`` for
        the first matching edge in single-shard BFS generation order.
        """
        shards = self._shards
        limits = self._limits
        keep_edges = self._retention == RETAIN_FULL
        # Predicate search always keeps parent links (witnesses), as Engine.search does.
        keep_parents = self._retention != RETAIN_COUNTS or predicate is not None
        table = InternTable()  # global dedup; ids are single-shard discovery order
        partials = [
            SearchResult(initial=initial, retention=self._retention) for _ in range(shards)
        ]
        # Metrics are boundary-only: `record` is None on the disabled
        # path, so the per-edge replay below never touches the registry
        # and the per-level flushes cost a handful of dict probes.
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        tracer = get_tracer()
        owner: dict[int, int] = {}
        root_id, root, _ = table.intern(initial)
        root_shard = shard_of(root, shards)
        owner[root_id] = root_shard
        root_local, _, _ = partials[root_shard].interning.intern(root)
        partials[root_shard].depths[root_local] = 0
        if record is not None:
            record.counter("engine_states_total", kind="interned").inc()
        if on_state is not None:
            on_state(root, 0)
        if predicate is not None and predicate(root):
            return partials, (root, None)
        if len(table) >= limits.max_configurations:
            partials[root_shard].truncated = True
            return partials, None
        total_edges = 0
        level = [root_id]
        depth = 0
        while level:
            for state_id in level:
                part = partials[owner[state_id]]
                if depth > part.depth_reached:
                    part.depth_reached = depth
            if depth >= limits.max_depth:
                break
            if record is not None:
                record.counter("sharded_levels_total").inc()
                record.gauge("engine_frontier_states").high_water(len(level))
            frontiers = ShardFrontiers(shards)
            for state_id in level:
                frontiers.push(owner[state_id], (state_id, table.state_of(state_id)))
            expand_started = perf_counter() if record is not None else 0.0
            with tracer.span("expand", depth=depth, frontier=len(level)):
                expansions = self._backend.expand(frontiers, self._batch_size)
            replay_started = perf_counter() if record is not None else 0.0
            if record is not None:
                record.histogram("sharded_level_seconds", phase="expand").observe(
                    replay_started - expand_started
                )
                if frontiers.steals:
                    record.counter("sharded_steals_total").inc(frontiers.steals)
            edges_before = total_edges
            next_level: list[int] = []
            # Replay in discovery-id order == the order single-shard BFS
            # pops its FIFO frontier, so interning, parent links, limit
            # checks and predicate hits all sequence identically.
            for state_id in level:
                part = partials[owner[state_id]]
                source = table.state_of(state_id)
                for edge in expansions.get(state_id, ()):
                    part.edge_count += 1
                    total_edges += 1
                    if keep_edges:
                        part.edges.append(edge)
                    if predicate is not None and predicate(edge.target):
                        if record is not None:
                            _flush_level(
                                record,
                                len(next_level),
                                total_edges - edges_before,
                                perf_counter() - replay_started,
                            )
                        return partials, (source, edge)
                    target_id, target, is_new = table.intern(edge.target)
                    if is_new:
                        target_shard = shard_of(target, shards)
                        owner[target_id] = target_shard
                        target_part = partials[target_shard]
                        local_id, _, _ = target_part.interning.intern(target)
                        target_part.depths[local_id] = depth + 1
                        if keep_parents:
                            source_local = target_part.interning.id_of(source)
                            target_part.parents[local_id] = (
                                source_local if source_local is not None else -1,
                                edge,
                            )
                        if on_state is not None:
                            on_state(target, depth + 1)
                        next_level.append(target_id)
                    if len(table) >= limits.max_configurations or total_edges >= limits.max_steps:
                        part.truncated = True
                        if record is not None:
                            _flush_level(
                                record,
                                len(next_level),
                                total_edges - edges_before,
                                perf_counter() - replay_started,
                            )
                        return partials, None
            if record is not None:
                _flush_level(
                    record,
                    len(next_level),
                    total_edges - edges_before,
                    perf_counter() - replay_started,
                )
            level = next_level
            depth += 1
        return partials, None
