"""Bounded exploration of the configuration graph ``C_S``.

The configuration graph of a DMS is in general infinite (both in depth
and, without canonical fresh values, in branching).  This module provides
a bounded-depth, canonically-branching explorer that materialises a
finite fragment of ``C_S`` as an explicit relational transition system,
usable for reachability analysis and as the unbounded-recency baseline of
the benchmarks.

The explorer is a thin adapter over the unified exploration engine
(:mod:`repro.search`): frontier strategy (``"bfs"``/``"dfs"``/
``"best-first"``), edge-retention mode (``"full"``/``"parents-only"``/
``"counts-only"``) and limits are passed straight through, and witnesses
are reconstructed from the engine's parent map instead of threading run
prefixes through the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.dms.configuration import Configuration
from repro.dms.run import ExtendedRun
from repro.dms.semantics import enumerate_successors, initial_configuration
from repro.dms.system import DMS
from repro.search import (
    RETAIN_FULL,
    Engine,
    SearchLimits,
    SearchResult,
    ShardedEngine,
    iterate_paths,
)

__all__ = ["ExplorationLimits", "ExplorationResult", "ConfigurationGraphExplorer", "iterate_runs"]


@dataclass(frozen=True)
class ExplorationLimits:
    """Limits bounding an exploration of the configuration graph.

    Attributes:
        max_depth: maximum number of action applications along any path.
        max_configurations: stop after this many distinct configurations.
        max_steps: stop after this many edges have been generated.
    """

    max_depth: int = 6
    max_configurations: int = 100_000
    max_steps: int = 500_000

    def as_search_limits(self) -> SearchLimits:
        """The engine-level form of these limits."""
        return SearchLimits(
            max_depth=self.max_depth,
            max_configurations=self.max_configurations,
            max_steps=self.max_steps,
        )


@dataclass
class ExplorationResult:
    """The explicit fragment of ``C_S`` produced by an exploration."""

    initial: Configuration
    configurations: set = field(default_factory=set)
    edges: list = field(default_factory=list)
    depth_reached: int = 0
    truncated: bool = False
    edges_generated: int = 0
    retention: str = RETAIN_FULL

    @classmethod
    def from_search(cls, search: SearchResult) -> "ExplorationResult":
        """Project an engine :class:`~repro.search.SearchResult`."""
        return cls(
            initial=search.initial,
            configurations=set(search.states()),
            edges=search.edges,
            depth_reached=search.depth_reached,
            truncated=search.truncated,
            edges_generated=search.edge_count,
            retention=search.retention,
        )

    @property
    def configuration_count(self) -> int:
        """Number of distinct configurations discovered."""
        return len(self.configurations)

    @property
    def edge_count(self) -> int:
        """Number of transition edges generated (independent of retention)."""
        return max(self.edges_generated, len(self.edges))

    def successors_of(self, configuration: Configuration) -> list:
        """All explored steps leaving ``configuration`` (``"full"`` retention only)."""
        return [step for step in self.edges if step.source == configuration]


class ConfigurationGraphExplorer:
    """Bounded explorer of the (canonical) configuration graph.

    Args:
        system: the DMS to explore.
        limits: depth/state/edge limits (defaults to :class:`ExplorationLimits`).
        strategy: frontier strategy — ``"bfs"`` (default), ``"dfs"`` or
            ``"best-first"`` (requires ``heuristic``).
        heuristic: ``heuristic(configuration, depth) -> comparable`` for
            the best-first strategy.
        retention: edge-retention mode — ``"full"`` (default),
            ``"parents-only"`` or ``"counts-only"``.
        shards: hash partitions of the sharded engine; with ``shards``
            above 1 the exploration runs level-synchronously sharded
            (``"bfs"`` only) with results bit-identical to the
            single-shard engine (see :mod:`repro.search.sharded`).
        nodes: with ``nodes > 1`` the exploration runs two-level
            distributed (:mod:`repro.distributed`): each node agent
            owns the intern table of its hash-partition and ``shards``
            becomes the per-node local shard count.  Results stay
            bit-identical.
        transport: ``None``/``"tcp"`` fork a localhost TCP cluster;
            pass a :class:`repro.distributed.Coordinator` to use
            externally started agents (the explorer ships them a
            picklable context for this system automatically).
        successors: advanced — replace the canonical successor function
            with a semantics-equivalent callable (the result store's
            recording/delta wrappers, :mod:`repro.store.capture`).
            Single-shard in-process explorations only: the store records
            subgraphs from the single-shard engine alone, and node
            agents rebuild successor closures from the lease.

    The underlying engine is created once per explorer, so successive
    distributed explorations reuse the same node agents.  The explorer
    is a context manager; :meth:`close` releases them.
    """

    def __init__(
        self,
        system: DMS,
        limits: ExplorationLimits | None = None,
        *,
        strategy: str = "bfs",
        heuristic: Callable[[Configuration, int], object] | None = None,
        retention: str = RETAIN_FULL,
        shards: int = 1,
        nodes: int = 1,
        transport=None,
        successors: Callable | None = None,
    ) -> None:
        if successors is not None and (shards > 1 or nodes > 1):
            from repro.errors import SearchError

            raise SearchError(
                "a successors override applies to single-shard in-process "
                "explorations only (shards == nodes == 1)"
            )
        self._successors_override = successors
        self._system = system
        self._limits = limits or ExplorationLimits()
        self._strategy = strategy
        self._heuristic = heuristic
        self._retention = retention
        self._shards = shards
        self._nodes = nodes
        self._transport = transport
        self._engine_instance = None

    @property
    def system(self) -> DMS:
        """The explored system."""
        return self._system

    @property
    def limits(self) -> ExplorationLimits:
        """The exploration limits."""
        return self._limits

    @property
    def strategy(self) -> str:
        """The frontier strategy in use."""
        return self._strategy

    @property
    def retention(self) -> str:
        """The edge-retention mode in use."""
        return self._retention

    @property
    def shards(self) -> int:
        """Number of hash partitions of the sharded engine."""
        return self._shards

    @property
    def nodes(self) -> int:
        """Number of distributed node agents (1 = this process only)."""
        return self._nodes

    @property
    def backend_name(self) -> str:
        """How explorations run: ``"in-process"`` on the single-shard
        engine, ``"serial"`` sharded in-process, ``"distributed"`` across
        node agents."""
        return getattr(self._engine(), "backend_name", "in-process")

    def _engine(self):
        if self._engine_instance is not None:
            return self._engine_instance
        system = self._system  # capture the system, not the explorer
        successors = lambda configuration: enumerate_successors(system, configuration)  # noqa: E731
        if self._shards > 1 or self._nodes > 1:
            context = None
            if self._nodes > 1:
                from repro.distributed.context import DMSGraphContext

                context = DMSGraphContext(system)
            self._engine_instance = ShardedEngine(
                successors=successors,
                limits=self._limits.as_search_limits(),
                strategy=self._strategy,
                retention=self._retention,
                shards=self._shards,
                nodes=self._nodes,
                transport=self._transport,
                context=context,
            )
        else:
            self._engine_instance = Engine(
                successors=self._successors_override or successors,
                limits=self._limits.as_search_limits(),
                strategy=self._strategy,
                heuristic=self._heuristic,
                retention=self._retention,
            )
        return self._engine_instance

    def close(self) -> None:
        """Release the engine's distributed cluster, if any (idempotent)."""
        engine, self._engine_instance = self._engine_instance, None
        if engine is not None and hasattr(engine, "close"):
            engine.close()

    def __enter__(self) -> "ConfigurationGraphExplorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explore(
        self,
        on_configuration: Callable[[Configuration, int], None] | None = None,
    ) -> ExplorationResult:
        """Run an exploration up to the configured limits.

        Args:
            on_configuration: optional callback invoked with each newly
                discovered configuration and its depth.
        """
        search = self._engine().explore(
            initial_configuration(self._system), on_state=on_configuration
        )
        return ExplorationResult.from_search(search)

    def find_configuration(
        self,
        predicate: Callable[[Configuration], bool],
        on_configuration: Callable[[Configuration, int], None] | None = None,
    ) -> tuple[ExtendedRun | None, ExplorationResult]:
        """Search for a configuration satisfying ``predicate``.

        Returns the witnessing extended run (or ``None``) together with the
        exploration statistics.  Under the default breadth-first strategy
        the witness has minimal length; it is reconstructed from the
        engine's parent map.  ``on_configuration`` fires with each newly
        discovered configuration and its depth, in discovery order.
        """
        path, search = self._engine().search(
            initial_configuration(self._system), predicate, on_configuration
        )
        result = ExplorationResult.from_search(search)
        if path is None:
            return None, result
        return ExtendedRun(result.initial, path), result


def iterate_runs(system: DMS, depth: int, max_runs: int | None = None) -> Iterator[ExtendedRun]:
    """Enumerate all canonical extended-run prefixes of exactly ``depth`` steps
    (or shorter if a configuration is a dead end).

    The enumeration is depth-first and deterministic; ``max_runs`` truncates
    it.  Used by the cross-validation tests and by the model checker's
    run-enumeration backend.  The traversal uses the engine's explicit
    stack, so arbitrary depths are supported (no recursion limit).
    """
    initial = initial_configuration(system)
    for steps in iterate_paths(
        initial, lambda configuration: enumerate_successors(system, configuration), depth, max_runs
    ):
        yield ExtendedRun(initial, steps)
