"""The coordinator side of the two-level distributed exploration.

:class:`Coordinator` owns the TCP listener, the per-node
:class:`NodeHandle` channels and the context **lease**: after accepting
``hello`` handshakes it sends each agent one ``lease`` frame binding its
node index, local expansion configuration and (for agents that were not
forked with the successor closure) a picklable
:class:`~repro.distributed.context.ExplorationContext`.  Health checks
mirror the worker pool's: any frame refreshes a node's ``last_seen``,
quiet nodes are pinged (agents answer from a receiver thread even while
expanding), and a node that misses the heartbeat window — or whose
socket closes, cleanly or mid-frame — raises
:class:`~repro.errors.NodeCrashError`, which the engine maps onto the
pool's crash-respawn semantics (respawn the agents, re-run the
exploration; successor functions are pure, so the retry is invisible).

:class:`DistributedEngine` drives the exploration itself, one
breadth-first level at a time:

1. **Expand** — the level's refs are chunked per owning node and leased
   out; a node that drains its own chunks *steals the tail half* of the
   fullest remaining node's queue (the coordinator fetches the stolen
   states from the straggler's table and re-dispatches them inline).
2. **Route** — the coordinator replays the expansions in global
   discovery order, evaluates search predicates, assigns each generated
   edge a global position and routes its target to the owning node
   (ownership is ``shard_of(state, nodes)`` evaluated *only* in the
   coordinator process, so per-process hash randomisation cannot split
   a state across nodes).
3. **Probe** (only when a limit is in reach) — owners report which
   candidate positions would intern *new* states, so the coordinator
   can place the ``max_configurations`` cut exactly where single-shard
   BFS would.
4. **Commit** — each node interns its share up to the cut, records
   depths and parent links in its partial result, and returns the
   positions it actually added; their global order forms the next
   level's frontier.

Because interning decisions, limit checks and predicate hits all happen
in (or are sequenced by) this replay, the merged result is
**bit-identical** to single-node, single-shard BFS — states, depths,
truncation flags, verdicts and witnesses — for every node count,
retention mode and transport.  The coordinator itself interns nothing
but the root: the tables live on the nodes, which is what lifts the
single-machine memory ceiling (measured by ``BENCH_E17.json``).
"""

from __future__ import annotations

import socket
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.distributed.context import ExplorationContext
from repro.distributed.transport import PROTOCOL_VERSION, Channel
from repro.errors import DistributedError, NodeCrashError, SearchError
from repro.obs.metrics import resolve_metrics
from repro.obs.trace import get_tracer
from repro.search.engine import (
    RETAIN_COUNTS,
    RETAIN_FULL,
    RETENTION_MODES,
    SearchLimits,
    SearchResult,
)
from repro.search.sharded import DEFAULT_BATCH_SIZE, shard_of

__all__ = [
    "Coordinator",
    "DistributedEngine",
    "DistributedSummary",
    "NodeHandle",
]

# How often a quiet node is pinged, and how long it may stay silent
# before it is declared dead.  Agents answer pings from a dedicated
# receiver thread, so a healthy node's silence is bounded by round-trip
# time, not by expansion time.
PING_INTERVAL_SECONDS = 2.0
HEARTBEAT_TIMEOUT_SECONDS = 30.0

_POLL_SECONDS = 0.05
_ACCEPT_TIMEOUT_SECONDS = 120.0


class NodeHandle:
    """The coordinator's view of one connected node agent."""

    __slots__ = ("index", "channel", "pid", "process", "last_seen", "last_ping")

    def __init__(self, index: int, channel: Channel, pid: int) -> None:
        self.index = index
        self.channel = channel
        self.pid = pid
        self.process = None  # a launcher-owned multiprocessing.Process, when local
        self.last_seen = time.monotonic()
        self.last_ping = 0.0


class Coordinator:
    """Listener, handshakes, lease and health for a set of node agents.

    Create one directly (``Coordinator()`` binds an ephemeral loopback
    port) or with :meth:`listen` to both bind and wait for a fixed
    number of external agents — the shape the harness CLI uses.  The
    object is the ``transport=`` value callers hand to engines and
    explorers when their agents live outside the local launcher.
    """

    def __init__(self, address: tuple[str, int] = ("127.0.0.1", 0)) -> None:
        self._listener = socket.create_server(address)
        self._handles: list[NodeHandle] = []
        self.leased = False
        self.lease_state: tuple | None = None
        self._closed = False

    @classmethod
    def listen(
        cls,
        address: tuple[str, int],
        nodes: int,
        timeout: float = _ACCEPT_TIMEOUT_SECONDS,
    ) -> "Coordinator":
        """Bind ``address`` and block until ``nodes`` agents connected."""
        coordinator = cls(address)
        coordinator.accept_nodes(nodes, timeout=timeout)
        return coordinator

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — agents connect here."""
        name = self._listener.getsockname()
        return (name[0], name[1])

    @property
    def handles(self) -> list[NodeHandle]:
        """The connected node handles, in node-index order."""
        return self._handles

    @property
    def nodes(self) -> int:
        """Number of connected agents."""
        return len(self._handles)

    def accept_nodes(self, count: int, timeout: float = _ACCEPT_TIMEOUT_SECONDS) -> None:
        """Accept ``count`` agents and complete their ``hello`` handshakes."""
        if self._handles:
            raise DistributedError("agents were already accepted on this coordinator")
        deadline = time.monotonic() + timeout
        for index in range(count):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NodeCrashError(
                    f"only {index} of {count} agents connected within {timeout:.0f}s"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except (TimeoutError, socket.timeout):
                raise NodeCrashError(
                    f"only {index} of {count} agents connected within {timeout:.0f}s"
                ) from None
            channel = Channel(sock)
            kind, data = channel.recv(timeout=min(remaining, 30.0))
            if kind != "hello" or data.get("protocol") != PROTOCOL_VERSION:
                channel.close()
                raise DistributedError(
                    f"agent handshake failed (got {kind!r}, protocol "
                    f"{data.get('protocol') if isinstance(data, dict) else data!r})"
                )
            self._handles.append(NodeHandle(index, channel, data.get("pid", -1)))

    def lease(self, config: dict, context: ExplorationContext | None = None) -> None:
        """Send every agent its lease (node index + config + context).

        ``context`` is ``None`` for fork-launched agents, which already
        inherited the successor closure; external agents require one.
        May be called again with a different config/context — agents
        rebind their expansion backend, so one long-lived
        coordinator can serve successive engines (each engine re-leases
        exactly when :attr:`lease_state` differs from what it needs).
        """
        for handle in self._handles:
            lease = dict(config)
            lease["node"] = handle.index
            lease["context"] = context
            handle.channel.send("lease", lease)
        for handle in self._handles:
            while True:
                kind, data = handle.channel.recv(timeout=HEARTBEAT_TIMEOUT_SECONDS)
                if kind != "pong":  # stray heartbeat replies may interleave
                    break
            if kind == "error":
                raise DistributedError(f"node {handle.index} rejected its lease: {data['message']}")
            if kind != "ready":
                raise DistributedError(f"node {handle.index}: expected ready, got {kind!r}")
            handle.last_seen = time.monotonic()
        self.leased = True
        self.lease_state = (tuple(sorted(config.items())), context)

    def close(self, shutdown_agents: bool = True) -> None:
        """Close the listener and every channel (idempotent).

        With ``shutdown_agents`` a best-effort ``shutdown`` frame is
        sent first so agents exit their serve loops promptly instead of
        waiting for EOF.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if shutdown_agents:
                try:
                    handle.channel.send("shutdown", {})
                except (DistributedError, OSError):
                    pass
            handle.channel.close()
        try:
            self._listener.close()
        except OSError:
            pass


@dataclass(frozen=True)
class DistributedSummary:
    """Counters of a distributed exploration, with no state collected.

    ``explore_summary`` leaves every intern table on its node and
    reports only sizes — the mode the E17 memory benchmark measures.

    Attributes:
        states: distinct states discovered cluster-wide.
        edges: edges generated (counted exactly as single-shard BFS).
        depth_reached: largest depth at which a state was visited.
        truncated: whether a limit cut the exploration short.
        coordinator_states: states resident in coordinator-side tables
            (the root only — the coordinator interns nothing else).
        node_states: per-node intern-table sizes, in node order.
    """

    states: int
    edges: int
    depth_reached: int
    truncated: bool
    coordinator_states: int
    node_states: tuple[int, ...]

    @property
    def max_node_states(self) -> int:
        """The largest single node table — the new per-process ceiling."""
        return max(self.node_states) if self.node_states else 0


class DistributedEngine:
    """Two-level distributed BFS over TCP node agents (see module docs).

    Drop-in for :class:`~repro.search.sharded.ShardedEngine` semantics:
    :meth:`explore` and :meth:`search` return results bit-identical to
    the single-shard engine's, while intern tables and expansion run on
    ``nodes`` agent processes.  Normally reached through
    ``ShardedEngine(nodes=..., transport=...)`` (and everything layered
    on it) rather than instantiated directly.

    Args:
        successors: deterministic, pure successor function (as for the
            sharded engine).  With the default localhost transport the
            agents inherit it through fork; with an external
            :class:`Coordinator` a picklable ``context`` must describe
            it instead.
        nodes: number of node agents (and hash partitions of the
            two-level scheme).
        limits: depth/state/edge limits.
        retention: edge-retention mode.
        strategy: must be ``"bfs"`` (the scheme is level-synchronous).
        local_shards: per-node shard queues for batch composition.
        batch_size: states per expansion batch; the coordinator leases
            level refs to nodes in chunks of this size.
        transport: ``None``/``"tcp"`` fork a localhost cluster owned by
            the engine; a :class:`Coordinator` with accepted agents is
            borrowed and left running on :meth:`close`.
        context: picklable successor recipe for external agents.
        retries: how many times a crashed exploration is re-run on a
            respawned local cluster before the crash propagates.
        heartbeat_timeout: seconds of node silence tolerated before a
            crash is declared.
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` (the
            default) resolves to the process-wide registry per run.
            When enabled, the lease asks each agent to keep a local
            registry whose snapshot rides back on the collect/summarize
            reply and is folded in with a ``node=N`` label; the
            coordinator itself records frame/byte traffic, heartbeat
            round-trips, lease and steal events.
    """

    def __init__(
        self,
        successors: Callable[[Any], Iterable],
        *,
        nodes: int,
        limits: SearchLimits | None = None,
        retention: str = RETAIN_FULL,
        strategy: str = "bfs",
        local_shards: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        transport: Any = None,
        context: ExplorationContext | None = None,
        retries: int = 1,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT_SECONDS,
        metrics=None,
    ) -> None:
        if nodes < 1:
            raise SearchError("a distributed exploration needs at least one node")
        if strategy != "bfs":
            raise SearchError(
                "distributed exploration is level-synchronous and supports only the "
                f"'bfs' strategy (got {strategy!r})"
            )
        if retention not in RETENTION_MODES:
            raise SearchError(
                f"unknown edge-retention mode {retention!r}; expected one of {RETENTION_MODES}"
            )
        self._successors = successors
        self._nodes = nodes
        self._limits = limits or SearchLimits()
        self._retention = retention
        self._local_shards = max(1, local_shards)
        self._batch_size = max(1, batch_size)
        self._transport = transport
        self._context = context
        self._retries = retries
        self._heartbeat_timeout = heartbeat_timeout
        self._metrics = metrics
        self._record = None  # the enabled registry, set for the span of one run
        self._launcher = None
        self._coordinator: Coordinator | None = None
        self._finalizer = None

    # -- cluster lifecycle -------------------------------------------------------

    @property
    def nodes(self) -> int:
        """Number of node agents."""
        return self._nodes

    @property
    def limits(self) -> SearchLimits:
        """The exploration limits."""
        return self._limits

    @property
    def retention(self) -> str:
        """The edge-retention mode."""
        return self._retention

    def _lease_config(self) -> dict:
        return {
            "nodes": self._nodes,
            "local_shards": self._local_shards,
            "batch_size": self._batch_size,
            "metrics": resolve_metrics(self._metrics).enabled,
        }

    def _ensure_cluster(self) -> Coordinator:
        """The leased coordinator, launching a localhost cluster on first use."""
        if self._coordinator is None:
            if isinstance(self._transport, Coordinator):
                self._coordinator = self._transport
            elif self._transport in (None, "tcp"):
                from repro.distributed.launcher import LocalCluster

                self._launcher = LocalCluster(self._nodes, self._successors)
                self._coordinator = self._launcher.coordinator
                self._finalizer = weakref.finalize(self, _close_launcher, self._launcher)
            else:
                raise SearchError(
                    f"unknown distributed transport {self._transport!r}; expected None, "
                    "'tcp' or a Coordinator"
                )
        if self._coordinator.nodes != self._nodes:
            raise DistributedError(
                f"the coordinator has {self._coordinator.nodes} agents but the engine "
                f"was configured for {self._nodes} nodes"
            )
        context = self._context
        if self._launcher is None and context is None:
            # External agents cannot inherit the closure; try the
            # picklable wrapper and let pickling errors surface with
            # a pointer at the context mechanism.
            from repro.distributed.context import CallableContext

            context = CallableContext(self._successors)
        if self._launcher is not None:
            context = None  # fork-launched agents inherited the closure
        config = self._lease_config()
        desired = (tuple(sorted(config.items())), context)
        # Re-lease whenever this engine's context or local config is not
        # what the agents currently hold — a shared external coordinator
        # may have been leased by a different engine (or sweep point)
        # since, and serving a stale successor function would be wrong,
        # not just slow.
        if not self._coordinator.leased or self._coordinator.lease_state != desired:
            self._coordinator.lease(config, context=context)
            registry = resolve_metrics(self._metrics)
            if registry.enabled:
                registry.counter("dist_leases_total").inc()
        return self._coordinator

    def close(self) -> None:
        """Release the cluster (idempotent).

        An engine-owned localhost cluster is shut down; a borrowed
        :class:`Coordinator` is left connected for its owner.
        """
        launcher, self._launcher = self._launcher, None
        self._coordinator = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if launcher is not None:
            launcher.close()

    def __enter__(self) -> "DistributedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_with_recovery(self, run: Callable[[], Any]) -> Any:
        """Re-run a crashed exploration on a respawned local cluster.

        This is the pool's crash-respawn contract lifted to node
        granularity: a node's intern table dies with it, so the finest
        sound re-execution unit is the whole exploration — which is pure
        and therefore repeats bit-identically.
        """
        attempt = 0
        while True:
            try:
                return run()
            except NodeCrashError:
                attempt += 1
                if self._launcher is None or attempt > self._retries:
                    raise
                self._launcher.restart()
                self._coordinator = self._launcher.coordinator

    # -- public entry points -----------------------------------------------------

    def explore(
        self,
        initial: Any,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> SearchResult:
        """Explore every reachable state within the limits (merged result).

        ``on_state`` fires in global discovery order, exactly as under
        the single-shard engine.
        """
        return self._run_with_recovery(
            lambda: self._explore_once(initial, on_state=on_state)
        )

    def explore_summary(self, initial: Any) -> DistributedSummary:
        """Explore, but leave every state on its node and return counters.

        The memory-mode entry point: node tables are never collected, so
        the coordinator's resident interned states stay at the root.
        """
        return self._run_with_recovery(lambda: self._summary_once(initial))

    def search(
        self,
        initial: Any,
        predicate: Callable[[Any], bool],
        on_state: Callable[[Any, int], None] | None = None,
    ) -> tuple[list | None, SearchResult]:
        """Search for a state satisfying ``predicate``.

        Same contract as :meth:`ShardedEngine.search
        <repro.search.sharded.ShardedEngine.search>`: the witness is the
        one single-shard BFS finds, reconstructed from the merged parent
        map.  ``on_state`` fires coordinator-side in global discovery
        order for each newly interned state.
        """
        return self._run_with_recovery(
            lambda: self._search_once(initial, predicate, on_state=on_state)
        )

    def _explore_once(self, initial, on_state=None) -> SearchResult:
        run = self._run_levels(initial, on_state=on_state)
        return self._collect_merged(initial, run)

    def _search_once(self, initial, predicate, on_state=None) -> tuple[list | None, SearchResult]:
        run = self._run_levels(initial, predicate=predicate, on_state=on_state)
        merged = self._collect_merged(initial, run)
        if run["hit"] is None:
            return None, merged
        source, edge = run["hit"]
        if edge is None:
            return [], merged  # the initial state satisfied the predicate
        path = merged.path_to(source)
        path.append(edge)
        return path, merged

    def _summary_once(self, initial) -> DistributedSummary:
        run = self._run_levels(initial)
        coordinator = run["coordinator"]
        replies = self._broadcast(coordinator, "summarize", lambda index: {}, expect="summary")
        self._fold_node_metrics(replies)
        node_states = tuple(replies[index]["states"] for index in sorted(replies))
        return DistributedSummary(
            states=run["states_total"],
            edges=run["edges_total"],
            depth_reached=run["depth_reached"],
            truncated=run["truncated"],
            coordinator_states=1,  # the pinned root; nothing else is coordinator-resident
            node_states=node_states,
        )

    def _fold_node_metrics(self, replies: dict[int, Any]) -> None:
        """Fold each node's registry snapshot in under a ``node=N`` label."""
        registry = resolve_metrics(self._metrics)
        if not registry.enabled:
            return
        for index in sorted(replies):
            registry.fold(replies[index].get("metrics"), node=str(index))

    def _collect_merged(self, initial, run: dict) -> SearchResult:
        coordinator = run["coordinator"]
        replies = self._broadcast(coordinator, "collect", lambda index: {}, expect="partial")
        self._fold_node_metrics(replies)
        partials = [replies[index]["result"] for index in sorted(replies)]
        merged = SearchResult.merge_all(partials)
        merged.initial = merged.interning.canonical(initial)
        merged.depth_reached = run["depth_reached"]
        merged.truncated = merged.truncated or run["truncated"]
        return merged

    # -- the level loop ----------------------------------------------------------

    def _run_levels(
        self,
        initial: Any,
        *,
        predicate: Callable[[Any], bool] | None = None,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> dict:
        """Run the distributed level-synchronous exploration.

        Returns the run record: counters, the ``hit`` (``None``, or
        ``(state, None)`` for a root hit, or ``(source_state, edge)``)
        and the coordinator, for the collection phase.
        """
        coordinator = self._ensure_cluster()
        registry = resolve_metrics(self._metrics)
        record = registry if registry.enabled else None
        baseline = None
        if record is not None:
            self._record = record
            baseline = {
                handle.index: _traffic(handle.channel) for handle in coordinator.handles
            }
        try:
            return self._run_levels_inner(
                coordinator, initial, predicate=predicate, on_state=on_state
            )
        finally:
            self._record = None
            if record is not None:
                for handle in coordinator.handles:
                    _flush_traffic(
                        record, handle.index, baseline[handle.index], _traffic(handle.channel)
                    )

    def _run_levels_inner(
        self,
        coordinator: Coordinator,
        initial: Any,
        *,
        predicate: Callable[[Any], bool] | None = None,
        on_state: Callable[[Any, int], None] | None = None,
    ) -> dict:
        """The level loop proper, inside :meth:`_run_levels`'s metric scope."""
        limits = self._limits
        record = self._record
        tracer = get_tracer()
        keep_parents = self._retention != RETAIN_COUNTS or predicate is not None
        keep_edges = self._retention == RETAIN_FULL
        self._broadcast(
            coordinator,
            "reset",
            lambda index: {
                "retention": self._retention,
                "keep_parents": keep_parents,
                "initial": initial,
            },
            expect="ok",
        )
        root_owner = shard_of(initial, self._nodes)
        root_handle = coordinator.handles[root_owner]
        root_handle.channel.send("init-root", {"state": initial})
        root_reply = self._gather(coordinator, "ok", indices=[root_owner])
        root_local = root_reply[root_owner]["local_id"]

        run = {
            "coordinator": coordinator,
            "states_total": 1,
            "edges_total": 0,
            "depth_reached": 0,
            "truncated": False,
            "hit": None,
        }
        if on_state is not None:
            on_state(initial, 0)
        if predicate is not None and predicate(initial):
            run["hit"] = (initial, None)
            return run
        if run["states_total"] >= limits.max_configurations:
            run["truncated"] = True
            return run

        level: list[tuple[int, int]] = [(root_owner, root_local)]
        depth = 0
        while level:
            run["depth_reached"] = depth
            if depth >= limits.max_depth:
                break
            if record is not None:
                record.gauge("engine_frontier_states").high_water(len(level))
            with tracer.span("expand", depth=depth, frontier=len(level)):
                expansions = self._expand_level(coordinator, level)
            outcome = self._replay_level(
                coordinator,
                level,
                expansions,
                depth=depth,
                run=run,
                predicate=predicate,
                on_state=on_state,
                keep_edges=keep_edges,
            )
            if outcome["stop"]:
                break
            level = outcome["next_level"]
            depth += 1
        return run

    def _expand_level(
        self, coordinator: Coordinator, level: list[tuple[int, int]]
    ) -> dict:
        """Expand one level across the nodes, stealing straggler tails.

        Each node's refs are chunked and dispatched one chunk at a time;
        a node with nothing left gets the tail half of the fullest
        remaining queue — its states fetched from the owner (whose
        receiver thread answers even mid-expansion) and re-sent inline.
        Returns ``{ref: [edges]}`` for every ref of the level.
        """
        handles = coordinator.handles
        own: dict[int, deque] = {handle.index: deque() for handle in handles}
        grouped: dict[int, list] = {handle.index: [] for handle in handles}
        for ref in level:
            grouped[ref[0]].append(ref)
        for index, refs in grouped.items():
            for start in range(0, len(refs), self._batch_size):
                own[index].append(refs[start : start + self._batch_size])
        total = sum(len(queue) for queue in own.values())
        ready: dict[int, deque] = {handle.index: deque() for handle in handles}
        expanding: set[int] = set()
        fetching: dict[int, tuple[int, list]] = {}  # victim -> (thief, stolen chunks)
        expansions: dict = {}
        done = 0
        while done < total:
            for handle in handles:
                index = handle.index
                if index in expanding:
                    continue
                entries = None
                if ready[index]:
                    entries = ready[index].popleft()
                elif own[index]:
                    chunk = own[index].popleft()
                    entries = [(ref, ref[1], None) for ref in chunk]
                else:
                    self._try_steal(handles, index, own, fetching)
                if entries is not None:
                    handle.channel.send("expand", {"entries": entries})
                    expanding.add(index)
            for handle in handles:
                # Busy nodes get a blocking poll slice; idle ones a
                # non-blocking drain, so their pongs keep them healthy.
                busy = handle.index in expanding or handle.index in fetching
                while True:
                    frame = self._poll(handle, timeout=_POLL_SECONDS if busy else 0.0)
                    if frame is None:
                        break
                    kind, data = frame
                    if kind == "pong":
                        continue
                    if kind == "error":
                        raise DistributedError(f"node {handle.index}: {data['message']}")
                    if kind == "expanded" and handle.index in expanding:
                        for ref, edges in data["results"]:
                            expansions[ref] = edges
                        expanding.discard(handle.index)
                        done += 1
                        break
                    if kind == "states" and handle.index in fetching:
                        thief, chunks = fetching.pop(handle.index)
                        states = iter(data["states"])
                        for chunk in chunks:
                            ready[thief].append([(ref, None, next(states)) for ref in chunk])
                        continue  # an expansion reply may still be queued behind
                    raise DistributedError(
                        f"node {handle.index}: unexpected {kind!r} during expansion"
                    )
                self._check_health(handle)
        return expansions

    def _try_steal(
        self,
        handles: list[NodeHandle],
        thief: int,
        own: dict[int, deque],
        fetching: dict[int, tuple[int, list]],
    ) -> None:
        """Rob the fullest node of the tail half of its unexpanded chunks."""
        if any(fetched_for == thief for fetched_for, _ in fetching.values()):
            return  # one outstanding steal per thief
        victim = None
        for index, queue in own.items():
            if index == thief or index in fetching or not queue:
                continue
            if victim is None or len(queue) > len(own[victim]):
                victim = index
        if victim is None or len(own[victim]) < 2:
            return  # nothing worth stealing: the victim keeps its last chunk
        count = len(own[victim]) // 2
        stolen = [own[victim].pop() for _ in range(count)]
        stolen.reverse()  # keep the tail segment in level order
        ids = [ref[1] for chunk in stolen for ref in chunk]
        handles[victim].channel.send("fetch", {"ids": ids})
        fetching[victim] = (thief, stolen)
        if self._record is not None:
            self._record.counter("dist_steals_total").inc()

    def _replay_level(
        self,
        coordinator: Coordinator,
        level: list[tuple[int, int]],
        expansions: dict,
        *,
        depth: int,
        run: dict,
        predicate,
        on_state,
        keep_edges: bool,
    ) -> dict:
        """Replay one level in global discovery order and commit it.

        Assigns every generated edge its single-shard BFS position,
        evaluates the search predicate, locates the exact limit cut
        (probing owners for would-be-new states only when
        ``max_configurations`` is in reach), then sends each node its
        committed share.  Returns the next level's ordered frontier and
        whether the exploration stops here (hit or truncation).
        """
        limits = self._limits
        edges_total = run["edges_total"]
        potential = sum(len(expansions.get(ref, ())) for ref in level)
        edge_cut = (
            limits.max_steps - edges_total - 1
            if edges_total + potential >= limits.max_steps
            else None
        )
        # Materialise the ordered walk up to the earliest already-known
        # stop; positions past a predicate hit or the edge cut are never
        # counted, retained or interned by single-shard BFS.
        walk: list[tuple[int, Any, int]] = []  # (source_node, edge, owner_node)
        hit_pos = None
        position = 0
        for ref in level:
            for edge in expansions.get(ref, ()):
                walk.append((ref[0], edge, shard_of(edge.target, self._nodes)))
                if predicate is not None and hit_pos is None and predicate(edge.target):
                    hit_pos = position
                if position == edge_cut or hit_pos is not None:
                    break
                position += 1
            else:
                continue
            break

        need_probe = run["states_total"] + len(walk) >= limits.max_configurations
        news_positions: set[int] = set()
        if need_probe:
            per_owner: dict[int, list] = {handle.index: [] for handle in coordinator.handles}
            for pos, (_, edge, owner) in enumerate(walk):
                if pos != hit_pos:
                    per_owner[owner].append((pos, edge.target))
            replies = self._broadcast(
                coordinator, "probe", lambda index: {"targets": per_owner[index]}, expect="probed"
            )
            for data in replies.values():
                news_positions.update(data["news"])

        outcome = None  # ("hit", pos) | ("trunc", pos) | None
        running = run["states_total"]
        for pos in range(len(walk)):
            if pos == hit_pos:
                outcome = ("hit", pos)
                break
            if pos in news_positions:
                running += 1
            if running >= limits.max_configurations or edges_total + pos + 1 >= limits.max_steps:
                outcome = ("trunc", pos)
                break

        if outcome is None:
            count_cut = len(walk) - 1
            intern_limit, skip, trunc_owner = count_cut, None, None
        elif outcome[0] == "hit":
            count_cut = outcome[1]
            intern_limit, skip, trunc_owner = outcome[1], outcome[1], None
        else:
            count_cut = outcome[1]
            intern_limit, skip = outcome[1], None
            trunc_owner = walk[outcome[1]][0]

        replies = self._broadcast(
            coordinator,
            "commit",
            lambda index: self._commit_payload(
                index, walk, depth + 1, count_cut, intern_limit, skip, trunc_owner, keep_edges
            ),
            expect="committed",
        )
        news: list[tuple[int, tuple[int, int]]] = []
        for index, data in replies.items():
            news.extend((pos, (index, local_id)) for pos, local_id in data["news"])
        news.sort()
        run["edges_total"] += count_cut + 1 if walk else 0
        run["states_total"] += len(news)
        if on_state is not None:
            for pos, _ in news:
                on_state(walk[pos][1].target, depth + 1)
        if outcome is not None and outcome[0] == "hit":
            edge = walk[outcome[1]][1]
            run["hit"] = (edge.source, edge)
            return {"stop": True, "next_level": []}
        if outcome is not None:
            run["truncated"] = True
            return {"stop": True, "next_level": []}
        return {"stop": False, "next_level": [ref for _, ref in news]}

    @staticmethod
    def _commit_payload(
        index: int,
        walk: list,
        depth: int,
        count_cut: int,
        intern_limit: int,
        skip: int | None,
        trunc_owner: int | None,
        keep_edges: bool,
    ) -> dict:
        candidates = [
            (pos, edge)
            for pos, (_, edge, owner) in enumerate(walk[: intern_limit + 1])
            if owner == index and pos != skip
        ]
        source_edges = [
            edge for _, (source, edge, _) in zip(range(count_cut + 1), walk) if source == index
        ]
        return {
            "depth": depth,
            "candidates": candidates,
            "edge_count": len(source_edges),
            "edges": source_edges if keep_edges else None,
            "truncated": index == trunc_owner,
        }

    # -- node plumbing -----------------------------------------------------------

    def _broadcast(
        self,
        coordinator: Coordinator,
        kind: str,
        payload: Callable[[int], dict],
        *,
        expect: str,
    ) -> dict[int, Any]:
        """Send one frame per node and await each node's reply."""
        for handle in coordinator.handles:
            handle.channel.send(kind, payload(handle.index))
        return self._gather(coordinator, expect)

    def _gather(
        self, coordinator: Coordinator, expect: str, indices: list[int] | None = None
    ) -> dict[int, Any]:
        """One ``expect`` frame from every (selected) node, health-checked."""
        handles = coordinator.handles if indices is None else [
            coordinator.handles[index] for index in indices
        ]
        pending = {handle.index: handle for handle in handles}
        replies: dict[int, Any] = {}
        while pending:
            for index, handle in list(pending.items()):
                frame = self._poll(handle)
                if frame is None:
                    self._check_health(handle)
                    continue
                kind, data = frame
                if kind == "pong":
                    continue
                if kind == "error":
                    raise DistributedError(f"node {index}: {data['message']}")
                if kind != expect:
                    raise DistributedError(
                        f"node {index}: expected {expect!r}, got {kind!r}"
                    )
                replies[index] = data
                del pending[index]
        return replies

    def _poll(self, handle: NodeHandle, timeout: float = _POLL_SECONDS) -> tuple[str, Any] | None:
        """One frame from ``handle`` within a poll slice, annotated on crash."""
        try:
            frame = handle.channel.try_recv(timeout)
        except NodeCrashError as error:
            raise NodeCrashError(f"node {handle.index} (pid {handle.pid}): {error}") from error
        if frame is not None:
            handle.last_seen = time.monotonic()
            if frame[0] == "pong" and handle.last_ping:
                if self._record is not None:
                    self._record.histogram("dist_heartbeat_seconds").observe(
                        handle.last_seen - handle.last_ping
                    )
                handle.last_ping = 0.0
        return frame

    def _check_health(self, handle: NodeHandle) -> None:
        """Ping a quiet node; declare it dead past the heartbeat window."""
        now = time.monotonic()
        quiet = now - handle.last_seen
        if quiet > self._heartbeat_timeout:
            raise NodeCrashError(
                f"node {handle.index} (pid {handle.pid}) missed heartbeats for "
                f"{quiet:.1f}s"
            )
        if handle.process is not None and not handle.process.is_alive():
            raise NodeCrashError(f"node {handle.index} (pid {handle.pid}) process died")
        if quiet > PING_INTERVAL_SECONDS and now - handle.last_ping > PING_INTERVAL_SECONDS:
            handle.last_ping = now
            handle.channel.send("ping", {})


def _traffic(channel: Channel) -> tuple[int, int, int, int]:
    """The channel's cumulative (frames out, bytes out, frames in, bytes in)."""
    return (
        channel.frames_sent,
        channel.bytes_sent,
        channel.frames_received,
        channel.bytes_received,
    )


def _flush_traffic(
    record, node: int, before: tuple[int, int, int, int], after: tuple[int, int, int, int]
) -> None:
    """Record one run's frame/byte deltas for one node channel."""
    record.counter("dist_frames_total", direction="sent", node=str(node)).inc(after[0] - before[0])
    record.counter("dist_bytes_total", direction="sent", node=str(node)).inc(after[1] - before[1])
    record.counter("dist_frames_total", direction="received", node=str(node)).inc(
        after[2] - before[2]
    )
    record.counter("dist_bytes_total", direction="received", node=str(node)).inc(
        after[3] - before[3]
    )


def _close_launcher(launcher) -> None:
    """GC backstop for engines dropped without :meth:`DistributedEngine.close`."""
    try:
        launcher.close()
    except Exception:  # noqa: BLE001 - finalizers must never raise
        pass
