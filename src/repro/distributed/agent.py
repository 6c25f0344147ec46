"""The node side of the two-level distributed exploration.

A :class:`NodeAgent` owns one node's share of the exploration state —
its **own** :class:`~repro.search.interning.InternTable`, the partial
:class:`~repro.search.engine.SearchResult` of the hash-partition it
owns, and the sharded engine's in-process expansion machinery
(:class:`~repro.search.sharded.ShardFrontiers` with tail-half stealing
across ``local_shards`` queues, drained by
:class:`~repro.search.sharded.SerialExpansionBackend`).  The coordinator
never holds these states; that is what moves the intern-table memory
ceiling from one machine to the cluster.

The agent serves the coordinator's frames in arrival order on its main
thread.  A small **receiver thread** answers latency-sensitive frames —
``ping`` (heartbeat) and ``fetch`` (work-stealing state reads) —
immediately, even while the main thread is deep in an expansion, so a
straggling node can be health-checked and robbed of its tail without
waiting for its current batch.

Run an agent from the command line with::

    PYTHONPATH=src python -m repro.harness --agent --coordinator HOST:PORT

which blocks until the coordinator shuts the lease down or the
connection drops.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.distributed.transport import PROTOCOL_VERSION, Channel
from repro.errors import DistributedError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.search.engine import SearchResult
from repro.search.interning import InternTable
from repro.search.sharded import SerialExpansionBackend, ShardFrontiers, shard_of

__all__ = ["NodeAgent", "run_agent"]

# How long a freshly connected agent waits for its lease before giving
# up: generous, because an operator may start agents well before the
# coordinating experiment.
LEASE_TIMEOUT_SECONDS = 600.0


class NodeAgent:
    """One node process of a distributed exploration (see module docs).

    Args:
        channel: the framed connection to the coordinator.
        successors: the successor function, when the agent was forked by
            the localhost launcher (inherited closure).  Agents started
            independently pass ``None`` and receive a picklable
            :class:`~repro.distributed.context.ExplorationContext` in
            the lease instead.
    """

    def __init__(
        self, channel: Channel, successors: Callable[[Any], Iterable] | None = None
    ) -> None:
        self._channel = channel
        self._successors = successors
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._index = 0
        self._local_shards = 1
        self._batch_size = 16
        self._backend: SerialExpansionBackend | None = None
        self._table: InternTable | None = None
        self._partial: SearchResult | None = None
        self._keep_parents = True
        # A node-local registry (when the lease asks for one) accumulates
        # expansion counters; its snapshot rides back on collect/summarize
        # replies and the coordinator folds it in with a node label.
        self._metrics = NULL_REGISTRY

    # -- serving ----------------------------------------------------------------

    def serve(self) -> None:
        """Handshake, then serve coordinator frames until shutdown/EOF."""
        self._channel.send("hello", {"protocol": PROTOCOL_VERSION, "pid": os.getpid()})
        kind, data = self._channel.recv(timeout=LEASE_TIMEOUT_SECONDS)
        if kind != "lease":
            raise DistributedError(f"expected a lease, got {kind!r}")
        self._apply_lease(data)
        self._channel.send("ready", {"node": self._index})
        receiver = threading.Thread(target=self._receive_loop, daemon=True)
        receiver.start()
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    break
                kind, data = item
                if kind == "shutdown":
                    self._channel.send("bye", {})
                    break
                handler = self._HANDLERS.get(kind)
                if handler is None:
                    self._channel.send("error", {"message": f"unknown frame kind {kind!r}"})
                    continue
                try:
                    handler(self, data)
                except Exception as error:  # noqa: BLE001 - report, let the coordinator decide
                    self._channel.send(
                        "error", {"message": f"{type(error).__name__}: {error}"}
                    )
        finally:
            self._channel.close()

    def _receive_loop(self) -> None:
        """Read frames; answer ping/fetch inline, queue the rest in order.

        The receiver must never die silently: whatever kills it — the
        coordinator vanishing, or an unpicklable inbound frame (version
        skew) — the ``None`` sentinel unblocks the main loop so the
        agent process exits instead of hanging in ``queue.get()``.
        """
        try:
            while True:
                kind, data = self._channel.recv(timeout=None)
                if kind == "ping":
                    self._channel.send("pong", {})
                elif kind == "fetch":
                    # Stolen states are read by id from levels committed
                    # earlier, so the concurrent main thread never
                    # mutates the entries being read.
                    try:
                        table = self._table
                        states = [table.state_of(i) for i in data["ids"]]
                    except Exception as error:  # noqa: BLE001 - report, stay alive
                        self._channel.send(
                            "error", {"message": f"fetch failed: {type(error).__name__}: {error}"}
                        )
                    else:
                        self._channel.send("states", {"states": states})
                else:
                    self._queue.put((kind, data))
                    if kind == "shutdown":
                        return
        except (DistributedError, OSError):
            pass  # coordinator is gone: a normal teardown
        except BaseException as error:  # noqa: BLE001 - e.g. unpickling version skew
            try:
                self._channel.send(
                    "error", {"message": f"receive failed: {type(error).__name__}: {error}"}
                )
            except (DistributedError, OSError):
                pass
        finally:
            self._queue.put(None)  # unblock the main loop unconditionally

    # -- lease and per-exploration state ----------------------------------------

    def _apply_lease(self, lease: dict) -> None:
        """Bind the node index, expansion config and successor function."""
        self._index = lease["node"]
        self._local_shards = max(1, lease.get("local_shards", 1))
        self._batch_size = max(1, lease.get("batch_size", 16))
        self._metrics = MetricsRegistry() if lease.get("metrics") else NULL_REGISTRY
        context = lease.get("context")
        if context is not None:
            self._successors = context.successors()
        if self._successors is None:
            raise DistributedError(
                "the lease carried no exploration context and the agent was not "
                "forked with a successor function"
            )
        self._backend = SerialExpansionBackend(self._successors)

    def _handle_lease(self, data: dict) -> None:
        """Re-lease mid-session: rebind config/context and the backend.

        A long-lived coordinator serves successive engines (different
        systems, bounds or local configurations); each re-lease rebinds
        the node-local expansion backend so the next exploration runs
        with exactly the leased semantics.
        """
        self._apply_lease(data)
        self._channel.send("ready", {"node": self._index})

    def _handle_reset(self, data: dict) -> None:
        """Start a fresh exploration: new node table, new empty partial."""
        self._table = InternTable()
        self._keep_parents = data["keep_parents"]
        if self._metrics.enabled:
            self._metrics = MetricsRegistry()  # counters are per-exploration
        self._partial = SearchResult(
            initial=data["initial"],
            retention=data["retention"],
            interning=self._table,
        )
        self._channel.send("ok", {})

    def _handle_init_root(self, data: dict) -> None:
        """Intern the root (this node owns it) at depth 0."""
        local_id, _, _ = self._table.intern(data["state"])
        self._partial.depths[local_id] = 0
        self._channel.send("ok", {"local_id": local_id})

    # -- the per-level protocol --------------------------------------------------

    def _handle_expand(self, data: dict) -> None:
        """Expand one chunk of frontier entries; reply the edge lists.

        Entries are ``(ref, local_id, state)``: a state this node owns
        resolves through its table (``local_id``), a stolen state from a
        straggler arrives inline (``state``).  Expansion reuses the
        sharded engine's shard queues and stealing policy.
        """
        table = self._table
        frontiers = ShardFrontiers(self._local_shards)
        for ref, local_id, state in data["entries"]:
            if local_id is not None:
                state = table.state_of(local_id)
            frontiers.push(shard_of(state, self._local_shards), (ref, state))
        if self._metrics.enabled:
            started = perf_counter()
            expansions = self._backend.expand(frontiers, self._batch_size)
            self._metrics.histogram("node_expand_seconds").observe(perf_counter() - started)
            self._metrics.counter("node_edges_total").inc(
                sum(len(edges) for edges in expansions.values())
            )
        else:
            expansions = self._backend.expand(frontiers, self._batch_size)
        self._channel.send("expanded", {"results": list(expansions.items())})

    def _handle_probe(self, data: dict) -> None:
        """Tentative dedup of level candidates, in global position order.

        Does not commit anything — the coordinator needs the positions
        of would-be-new states to locate a ``max_configurations`` cut
        before telling anyone to intern.  Dedup is prefix-stable, so the
        later commit (a prefix of these candidates) agrees with the
        probe on every position it keeps.
        """
        table = self._table
        seen: set = set()
        news: list[int] = []
        for position, state in data["targets"]:
            if state in table or state in seen:
                continue
            seen.add(state)
            news.append(position)
        self._channel.send("probed", {"news": news})

    def _handle_commit(self, data: dict) -> None:
        """Apply one level's committed share to the node partial.

        ``candidates`` (targets this node owns, global position order)
        are interned — new states get their depth and, when parents are
        kept, a spanning-tree link whose source resolves against this
        node's table or stays ``-1`` (cross-node, repaired by
        :meth:`SearchResult.merge`).  ``edge_count``/``edges`` are the
        share generated *from* this node's states, and ``truncated``
        marks the partial whose state generated the limit-crossing edge.
        """
        partial = self._partial
        table = self._table
        partial.edge_count += data["edge_count"]
        edges = data.get("edges")
        if edges:
            partial.edges.extend(edges)
        if data["truncated"]:
            partial.truncated = True
        depth = data["depth"]
        news: list[tuple[int, int]] = []
        for position, edge in data["candidates"]:
            local_id, _, is_new = table.intern(edge.target)
            if not is_new:
                continue
            partial.depths[local_id] = depth
            if self._keep_parents:
                source_local = table.id_of(edge.source)
                partial.parents[local_id] = (
                    source_local if source_local is not None else -1,
                    edge,
                )
            news.append((position, local_id))
        if news and self._metrics.enabled:
            self._metrics.counter("node_states_total").inc(len(news))
        self._channel.send("committed", {"news": news})

    # -- result collection -------------------------------------------------------

    def _handle_collect(self, data: dict) -> None:
        """Ship the node partial; its dense local ids travel verbatim."""
        self._channel.send(
            "partial", {"result": self._partial, "metrics": self._metrics.snapshot()}
        )

    def _handle_summarize(self, data: dict) -> None:
        """Ship the partial's counters only — no state leaves the node."""
        partial = self._partial
        self._channel.send(
            "summary",
            {
                "states": len(self._table),
                "edge_count": partial.edge_count,
                "truncated": partial.truncated,
                "metrics": self._metrics.snapshot(),
            },
        )

    _HANDLERS = {
        "lease": _handle_lease,
        "reset": _handle_reset,
        "init-root": _handle_init_root,
        "expand": _handle_expand,
        "probe": _handle_probe,
        "commit": _handle_commit,
        "collect": _handle_collect,
        "summarize": _handle_summarize,
    }


def run_agent(
    address: tuple[str, int], successors: Callable[[Any], Iterable] | None = None
) -> None:
    """Connect to a coordinator at ``address`` and serve until released.

    The entry point behind ``python -m repro.harness --agent`` and the
    localhost launcher's forked processes.
    """
    sock = socket.create_connection(address, timeout=LEASE_TIMEOUT_SECONDS)
    sock.settimeout(None)
    NodeAgent(Channel(sock), successors=successors).serve()
