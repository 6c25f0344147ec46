"""Two-level distributed exploration over TCP node agents.

This package lifts the exploration engine's single-machine memory
ceiling: instead of one global intern table on the coordinator
(:mod:`repro.search.sharded`), every **node agent** owns the intern
table and partial :class:`~repro.search.engine.SearchResult` of its
hash-partition of the state space, and the coordinator keeps only
frontier *references* and counters.  It is the library's one
multi-process exploration design: each agent expands its share
in-process.  Per-node partials are reconciled through the associative
:meth:`SearchResult.merge <repro.search.engine.SearchResult.merge>`,
which re-keys parent links across node-local id spaces.

The moving parts:

* :mod:`~repro.distributed.transport` — length-prefixed pickle frames
  with strict torn-frame semantics;
* :class:`~repro.distributed.coordinator.Coordinator` — listener,
  ``hello``/``lease`` handshake, ping/pong heartbeats;
* :class:`~repro.distributed.agent.NodeAgent` — serves expansion,
  probe/commit and collection frames; reuses the sharded engine's
  frontiers and in-process expansion node-locally;
* :class:`~repro.distributed.coordinator.DistributedEngine` — the
  level-synchronous protocol whose results are **bit-identical** to
  single-node, single-shard BFS;
* :class:`~repro.distributed.launcher.LocalCluster` — forks localhost
  agents over real TCP so CI needs no cluster.

Most callers never touch this package directly: pass ``nodes=2`` (and
optionally ``transport=``) to :class:`~repro.search.sharded.ShardedEngine`,
either explorer, any ``modelcheck.reachability`` entry point, the
convergence sweeps or the harness CLI.  See ``docs/distributed.md`` for
the wire format, the failure semantics and a deployment recipe.
"""

from repro.distributed.agent import NodeAgent, run_agent
from repro.distributed.context import (
    CallableContext,
    DMSGraphContext,
    ExplorationContext,
    RecencyContext,
)
from repro.distributed.coordinator import (
    Coordinator,
    DistributedEngine,
    DistributedSummary,
    NodeHandle,
)
from repro.distributed.launcher import LocalCluster
from repro.distributed.transport import Channel, PROTOCOL_VERSION
from repro.errors import DistributedError, NodeCrashError

__all__ = [
    "CallableContext",
    "Channel",
    "Coordinator",
    "DMSGraphContext",
    "DistributedEngine",
    "DistributedError",
    "DistributedSummary",
    "ExplorationContext",
    "LocalCluster",
    "NodeAgent",
    "NodeCrashError",
    "NodeHandle",
    "PROTOCOL_VERSION",
    "RecencyContext",
    "run_agent",
]
