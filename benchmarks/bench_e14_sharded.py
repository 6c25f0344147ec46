"""E14 — sharded work-stealing exploration vs the single-shard engine.

Runs the same exhaustive reachability search (a predicate that never
holds) through the plain single-shard engine and through the sharded
engine (:mod:`repro.search.sharded`) at 2, 4 and 8 shards, on the
booking and warehouse case studies at recency bound 2, and asserts that
every sharded run explores a fragment bit-identical to the single-shard
run (configuration count, edge count, truncation flag) and that a
reachable condition yields the identical minimal witness.

Sharded rows expand in-process, so their speedup column records the
cost of the level-synchronous replay, not a parallel gain; no timing is
gated.  Multi-process exploration is the two-level distributed engine
(``python -m repro.harness E14 --nodes 2``, and E17).  Set
``REPRO_BENCH_QUICK=1`` for the shrunken CI smoke version.
"""

import os

from repro.harness.experiments import experiment_e14_sharded
from repro.harness.reporting import print_experiment

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def test_e14_sharded(benchmark, run_once):
    rows = run_once(benchmark, experiment_e14_sharded, QUICK)
    print_experiment("E14", "Sharded work-stealing exploration vs single-shard engine", rows)

    # Every shard count explores the same fragment as the single-shard
    # engine, and witnesses are identical.
    for row in rows:
        assert row["results_match"], row
