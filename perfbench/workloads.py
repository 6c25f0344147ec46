"""The benchmark's workloads: set-up, timed window and correctness check.

Every workload returns an :class:`Outcome`.  Untraced runs fill the
end-to-end metrics.  Traced runs alternate untraced and traced
stretches of the window, fill the per-layer metrics from the traced
ones, and report their throughput over the untraced ones' as
``trace.overhead``; alternating keeps drift in the host's speed out of
that ratio.

* ``explore`` — cold library reachability on booking, two queries whose
  condition never holds, so the whole bounded state space is explored.
* ``check`` — MSO-FO model checking of a safety property on booking,
  cross-validated through the §6 encoding on every run prefix.
* ``serve-cold`` — two closed-loop clients against the in-process
  service with the result store off.
* ``session-stored`` — one library caller replaying the same request
  mix through a :class:`repro.api.Session` with an on-disk result
  store, where a share of requests are new queries.
* ``serve-stored`` — the service replay with an on-disk result store
  and a per-request timeout (not listed in ``BENCHMARK.json``: some of
  its requests fail on the current program).

Calls into the program go through module attributes (``api.run_...``)
so that the traced stretches see them.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable

import spans
import traffic

__all__ = ["Outcome", "WORKLOADS"]

#: The booking condition ``explore`` asks about and ``check`` forbids;
#: no reachable booking is both accepted and cancelled.
NEVER = "Exists x. BAccepted(x) & BCanceled(x)"

#: ``explore`` queries: (bound, depth, configurations, edges).  The counts
#: were confirmed against the frozen seed explorer (``confirm_counts.py``).
EXPLORE_QUERIES = ((2, 7, 4836, 4917), (3, 6, 2180, 2266))

#: ``check`` query and its fixed outcome: run prefixes checked, and the
#: configurations of the run tree they are enumerated from (confirmed by
#: ``confirm_counts.py``; the checker itself reports only the runs).
CHECK_BOUND, CHECK_DEPTH, CHECK_RUNS, CHECK_TREE_CONFIGURATIONS = 2, 7, 3537, 5048

#: Set-ups per run; ``setup_s`` reports the median (plus one-off imports).
SETUP_REPEATS = 3

#: Replay windows are cut into slices of this many seconds; replay
#: throughput is the median over the slices.
SLICE_S = 1.0

#: Per-request timeout of ``serve-stored`` (the documented deployment).
STORED_TIMEOUT_S = 10.0
#: Share of ``*-stored`` requests that are new queries (store writes).
STORED_FRESH_SHARE = 0.1
#: Think time of the ``session-stored`` caller after each reply.  Every
#: request commits to the store's SQLite index (about 11 disk writes and
#: 40 KB for a read, which counts its hit; 250 KB for a new query).  With
#: no think time that traffic drains a virtual machine's disk budget, and
#: back-to-back runs of one seed fell from 242 to 161 to 135 requests/s.
STORED_THINK_S = 0.012

#: Callers whose ``satisfies`` calls are guard evaluations.
GUARD_CALLERS = frozenset(
    {"recency.enumerate_b_bounded_successors", "dms.enumerate_successors"}
)
LAYERS = (
    "service", "api", "runtime", "store", "search", "recency", "dms", "fol",
    "encoding", "msofo", "modelcheck",
)
#: Per-layer metrics of the service and its store, zero where neither runs.
SERVICE_METRICS = (
    "service.requests", "service.rejected", "service.errors_500", "service.errors_504",
    "service.errors_sse", "service.failed_share", "service.sse_ready_p50_ms",
    "service.latency_p99_ms", "store.entries",
)


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict = field(default_factory=dict)


# -- measuring -----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``inf`` entries are failed requests)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path[0:0] = [sys.argv[1]]\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n"
)


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median time a fresh interpreter takes to import ``modules``.

    A process imports once, so the import part of set-up is repeated in
    child interpreters to get a median like the rest of set-up.
    """
    source = str(Path(__file__).resolve().parent.parent / "src")
    seconds = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, source, *modules],
                               capture_output=True, text=True, check=True, timeout=120)
        seconds.append(float(probe.stdout))
    return statistics.median(seconds)


def timed_setups(prepare: Callable[[], object], modules: tuple[str, ...],
                 discard: Callable[[object], None] | None = None) -> tuple[object, float]:
    """Set up :data:`SETUP_REPEATS` times; ``(last state, setup_s)``.

    ``setup_s`` is the median import time of ``modules`` plus the median
    time of ``prepare``; ``discard`` releases every state but the last.
    """
    seconds = []
    for repeat in range(SETUP_REPEATS):
        started = perf_counter()
        state = prepare()
        seconds.append(perf_counter() - started)
        if discard is not None and repeat < SETUP_REPEATS - 1:
            discard(state)
    return state, import_seconds(modules) + statistics.median(seconds)


def run_units(unit: Callable[[], object], seconds: float) -> list:
    """Call ``unit`` at least once, and again while half a unit still fits.

    Units are long (an ``explore`` round or a ``check`` call takes
    seconds), so the window ends within half a unit of ``seconds``
    instead of always overrunning by up to a whole one.
    """
    results = []
    started = perf_counter()
    while True:
        results.append(unit())
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(results) / 2 >= seconds:
            return results


def relative(path: Path) -> str:
    """``path`` relative to the checkout root, for the notes line."""
    return str(path.relative_to(Path(__file__).resolve().parent.parent))


# -- per-layer attribution ---------------------------------------------------


def sampled_registry():
    """A ``MetricsRegistry`` that keeps every pool dispatch-time sample.

    The program records ``pool_dispatch_seconds`` as count/sum/min/max;
    a median needs the samples.
    """
    from repro.obs.metrics import Histogram, MetricsRegistry

    class Sampled(Histogram):
        __slots__ = ("samples",)

        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.samples: list[float] = []

        def observe(self, value) -> None:
            super().observe(value)
            self.samples.append(value)

    class Registry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.dispatch = Sampled("pool_dispatch_seconds")

        def histogram(self, name: str, **labels):
            if name == "pool_dispatch_seconds" and not labels:
                return self.dispatch
            return super().histogram(name, **labels)

    return Registry()


def layer_metrics(tracer: spans.Tracer, wall: float, callers: int,
                  units: int) -> dict[str, float]:
    """Per-layer self time and call counts from the traced stretches.

    Seconds and counts are per traced unit of work (an ``explore`` round,
    a ``check`` call, a service request), so runs that trace different
    numbers of units compare; ratios are over all traced work.
    """
    by_key: dict[str, list] = {}
    guard = [0, 0.0, 0]
    own_by_layer = dict.fromkeys(LAYERS, 0.0)
    for _, caller, key, calls, total, own, true in tracer.entries():
        row = by_key.setdefault(key, [0, 0.0, 0.0, 0])
        row[0] += calls
        row[1] += total
        row[2] += own
        row[3] += true
        own_by_layer[key.split(".", 1)[0]] += own
        if key == "fol.satisfies" and caller in GUARD_CALLERS:
            guard[0] += calls
            guard[1] += total
            guard[2] += true

    def column(index: int, *keys: str):
        return sum(by_key.get(key, (0, 0.0, 0.0, 0))[index] for key in keys)

    successors = "recency.enumerate_b_bounded_successors"
    runs = "recency.iterate_b_bounded_runs"
    metrics = {f"{layer}.self_s": seconds for layer, seconds in own_by_layer.items()}
    metrics.update({
        "fol.guard_evals": guard[0],
        "fol.guard_s": guard[1],
        # Generators count their produced items in the result column.
        "recency.successor_calls": column(0, successors),
        "recency.successors": column(3, successors),
        "recency.successors_self_s": column(2, successors),
        "dms.apply_s": column(1, "dms.apply_action"),
        "search.explore_s": column(1, "search.Engine.explore", "search.Engine.search"),
        "recency.runs": column(3, runs),
        "recency.run_enum_self_s": column(2, runs),
        "encoding.alphabet_builds": column(0, "encoding.encoding_alphabet"),
        "encoding.encode_s": column(1, "encoding.encode_run"),
        "encoding.analyze_s": column(
            1, "encoding.EncodingAnalyzer.__init__", "encoding.evaluate_specification_via_encoding"
        ),
        "msofo.holds_calls": column(0, "msofo.holds_on_run"),
        "msofo.holds_s": column(1, "msofo.holds_on_run"),
        "api.inline_s": column(1, "api.Session.run_reachability"),
        "api.isolated_s": column(1, "api.Session.run_reachability_isolated"),
        "api.sweep_s": column(1, "api.Session.reachability_bound_sweep"),
        "store.load_s": column(1, "store.ResultStore.load"),
        "store.save_s": column(1, "store.ResultStore.save"),
    })
    metrics = {name: value / units for name, value in metrics.items()}
    metrics["fol.guard_true_ratio"] = guard[2] / guard[0] if guard[0] else 0.0
    metrics["trace.coverage"] = sum(own_by_layer.values()) / (callers * wall)
    return metrics


def _registry_values(registry) -> dict:
    """Counters the program records, read from the registry passed in."""
    return {
        "interned": registry.counter_value("engine_states_total", kind="interned"),
        "duplicate": registry.counter_value("engine_states_total", kind="duplicate"),
        "respawns": registry.counter_value("pool_respawns_total"),
        "task_errors": registry.counter_value("pool_tasks_total", outcome="error")
        + registry.counter_value("pool_tasks_total", outcome="timeout"),
        "store_hits": registry.counter_value("store_lookups_total", kind="result",
                                             outcome="hit"),
        "store_misses": registry.counter_value("store_lookups_total", kind="result",
                                               outcome="miss"),
        "dispatch": len(registry.dispatch.samples),
    }


class Traced:
    """Traced stretches of a run: wrappers installed, a registry made global.

    May be entered several times.  Wall time and registry counts add up
    over the stretches only, not over untraced work between them.
    """

    def __init__(self, registry) -> None:
        self.tracer = spans.Tracer()
        self.registry = registry
        self.wall = 0.0
        self._counts = dict.fromkeys(_registry_values(registry), 0)
        self._samples: list[float] = []
        self._before: dict = {}
        self._started = 0.0
        self._previous = None

    def __enter__(self) -> "Traced":
        from repro.obs.metrics import set_global_registry

        self._before = _registry_values(self.registry)
        self._previous = set_global_registry(self.registry)
        self.tracer.install()
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.obs.metrics import set_global_registry

        self.wall += perf_counter() - self._started
        self.tracer.uninstall()
        set_global_registry(self._previous)
        after = _registry_values(self.registry)
        for name in self._counts:
            self._counts[name] += after[name] - self._before[name]
        self._samples += self.registry.dispatch.samples[self._before["dispatch"]:]

    def metrics(self, callers: int, units: int, idle_s: float = 0.0) -> dict[str, float]:
        """Per-layer metrics; ``idle_s`` is the callers' think time in the
        traced stretches, which no layer can account for."""
        counts, samples = self._counts, self._samples
        generated = counts["interned"] + counts["duplicate"]
        lookups = counts["store_hits"] + counts["store_misses"]
        metrics = layer_metrics(self.tracer, self.wall - idle_s / callers, callers, units)
        metrics.update({
            "search.duplicate_ratio": counts["duplicate"] / generated if generated else 0.0,
            "runtime.dispatch_p50_ms": 1000.0 * statistics.median(samples) if samples else 0.0,
            "runtime.respawns": counts["respawns"],
            "runtime.task_errors": counts["task_errors"],
            "store.hit_ratio": counts["store_hits"] / lookups if lookups else 0.0,
        })
        return metrics


# -- library workloads -------------------------------------------------------


def _library_run(
    *, seconds: float, trace: bool, artifacts: Path, modules: tuple[str, ...],
    prepare: Callable[[], object], make_unit: Callable[[object], Callable[[], list]],
) -> Outcome:
    """Shared shape of ``explore`` and ``check``.

    A unit returns one ``(seconds, states, ok)`` sample per query it ran:
    the configurations an ``explore`` query reports, the run prefixes a
    ``check`` call reports.  Throughput is states (or queries) over query
    seconds, per unit; the run reports the median over its units.
    """
    state, setup_s = timed_setups(prepare, modules)
    unit = make_unit(state)
    if not trace:
        units = run_units(unit, seconds)
        samples = [sample for unit_samples in units for sample in unit_samples]
        latencies = [sample[0] for sample in samples]
        busy = [sum(sample[0] for sample in unit_samples) for unit_samples in units]
        metrics = {
            "setup_s": setup_s,
            "states_per_s": statistics.median(
                sum(sample[1] for sample in unit_samples) / seconds_
                for unit_samples, seconds_ in zip(units, busy)
            ),
            "requests_per_s": statistics.median(
                len(unit_samples) / seconds_ for unit_samples, seconds_ in zip(units, busy)
            ),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {"latencies_ms": [round(1000.0 * latency, 1) for latency in latencies]}
    else:
        traced = Traced(sampled_registry())
        untraced, traced_samples = [], []

        def pair() -> None:
            untraced.extend(unit())
            with traced:
                traced_samples.extend(unit())

        traced_units = len(run_units(pair, seconds))
        samples = untraced + traced_samples

        def rate(part: list) -> float:
            return sum(sample[1] for sample in part) / sum(sample[0] for sample in part)

        metrics = traced.metrics(callers=1, units=traced_units)
        metrics.update(dict.fromkeys(SERVICE_METRICS, 0))
        metrics["trace.overhead"] = rate(traced_samples) / rate(untraced)
        notes = {"spans": relative(traced.tracer.write(artifacts / "spans.jsonl"))}
    failed = sum(1 for sample in samples if not sample[2])
    return Outcome(failed == 0, len(samples), failed, metrics, notes)


def explore(seed: int, seconds: float, trace: bool, artifacts: Path) -> Outcome:
    """Rounds of both queries; the seed shuffles their order in each round."""
    import repro.api as api
    from repro.api import ExplorationOptions
    from repro.casestudies.booking import booking_agency_system
    from repro.fol.parser import parse_query
    from repro.modelcheck.result import Verdict

    modules = ("repro.api", "repro.casestudies.booking", "repro.fol.parser",
               "repro.modelcheck.result")

    def prepare():
        system = booking_agency_system()
        condition = parse_query(NEVER)
        api.run_reachability(system, condition, bound=2,
                             options=ExplorationOptions(max_depth=3), store=False)
        return system, condition

    def make_unit(state):
        system, condition = state
        rng = random.Random(f"perfbench:explore:{seed}")

        def round_() -> list:
            order = list(EXPLORE_QUERIES)
            rng.shuffle(order)
            samples = []
            for bound, depth, configurations, edges in order:
                began = perf_counter()
                result = api.run_reachability(system, condition, bound=bound,
                                              options=ExplorationOptions(max_depth=depth),
                                              store=False)
                elapsed = perf_counter() - began
                ok = (result.reachable is Verdict.UNKNOWN
                      and result.configurations_explored == configurations
                      and result.edges_explored == edges)
                samples.append((elapsed, result.configurations_explored, ok))
            return samples

        return round_

    return _library_run(seconds=seconds, trace=trace, artifacts=artifacts,
                        modules=modules, prepare=prepare, make_unit=make_unit)


def check(seed: int, seconds: float, trace: bool, artifacts: Path) -> Outcome:
    """One fixed model-checking query; the seed has nothing to vary."""
    import repro.modelcheck as modelcheck
    from repro.casestudies.booking import booking_agency_system
    from repro.errors import ModelCheckingError
    from repro.fol.parser import parse_query
    from repro.modelcheck.result import Verdict
    from repro.msofo.patterns import safety_formula

    modules = ("repro.modelcheck", "repro.casestudies.booking", "repro.errors",
               "repro.fol.parser", "repro.modelcheck.result", "repro.msofo.patterns")

    def prepare():
        system = booking_agency_system()
        formula = safety_formula(parse_query(NEVER))
        modelcheck.check_recency_bounded(system, formula, bound=CHECK_BOUND, depth=3,
                                         cross_validate_encoding=True)
        return system, formula

    def make_unit(state):
        system, formula = state

        def call() -> list:
            began = perf_counter()
            try:
                result = modelcheck.check_recency_bounded(
                    system, formula, bound=CHECK_BOUND, depth=CHECK_DEPTH,
                    cross_validate_encoding=True,
                )
            except ModelCheckingError:  # the encoding cross-validation disagreed
                return [(perf_counter() - began, 0, False)]
            ok = result.verdict is Verdict.UNKNOWN and result.runs_checked == CHECK_RUNS
            return [(perf_counter() - began, result.runs_checked, ok)]

        return call

    return _library_run(seconds=seconds, trace=trace, artifacts=artifacts,
                        modules=modules, prepare=prepare, make_unit=make_unit)


# -- service workloads -------------------------------------------------------


def _classify(exchange) -> tuple[str | None, dict | None]:
    """``(failure cause or None, verdict payload of a success)``."""
    if isinstance(exchange, tuple):
        return exchange[2], None
    if exchange.status != 200:
        try:
            kind = json.loads(exchange.body).get("kind", "unknown")
        except (ValueError, AttributeError):
            kind = "unreadable"
        return f"http-{exchange.status}:{kind}", None
    if not exchange.payload.get("stream"):
        return None, json.loads(exchange.body)
    events = traffic.parse_events(exchange.body)
    if not events or events[-1][0] != "final":
        kind = (events[-1][1] or {}).get("kind", "unknown") if events else "empty"
        return f"sse-error:{kind}", None
    return None, events[-1][1]


def _reply_configurations(path: str, reply: dict) -> int:
    if path == "/v1/convergence":
        return sum(row["configurations"] for row in reply["rows"])
    return reply["configurations"]


def _query_key(path: str, payload: dict) -> str:
    body = {key: value for key, value in payload.items() if key != "stream"}
    return json.dumps([path, body], sort_keys=True)


class _Library:
    """Replayed requests answered by library calls on a ``Session``.

    With a ``Session(store=False)`` it is the direct oracle the replies of
    every replay are checked against; with a stored session it is the
    caller of ``session-stored``.  :meth:`request` and :meth:`drive`
    have the shape of :class:`traffic.InProcessServer`'s.
    """

    def __init__(self, factories: dict, session, think_s: float = 0.0) -> None:
        self._factories = factories
        self._systems: dict = {}
        self.session = session
        self._think_s = think_s
        #: Seconds spent in think time so far.
        self.thought_s = 0.0

    def answer(self, path: str, payload: dict) -> dict:
        from repro.api import ExplorationOptions
        from repro.fol.parser import parse_query

        name = payload["case_study"]
        system = self._systems.get(name)
        if system is None:
            system = self._systems[name] = self._factories[name]()
        condition = (parse_query(payload["condition"]) if "condition" in payload
                     else payload["proposition"])
        changes = {knob: int(payload[knob]) for knob in ("max_depth", "max_configurations")
                   if knob in payload}
        options = ExplorationOptions().replace(**changes)
        if path == "/v1/reachability":
            result = self.session.run_reachability(system, condition,
                                                   bound=payload.get("bound"), options=options)
            return {
                "verdict": result.reachable.value,
                "configurations": result.configurations_explored,
                "edges": result.edges_explored,
                "depth": result.depth,
                "bound": result.bound,
                "witness_length": len(result.witness) if result.witness is not None else None,
            }
        reference = self.session.run_reachability(system, condition, options=options)
        rows = self.session.reachability_bound_sweep(system, condition,
                                                     tuple(payload["bounds"]), options=options)
        return {
            "reference_verdict": reference.reachable.value,
            "converged_bound": next(
                (row.bound for row in rows if row.verdict == reference.reachable), None
            ),
            "rows": [
                {"bound": row.bound, "verdict": row.verdict.value,
                 "configurations": row.configurations, "edges": row.edges}
                for row in rows
            ],
        }

    def request(self, path: str, payload: dict):
        """Answer one request: an exchange, or ``(path, payload, cause)``."""
        body = {key: value for key, value in payload.items() if key != "stream"}
        started = perf_counter()
        try:
            reply = self.answer(path, body)
        except Exception as error:  # counted as a failure by cause
            return path, body, f"library:{type(error).__name__}"
        return traffic.Exchange(path, body, 200, json.dumps(reply).encode("utf-8"),
                                started, perf_counter())

    def drive(self, streams: list, seconds: float, record, around=None) -> tuple[float, float]:
        """One closed-loop caller with the think time given at
        construction, on the calling thread: the session's SQLite
        connection belongs to the thread that opened it."""
        (stream,) = streams
        started = perf_counter()
        for path, payload in stream:
            if perf_counter() >= started + seconds:
                break
            if around is None:
                record(self.request(path, payload))
            else:
                with around():
                    record(self.request(path, payload))
            if self._think_s:
                began = perf_counter()
                sleep(self._think_s)
                self.thought_s += perf_counter() - began
        return started, perf_counter()


class _Window:
    """The exchanges of one or more closed-loop windows, classified as
    they complete."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.latencies: list[float] = []
        self.ready: list[float] = []
        #: ``(reply end, configurations)`` of every successful exchange.
        self.done: list[tuple[float, int]] = []
        #: ``(start, end)`` of every closed loop.
        self.loops: list[tuple[float, float]] = []
        self.replies: dict[str, set] = {}

    def run(self, target, streams: list, seconds: float, around=None) -> "_Window":
        """Drive ``target`` with ``streams`` for ``seconds`` and record it all."""
        self.loops.append(target.drive(streams, seconds, self.add, around))
        return self

    def add(self, exchange) -> None:
        cause, reply = _classify(exchange)
        self.attempted += 1
        if cause is not None:
            self.failures[cause] = self.failures.get(cause, 0) + 1
            self.latencies.append(math.inf)
            return
        self.latencies.append(exchange.latency)
        if exchange.ready_at is not None:
            self.ready.append(exchange.ready_at - exchange.started)
        self.done.append((exchange.ended, _reply_configurations(exchange.path, reply)))
        key = _query_key(exchange.path, exchange.payload)
        self.replies.setdefault(key, set()).add(json.dumps(reply, sort_keys=True))

    @classmethod
    def combine(cls, windows: list["_Window"]) -> "_Window":
        whole = cls()
        for window in windows:
            whole.attempted += window.attempted
            for cause, count in window.failures.items():
                whole.failures[cause] = whole.failures.get(cause, 0) + count
            whole.latencies += window.latencies
            whole.ready += window.ready
            whole.done += window.done
            whole.loops += window.loops
            for key, seen in window.replies.items():
                whole.replies.setdefault(key, set()).update(seen)
        return whole

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def count(self, prefix: str) -> int:
        """Failures whose cause starts with ``prefix``."""
        return sum(n for cause, n in self.failures.items() if cause.startswith(prefix))

    def slice_rates(self) -> tuple[list[float], list[float]]:
        """Requests/s and configurations/s of successful exchanges, per
        slice of about :data:`SLICE_S` seconds of each loop."""
        requests, states = [], []
        for start, end in self.loops:
            count = max(1, round((end - start) / SLICE_S))
            width = (end - start) / count
            slices = [[0, 0] for _ in range(count)]
            for ended, configurations in self.done:
                if start <= ended <= end:
                    into = slices[min(count - 1, int((ended - start) / width))]
                    into[0] += 1
                    into[1] += configurations
            requests += [done / width for done, _ in slices]
            states += [configurations / width for _, configurations in slices]
        return requests, states

    def rates(self) -> tuple[float, float]:
        """``(requests/s, configurations/s)``: the medians over all slices,
        so a slowdown of the host that lasts a few seconds moves them
        little."""
        requests, states = self.slice_rates()
        return statistics.median(requests), statistics.median(states)


def _vocabulary() -> tuple[dict, tuple]:
    """The served systems by name and the replayed query templates.

    The program's load-generator vocabulary: the ten §6 templates plus
    the smoke tier of the committed corpus.
    """
    from repro.loadgen.vocabulary import vocabulary_case_studies, vocabulary_templates

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    factories = dict(vocabulary_case_studies(corpus, "smoke", include_corpus=True))
    templates = vocabulary_templates(corpus, "smoke", include_corpus=True)
    return factories, templates


def _replay(
    seed: int, seconds: float, trace: bool, artifacts: Path, *, modules: tuple[str, ...],
    prepare: Callable, discard: Callable[[object], None], callers: int, stored: bool,
    served: bool, registry,
) -> Outcome:
    """Shared shape of the replay workloads (``serve-*``, ``session-stored``).

    ``prepare(store_root, factories, templates)`` builds a target with
    ``request`` and ``drive`` methods (as :class:`traffic.InProcessServer`)
    and warms it; ``store_root`` is a fresh directory, or ``None`` without
    a store.  ``callers`` closed-loop clients drive it.  After the window every distinct successful reply is compared
    with a direct library call; the run is correct only if no request
    failed, at least one reply was checked and none differed.
    """
    factories, templates = _vocabulary()
    store_roots: list[Path] = []
    targets: list = []

    def setup():
        store_root = None
        if stored:
            store_root = artifacts / f"store-{len(store_roots)}"
            shutil.rmtree(store_root, ignore_errors=True)
            store_roots.append(store_root)
        target = prepare(store_root, factories, templates)
        targets.append(target)
        return target

    def streams(offset: int, tag: int) -> list:
        share = STORED_FRESH_SHARE if stored else 0.0
        return [traffic.request_stream(seed, offset + client, templates, share, tag)
                for client in range(callers)]

    notes: dict = {}
    try:
        target, setup_s = timed_setups(setup, modules, discard)
        if not trace:
            whole = _Window().run(target, streams(0, 0), seconds)
            requests_per_s, states_per_s = whole.rates()
            metrics = {
                "setup_s": setup_s,
                "states_per_s": states_per_s,
                "requests_per_s": requests_per_s,
                "latency_p50_ms": 1000.0 * quantile(whole.latencies, 0.5),
                "peak_rss_mb": peak_rss_mb(),
            }
            notes["latency_p99_ms"] = 1000.0 * quantile(whole.latencies, 0.99)
            notes["slice_requests_per_s"] = [round(rate, 1) for rate in whole.slice_rates()[0]]
        else:
            # Each traced quarter replays the requests of the untraced
            # quarter before it (the mix moves throughput more than
            # tracing); its new queries are new again (another tag).
            traced = Traced(registry)
            root = "service.request" if served else "api.request"
            untraced, traced_windows, idle_s = [], [], 0.0
            for pair in range(2):
                untraced.append(_Window().run(target, streams(2 * pair, 2 * pair), seconds / 4))
                thought = 0.0 if served else target.thought_s
                with traced:
                    traced_windows.append(_Window().run(
                        target, streams(2 * pair, 2 * pair + 1), seconds / 4,
                        around=lambda: traced.tracer.root(root),
                    ))
                idle_s += 0.0 if served else target.thought_s - thought
            window, baseline = _Window.combine(traced_windows), _Window.combine(untraced)
            whole = _Window.combine([baseline, window])
            notes["spans"] = relative(traced.tracer.write(artifacts / "spans.jsonl"))
            metrics = traced.metrics(callers=callers, units=window.attempted, idle_s=idle_s)
            metrics.update(dict.fromkeys(SERVICE_METRICS, 0))
            if served:
                metrics.update({
                    "service.requests": window.attempted,
                    "service.rejected": window.count("http-429"),
                    "service.errors_500": window.count("http-500"),
                    "service.errors_504": window.count("http-504"),
                    "service.errors_sse": window.count("sse-error"),
                    "service.failed_share": window.failed / window.attempted,
                    "service.sse_ready_p50_ms": 1000.0 * statistics.median(window.ready)
                    if window.ready else 0.0,
                    # The tail comes from the untraced quarters: tracing adds to it.
                    "service.latency_p99_ms": 1000.0 * quantile(baseline.latencies, 0.99),
                })
            metrics["trace.overhead"] = window.rates()[0] / baseline.rates()[0]
            if stored:
                metrics["store.entries"] = store_entries(store_roots[-1])
    finally:
        for target in targets:
            discard(target)
        for store_root in store_roots:
            shutil.rmtree(store_root, ignore_errors=True)
    notes["failures_by_cause"] = whole.failures
    notes["failed_share"] = whole.failed / whole.attempted

    from repro.api import Session

    with Session(store=False) as session:
        oracle = _Library(factories, session)
        mismatches = []
        for key, seen in sorted(whole.replies.items()):
            path, payload = json.loads(key)
            expected = json.dumps(oracle.answer(path, payload), sort_keys=True)
            if seen != {expected}:
                mismatches.append(key)
    notes["distinct_queries_checked"] = len(whole.replies)
    notes["mismatches"] = mismatches[:5]
    correct = whole.failed == 0 and bool(whole.replies) and not mismatches
    return Outcome(correct, whole.attempted, whole.failed, metrics, notes)


def _serve(seed: int, seconds: float, trace: bool, artifacts: Path, *, stored: bool) -> Outcome:
    from repro.service.app import ServiceConfig, create_app

    registry = sampled_registry() if trace else None

    def prepare(store_root, factories, templates) -> traffic.InProcessServer:
        config = ServiceConfig(
            store=str(store_root) if store_root is not None else False,
            case_studies=factories,
            metrics=registry,
            default_timeout=STORED_TIMEOUT_S if stored else None,
        )
        server = traffic.InProcessServer(create_app(config))
        server.start()
        # Each template once per path forks its warm worker and fills the store.
        for template in templates:
            for stream in (False, True):
                server.request("/v1/reachability", {**template.payload(), "stream": stream})
        return server

    return _replay(seed, seconds, trace, artifacts,
                   modules=("repro.loadgen.vocabulary", "repro.service.app"),
                   prepare=prepare, discard=traffic.InProcessServer.close, callers=2,
                   stored=stored, served=True, registry=registry)


def store_entries(store_root: Path) -> int:
    """Entries in the run's result store, read through a second handle."""
    from repro.store import ResultStore

    with ResultStore(store_root) as store:
        return store.stats()["entries"]


def serve_cold(seed: int, seconds: float, trace: bool, artifacts: Path) -> Outcome:
    return _serve(seed, seconds, trace, artifacts, stored=False)


def serve_stored(seed: int, seconds: float, trace: bool, artifacts: Path) -> Outcome:
    return _serve(seed, seconds, trace, artifacts, stored=True)


def session_stored(seed: int, seconds: float, trace: bool, artifacts: Path) -> Outcome:
    """One caller on a stored ``Session``, with think time: repeated
    queries read the store, new ones explore and write it."""
    from repro.api import Session

    def prepare(store_root, factories, templates) -> _Library:
        library = _Library(factories, Session(store=str(store_root)), STORED_THINK_S)
        # Each template once fills the store, so repeats are reads.
        for template in templates:
            library.request("/v1/reachability", template.payload())
        return library

    def discard(library: _Library) -> None:
        library.session.close()
        library.session.store.close()

    return _replay(seed, seconds, trace, artifacts,
                   modules=("repro.loadgen.vocabulary", "repro.api"),
                   prepare=prepare, discard=discard, callers=1, stored=True, served=False,
                   registry=sampled_registry() if trace else None)


WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "explore": explore,
    "check": check,
    "serve-cold": serve_cold,
    "session-stored": session_stored,
    "serve-stored": serve_stored,
}
