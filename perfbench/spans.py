"""Layer spans recorded from outside the program.

The traced run wraps the public functions of each layer on the verdict
path (see ``TARGETS``) and records, for every call, a frame: the layer
and function it entered, its parent frame, its duration and the part
of that duration spent in wrapped children.  A frame's self time is its
duration minus its children's, so the self times of all layers add up
to the duration of the root frames — the requests or queries the
workload issued.

Cold calls (a query, a request, an engine run) become spans with an id,
a trace id shared by every span of one request, a parent span, a start
and an end.  Hot calls (``satisfies`` runs ~136k times per booking
query) never become spans: they are folded into a count plus total and
self time per enclosing span, keyed by the calling function as well, so
that guard evaluations can be told apart from other formula checks.

The current frame lives in a ``ContextVar``.  The traffic module's event
loop runs handlers in copies of the client thread's context and hands
executor work a copy of the handler's context, so spans of one request
stay linked across the client thread, the event loop and the executor
thread that runs the query.

Nothing here changes the program: wrappers replace module attributes
and class attributes while a :class:`Tracer` is installed, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

__all__ = ["TARGETS", "Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    Attributes:
        module: the module defining it.
        qualname: ``function`` or ``Class.method``.
        layer: the layer its calls are attributed to.
        hot: fold calls into per-span aggregates instead of spans.
            Generator functions must be hot; each ``next`` is timed.
    """

    module: str
    qualname: str
    layer: str
    hot: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.qualname}"


TARGETS: tuple[Target, ...] = (
    Target("repro.api.query", "run_reachability", "api"),
    Target("repro.api.session", "Session.run_reachability", "api"),
    Target("repro.api.session", "Session.run_reachability_isolated", "api"),
    Target("repro.api.session", "Session.reachability_bound_sweep", "api"),
    Target("repro.runtime.scheduler", "SweepScheduler.run", "runtime"),
    Target("repro.store.store", "ResultStore.load", "store"),
    Target("repro.store.store", "ResultStore.save", "store"),
    Target("repro.store.store", "ResultStore.delta_base", "store"),
    Target("repro.store.store", "ResultStore.invalidate_schema_change", "store"),
    Target("repro.search.engine", "Engine.explore", "search"),
    Target("repro.search.engine", "Engine.search", "search"),
    Target("repro.recency.explorer", "RecencyExplorer.find_configuration", "recency"),
    Target("repro.recency.explorer", "iterate_b_bounded_runs", "recency", True),
    Target("repro.recency.semantics", "enumerate_b_bounded_successors", "recency", True),
    Target("repro.dms.graph", "ConfigurationGraphExplorer.find_configuration", "dms"),
    Target("repro.dms.semantics", "enumerate_successors", "dms", True),
    Target("repro.dms.semantics", "apply_action", "dms", True),
    Target("repro.fol.evaluator", "satisfies", "fol", True),
    Target("repro.fol.evaluator", "evaluate_sentence", "fol", True),
    Target("repro.fol.evaluator", "iter_answers", "fol", True),
    Target("repro.encoding.encoder", "encode_run", "encoding", True),
    Target("repro.encoding.alphabet", "encoding_alphabet", "encoding", True),
    Target("repro.encoding.analyzer", "EncodingAnalyzer.__init__", "encoding", True),
    Target("repro.encoding.translate", "evaluate_specification_via_encoding", "encoding", True),
    Target("repro.msofo.semantics", "holds_on_run", "msofo", True),
    Target("repro.modelcheck.checker", "check_recency_bounded", "modelcheck"),
)

#: Functions whose boolean results are counted (the guard hit ratio).
_COUNT_TRUE = frozenset({"fol.satisfies"})

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame", default=None)


class _Frame:
    """One call in progress: its span, its trace and its children's time."""

    __slots__ = ("key", "child", "span", "trace")

    def __init__(self, key: str, span: int, trace: int) -> None:
        self.key = key
        self.child = 0.0
        self.span = span
        self.trace = trace


class Tracer:
    """Records frames for the wrapped layer functions (see module docs).

    Hot calls made outside any span are aggregated under span ``0``.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._guard = threading.Lock()
        self._local = threading.local()
        self._tables: list[dict] = []
        self._span_lists: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- frames ----------------------------------------------------------------

    def _frame(self, key: str, hot: bool, parent: _Frame | None) -> _Frame:
        if hot:
            return _Frame(key, parent.span if parent is not None else 0,
                          parent.trace if parent is not None else 0)
        span = next(self._ids)
        return _Frame(key, span, parent.trace if parent is not None else span)

    def _record(self, frame: _Frame, parent: _Frame | None, calls: int, started: float,
                ended: float, own: float, result, cold: bool) -> None:
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            local.spans = []
            with self._guard:
                self._tables.append(table)
                self._span_lists.append(local.spans)
        elapsed = ended - started
        if parent is not None:
            parent.child += elapsed
        key = (frame.span, parent.key if parent is not None else None, frame.key)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0.0, 0.0, 0]
        entry[0] += calls
        entry[1] += elapsed
        entry[2] += own
        if result is True:
            entry[3] += 1
        if cold:
            local.spans.append((frame.span, frame.trace,
                                parent.span if parent is not None else None,
                                frame.key, started, ended))

    def root(self, key: str) -> "_RootSpan":
        """A context manager opening a root span (one request of a client)."""
        return _RootSpan(self, key)

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, fn, key: str, hot: bool):
        new_frame, record = self._frame, self._record
        count_true = key in _COUNT_TRUE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            frame = new_frame(key, hot, parent)
            token = _current.set(frame)
            result = None
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = perf_counter()
                _current.reset(token)
                record(frame, parent, 1, started, ended, ended - started - frame.child,
                       result if count_true else None, not hot)

        return wrapper

    def _wrap_generator(self, fn, key: str, hot: bool):
        if not hot:
            raise ValueError(f"generator target {key} must be hot")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), key, tracer)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper, wherever it was imported."""
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attribute = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, target.key, target.hot)
            else:
                wrapper = self._wrap_call(original, target.key, target.hot)
            if owner_name:
                self._patch(owner, attribute, original, wrapper)
                continue
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                for symbol, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, symbol, original, wrapper)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------

    def entries(self) -> list[tuple]:
        """``(span, caller key, key, calls, total s, self s, true results)`` rows."""
        with self._guard:
            tables = list(self._tables)
        return [
            (span, caller, key, *values)
            for table in tables
            for (span, caller, key), values in list(table.items())
        ]

    def spans(self) -> list[tuple]:
        """``(span, trace, parent span, key, start, end)`` of every cold call."""
        with self._guard:
            lists = list(self._span_lists)
        return [span for spans in lists for span in list(spans)]

    def write(self, path: Path) -> Path:
        """Write the spans, then the per-span call aggregates, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span, trace, parent, key, start, end in self.spans():
                handle.write(json.dumps({
                    "span": span, "trace": trace, "parent": parent, "name": key,
                    "start": start, "end": end,
                }) + "\n")
            for span, caller, key, calls, total, own, _ in self.entries():
                handle.write(json.dumps({
                    "span": span, "caller": caller, "name": key,
                    "calls": calls, "total_s": total, "self_s": own,
                }) + "\n")
        return path


class _RootSpan:
    """A root span opened by a client around one request."""

    __slots__ = ("_tracer", "_key", "_frame", "_token", "_started")

    def __init__(self, tracer: Tracer, key: str) -> None:
        self._tracer = tracer
        self._key = key

    def __enter__(self) -> "_RootSpan":
        self._frame = self._tracer._frame(self._key, False, None)
        self._token = _current.set(self._frame)
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        ended = perf_counter()
        _current.reset(self._token)
        own = ended - self._started - self._frame.child
        self._tracer._record(self._frame, None, 1, self._started, ended, own, None, True)


class _TimedIterator:
    """A wrapped generator: one frame whose time is the sum of its steps.

    Each ``next`` runs with the frame current and is charged to whichever
    frame resumed it, so time telescopes even when a generator is
    created in one call and consumed in another.  Its aggregate counts
    one call and, in the result column, the items it produced.
    """

    __slots__ = ("_inner", "_key", "_tracer", "_frame")

    def __init__(self, inner, key: str, tracer: Tracer) -> None:
        self._inner = inner
        self._key = key
        self._tracer = tracer
        self._frame = None

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        parent = _current.get()
        frame = self._frame
        calls = 0
        if frame is None:
            frame = self._frame = self._tracer._frame(self._key, True, parent)
            calls = 1
        before = frame.child
        produced = None
        token = _current.set(frame)
        started = perf_counter()
        try:
            value = next(self._inner)
            produced = True
            return value
        finally:
            ended = perf_counter()
            _current.reset(token)
            own = ended - started - (frame.child - before)
            self._tracer._record(frame, parent, calls, started, ended, own, produced, False)
