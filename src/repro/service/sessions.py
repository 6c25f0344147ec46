"""Shared warm sessions and admission control for the service.

A :class:`SessionManager` is the service's bridge to the library: it
owns one :class:`repro.api.Session` (whose worker pool keys warm query
engines by case study and successor function, so every concurrent
request over the same ``(system, graph)`` pair shares the same warm
workers), a registry of servable case studies, and the admission
semaphore that bounds how many requests may hold an engine at once.

Requests name systems rather than shipping them: the registry maps a
case-study name to its construction function, and the built system is
cached so its content hash — and therefore its warm pool context — is
stable across requests.  Conditions arrive as a proposition name
(``"proposition"``) or as FOL(R) query text (``"condition"``, parsed by
:func:`repro.fol.parser.parse_query`).
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Mapping

from repro.api.options import ExplorationOptions
from repro.api.session import Session
from repro.casestudies import (
    booking_agency_system,
    example_31_system,
    students_system,
    warehouse_system,
)
from repro.dms.system import DMS
from repro.errors import AdmissionError, ServiceError
from repro.fol.parser import parse_query
from repro.fol.syntax import Query
from repro.obs.metrics import resolve_metrics
from repro.search.engine import RETENTION_MODES
from repro.search.frontier import STRATEGIES

__all__ = ["DEFAULT_CASE_STUDIES", "SessionManager", "decode_bound", "decode_options"]

#: The case studies a default service serves, by request name.
DEFAULT_CASE_STUDIES: dict[str, Callable[[], DMS]] = {
    "booking": booking_agency_system,
    "example31": example_31_system,
    "students": students_system,
    "warehouse": warehouse_system,
}

#: Integer exploration knobs a request payload may override, with their minimum.
_INT_KNOBS = {"max_depth": 0, "max_configurations": 1, "max_steps": 1}

#: String exploration knobs a request payload may override, with their values.
#: ``best-first`` needs a heuristic callable, which JSON cannot carry.
_STR_KNOBS = {
    "strategy": tuple(name for name in STRATEGIES if name != "best-first"),
    "retention": RETENTION_MODES,
}

def _decode_int(name: str, value, minimum: int) -> int:
    """``value`` as an integer knob, or a :class:`ServiceError` (HTTP 400).

    Only JSON integers count: booleans, numeric strings and fractional
    numbers are rejected rather than coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name!r} must be a JSON integer, got {json.dumps(value)[:40]}")
    if value < minimum:
        raise ServiceError(f"{name!r} must be at least {minimum}, got {value}")
    return value


def decode_options(payload: Mapping, defaults: ExplorationOptions) -> ExplorationOptions:
    """``defaults`` with a request payload's knob overrides applied.

    The one decoder of request knobs: the service and the load
    harness's verdict oracle both read payloads through it.

    Raises:
        ServiceError: on a knob of the wrong JSON type or out of range.
    """
    changes: dict = {}
    for knob, minimum in _INT_KNOBS.items():
        if knob in payload:
            changes[knob] = _decode_int(knob, payload[knob], minimum)
    for knob, allowed in _STR_KNOBS.items():
        if knob in payload:
            value = payload[knob]
            if not isinstance(value, str) or value not in allowed:
                raise ServiceError(f"{knob!r} must be one of {', '.join(allowed)}")
            changes[knob] = value
    return defaults.replace(**changes) if changes else defaults


def decode_bound(value) -> int | None:
    """A payload's recency ``bound``: ``None`` (unbounded) or an integer ≥ 0."""
    return None if value is None else _decode_int("bound", value, 0)


def decode_bounds(value) -> tuple[int, ...]:
    """A convergence payload's ``bounds``: an array of integers ≥ 0."""
    if not isinstance(value, (list, tuple)):
        raise ServiceError("'bounds' must be an array of integers")
    return tuple(_decode_int("bounds entry", bound, 0) for bound in value)


class SessionManager:
    """The service's warm session, case-study registry and admission gate.

    Args:
        case_studies: ``{name: factory}`` of servable systems (defaults
            to :data:`DEFAULT_CASE_STUDIES`).
        max_concurrent: admission-control capacity — requests holding a
            slot beyond this are rejected with
            :class:`~repro.errors.AdmissionError` (HTTP 429), never
            queued (a saturated verification service should shed load
            visibly, not build invisible backlog).
        options: default exploration options for requests that do not
            override knobs.
        store: the session's result store (path /
            :class:`repro.store.ResultStore` / ``False`` / ``None`` for
            ``REPRO_STORE``).
        pool_workers: worker count of the session's pool.
        metrics: a :class:`repro.obs.MetricsRegistry`; ``None`` resolves
            to the process-wide registry.
    """

    def __init__(
        self,
        *,
        case_studies: Mapping[str, Callable[[], DMS]] | None = None,
        max_concurrent: int = 8,
        options: ExplorationOptions | None = None,
        store=None,
        pool_workers: int | None = None,
        metrics=None,
    ) -> None:
        if max_concurrent < 1:
            raise ServiceError("max_concurrent must be positive")
        self._factories = dict(case_studies or DEFAULT_CASE_STUDIES)
        self._systems: dict[str, DMS] = {}
        self._metrics = metrics
        self.session = Session(
            options=options, store=store, pool_workers=pool_workers, metrics=metrics
        )
        self._max_concurrent = max_concurrent
        self._guard = threading.Lock()
        self._active = 0

    # -- case studies and request decoding -------------------------------------

    def case_studies(self) -> tuple[str, ...]:
        """The servable case-study names, sorted."""
        return tuple(sorted(self._factories))

    def system(self, name: str) -> DMS:
        """The (cached) system registered under ``name``.

        Caching keeps the object identity — and the content hash — of a
        case study stable, so every request over it shares one warm
        pool context.
        """
        with self._guard:
            system = self._systems.get(name)
            if system is None:
                factory = self._factories.get(name)
                if factory is None:
                    raise ServiceError(
                        f"unknown case study {name!r}; serving {sorted(self._factories)}"
                    )
                system = self._systems[name] = factory()
            return system

    def condition(self, payload: Mapping) -> Query | str:
        """The reachability condition a request payload names.

        ``"proposition"`` carries a proposition name; ``"condition"``
        carries FOL(R) query text.  Exactly one must be present.
        """
        has_query = "condition" in payload
        has_proposition = "proposition" in payload
        if has_query == has_proposition:
            raise ServiceError(
                "a query payload needs exactly one of 'condition' (FOL(R) query text) "
                "or 'proposition' (a proposition name)"
            )
        if has_proposition:
            return str(payload["proposition"])
        return parse_query(str(payload["condition"]))

    def query_options(self, payload: Mapping) -> ExplorationOptions:
        """The session defaults with the payload's knob overrides applied
        (see :func:`decode_options`)."""
        return decode_options(payload, self.session.options)

    # -- admission control ------------------------------------------------------

    @property
    def active(self) -> int:
        """Requests currently holding an admission slot."""
        with self._guard:
            return self._active

    def acquire(self) -> None:
        """Take one admission slot or reject (never blocks).

        Raises:
            AdmissionError: at capacity (the service renders it as 429
                with a ``Retry-After`` header).
        """
        registry = resolve_metrics(self._metrics)
        with self._guard:
            if self._active >= self._max_concurrent:
                registry.counter("service_requests_total", outcome="rejected").inc()
                raise AdmissionError(
                    f"service at capacity ({self._max_concurrent} concurrent queries); retry"
                )
            self._active += 1
            registry.gauge("service_active_requests").high_water(self._active)

    def release(self) -> None:
        """Return one admission slot."""
        with self._guard:
            self._active = max(0, self._active - 1)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close the warm session (idempotent)."""
        self.session.close()
