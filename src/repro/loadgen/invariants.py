"""Soak invariants: what must hold across any replay, however long.

Load numbers without correctness checks are theatre — a soak that
quietly served wrong verdicts or leaked admission slots proves nothing.
:func:`check_invariants` audits a finished :class:`~repro.loadgen.driver.LoadReport`
for three properties:

* ``verdicts_match`` — every successful verdict agrees with a direct
  :func:`repro.api.run_reachability` call over the same system,
  condition and knobs (the library is the oracle; the service is just
  transport).
* ``metrics_reconcile`` — the service's ``service_requests_total``
  counters account for exactly the requests the driver sent:
  ``ok``/``error``/``rejected`` series each equal the corresponding
  outcome count (no lost or double-counted requests, even across
  worker kills and 429 storms).
* ``healthy_after_chaos`` — after the replay (including any induced
  worker kills), the service still reports healthy with zero active
  admission slots and serves a fresh query successfully.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.api import ExplorationOptions, run_reachability
from repro.fol.parser import parse_query
from repro.loadgen.driver import LoadReport, RequestOutcome
from repro.service.sessions import DEFAULT_CASE_STUDIES, decode_bound, decode_options
from repro.service.testing import AsgiClient

__all__ = ["InvariantReport", "check_invariants", "request_totals"]

#: The query the post-soak health probe issues.
_PROBE = {
    "case_study": "example31",
    "condition": "Exists x. R(x)",
    "bound": 1,
    "max_depth": 2,
}


@dataclass(frozen=True)
class InvariantReport:
    """The soak-invariant verdicts and everything that went wrong.

    Attributes:
        verdicts_match: service verdicts == direct library verdicts.
        metrics_reconcile: request counters == requests sent, per class.
        healthy_after_chaos: post-run health probe succeeded.
        checked_verdicts: distinct queries re-verified directly.
        problems: human-readable description of each violation.
    """

    verdicts_match: bool
    metrics_reconcile: bool
    healthy_after_chaos: bool
    checked_verdicts: int
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return self.verdicts_match and self.metrics_reconcile and self.healthy_after_chaos

    def as_json(self) -> dict:
        """The report as a JSON-ready dict."""
        return {
            "ok": self.ok,
            "verdicts_match": self.verdicts_match,
            "metrics_reconcile": self.metrics_reconcile,
            "healthy_after_chaos": self.healthy_after_chaos,
            "checked_verdicts": self.checked_verdicts,
            "problems": list(self.problems),
        }


def _payload_condition(payload: Mapping):
    if "condition" in payload:
        return parse_query(str(payload["condition"]))
    return str(payload["proposition"])


def _verify_verdicts(
    outcomes: tuple[RequestOutcome, ...],
    case_studies: Mapping[str, Callable],
    max_checks: int | None,
) -> tuple[int, list[str]]:
    """Re-run each distinct successful query directly; collect mismatches."""
    problems: list[str] = []
    systems: dict[str, object] = {}
    seen: set[str] = set()
    checked = 0
    for outcome in outcomes:
        if outcome.outcome != "ok" or outcome.result is None:
            continue
        body = {k: v for k, v in outcome.payload.items() if k != "stream"}
        key = json.dumps(
            {"endpoint": outcome.endpoint, **body}, sort_keys=True, separators=(",", ":")
        )
        if key in seen:
            continue
        if max_checks is not None and checked >= max_checks:
            break
        seen.add(key)
        checked += 1
        name = str(outcome.payload["case_study"])
        system = systems.get(name)
        if system is None:
            factory = case_studies.get(name)
            if factory is None:
                problems.append(f"verdict check: unknown case study {name!r} in replayed payload")
                continue
            system = systems[name] = factory()
        condition = _payload_condition(outcome.payload)
        options = decode_options(outcome.payload, ExplorationOptions())
        if outcome.endpoint == "reachability":
            bound = decode_bound(outcome.payload.get("bound"))
            expected = run_reachability(
                system, condition, bound=bound, options=options, store=False
            )
            if expected.reachable.value != outcome.result.get("verdict"):
                problems.append(
                    f"verdict drift: {name} {outcome.payload} served "
                    f"{outcome.result.get('verdict')!r}, library says "
                    f"{expected.reachable.value!r}"
                )
        else:
            expected = run_reachability(system, condition, options=options, store=False)
            if expected.reachable.value != outcome.result.get("reference_verdict"):
                problems.append(
                    f"verdict drift: convergence over {name} served reference "
                    f"{outcome.result.get('reference_verdict')!r}, library says "
                    f"{expected.reachable.value!r}"
                )
    return checked, problems


def request_totals(metrics) -> dict[str, int | float]:
    """The ``service_requests_total`` series, by outcome.

    ``sum_counter`` also picks up folded per-node series, so the totals
    survive snapshot folding across processes.  Take these *before* a
    replay and pass them to :func:`check_invariants` as the ``baseline``
    when the registry has already counted earlier traffic (warm-up
    requests, a previous audit's health probe).
    """
    return {
        series: metrics.sum_counter("service_requests_total", outcome=series)
        for series in ("ok", "error", "rejected")
    }


def _reconcile_metrics(
    report: LoadReport, metrics, baseline: Mapping[str, int | float] | None
) -> list[str]:
    """Compare the registry's request counters with what was sent."""
    problems: list[str] = []
    counted = [outcome for outcome in report.outcomes if outcome.counted]
    expected = {
        "ok": sum(1 for outcome in counted if outcome.outcome == "ok"),
        "error": sum(1 for outcome in counted if outcome.outcome == "error"),
        "rejected": sum(1 for outcome in counted if outcome.outcome == "rejected"),
    }
    totals = request_totals(metrics)
    for series, want in expected.items():
        have = totals[series] - (baseline or {}).get(series, 0)
        if have != want:
            problems.append(
                f"metrics drift: service_requests_total{{outcome={series}}} grew by {have}, "
                f"driver sent {want}"
            )
    return problems


def _probe_health(client: AsgiClient) -> list[str]:
    """Post-run liveness: healthz clean, no held slots, queries served."""
    problems: list[str] = []
    health = client.get("/healthz")
    if health.status != 200:
        problems.append(f"health probe: /healthz returned {health.status}")
        return problems
    body = health.json()
    if body.get("status") != "ok":
        problems.append(f"health probe: status {body.get('status')!r}")
    if body.get("active_requests") != 0:
        problems.append(
            f"stuck admission slots: {body.get('active_requests')} still active after replay"
        )
    probe = client.post("/v1/reachability", json_body=dict(_PROBE))
    if probe.status != 200:
        problems.append(f"health probe: post-soak query returned {probe.status}")
    return problems


def check_invariants(
    report: LoadReport,
    *,
    client: AsgiClient,
    metrics,
    case_studies: Mapping[str, Callable] | None = None,
    max_verdict_checks: int | None = None,
    baseline: Mapping[str, int | float] | None = None,
) -> InvariantReport:
    """Audit a replay run (see the module docs for the three invariants).

    ``metrics`` must be the registry the replayed app was configured
    with; when it counted traffic before the replay (warm-up requests,
    an earlier audit's probe), pass the pre-replay
    :func:`request_totals` as ``baseline`` so only the replay's growth
    is reconciled.  ``case_studies`` must resolve every name the
    scripts used (defaults to the built-in registry);
    ``max_verdict_checks`` bounds how many *distinct* queries are
    re-verified directly (``None`` = all of them).  Metrics are
    reconciled before the health probe so the probe's own requests do
    not perturb the counters.
    """
    case_studies = case_studies if case_studies is not None else DEFAULT_CASE_STUDIES
    metric_problems = _reconcile_metrics(report, metrics, baseline)
    checked, verdict_problems = _verify_verdicts(
        report.outcomes, case_studies, max_verdict_checks
    )
    health_problems = _probe_health(client)
    return InvariantReport(
        verdicts_match=not verdict_problems,
        metrics_reconcile=not metric_problems,
        healthy_after_chaos=not health_problems,
        checked_verdicts=checked,
        problems=tuple(verdict_problems + metric_problems + health_problems),
    )
