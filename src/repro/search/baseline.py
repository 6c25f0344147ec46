"""Frozen seed-explorer reference implementations.

These are verbatim copies of the exploration hot path as it existed
before the unified engine (:mod:`repro.search.engine`) replaced it:

* :func:`seed_enumerate_b_bounded_successors` — successor enumeration
  that materialises *all* guard answers over the full active domain and
  only then filters parameters down to ``Recent_b``;
* :class:`SeedRecencyExplorer` — the breadth-first explorer that keeps
  every generated edge in memory and threads whole run prefixes through
  the frontier during predicate search.

They are retained for two reasons: the differential tests assert that
the engine path produces byte-identical successor streams, visit counts
and witnesses, and the E13 benchmark measures the engine's speedup and
memory reduction against them.  Nothing else should import this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.database.domain import FreshValueAllocator
from repro.database.substitution import Substitution
from repro.dms.action import Action
from repro.dms.system import DMS
from repro.fol.evaluator import reference_iter_answers
from repro.recency.semantics import (
    RecencyBoundedRun,
    RecencyConfiguration,
    RecencyStep,
    apply_action_b_bounded,
    initial_recency_configuration,
    is_b_bounded_substitution,
)

__all__ = [
    "SeedExplorationLimits",
    "SeedExplorationResult",
    "SeedRecencyExplorer",
    "seed_enumerate_b_bounded_successors",
    "seed_iterate_b_bounded_runs",
]


def seed_enumerate_b_bounded_successors(
    system: DMS,
    configuration: RecencyConfiguration,
    bound: int,
    actions: Sequence[Action] | None = None,
) -> Iterator[RecencyStep]:
    """Seed successor enumeration: all guard answers, then recency filter."""
    chosen = tuple(actions) if actions is not None else system.actions
    recent = configuration.recent(bound)
    for action in chosen:
        answers = sorted(
            reference_iter_answers(action.guard, configuration.instance),
            key=lambda s: repr(sorted(s.items(), key=repr)),
        )
        for answer in answers:
            guard_binding = Substitution({u: answer[u] for u in action.parameters})
            if not all(guard_binding[u] in recent for u in action.parameters):
                continue
            allocator = FreshValueAllocator(used=configuration.history)
            fresh_values = allocator.fresh_many(len(action.fresh))
            sigma = guard_binding.merge(dict(zip(action.fresh, fresh_values)))
            if not is_b_bounded_substitution(action, configuration, sigma, bound):
                continue
            target = apply_action_b_bounded(action, configuration, sigma, bound, check=False)
            if system.constraints and not system.constraints.satisfied_by(target.instance):
                continue
            yield RecencyStep(
                source=configuration, action=action, substitution=sigma, target=target
            )


@dataclass(frozen=True)
class SeedExplorationLimits:
    """Limits of the seed explorer (identical shape to the engine limits)."""

    max_depth: int = 6
    max_configurations: int = 100_000
    max_steps: int = 500_000


@dataclass
class SeedExplorationResult:
    """The explored fragment as the seed explorer reported it."""

    bound: int
    initial: RecencyConfiguration
    configurations: set = field(default_factory=set)
    edges: list = field(default_factory=list)
    depth_reached: int = 0
    truncated: bool = False

    @property
    def configuration_count(self) -> int:
        """Number of distinct configurations discovered."""
        return len(self.configurations)

    @property
    def edge_count(self) -> int:
        """Number of edges generated (the seed explorer retains all of them)."""
        return len(self.edges)


class SeedRecencyExplorer:
    """The seed breadth-first explorer of the canonical b-bounded graph."""

    def __init__(
        self, system: DMS, bound: int, limits: SeedExplorationLimits | None = None
    ) -> None:
        self._system = system
        self._bound = bound
        self._limits = limits or SeedExplorationLimits()

    @property
    def limits(self) -> SeedExplorationLimits:
        """The exploration limits."""
        return self._limits

    def explore(
        self, on_configuration: Callable[[RecencyConfiguration, int], None] | None = None
    ) -> SeedExplorationResult:
        """Exhaustive breadth-first exploration, seed behaviour (all edges kept)."""
        initial = initial_recency_configuration(self._system)
        result = SeedExplorationResult(bound=self._bound, initial=initial)
        result.configurations.add(initial)
        if on_configuration:
            on_configuration(initial, 0)
        frontier: deque[tuple[RecencyConfiguration, int]] = deque([(initial, 0)])
        steps_generated = 0
        while frontier:
            configuration, depth = frontier.popleft()
            result.depth_reached = max(result.depth_reached, depth)
            if depth >= self._limits.max_depth:
                continue
            for step in seed_enumerate_b_bounded_successors(
                self._system, configuration, self._bound
            ):
                steps_generated += 1
                result.edges.append(step)
                if step.target not in result.configurations:
                    result.configurations.add(step.target)
                    if on_configuration:
                        on_configuration(step.target, depth + 1)
                    frontier.append((step.target, depth + 1))
                if (
                    len(result.configurations) >= self._limits.max_configurations
                    or steps_generated >= self._limits.max_steps
                ):
                    result.truncated = True
                    return result
        return result

    def find_configuration(
        self, predicate: Callable[[RecencyConfiguration], bool]
    ) -> tuple[RecencyBoundedRun | None, SeedExplorationResult]:
        """Predicate search threading whole run prefixes through the frontier."""
        initial = initial_recency_configuration(self._system)
        result = SeedExplorationResult(bound=self._bound, initial=initial)
        result.configurations.add(initial)
        if predicate(initial):
            return RecencyBoundedRun(self._bound, initial), result
        frontier: deque[tuple[RecencyConfiguration, int, RecencyBoundedRun]] = deque(
            [(initial, 0, RecencyBoundedRun(self._bound, initial))]
        )
        steps_generated = 0
        while frontier:
            configuration, depth, prefix = frontier.popleft()
            result.depth_reached = max(result.depth_reached, depth)
            if depth >= self._limits.max_depth:
                continue
            for step in seed_enumerate_b_bounded_successors(
                self._system, configuration, self._bound
            ):
                steps_generated += 1
                result.edges.append(step)
                extended = prefix.extend(step)
                if predicate(step.target):
                    return extended, result
                if step.target not in result.configurations:
                    result.configurations.add(step.target)
                    frontier.append((step.target, depth + 1, extended))
                if (
                    len(result.configurations) >= self._limits.max_configurations
                    or steps_generated >= self._limits.max_steps
                ):
                    result.truncated = True
                    return None, result
        return None, result


def seed_iterate_b_bounded_runs(
    system: DMS, bound: int, depth: int, max_runs: int | None = None
) -> Iterator[RecencyBoundedRun]:
    """Seed recursive run enumeration (blows the recursion limit at ~1000)."""
    count = 0

    def recurse(prefix: RecencyBoundedRun, remaining: int) -> Iterator[RecencyBoundedRun]:
        """Depth-first extension of ``prefix`` (seed recursion, kept verbatim)."""
        nonlocal count
        if max_runs is not None and count >= max_runs:
            return
        if remaining == 0:
            count += 1
            yield prefix
            return
        steps = list(
            seed_enumerate_b_bounded_successors(system, prefix.final(), bound)
        )
        if not steps:
            count += 1
            yield prefix
            return
        for step in steps:
            if max_runs is not None and count >= max_runs:
                return
            yield from recurse(prefix.extend(step), remaining - 1)

    yield from recurse(RecencyBoundedRun(bound, initial_recency_configuration(system)), depth)
