"""Hash-consing of exploration states.

Configurations are immutable value objects whose equality is structural
(database instance, history set, sequence numbering).  During an
exploration the same configuration is re-generated many times — once per
incoming edge — and every re-generation pays a deep hash/equality check
against the visited set.  The :class:`InternTable` hash-conses states:
the *first* occurrence of a configuration becomes its canonical
representative and receives a dense integer id; every later occurrence
is resolved to that id with a single dictionary probe, after which the
engine works exclusively with id comparisons (frontier entries, parent
maps, dedup) instead of deep hashes.

Interning also restores *reference identity* along explored paths: the
engine always expands the canonical representative, so consecutive steps
share configuration objects and downstream equality checks (for example
run-prefix validation) hit CPython's identity fast path.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["InternTable"]


class InternTable:
    """A hash-consing table mapping states to dense integer ids."""

    __slots__ = ("_ids", "_states")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._states: list = []

    def intern(self, state: Any) -> tuple[int, Any, bool]:
        """Intern ``state`` and return ``(id, canonical, is_new)``.

        ``canonical`` is the representative object: ``state`` itself on
        first occurrence, the previously interned equal object otherwise.
        """
        existing = self._ids.get(state)
        if existing is not None:
            return existing, self._states[existing], False
        new_id = len(self._states)
        self._ids[state] = new_id
        self._states.append(state)
        return new_id, state, True

    def canonical(self, state: Any) -> Any:
        """The canonical representative of ``state`` (interning it if new)."""
        return self.intern(state)[1]

    def id_of(self, state: Any) -> int | None:
        """The id of ``state`` or ``None`` when it was never interned."""
        return self._ids.get(state)

    def state_of(self, state_id: int) -> Any:
        """The canonical state with the given id."""
        return self._states[state_id]

    def states(self) -> Iterator[Any]:
        """All canonical states in interning (discovery) order."""
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: object) -> bool:
        return state in self._ids
