"""Active-domain evaluation of FOL(R) queries.

Implements the semantics of Appendix A of the paper: ``I, σ ⊨ Q``, the
answer set ``ans(Q, I)`` and boolean-query evaluation.  Quantifiers range
over ``adom(I)`` (active-domain semantics), which also matches the
execution-semantics rule that action parameters are substituted with
values from the current active domain.

The public entry points run the compiled form of the query
(:mod:`repro.fol.compiled`).  The recursive interpreter ``_eval`` is the
reference oracle: :func:`reference_satisfies` and
:func:`reference_iter_answers` expose it to the differential tests and
to the frozen seed explorer of :mod:`repro.search.baseline`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.database.domain import Value
from repro.database.instance import DatabaseInstance
from repro.database.substitution import Substitution
from repro.errors import QueryError, SubstitutionError
from repro.fol.compiled import binding_plan, compiled
from repro.fol.syntax import (
    And,
    Atom,
    Equals,
    Exists,
    FalseQuery,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Query,
    TrueQuery,
)

__all__ = [
    "satisfies",
    "answers",
    "iter_answers",
    "evaluate_sentence",
    "reference_satisfies",
    "reference_iter_answers",
]


def satisfies(
    instance: DatabaseInstance, query: Query, sigma: Mapping[str, Value] | None = None
) -> bool:
    """``I, σ ⊨ Q``.

    Args:
        instance: the database instance ``I``.
        query: the FOL(R) query ``Q``.
        sigma: a substitution binding at least ``Free-Vars(Q)``; may be
            omitted for sentences.

    Raises:
        SubstitutionError: if a free variable of ``Q`` is not bound.
    """
    bindings = _bindings(query, sigma)
    return compiled(query, instance.schema)(instance, bindings)


def evaluate_sentence(query: Query, instance: DatabaseInstance) -> bool:
    """Evaluate a boolean query (``I ⊨ Q``)."""
    if not query.is_sentence():
        raise QueryError(f"{query} is not a sentence; use satisfies() with a substitution")
    return compiled(query, instance.schema)(instance, {})


def iter_answers(query: Query, instance: DatabaseInstance) -> Iterator[Substitution]:
    """Iterate over ``ans(Q, I)``: all substitutions of ``Free-Vars(Q)`` into
    ``adom(I)`` satisfying ``Q``.

    For a boolean query the iterator yields the empty substitution exactly
    when the query holds (mirroring ``ans(Q, I) = {ε}`` in the paper).
    Answers come in the lexicographic order of their values (sorted by
    ``repr``) along the sorted free variables.
    """
    free = tuple(sorted(query.free_variables()))
    domain = sorted(instance.active_domain(), key=repr) if free else ()
    plan = binding_plan(query, free, instance.schema)
    for binding in plan(instance, domain):
        yield Substitution(binding)


def answers(query: Query, instance: DatabaseInstance) -> frozenset:
    """``ans(Q, I)`` as a frozen set of :class:`Substitution`."""
    return frozenset(iter_answers(query, instance))


def _bindings(query: Query, sigma: Mapping[str, Value] | None) -> dict[str, Value]:
    bindings = dict(sigma) if sigma is not None else {}
    missing = query.free_variables() - bindings.keys()
    if missing:
        raise SubstitutionError(
            f"free variables {sorted(missing)} of {query} are not bound by {bindings!r}"
        )
    return bindings


# -- the interpreted reference evaluator -------------------------------------


def reference_satisfies(
    instance: DatabaseInstance, query: Query, sigma: Mapping[str, Value] | None = None
) -> bool:
    """:func:`satisfies` by the recursive interpreter (the reference oracle)."""
    return _eval(query, instance, _bindings(query, sigma))


def reference_iter_answers(query: Query, instance: DatabaseInstance) -> Iterator[Substitution]:
    """:func:`iter_answers` by the recursive interpreter (the reference oracle)."""
    free = sorted(query.free_variables())
    if not free:
        if _eval(query, instance, {}):
            yield Substitution.empty()
        return
    domain = sorted(instance.active_domain(), key=repr)
    yield from _iter_assignments(query, instance, free, domain, {})


def _iter_assignments(
    query: Query,
    instance: DatabaseInstance,
    free: list[str],
    domain: list[Value],
    partial: dict[str, Value],
) -> Iterator[Substitution]:
    if len(partial) == len(free):
        if _eval(query, instance, partial):
            yield Substitution(partial)
        return
    variable = free[len(partial)]
    for value in domain:
        partial[variable] = value
        yield from _iter_assignments(query, instance, free, domain, partial)
    partial.pop(variable, None)


def _eval(query: Query, instance: DatabaseInstance, bindings: dict[str, Value]) -> bool:
    """Recursive evaluation under a (mutable) binding environment."""
    if isinstance(query, TrueQuery):
        return True
    if isinstance(query, FalseQuery):
        return False
    if isinstance(query, Atom):
        values = tuple(_lookup(bindings, arg) for arg in query.arguments)
        return instance.holds(query.relation, *values)
    if isinstance(query, Equals):
        return _lookup(bindings, query.left) == _lookup(bindings, query.right)
    if isinstance(query, Not):
        return not _eval(query.operand, instance, bindings)
    if isinstance(query, And):
        return _eval(query.left, instance, bindings) and _eval(query.right, instance, bindings)
    if isinstance(query, Or):
        return _eval(query.left, instance, bindings) or _eval(query.right, instance, bindings)
    if isinstance(query, Implies):
        return (not _eval(query.left, instance, bindings)) or _eval(
            query.right, instance, bindings
        )
    if isinstance(query, Iff):
        return _eval(query.left, instance, bindings) == _eval(query.right, instance, bindings)
    if isinstance(query, Exists):
        return _eval_exists(query, instance, bindings)
    if isinstance(query, Forall):
        return not _eval_exists(Exists(query.variable, Not(query.body)), instance, bindings)
    raise QueryError(f"unsupported query node {type(query).__name__}")


def _eval_exists(query: Exists, instance: DatabaseInstance, bindings: dict[str, Value]) -> bool:
    saved_present = query.variable in bindings
    saved_value = bindings.get(query.variable)
    try:
        for value in instance.active_domain():
            bindings[query.variable] = value
            if _eval(query.body, instance, bindings):
                return True
        return False
    finally:
        if saved_present:
            bindings[query.variable] = saved_value
        else:
            bindings.pop(query.variable, None)


def _lookup(bindings: Mapping[str, Value], variable: str) -> Value:
    try:
        return bindings[variable]
    except KeyError:
        raise SubstitutionError(f"variable {variable!r} is not bound") from None

