"""Differential tests: compiled FOL(R) evaluation against the interpreter.

The compiled path (:mod:`repro.fol.compiled`, behind ``satisfies``,
``evaluate_sentence`` and ``iter_answers``) must agree with the
interpreted reference ``_eval`` everywhere:

* on guards, constraints and conditions of fuzz-generated systems
  (``guard_depth``, ``guard_or_probability`` and ``constraint_density``
  drawn by hypothesis), over random instances — equal booleans, equal
  ordered answer lists, and the same exception type for unbound
  variables, unknown relations and wrong arities;
* on ``Recent_b`` parameter bindings: the binding plan returns exactly
  the ordered list of the old ``product()`` enumeration on every §6 case
  study at b ∈ {1, 2, 3};
* across pickling: compiled forms never travel, and a round-tripped
  system evaluates the same.
"""

from __future__ import annotations

import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.instance import DatabaseInstance, Fact
from repro.database.schema import RelationSymbol, Schema
from repro.database.substitution import Substitution
from repro.errors import ArityError, SubstitutionError, UnknownRelationError
from repro.fol.evaluator import (
    evaluate_sentence,
    iter_answers,
    reference_iter_answers,
    reference_satisfies,
    satisfies,
)
from repro.fol.parser import parse_query
from repro.fol.syntax import Exists, Forall, Implies, Not, Or, Query, exists
from repro.fuzz import FuzzShape, generate_instance
from repro.recency.semantics import (
    _recent_parameter_bindings,
    enumerate_b_bounded_successors,
    initial_recency_configuration,
)
from repro.service.sessions import DEFAULT_CASE_STUDIES

_VALUES = ("e1", "e2", "e3", "e4")


def _outcome(function, *arguments):
    """``("ok", value)`` or ``("raises", exception type)``."""
    try:
        return ("ok", function(*arguments))
    except (SubstitutionError, UnknownRelationError, ArityError) as error:
        return ("raises", type(error))


def _queries(system, condition) -> list[Query]:
    """Guards, constraints and the condition, plus quantified wrappings
    of each guard (existential and universal joins over its parameters)."""
    queries: list[Query] = [condition, *system.constraints]
    for action in system.actions:
        guard = action.guard
        queries.append(guard)
        if action.parameters:
            queries.append(exists(action.parameters, guard))
            queries.append(Forall(action.parameters[0], Implies(guard, Or(guard, Not(guard)))))
            queries.append(Not(Exists(action.parameters[-1], Not(guard))))
    return queries


@st.composite
def _fuzz_cases(draw):
    shape = FuzzShape(
        relations=draw(st.integers(1, 3)),
        max_arity=draw(st.integers(1, 3)),
        propositions=draw(st.integers(0, 2)),
        actions=draw(st.integers(1, 4)),
        guard_depth=draw(st.integers(0, 3)),
        guard_or_probability=draw(st.floats(0.0, 0.5)),
        constraint_density=draw(st.floats(0.0, 0.6)),
    )
    instance = generate_instance(draw(st.integers(0, 10_000)), tier="smoke", shape=shape)
    schema = instance.system.schema
    # Evaluate over the system's schema or a variant of it in which some
    # relations are missing or have another arity, so invalid atoms occur.
    relations = []
    for relation in schema.relations:
        change = draw(st.sampled_from(("keep", "keep", "keep", "drop", "arity")))
        if change == "keep":
            relations.append(relation)
        elif change == "arity":
            relations.append(RelationSymbol(relation.name, (relation.arity + 1) % 4))
    variant = Schema(relations) if relations else schema
    facts = []
    for relation in variant.relations:
        rows = draw(
            st.lists(st.tuples(*[st.sampled_from(_VALUES)] * relation.arity), max_size=4)
        )
        facts.extend(Fact(relation.name, row) for row in rows)
    return instance.system, instance.condition, DatabaseInstance(variant, facts)


@settings(max_examples=150, deadline=None)
@given(_fuzz_cases(), st.data())
def test_compiled_evaluation_matches_the_interpreter(case, data):
    system, condition, database = case
    for query in _queries(system, condition):
        free = sorted(query.free_variables())
        sigma = {v: data.draw(st.sampled_from(_VALUES + ("e9",))) for v in free}
        assert _outcome(satisfies, database, query, sigma) == _outcome(
            reference_satisfies, database, query, sigma
        ), query
        assert _outcome(lambda: list(iter_answers(query, database))) == _outcome(
            lambda: list(reference_iter_answers(query, database))
        ), query
        if free:
            partial = dict(list(sigma.items())[:-1])
            assert _outcome(satisfies, database, query, partial) == (
                "raises",
                SubstitutionError,
            )
            assert _outcome(reference_satisfies, database, query, partial) == (
                "raises",
                SubstitutionError,
            )
        else:
            assert _outcome(evaluate_sentence, query, database) == _outcome(
                reference_satisfies, database, query, {}
            ), query


def test_invalid_atoms_raise_only_when_evaluated():
    schema = Schema.of(("p", 0), ("R", 1))
    empty = DatabaseInstance.empty(schema)
    with_p = DatabaseInstance.of(schema, Fact.of("p"), Fact.of("R", "e1"))
    unknown = parse_query("p & Missing(u)")
    arity = parse_query("p & exists u. R(u, u)")
    for query, error in ((unknown, UnknownRelationError), (arity, ArityError)):
        sigma = {v: "e1" for v in query.free_variables()}
        assert satisfies(empty, query, sigma) is False  # short-circuits past the atom
        with pytest.raises(error):
            satisfies(with_p, query, sigma)
        with pytest.raises(error):
            reference_satisfies(with_p, query, sigma)


def test_existential_join_agrees_with_domain_loop():
    schema = Schema.of(("R", 2), ("S", 1), ("T", 3))
    database = DatabaseInstance.of(
        schema,
        Fact.of("R", "e1", "e1"),
        Fact.of("R", "e1", "e2"),
        Fact.of("R", "e3", "e2"),
        Fact.of("S", "e2"),
        Fact.of("T", "e1", "e2", "e1"),
    )
    queries = [
        "exists x. R(x, x)",
        "exists x, y. R(x, y) & S(y) & !(x = y)",
        "exists x. R(u, x) & exists u. R(x, u)",  # u is shadowed inside
        "forall x. S(x) -> exists y. R(y, x)",
        "forall x, y. R(x, y) -> S(y)",
        "exists x, y, z. T(x, y, z) & R(z, y)",
        "exists x. !S(x) & exists y. R(x, y)",
        "exists x. exists x. S(x)",
    ]
    for text in queries:
        query = parse_query(text)
        for value in _VALUES:
            sigma = {v: value for v in query.free_variables()}
            assert satisfies(database, query, sigma) == reference_satisfies(
                database, query, sigma
            ), text


# -- Recent_b parameter bindings ------------------------------------------------


def _product_bindings(action, configuration, recent) -> list[Substitution]:
    """The enumeration the binding plan replaced: every candidate tuple
    over the sorted ``Recent_b``, filtered by the interpreted guard."""
    instance = configuration.instance
    candidates = sorted(recent, key=repr)
    bindings = [
        Substitution(dict(zip(action.parameters, combo)))
        for combo in product(candidates, repeat=len(action.parameters))
    ]
    satisfying = [b for b in bindings if reference_satisfies(instance, action.guard, b)]
    satisfying.sort(key=lambda s: repr(sorted(s.items(), key=repr)))
    return satisfying


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(DEFAULT_CASE_STUDIES))
def test_recent_bindings_equal_the_product_enumeration(name, bound):
    system = DEFAULT_CASE_STUDIES[name]()
    frontier = [initial_recency_configuration(system)]
    seen = set(frontier)
    checked = 0
    while frontier and len(seen) < 150:
        configuration = frontier.pop(0)
        recent = configuration.recent(bound)
        for action in system.actions:
            planned = _recent_parameter_bindings(action, configuration, recent)
            expected = _product_bindings(action, configuration, recent)
            # Equal as an ordered list, down to each binding's key order.
            assert [list(b.items()) for b in planned] == [list(b.items()) for b in expected]
            checked += len(planned)
        for step in enumerate_b_bounded_successors(system, configuration, bound):
            if step.target not in seen:
                seen.add(step.target)
                frontier.append(step.target)
    assert checked > 0


# -- pickling ---------------------------------------------------------------------


def _memo_entries(query: Query) -> list[str]:
    return [name for node in query.walk() for name in vars(node) if name.startswith("_memo_")]


def test_compiled_forms_never_travel_in_a_pickle():
    system = DEFAULT_CASE_STUDIES["booking"]()
    configuration = initial_recency_configuration(system)
    for _ in range(4):  # compile guards and binding plans along a short run
        steps = list(enumerate_b_bounded_successors(system, configuration, 2))
        configuration = steps[-1].target
    guards = [action.guard for action in system.actions]
    assert any(_memo_entries(guard) for guard in guards)

    for original in (system.actions[0], guards[-1]):
        assert pickle.loads(pickle.dumps(original)) == original
    clone = pickle.loads(pickle.dumps(system))
    assert clone.actions == system.actions
    for action in clone.actions:
        assert _memo_entries(action.guard) == []
        assert str(action.guard) == str(system.action(action.name).guard)
    for original, copied in zip(system.actions, clone.actions):
        assert _recent_parameter_bindings(
            copied, configuration, configuration.recent(2)
        ) == _recent_parameter_bindings(original, configuration, configuration.recent(2))
