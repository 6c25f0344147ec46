"""Compiled evaluation of FOL(R) queries.

A query is compiled once per schema into nested closures
``evaluator(instance, env) -> bool`` that agree with the interpreted
``_eval`` of :mod:`repro.fol.evaluator` on every instance over that
schema:

* Relation lookups and arity checks are resolved at compile time.  An
  atom that fails them compiles to a call of ``DatabaseInstance.holds``,
  which raises the same ``UnknownRelationError``/``ArityError`` when —
  and only when — the atom is evaluated.
* A subquery whose atoms are all valid cannot raise, so its evaluation
  order is free.  An existential ``∃x̄. R(…x̄…) ∧ φ`` over such a body is
  evaluated as a join: ``x̄`` is bound from ``R``'s rows instead of from
  ``adom^|x̄|``, and each conjunct is tested as soon as its variables are
  bound.  A subquery with an invalid atom is compiled node by node in
  the interpreter's order, so errors surface exactly as they do there.
* :func:`binding_plan` enumerates the bindings of a list of variables
  over ordered candidates that satisfy a query, in the order of the
  nested loops (``itertools.product``), testing each top-level conjunct
  as soon as its free variables are bound.

Compiled forms are memoised on the query they were requested for
(``_memo_*`` entries, which :meth:`Query.__getstate__` keeps out of
pickles), so they live as long as the query does; subqueries are
compiled into their parent's closures, not memoised on their own.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from repro.database.instance import DatabaseInstance
from repro.database.schema import Schema
from repro.errors import ArityError, QueryError, UnknownRelationError
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

__all__ = ["compiled", "binding_plan"]

#: ``evaluator(instance, env)``: does the query hold in ``instance`` under
#: the bindings ``env``?  ``env`` binds every free variable; quantifiers
#: bind and restore their variable in place.
Evaluator = Callable[[DatabaseInstance, dict], bool]

#: ``plan(instance, candidates)``: the satisfying bindings, as dicts.
BindingPlan = Callable[[DatabaseInstance, Sequence], list]

_KNOWN = (TrueQuery, FalseQuery, Atom, Equals, Not, And, Or, Implies, Iff, Exists, Forall)
_NO_ROWS: frozenset = frozenset()


def compiled(query: Query, schema: Schema) -> Evaluator:
    """The evaluator of ``query`` for instances over ``schema`` (memoised)."""
    memo = query.__dict__.get("_memo_compiled")
    if memo is None:
        memo = query.__dict__["_memo_compiled"] = {}
    evaluator = memo.get(schema)
    if evaluator is None:
        evaluator = memo[schema] = _compile(query, schema)
    return evaluator


def binding_plan(query: Query, variables: tuple[str, ...], schema: Schema) -> BindingPlan:
    """The plan enumerating bindings of ``variables`` that satisfy ``query``.

    ``plan(instance, candidates)`` returns, as dicts keyed in
    ``variables`` order, exactly the bindings of
    ``product(candidates, repeat=len(variables))`` under which ``query``
    holds, in that order.  ``Free-Vars(query)`` must lie within
    ``variables``.  Memoised per ``(schema, variables)``.
    """
    memo = query.__dict__.get("_memo_plans")
    if memo is None:
        memo = query.__dict__["_memo_plans"] = {}
    key = (schema, variables)
    plan = memo.get(key)
    if plan is None:
        plan = memo[key] = _plan(query, variables, schema)
    return plan


# -- compilation --------------------------------------------------------------


def _valid(query: Query, schema: Schema) -> bool:
    """True when evaluating ``query`` over ``schema`` cannot raise."""
    for node in query.walk():
        if not isinstance(node, _KNOWN):
            return False
        if isinstance(node, Atom) and (
            node.relation not in schema or schema.arity_of(node.relation) != len(node.arguments)
        ):
            return False
    return True


def _compile(query: Query, schema: Schema) -> Evaluator:
    if isinstance(query, TrueQuery):
        return _true
    if isinstance(query, FalseQuery):
        return _false
    if isinstance(query, Atom):
        return _compile_atom(query, schema)
    if isinstance(query, Equals):
        left, right = query.left, query.right
        return lambda instance, env: env[left] == env[right]
    if isinstance(query, (Exists, Forall)) and _valid(query, schema):
        return _compile_quantifier(query, schema)
    if isinstance(query, Not):
        operand = _compile(query.operand, schema)
        return lambda instance, env: not operand(instance, env)
    if isinstance(query, And):
        left, right = _compile(query.left, schema), _compile(query.right, schema)
        return lambda instance, env: left(instance, env) and right(instance, env)
    if isinstance(query, Or):
        left, right = _compile(query.left, schema), _compile(query.right, schema)
        return lambda instance, env: left(instance, env) or right(instance, env)
    if isinstance(query, Implies):
        left, right = _compile(query.left, schema), _compile(query.right, schema)
        return lambda instance, env: (not left(instance, env)) or right(instance, env)
    if isinstance(query, Iff):
        left, right = _compile(query.left, schema), _compile(query.right, schema)
        return lambda instance, env: left(instance, env) == right(instance, env)
    if isinstance(query, (Exists, Forall)):
        return _compile_domain_loop(query, schema)

    def unsupported(instance: DatabaseInstance, env: dict) -> bool:
        raise QueryError(f"unsupported query node {type(query).__name__}")

    return unsupported


def _true(instance: DatabaseInstance, env: dict) -> bool:
    return True


def _false(instance: DatabaseInstance, env: dict) -> bool:
    return False


def _compile_atom(atom: Atom, schema: Schema) -> Evaluator:
    relation, arguments = atom.relation, atom.arguments
    try:
        schema.check_atom(relation, arguments)
    except (UnknownRelationError, ArityError):
        # Raise on evaluation, with the interpreter's message.
        return lambda instance, env: instance.holds(relation, *(env[a] for a in arguments))
    # ``_by_relation`` has an entry exactly for the relations with a row.
    if not arguments:
        return lambda instance, env: relation in instance._by_relation
    if len(arguments) == 1:
        (argument,) = arguments
        return lambda instance, env: (env[argument],) in instance._by_relation.get(
            relation, _NO_ROWS
        )
    key = itemgetter(*arguments)
    return lambda instance, env: key(env) in instance._by_relation.get(relation, _NO_ROWS)


def _compile_domain_loop(query: Exists | Forall, schema: Schema) -> Evaluator:
    """The interpreter's loop over ``adom(I)`` (``∀`` as ``¬∃¬``), for
    bodies that may raise."""
    variable, body = query.variable, _compile(query.body, schema)
    wanted = isinstance(query, Exists)

    def exists(instance: DatabaseInstance, env: dict) -> bool:
        saved = env.get(variable, _UNBOUND)
        try:
            for value in instance._adom:
                env[variable] = value
                if bool(body(instance, env)) is wanted:
                    return True
            return False
        finally:
            _restore(env, variable, saved)

    return exists if wanted else lambda instance, env: not exists(instance, env)


_UNBOUND = object()


def _restore(env: dict, variable: str, saved: object) -> None:
    if saved is _UNBOUND:
        env.pop(variable, None)
    else:
        env[variable] = saved


def _conjuncts(query: Query) -> list[Query]:
    """The top-level conjuncts of ``query``, pushing negation through ∨ and ⇒."""
    if isinstance(query, TrueQuery):
        return []
    if isinstance(query, And):
        return _conjuncts(query.left) + _conjuncts(query.right)
    if isinstance(query, Not):
        operand = query.operand
        if isinstance(operand, Not):
            return _conjuncts(operand.operand)
        if isinstance(operand, Or):
            return _conjuncts(Not(operand.left)) + _conjuncts(Not(operand.right))
        if isinstance(operand, Implies):
            return _conjuncts(operand.left) + _conjuncts(Not(operand.right))
    return [query]


def _compile_quantifier(query: Exists | Forall, schema: Schema) -> Evaluator:
    """A chain ``∃x̄. φ`` (or ``∀x̄. φ`` as ``¬∃x̄. ¬φ``) evaluated as a join."""
    kind = type(query)
    variables: list[str] = []
    body: Query = query
    while type(body) is kind and body.variable not in variables:
        variables.append(body.variable)
        body = body.body
    if kind is Forall:
        join = _compile_join(tuple(variables), _conjuncts(Not(body)), schema)
        return lambda instance, env: not join(instance, env)
    return _compile_join(tuple(variables), _conjuncts(body), schema)


def _compile_join(variables: tuple[str, ...], conjuncts: list[Query], schema: Schema) -> Evaluator:
    """``∃ variables. ⋀ conjuncts`` for conjuncts that cannot raise.

    Variables are bound stage by stage: from the rows of a positive atom
    conjunct while one mentions an unbound variable (preferring atoms
    with more positions already bound), else from ``adom(I)``.  Every
    other conjunct is tested right after the stage that binds its last
    quantified variable; conjuncts over outer variables only are tested
    before any stage.
    """
    quantified = set(variables)
    pending = list(conjuncts)

    def ready(bound: set) -> list[Evaluator]:
        """Take the pending conjuncts whose quantified variables are all bound."""
        tests, waiting = [], []
        for conjunct in pending:
            (tests if conjunct.free_variables() & quantified <= bound else waiting).append(conjunct)
        pending[:] = waiting
        return [_compile(test, schema) for test in tests]

    bound: set = set()
    before = ready(bound)
    stages: list[tuple] = []
    while bound != quantified:
        atoms = [
            c for c in pending
            if isinstance(c, Atom) and (quantified - bound).intersection(c.arguments)
        ]
        if atoms:
            generator = max(
                atoms,
                key=lambda a: sum(v not in quantified or v in bound for v in a.arguments),
            )
            pending[:] = [c for c in pending if c is not generator]
            stage = ("rows", generator, frozenset(bound))
            bound |= quantified.intersection(generator.arguments)
        else:
            variable = next(v for v in variables if v not in bound)
            stage = ("adom", variable)
            bound.add(variable)
        stages.append((stage, ready(bound)))

    step: Evaluator | None = None
    for stage, tests in reversed(stages):
        if stage[0] == "rows":
            step = _rows_stage(stage[1], quantified, stage[2], tests, step)
        else:
            step = _adom_stage(stage[1], tests, step)
    first = step

    def join(instance: DatabaseInstance, env: dict) -> bool:
        for test in before:
            if not test(instance, env):
                return False
        saved = [env.get(v, _UNBOUND) for v in variables]
        try:
            return first(instance, env)
        finally:
            for variable, value in zip(variables, saved):
                _restore(env, variable, value)

    return join


def _passes(tests: list[Evaluator], rest: Evaluator | None) -> Evaluator:
    """``tests ∧ rest`` as one evaluator (``rest`` is the next stage)."""
    if rest is not None:
        tests = tests + [rest]
    if not tests:
        return _true
    if len(tests) == 1:
        return tests[0]

    def all_pass(instance: DatabaseInstance, env: dict) -> bool:
        for test in tests:
            if not test(instance, env):
                return False
        return True

    return all_pass


def _rows_stage(
    atom: Atom, quantified: set, bound: frozenset, tests: list[Evaluator], rest: Evaluator | None
) -> Evaluator:
    """Bind the atom's unbound quantified variables from its relation's rows."""
    relation = atom.relation
    binds: list[tuple[int, str]] = []
    checks: list[tuple[int, str]] = []
    repeats: list[tuple[int, int]] = []
    first_position: dict[str, int] = {}
    for position, variable in enumerate(atom.arguments):
        if variable in quantified and variable not in bound:
            if variable in first_position:
                repeats.append((position, first_position[variable]))
            else:
                first_position[variable] = position
                binds.append((position, variable))
        else:
            checks.append((position, variable))
    then = _passes(tests, rest)
    row_key = itemgetter(*(p for p, _ in checks)) if checks else None
    env_key = itemgetter(*(v for _, v in checks)) if checks else None

    def rows(instance: DatabaseInstance, env: dict) -> bool:
        wanted = env_key(env) if env_key is not None else None
        for row in instance._by_relation.get(relation, _NO_ROWS):
            if row_key is not None and row_key(row) != wanted:
                continue
            if repeats and any(row[p] != row[q] for p, q in repeats):
                continue
            for position, variable in binds:
                env[variable] = row[position]
            if then(instance, env):
                return True
        return False

    return rows


def _adom_stage(variable: str, tests: list[Evaluator], rest: Evaluator | None) -> Evaluator:
    then = _passes(tests, rest)

    def domain(instance: DatabaseInstance, env: dict) -> bool:
        for value in instance._adom:
            env[variable] = value
            if then(instance, env):
                return True
        return False

    return domain


# -- binding plans ----------------------------------------------------------------


def _plan(query: Query, variables: tuple[str, ...], schema: Schema) -> BindingPlan:
    free = query.free_variables()
    if not free <= set(variables):
        raise QueryError(f"free variables {sorted(free - set(variables))} of {query} are unplanned")
    depth = len(variables)
    # levels[i]: tests run once variables[:i] are bound (level 0: before any).
    levels: list[list[Evaluator]] = [[] for _ in range(depth + 1)]
    if _valid(query, schema):
        position = {variable: index for index, variable in enumerate(variables)}
        for conjunct in _conjuncts(query):
            level = max((position[v] + 1 for v in conjunct.free_variables()), default=0)
            levels[level].append(_compile(conjunct, schema))
    else:
        # May raise: test the whole query on complete bindings only, in
        # the order of the enumeration, as the interpreter's callers did.
        levels[depth].append(compiled(query, schema))
    before = levels[0]
    checks = [_passes(tests, None) if tests else None for tests in levels[1:]]

    def plan(instance: DatabaseInstance, candidates: Sequence) -> list:
        env: dict = {}
        for test in before:
            if not test(instance, env):
                return []
        if not depth:
            return [{}]
        found: list = []

        def descend(level: int) -> None:
            variable, check = variables[level], checks[level]
            last = level + 1 == depth
            for value in candidates:
                env[variable] = value
                if check is not None and not check(instance, env):
                    continue
                if last:
                    found.append(dict(env))
                else:
                    descend(level + 1)

        descend(0)
        return found

    return plan
