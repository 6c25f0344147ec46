"""Abstract syntax of FOL(R) queries (paper, Section 2).

The grammar is::

    Q ::= true | R(u1, ..., ua) | ¬Q | Q1 ∧ Q2 | ∃u.Q | u1 = u2

with the usual abbreviations (∨, ⇒, ∀) provided as derived constructors.
Every node is an immutable, hashable dataclass; :meth:`Query.free_variables`
returns ``Free-Vars(Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.errors import QueryError

__all__ = [
    "Query",
    "TrueQuery",
    "FalseQuery",
    "Atom",
    "Equals",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "atom",
    "conjunction",
    "disjunction",
    "exists",
    "forall",
]


@dataclass(frozen=True)
class Query:
    """Base class of FOL(R) query nodes."""

    def free_variables(self) -> frozenset:
        """``Free-Vars(Q)``: the free data variables of the query (memoised per node)."""
        memo = self.__dict__
        try:
            return memo["_memo_free_variables"]
        except KeyError:
            result = memo["_memo_free_variables"] = self._free_variables()
            return result

    def variables(self) -> frozenset:
        """All data variables appearing in the query, free or bound (memoised per node)."""
        memo = self.__dict__
        try:
            return memo["_memo_variables"]
        except KeyError:
            result = memo["_memo_variables"] = self._variables()
            return result

    def _free_variables(self) -> frozenset:
        raise NotImplementedError

    def _variables(self) -> frozenset:
        raise NotImplementedError

    # Memoised analyses and compiled forms (``_memo_*`` entries of the
    # instance dict) are not fields, so they stay out of ``__eq__``,
    # ``__hash__`` and ``str()``.  They hold closures, so they never travel
    # in a pickle: an unpickled query recomputes them on first use.
    def __getstate__(self) -> dict:
        return {
            name: value for name, value in self.__dict__.items() if not name.startswith("_memo_")
        }

    def relations(self) -> frozenset:
        """All relation names mentioned by the query."""
        raise NotImplementedError

    def children(self) -> tuple["Query", ...]:
        """Immediate sub-queries."""
        return ()

    def size(self) -> int:
        """Number of AST nodes (used for the complexity accounting of §6.6)."""
        return 1 + sum(child.size() for child in self.children())

    def walk(self) -> Iterator["Query"]:
        """Pre-order traversal of the AST."""
        yield self
        for child in self.children():
            yield from child.walk()

    def is_sentence(self) -> bool:
        """True when the query has no free variables."""
        return not self.free_variables()

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        """Consistently rename variables (both free and bound occurrences)."""
        raise NotImplementedError

    def map_atoms(self, function: Callable[["Atom"], "Query"]) -> "Query":
        """Rebuild the query, replacing every relational atom via ``function``."""
        raise NotImplementedError

    # -- operator sugar ---------------------------------------------------

    def __and__(self, other: "Query") -> "Query":
        return And(self, other)

    def __or__(self, other: "Query") -> "Query":
        return Or(self, other)

    def __invert__(self) -> "Query":
        return Not(self)

    def implies(self, other: "Query") -> "Query":
        """``self ⇒ other``."""
        return Implies(self, other)


@dataclass(frozen=True)
class TrueQuery(Query):
    """The query ``true``."""

    def _free_variables(self) -> frozenset:
        return frozenset()

    def _variables(self) -> frozenset:
        return frozenset()

    def relations(self) -> frozenset:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return self

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return self

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseQuery(Query):
    """The derived query ``false`` (= ``¬true``), provided for convenience."""

    def _free_variables(self) -> frozenset:
        return frozenset()

    def _variables(self) -> frozenset:
        return frozenset()

    def relations(self) -> frozenset:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return self

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return self

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom(Query):
    """A relational atom ``R(u1, ..., ua)`` over data variables."""

    relation: str
    arguments: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.relation:
            raise QueryError("atom relation name must be non-empty")
        for argument in self.arguments:
            if not isinstance(argument, str) or not argument:
                raise QueryError(f"atom argument {argument!r} must be a variable name")

    def _free_variables(self) -> frozenset:
        return frozenset(self.arguments)

    def _variables(self) -> frozenset:
        return frozenset(self.arguments)

    def relations(self) -> frozenset:
        return frozenset({self.relation})

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return Atom(self.relation, tuple(mapping.get(arg, arg) for arg in self.arguments))

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return function(self)

    def __str__(self) -> str:
        if not self.arguments:
            return self.relation
        return f"{self.relation}({', '.join(self.arguments)})"


@dataclass(frozen=True)
class Equals(Query):
    """The equality atom ``u1 = u2``."""

    left: str
    right: str

    def _free_variables(self) -> frozenset:
        return frozenset({self.left, self.right})

    def _variables(self) -> frozenset:
        return frozenset({self.left, self.right})

    def relations(self) -> frozenset:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return Equals(mapping.get(self.left, self.left), mapping.get(self.right, self.right))

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return self

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Not(Query):
    """Negation ``¬Q``."""

    operand: Query

    def _free_variables(self) -> frozenset:
        return self.operand.free_variables()

    def _variables(self) -> frozenset:
        return self.operand.variables()

    def relations(self) -> frozenset:
        return self.operand.relations()

    def children(self) -> tuple[Query, ...]:
        return (self.operand,)

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return Not(self.operand.rename(mapping))

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return Not(self.operand.map_atoms(function))

    def __str__(self) -> str:
        return f"¬({self.operand})"


@dataclass(frozen=True)
class _Binary(Query):
    """Shared implementation of binary connectives."""

    left: Query
    right: Query

    _symbol = "?"

    def _free_variables(self) -> frozenset:
        return self.left.free_variables() | self.right.free_variables()

    def _variables(self) -> frozenset:
        return self.left.variables() | self.right.variables()

    def relations(self) -> frozenset:
        return self.left.relations() | self.right.relations()

    def children(self) -> tuple[Query, ...]:
        return (self.left, self.right)

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        return type(self)(self.left.rename(mapping), self.right.rename(mapping))

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return type(self)(self.left.map_atoms(function), self.right.map_atoms(function))

    def __str__(self) -> str:
        return f"({self.left} {self._symbol} {self.right})"


@dataclass(frozen=True)
class And(_Binary):
    """Conjunction ``Q1 ∧ Q2``."""

    _symbol = "∧"


@dataclass(frozen=True)
class Or(_Binary):
    """Disjunction ``Q1 ∨ Q2`` (derived: ``¬(¬Q1 ∧ ¬Q2)``)."""

    _symbol = "∨"


@dataclass(frozen=True)
class Implies(_Binary):
    """Implication ``Q1 ⇒ Q2`` (derived)."""

    _symbol = "⇒"


@dataclass(frozen=True)
class Iff(_Binary):
    """Bi-implication ``Q1 ⇔ Q2`` (derived)."""

    _symbol = "⇔"


@dataclass(frozen=True)
class _Quantifier(Query):
    """Shared implementation of quantifiers."""

    variable: str
    body: Query

    _symbol = "?"

    def __post_init__(self) -> None:
        if not self.variable:
            raise QueryError("quantified variable name must be non-empty")

    def _free_variables(self) -> frozenset:
        return self.body.free_variables() - {self.variable}

    def _variables(self) -> frozenset:
        return self.body.variables() | {self.variable}

    def relations(self) -> frozenset:
        return self.body.relations()

    def children(self) -> tuple[Query, ...]:
        return (self.body,)

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        new_variable = mapping.get(self.variable, self.variable)
        return type(self)(new_variable, self.body.rename(mapping))

    def map_atoms(self, function: Callable[["Atom"], Query]) -> Query:
        return type(self)(self.variable, self.body.map_atoms(function))

    def __str__(self) -> str:
        return f"{self._symbol}{self.variable}. ({self.body})"


@dataclass(frozen=True)
class Exists(_Quantifier):
    """Existential quantification ``∃u.Q`` (active-domain semantics)."""

    _symbol = "∃"


@dataclass(frozen=True)
class Forall(_Quantifier):
    """Universal quantification ``∀u.Q`` (derived: ``¬∃u.¬Q``)."""

    _symbol = "∀"


# -- convenience constructors ---------------------------------------------


def atom(relation: str, *arguments: str) -> Atom:
    """Build an atom ``relation(arguments)``."""
    return Atom(relation, tuple(arguments))


def conjunction(*parts: Query) -> Query:
    """The conjunction of the given queries (``true`` when empty)."""
    queries = [part for part in parts if not isinstance(part, TrueQuery)]
    if not queries:
        return TrueQuery()
    result = queries[0]
    for part in queries[1:]:
        result = And(result, part)
    return result


def disjunction(*parts: Query) -> Query:
    """The disjunction of the given queries (``false`` when empty)."""
    queries = list(parts)
    if not queries:
        return FalseQuery()
    result = queries[0]
    for part in queries[1:]:
        result = Or(result, part)
    return result


def exists(variables: str | tuple[str, ...] | list[str], body: Query) -> Query:
    """``∃ variables . body`` (nested for several variables)."""
    names = (variables,) if isinstance(variables, str) else tuple(variables)
    result = body
    for name in reversed(names):
        result = Exists(name, result)
    return result


def forall(variables: str | tuple[str, ...] | list[str], body: Query) -> Query:
    """``∀ variables . body`` (nested for several variables)."""
    names = (variables,) if isinstance(variables, str) else tuple(variables)
    result = body
    for name in reversed(names):
        result = Forall(name, result)
    return result
