"""Canonical structural hashing of systems, actions and store keys.

The content-addressed result store (:mod:`repro.store.store`) keys its
entries by *what* was computed.  Python's built-in ``hash`` cannot serve
as that key: it is salted per interpreter (``PYTHONHASHSEED``), so the
same system hashes differently across runs — the very problem PR 5's
cross-interpreter fix (``__getstate__`` recomputing cached hashes)
worked around for pickles.  This module instead derives **domain-stable
sha256 digests** from canonical JSON forms:

* every structural component is rendered as sorted lists/dicts of JSON
  scalars (facts sorted, dictionary keys sorted, guards and constraints
  rendered through their deterministic ``str()`` forms);
* the rendering goes through
  :func:`repro.runtime.checkpoint.canonical_parameters` — the same
  collision-free canonicaliser the sweep checkpoints use — so values
  outside the JSON scalar domain raise
  :class:`~repro.errors.StoreKeyError` instead of being stringified
  into collisions;
* the digest is the sha256 of the compact, key-sorted JSON encoding.

The *name* of a system is deliberately **excluded** from
:func:`system_hash`: renaming a system must not change its content
address.  The name is kept separately as the store's ``family`` column,
which scopes schema-change invalidation and statistics.

Per-action digests (:func:`action_hashes`) are the unit of
delta-verification: an exploration's cached subgraph records the digest
of every action it expanded under, so a later run over a *modified*
system can tell exactly which actions' successor sets are still valid
(see :mod:`repro.store.capture`).
"""

from __future__ import annotations

import hashlib
import json

from repro.dms.action import Action
from repro.dms.system import DMS
from repro.errors import StoreKeyError
from repro.runtime.checkpoint import canonical_parameters, point_key

__all__ = [
    "action_hash",
    "action_hashes",
    "base_hash",
    "canonical_action",
    "canonical_system",
    "digest",
    "key_digest",
    "schema_hash",
    "system_hash",
]


def digest(value) -> str:
    """The sha256 hex digest of the canonical JSON encoding of ``value``.

    Raises:
        StoreKeyError: when ``value`` contains components outside the
            canonical JSON domain (see
            :func:`repro.runtime.checkpoint.canonical_parameters`).
    """
    try:
        canonical = canonical_parameters(value)
    except TypeError as error:
        raise StoreKeyError(f"value cannot be content-addressed: {error}") from error
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def key_digest(parameters) -> str:
    """The store key of one canonical parameter assignment.

    Reuses the checkpoint layer's :func:`~repro.runtime.checkpoint.point_key`
    (the collision-free canonical serialisation) and hashes it, so keys
    stay fixed-width regardless of how large the assignment grows.

    Raises:
        StoreKeyError: on values outside the canonical domain.
    """
    try:
        serialised = point_key(parameters)
    except TypeError as error:
        raise StoreKeyError(f"store key cannot be derived: {error}") from error
    return hashlib.sha256(serialised.encode("utf-8")).hexdigest()


def _canonical_fact(fact) -> list:
    return [fact.relation, list(fact.arguments)]


def _canonical_facts(facts) -> list:
    return sorted((_canonical_fact(fact) for fact in facts), key=repr)


def _canonical_schema(schema) -> list:
    return [[relation.name, relation.arity] for relation in schema.relations]


def canonical_action(action: Action) -> dict:
    """The canonical JSON form of one action.

    Guards are rendered through their deterministic ``str()`` form;
    ``Del``/``Add`` facts (over variables) are sorted.
    """
    return {
        "name": action.name,
        "parameters": list(action.parameters),
        "fresh": list(action.fresh),
        "guard": str(action.guard),
        "delete": _canonical_facts(action.deletions.facts),
        "add": _canonical_facts(action.additions.facts),
    }


def canonical_system(system: DMS) -> dict:
    """The canonical JSON form of a DMS (excluding its display name)."""
    return {
        "schema": _canonical_schema(system.schema),
        "initial": _canonical_facts(system.initial_instance.facts),
        "constraints": sorted(str(constraint) for constraint in system.constraints),
        "actions": [canonical_action(action) for action in system.actions],
    }


def system_hash(system: DMS) -> str:
    """The domain-stable content hash of a DMS (name excluded).

    Memoised on the (immutable) system object: every isolated or stored
    query keys its warm worker or store entry by it.
    """
    memo = system.__dict__
    try:
        return memo["_memo_system_hash"]
    except KeyError:
        result = memo["_memo_system_hash"] = digest(canonical_system(system))
        return result


def schema_hash(schema) -> str:
    """The domain-stable content hash of a relational schema."""
    return digest(_canonical_schema(schema))


def base_hash(system: DMS) -> str:
    """The hash of the exploration *base*: schema, initial instance, constraints.

    Two systems with equal base hashes explore the same state universe
    under their shared actions, which is the eligibility condition for
    serving one system's cached subgraph as the delta-verification memo
    of the other (the actions themselves are compared per action, via
    :func:`action_hashes`).
    """
    return digest(
        {
            "schema": _canonical_schema(system.schema),
            "initial": _canonical_facts(system.initial_instance.facts),
            "constraints": sorted(str(constraint) for constraint in system.constraints),
        }
    )


def action_hash(action: Action) -> str:
    """The domain-stable content hash of one action."""
    return digest(canonical_action(action))


def action_hashes(system: DMS) -> dict[str, str]:
    """``{action name: content hash}`` for every action of the system."""
    return {action.name: action_hash(action) for action in system.actions}
