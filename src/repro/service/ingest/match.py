"""The shared query↔entity intersection rule of the ingest subsystem.

Entity-granular invalidation needs one deterministic answer to "does
this normalized query involve this entity?" — and it needs the *same*
answer in every tier that applies it: the in-memory
:class:`~repro.service.cache.QueryCache`, the local and sharded KB
stores, the remote fabric shard servers (which receive the touched
entity list over the wire and apply the rule to their own rows), the
stage cache's tagged retrieval entries, and the serve-time stamping of
per-entity versions onto result envelopes. A rule that drifted between
tiers would invalidate a cache entry but keep its store row (or vice
versa), which is exactly the torn state the freshness checker exists to
catch.

The rule: an entity *touches* a query when the entity's normalized
token sequence appears as a contiguous subsequence of the query's
normalized tokens, or the query's tokens appear contiguously inside
the entity's ("angela bennett" touches the query "angela bennett
spouse", and the query "bennett" touches the entity "angela bennett").
Token-level containment — not substring matching — so the entity
"Ann" can never touch a query about "Annapolis".

A tier never walks its warm state pairing every entry with every
touched entity: it compiles the touched set once into an
:class:`EntityMatcher`, which indexes the entities by token. The
index is an exact prefilter, not a heuristic. A non-empty contiguous
run always shares its first token with the sequence it sits in, so an
entity that touches a query shares at least one token with it; a
query whose tokens are disjoint from every entity's touches none of
them, and the matcher rejects it with one set test. Only the entities
that share a token with the query go on to the contiguous-run rule.

This module is deliberately dependency-free (stdlib only): the KB
store imports it while the ``repro.service`` package is still
initializing, and the fabric shard server must be importable without
the serving facade.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List


def normalize_entity(name: str) -> str:
    """Case-fold and collapse whitespace (the entity twin of
    :func:`repro.service.cache.normalize_query`, duplicated here so
    this module stays import-free — same trick as
    :func:`repro.service.stage_cache.normalized_query_text`)."""
    return " ".join(name.lower().split())


def _contains_run(haystack: List[str], needle: List[str]) -> bool:
    """Whether ``needle`` appears as a contiguous token run."""
    span = len(needle)
    if span == 0 or span > len(haystack):
        return False
    return any(
        haystack[start : start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def query_touches(query: str, entity: str) -> bool:
    """Whether ``entity`` is involved in ``query`` (both normalized
    internally; passing pre-normalized text is fine and idempotent)."""
    query_tokens = normalize_entity(query).split()
    entity_tokens = normalize_entity(entity).split()
    if not query_tokens or not entity_tokens:
        return False
    return _contains_run(query_tokens, entity_tokens) or _contains_run(
        entity_tokens, query_tokens
    )


def touches_any(query: str, entities: Iterable[str]) -> bool:
    """Whether any of ``entities`` touches ``query``."""
    return any(query_touches(query, entity) for entity in entities)


def touched_entities(
    query: str, entities: Iterable[str]
) -> FrozenSet[str]:
    """The subset of ``entities`` that touches ``query`` (normalized)."""
    return frozenset(
        normalize_entity(entity)
        for entity in entities
        if query_touches(query, entity)
    )


class EntityMatcher:
    """A set of entities compiled for repeated :func:`query_touches`
    tests: ``matcher(query)`` equals ``touches_any(query, entities)``,
    and :meth:`touching` lists the entities that touch a query.

    Each entity is kept as given and indexed under the tokens of its
    normalized form, so a test costs one normalization of the query
    plus :func:`query_touches` for the entities sharing a token with
    it (the module docstring says why that is exact). Not thread-safe:
    callers that :meth:`add` while others match hold their own lock.
    """

    def __init__(self, entities: Iterable[str] = ()) -> None:
        #: entity -> the order it was added in
        self._order: Dict[str, int] = {}
        self._by_token: Dict[str, List[str]] = {}
        for entity in entities:
            self.add(entity)

    def add(self, entity: str) -> None:
        """Index ``entity``; a repeat or a blank name is ignored."""
        tokens = normalize_entity(entity).split()
        if not tokens or entity in self._order:
            return
        self._order[entity] = len(self._order)
        for token in set(tokens):
            self._by_token.setdefault(token, []).append(entity)

    def _candidates(self, query: str) -> List[str]:
        """The entities sharing a token with ``query``, in the order
        they were added."""
        if not self._by_token:
            return []
        tokens = query.lower().split()  # == normalize_entity(query).split()
        if self._by_token.keys().isdisjoint(tokens):
            return []
        shared = {
            entity
            for token in set(tokens)
            for entity in self._by_token.get(token, ())
        }
        return sorted(shared, key=self._order.__getitem__)

    def __call__(self, query: str) -> bool:
        return any(
            query_touches(query, entity) for entity in self._candidates(query)
        )

    def touching(self, query: str) -> List[str]:
        """The entities that touch ``query``, in the order they were
        added."""
        return [
            entity
            for entity in self._candidates(query)
            if query_touches(query, entity)
        ]

    def __len__(self) -> int:
        return len(self._order)


__all__ = [
    "EntityMatcher",
    "normalize_entity",
    "query_touches",
    "touched_entities",
    "touches_any",
]
