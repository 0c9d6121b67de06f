"""The per-entity version vector behind entity-granular freshness.

The serving tier's original freshness story was a single corpus
fingerprint: any change anywhere rotated it, and every cache key,
store row, and retrieval-stage signature keyed on it went cold at
once. Live ingest replaces that with a version *vector*: one
monotonically increasing integer per normalized entity name, bumped
only for the entities a new document actually touches. The global
``corpus_version`` stays stable across ingests, so everything keyed on
it stays warm; staleness for the touched slice is enforced by explicit
invalidation (see :mod:`repro.service.ingest.pipeline`) plus the
versions token this vector contributes to retrieval-stage signatures.

The vector is process-local serving state, not session content: it is
installed on the :class:`~repro.core.qkbfly.SessionState` as
``session.entity_versions`` for the retrieval stage to consult, but it
is excluded from session pickling (worker processes see ``None`` and
fall back to an empty token — their stage caches are per-process and
rebuilt on pool swaps anyway).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping

from repro.service.ingest.match import EntityMatcher, normalize_entity


def versions_token(versions: Mapping[str, int]) -> str:
    """Serialize an entity→version mapping deterministically.

    Used both as the stage-signature part (so retrieval entries become
    content-addressed on the versions they were built under) and as the
    freshness-checker digest-key extension. The empty mapping yields
    ``""`` — which is exactly what a pre-ingest signature contained, so
    warm entries built before the first ingest stay addressable.
    """
    if not versions:
        return ""
    return "|".join(
        "{0}={1}".format(entity, versions[entity])
        for entity in sorted(versions)
    )


class EntityVersionVector:
    """Thread-safe monotone version counters keyed on normalized
    entity names.

    An entity absent from the vector is implicitly at version 0 —
    "never touched by an ingest" — and contributes nothing to tokens,
    keeping signatures stable for the untouched corpus.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._versions: Dict[str, int] = {}
        #: Every tracked entity, indexed by token, in first-bump order
        #: (the order of ``_versions``).
        self._matcher = EntityMatcher()
        self.bumps = 0

    def bump(self, entities: Iterable[str]) -> Dict[str, int]:
        """Advance the version of each entity; returns the new
        versions for exactly the entities bumped."""
        bumped: Dict[str, int] = {}
        with self._lock:
            for entity in entities:
                name = normalize_entity(entity)
                if not name:
                    continue
                if name not in self._versions:
                    self._matcher.add(name)
                self._versions[name] = self._versions.get(name, 0) + 1
                bumped[name] = self._versions[name]
            if bumped:
                self.bumps += 1
        return bumped

    def version(self, entity: str) -> int:
        with self._lock:
            return self._versions.get(normalize_entity(entity), 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._versions)

    def versions_for_query(self, query: str) -> Dict[str, int]:
        """The slice of the vector relevant to ``query``: every
        tracked entity that touches it, with its current version.

        This is what gets stamped onto served results — a query that
        involves no ingested entity gets ``{}``, and its results are
        byte-identical to the pre-ingest world. Keys come in
        first-bump order; only entities sharing a token with the query
        are examined.
        """
        with self._lock:
            return {
                entity: self._versions[entity]
                for entity in self._matcher.touching(query)
            }

    def token_for_query(self, query: str) -> str:
        return versions_token(self.versions_for_query(query))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entities": len(self._versions), "bumps": self.bumps}


__all__ = ["EntityVersionVector", "versions_token"]
