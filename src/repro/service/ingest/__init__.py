"""Live-corpus ingest: entity-granular freshness for the serving tier.

- :mod:`repro.service.ingest.match` — the shared query↔entity
  intersection rule every invalidation tier applies;
- :mod:`repro.service.ingest.versions` — the per-entity version
  vector that replaces global corpus-fingerprint rotation;
- :mod:`repro.service.ingest.pipeline` — :class:`IngestPipeline`, the
  process → commit → invalidate → acknowledge → notify transaction;
- :mod:`repro.service.ingest.subscriptions` — ``watch(entity)``
  registrations served as KB-delta push (long-poll + webhook).

Only the dependency-free leaves are imported eagerly here: the KB
store pulls :func:`query_touches` from this package while
``repro.service`` itself is still initializing, so importing the
pipeline or subscription modules (which depend on the wider service
stack) at package-import time would create a cycle. Import those from
their submodules.
"""

from repro.service.ingest.match import (
    EntityMatcher,
    normalize_entity,
    query_touches,
    touched_entities,
    touches_any,
)
from repro.service.ingest.versions import EntityVersionVector, versions_token

__all__ = [
    "EntityMatcher",
    "EntityVersionVector",
    "normalize_entity",
    "query_touches",
    "touched_entities",
    "touches_any",
    "versions_token",
]
