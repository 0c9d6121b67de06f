"""The bit-identical oracle and the output digest.

Every serving tier must return the KB a fresh, stage-cache-free
``QKBfly.build_kb`` produces for the same corpus state (ROADMAP
"Correctness and robustness", oracle 1). The benchmark checks a
deterministic sample of what it was served against that reference
*after* each timed phase, and hashes everything it was served so a
parent-vs-change pair of runs can be diffed for output drift.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Sequence

from repro.core.qkbfly import QKBfly, SessionState
from repro.corpus.realizer import RealizedDocument
from repro.corpus.retrieval import SearchEngine
from repro.corpus.world import World


def canonical(kb_dict: Dict[str, Any]) -> str:
    """One KB dict as comparable text. ``default=str`` mirrors the
    gateway's own encoder, so a body parsed off the wire and a
    reference built in process canonicalize alike."""
    return json.dumps(kb_dict, sort_keys=True, default=str)


def digest(canonical_kbs: Iterable[str]) -> str:
    """SHA-256 over served KBs in request order."""
    sha = hashlib.sha256()
    for text in canonical_kbs:
        sha.update(text.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


class Oracle:
    """Reference builds over one world, optionally with ingested
    documents applied on top of the world's own corpus."""

    def __init__(self, world: World) -> None:
        self._world = world
        self._base = SessionState.from_world(world)
        self._pipelines: Dict[int, QKBfly] = {0: QKBfly.from_session(self._base)}

    def _pipeline(self, ingested: Sequence[RealizedDocument]) -> QKBfly:
        """The reference pipeline after ``ingested`` live documents.
        Callers pass prefixes of one ingest log, so the prefix length
        identifies the corpus state and keys the memo."""
        pipeline = self._pipelines.get(len(ingested))
        if pipeline is None:
            base = self._base.search_engine
            news = dict(base.news_docs)
            wikipedia = dict(base.wikipedia_docs)
            for document in ingested:
                table = news if document.source == "news" else wikipedia
                table[document.doc_id] = document
            pipeline = QKBfly(
                entity_repository=self._base.entity_repository,
                pattern_repository=self._base.pattern_repository,
                statistics=self._base.statistics,
                search_engine=SearchEngine(
                    world=self._world,
                    wikipedia_docs=wikipedia,
                    news_docs=news,
                ),
            )
            self._pipelines[len(ingested)] = pipeline
        return pipeline

    def reference(
        self,
        query: str,
        source: str,
        num_documents: int,
        ingested: Sequence[RealizedDocument] = (),
    ) -> str:
        kb = self._pipeline(ingested).build_kb(
            query, source=source, num_documents=num_documents
        )
        return canonical(kb.to_dict())
