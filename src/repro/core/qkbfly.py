"""QKBfly: the end-to-end query-driven on-the-fly KB builder.

Pipeline (Figure 1): query -> document retrieval -> linguistic
pre-processing -> semantic graph -> graph densification (joint NED + CR)
-> canonicalization -> on-the-fly KB.

Variants used in the paper's experiments (Section 7):

- ``mode="joint"`` — full QKBfly: fact extraction, NED and CR jointly.
- ``mode="pipeline"`` — three separate stages; NED uses only prior +
  context similarity (the type-signature feature is omitted), CR is
  recency/salience-based. Mirrors "QKBfly-pipeline".
- ``mode="noun"`` — no co-reference resolution: pronoun nodes are
  dropped. Mirrors "QKBfly-noun".
- ``algorithm="ilp"`` — Stage 2 solved exactly by the ILP of Appendix A
  instead of the greedy algorithm. Mirrors "QKBfly-ilp".
- ``triples_only=True`` — restrict the KB to SPO triples ("QKBfly-
  triples" in the QA experiment).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.canonicalize import Canonicalizer, CanonicalizerConfig
from repro.corpus.background import build_background_corpus
from repro.corpus.realizer import RealizedDocument
from repro.corpus.retrieval import SearchEngine
from repro.corpus.statistics import BackgroundStatistics
from repro.corpus.world import World
from repro.graph.builder import GraphBuilder
from repro.graph.densify import DensestSubgraph, DensifyResult
from repro.graph.semantic_graph import NodeType, SemanticGraph
from repro.graph.weights import EdgeWeights, WeightParameters
from repro.kb.entity_repository import EntityRepository
from repro.kb.facts import KnowledgeBase
from repro.kb.pattern_repository import PatternRepository
from repro.nlp.pipeline import NlpPipeline, PipelineConfig
from repro.nlp.tokens import Document
from repro.openie.clausie import EXTRACTOR_VERSION
from repro.openie.clauses import Clause

if TYPE_CHECKING:  # typing only; the runtime import would be circular
    from repro.service.stage_cache import StageCache


def _stage_signature(*parts: str) -> str:
    """Forward to :func:`repro.service.stage_cache.stage_signature`.

    Imported lazily at call time: ``repro.service`` imports this module
    at package init, so a module-level import here would be circular.
    By the time a signature is computed (inside a query), both packages
    are fully initialized.
    """
    from repro.service.stage_cache import stage_signature

    return stage_signature(*parts)


@dataclass
class QKBflyConfig:
    """Configuration of the end-to-end system."""

    mode: str = "joint"          # joint | pipeline | noun
    algorithm: str = "greedy"    # greedy | ilp
    parser: str = "greedy"       # greedy | chart
    tau: float = 0.5
    triples_only: bool = False
    weights: WeightParameters = field(default_factory=WeightParameters)
    ilp_time_budget: float = 120.0

    def digest(self) -> str:
        """Fingerprint of the result-shaping knobs beyond mode and
        algorithm (parser, tau, triples_only, weights, ILP budget), so
        cache, store and fragment-stage keys separate configs that
        produce different KBs. A persisted store-key column: the
        payload format must not change."""
        payload = "|".join(
            (
                self.parser,
                f"{self.tau}",
                str(self.triples_only),
                ",".join(str(a) for a in self.weights.as_tuple()),
                f"{self.ilp_time_budget}",
            )
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


@dataclass
class DocumentTrace:
    """Per-document diagnostics (timings in seconds, graph sizes)."""

    doc_id: str
    preprocess_seconds: float = 0.0
    graph_seconds: float = 0.0
    canonicalize_seconds: float = 0.0
    graph_stats: Dict[str, int] = field(default_factory=dict)
    num_facts: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end processing time for the document."""
        return (
            self.preprocess_seconds
            + self.graph_seconds
            + self.canonicalize_seconds
        )


class SessionState:
    """The expensive, shareable half of a QKBfly deployment.

    Building background statistics, the search index and the NLP
    pipeline dominates start-up cost; none of it depends on an
    individual query. A :class:`SessionState` bundles those pieces so
    many :class:`QKBfly` instances (and many concurrent queries) can
    share one copy. Everything here is treated as read-only after
    construction, which is what makes sharing across threads safe.

    ``corpus_version`` stamps the exact corpus snapshot the session
    serves; the query cache and the persistent KB store key on it so
    results from a stale corpus are never returned. It is computed
    lazily on first access — pipelines that never touch the serving
    layer don't pay for corpus-wide fingerprinting.
    """

    def __init__(
        self,
        entity_repository: EntityRepository,
        pattern_repository: PatternRepository,
        statistics: BackgroundStatistics,
        search_engine: Optional[SearchEngine] = None,
        nlp: Optional[NlpPipeline] = None,
        parser: str = "greedy",
        corpus_version: str = "",
        stage_cache: Optional["StageCache"] = None,
    ) -> None:
        self.entity_repository = entity_repository
        self.pattern_repository = pattern_repository
        self.statistics = statistics
        self.search_engine = search_engine
        self.parser = parser
        self._corpus_version = corpus_version
        self._nlp = nlp
        # The shared stage-level cache, or None when disabled. Installed
        # by the serving layer (ServiceConfig's stage-cache knobs) and
        # shared by every QKBfly and service over this session; see
        # repro.service.stage_cache and docs/PIPELINE.md.
        self.stage_cache: Optional["StageCache"] = stage_cache
        # id(piece) -> (piece, its fingerprint); see :meth:`fingerprint_of`.
        self._fingerprints: Dict[int, Tuple[object, str]] = {}
        # Per-entity version vector, installed by the serving layer's
        # live-ingest path (an :class:`~repro.service.ingest.versions.
        # EntityVersionVector`); None outside a serving deployment.
        # The retrieval stage folds its query slice into signatures.
        self.entity_versions = None

    @property
    def nlp(self) -> NlpPipeline:
        """The shared NLP pipeline, built on first access."""
        if self._nlp is None:
            self._nlp = NlpPipeline(
                PipelineConfig(
                    parser=self.parser,
                    gazetteer=self.entity_repository.gazetteer(),
                )
            )
        return self._nlp

    @nlp.setter
    def nlp(self, pipeline: Optional[NlpPipeline]) -> None:
        self._nlp = pipeline

    def fingerprint_of(self, piece) -> str:
        """``piece.fingerprint()``, memoised per object — ``piece`` is
        an entity repository, a pattern repository or the statistics.

        Milliseconds each and needed by every :class:`QKBfly` bound to
        the session (a live ingest binds a fresh one over the *same*
        repositories), so each is computed once per object. A swapped
        piece is another object and gets its own fingerprint; an
        in-place mutation must be announced with
        :meth:`forget_fingerprints` (``refresh_corpus`` does).
        """
        memo = self._fingerprints.get(id(piece))
        if memo is None or memo[0] is not piece:
            memo = (piece, piece.fingerprint())
            self._fingerprints[id(piece)] = memo
        return memo[1]

    def forget_fingerprints(self) -> None:
        """Drop the memoised fingerprints (a piece changed in place)."""
        self._fingerprints = {}

    @property
    def corpus_version(self) -> str:
        """The corpus fingerprint, computed on first access."""
        if not self._corpus_version:
            self._corpus_version = self.compute_corpus_version()
        return self._corpus_version

    @corpus_version.setter
    def corpus_version(self, value: str) -> None:
        self._corpus_version = value

    def rebuild_nlp(self) -> None:
        """Rebuild the NLP pipeline from the current entity repository.

        The NER gazetteer is a snapshot taken at construction; call this
        after the entity repository changes so new entities are tagged.
        """
        self._nlp = NlpPipeline(
            PipelineConfig(
                parser=self.parser,
                gazetteer=self.entity_repository.gazetteer(),
            )
        )

    @classmethod
    def from_world(
        cls,
        world: World,
        parser: str = "greedy",
        with_search: bool = True,
    ) -> "SessionState":
        """Build the shared session state for a synthetic world."""
        background = build_background_corpus(world)
        engine = None
        if with_search:
            engine = SearchEngine.from_world(world, background.documents)
        return cls(
            entity_repository=world.entity_repository,
            pattern_repository=world.pattern_repository,
            statistics=background.statistics,
            search_engine=engine,
            parser=parser,
        )

    def compute_corpus_version(self) -> str:
        """Deterministic fingerprint of the served corpus snapshot.

        Hashes every input that shapes query results: the entity
        repository, the pattern repository, the background statistics,
        and the retrievable documents — ids, titles *and* text, so an
        in-place edit to any of them yields a new version, which
        invalidates cached and stored query results.
        """
        self.forget_fingerprints()  # a fresh look at every piece
        digest = hashlib.sha1()
        for piece in (
            self.entity_repository, self.pattern_repository, self.statistics
        ):
            digest.update(self.fingerprint_of(piece).encode("utf-8"))
        if self.search_engine is not None:
            for prefix, docs in (
                (b"w", self.search_engine.wikipedia_docs),
                (b"n", self.search_engine.news_docs),
            ):
                for doc_id in sorted(docs):
                    doc = docs[doc_id]
                    digest.update(prefix + doc_id.encode("utf-8"))
                    digest.update(doc.title.encode("utf-8"))
                    digest.update(doc.text.encode("utf-8"))
        return digest.hexdigest()[:16]


class QKBfly:
    """The on-the-fly KB construction system."""

    def __init__(
        self,
        entity_repository: Optional[EntityRepository] = None,
        pattern_repository: Optional[PatternRepository] = None,
        statistics: Optional[BackgroundStatistics] = None,
        search_engine: Optional[SearchEngine] = None,
        config: Optional[QKBflyConfig] = None,
        session: Optional[SessionState] = None,
    ) -> None:
        self.config = config or QKBflyConfig()
        if session is None:
            if (
                entity_repository is None
                or pattern_repository is None
                or statistics is None
            ):
                raise TypeError(
                    "QKBfly needs entity_repository, pattern_repository and "
                    "statistics when no session is given"
                )
            session = SessionState(
                entity_repository=entity_repository,
                pattern_repository=pattern_repository,
                statistics=statistics,
                search_engine=search_engine,
                parser=self.config.parser,
            )
        elif any(
            argument is not None
            for argument in (
                entity_repository, pattern_repository, statistics, search_engine
            )
        ):
            raise TypeError(
                "pass either a session or explicit repositories, not both"
            )
        self.session = session
        self.entity_repository = session.entity_repository
        self.pattern_repository = session.pattern_repository
        self.statistics = session.statistics
        self.search_engine = session.search_engine
        if session.parser == self.config.parser:
            self.nlp = session.nlp
        else:
            # A per-instance pipeline only when the parser differs from
            # the session's; repositories stay shared either way.
            self.nlp = NlpPipeline(
                PipelineConfig(
                    parser=self.config.parser,
                    gazetteer=session.entity_repository.gazetteer(),
                )
            )
        self.builder = GraphBuilder(session.entity_repository)
        #: ``config.digest()``, taken once: the cache-, store- and
        #: fragment-key column of every build this instance runs.
        self.config_digest = self.config.digest()
        # Memoized stage configuration digests, computed on first staged
        # build from the session's memoised fingerprints. A corpus
        # refresh rebinds a fresh QKBfly, which recomputes them.
        self._nlp_stage_digest_memo: Optional[str] = None
        self._fragment_stage_digest_memo: Optional[str] = None
        self.canonicalizer = Canonicalizer(
            session.pattern_repository,
            session.entity_repository,
            CanonicalizerConfig(tau=self.config.tau),
        )

    @classmethod
    def from_session(
        cls,
        session: SessionState,
        config: Optional[QKBflyConfig] = None,
    ) -> "QKBfly":
        """Cheap per-query/per-config instance over shared session state."""
        return cls(config=config, session=session)

    @classmethod
    def from_world(
        cls,
        world: World,
        config: Optional[QKBflyConfig] = None,
        with_search: bool = True,
    ) -> "QKBfly":
        """Assemble the system from a synthetic world's repositories."""
        parser = (config or QKBflyConfig()).parser
        session = SessionState.from_world(
            world, parser=parser, with_search=with_search
        )
        return cls.from_session(session, config=config)

    # ------------------------------------------------------------------
    # Query-driven entry point
    # ------------------------------------------------------------------

    @property
    def stage_cache(self) -> Optional["StageCache"]:
        """The session's stage-level cache (None when disabled).

        Read dynamically from the session so a cache installed by the
        serving layer after this instance was built is still used.
        """
        return self.session.stage_cache

    def build_kb(
        self,
        query: str,
        source: str = "wikipedia",
        num_documents: int = 1,
    ) -> KnowledgeBase:
        """Retrieve documents for ``query`` and build the on-the-fly KB.

        The answer is ``merge(fragment(d) for d in retrieve(query))``:
        retrieval, then per document NLP annotation → clause extraction
        → graph/densify/canonicalize (the document's *fragment*, which
        depends on the document, the config and the static repositories
        and on nothing else), then an ordered fold. When the session
        carries a :class:`~repro.service.stage_cache.StageCache` all
        four stages are served from it under content-addressed
        signatures, so a query only pays for retrieval, the merge and
        the documents no earlier query retrieved. Output is
        bit-identical with and without the cache (see
        ``docs/PIPELINE.md``).
        """
        if self.search_engine is None:
            raise RuntimeError("QKBfly was constructed without a search engine")
        documents = self._retrieval_stage(query, source, num_documents)
        return KnowledgeBase.merge(
            [self.document_fragment(document) for document in documents]
        )

    # ------------------------------------------------------------------
    # Cacheable upstream stages
    # ------------------------------------------------------------------

    def _retrieval_stage(
        self, query: str, source: str, num_documents: int
    ) -> List[RealizedDocument]:
        """Stage 0: ranked documents for ``query`` on one channel.

        The cached product is the ranked *doc-id list* (documents
        themselves live in the search engine), keyed on the corpus
        version, the channel, the result count, and the normalized
        query text — a corpus bump changes the version and therefore
        every signature, so stale rankings are unreachable. Ids that no
        longer resolve (an engine swapped without a version bump, which
        the session contract forbids but a cache must survive) fall
        back to a fresh search.
        """
        cache = self.stage_cache
        if cache is None:
            return self.search_engine.search(
                query, source=source, k=num_documents
            )
        normalized = " ".join(query.lower().split())
        # Live ingest bumps a per-entity version vector instead of the
        # global corpus version (see docs/INGEST.md); the token of the
        # slice relevant to this query joins the signature, so an
        # ingest touching the query's entities makes the old ranking
        # unreachable while every other query's entry stays addressed.
        # Sessions without the serving layer contribute the empty token.
        vector = getattr(self.session, "entity_versions", None)
        versions_token = (
            vector.token_for_query(normalized) if vector is not None else ""
        )
        signature = _stage_signature(
            "retrieval",
            self.session.corpus_version,
            versions_token,
            source,
            str(num_documents),
            normalized,
        )
        doc_ids = cache.get("retrieval", signature)
        if doc_ids is not None:
            documents = self._resolve_documents(doc_ids, source)
            if documents is not None:
                return documents
        documents = self.search_engine.search(
            query, source=source, k=num_documents
        )
        doc_ids = [document.doc_id for document in documents]
        cache.put(
            "retrieval",
            signature,
            doc_ids,
            size_bytes=_ranking_size(doc_ids),
            tag=normalized,
        )
        return documents

    def _resolve_documents(
        self, doc_ids: Sequence[str], source: str
    ) -> Optional[List[RealizedDocument]]:
        """Map cached doc ids back to documents; None if any is gone."""
        if source == "wikipedia":
            table = self.search_engine.wikipedia_docs
        elif source == "news":
            table = self.search_engine.news_docs
        else:  # unknown channel: let search() raise its own error
            return None
        documents = []
        for doc_id in doc_ids:
            document = table.get(doc_id)
            if document is None:
                return None
            documents.append(document)
        return documents

    def _nlp_stage(
        self, document: RealizedDocument
    ) -> Tuple[Document, str]:
        """Stage 1: the annotated document, plus its stage signature.

        Content-addressed on the document's id, title, and text plus
        the annotation configuration (parser name and the entity-
        repository fingerprint, which determines the NER gazetteer) —
        deliberately *not* on the corpus version, so a corpus bump that
        leaves a document unchanged leaves its annotation reusable.
        Returns an empty signature when caching is off.
        """
        cache = self.stage_cache
        if cache is None:
            return (
                self.nlp.annotate_text(document.text, doc_id=document.doc_id),
                "",
            )
        signature = _stage_signature(
            "nlp",
            self._nlp_stage_digest(),
            _stage_signature(
                "doc", document.doc_id, document.title, document.text
            ),
        )
        annotated = cache.get("nlp", signature)
        if annotated is None:
            annotated = self.nlp.annotate_text(
                document.text, doc_id=document.doc_id
            )
            cache.put(
                "nlp", signature, annotated, size_bytes=_annotation_size(annotated)
            )
        return annotated, signature

    def _extraction_stage(
        self, annotated: Document, nlp_signature: str
    ) -> Tuple[Optional[List[List[Clause]]], str]:
        """Stage 2: per-sentence ClausIE clause lists for the document,
        plus their stage signature.

        Keyed on the extractor version and the upstream NLP signature —
        extraction is deterministic over the annotation, so the chained
        signature is its complete identity. Returns ``(None, "")`` when
        caching is off, letting :meth:`GraphBuilder.build` extract
        inline.
        """
        cache = self.stage_cache
        if cache is None or not nlp_signature:
            return None, ""
        signature = _stage_signature(
            "extract", EXTRACTOR_VERSION, nlp_signature
        )
        clauses = cache.get("extract", signature)
        if clauses is None:
            clauses = [
                self.builder.clausie.extract(sentence)
                for sentence in annotated.sentences
            ]
            cache.put(
                "extract", signature, clauses, size_bytes=_clauses_size(clauses)
            )
        return clauses, signature

    def document_fragment(self, document: RealizedDocument) -> KnowledgeBase:
        """Stages 1-3 over one retrieved document: its KB *fragment*.

        With a stage cache the fragment is looked up at the end of the
        document's signature chain — nlp → extract (document content,
        parser, entity repository, extractor) → fragment (mode,
        algorithm, :meth:`QKBflyConfig.digest`, pattern repository,
        statistics) — so it is built once per document × config, not
        once per query that retrieves the document. A cached fragment
        is an immutable value shared by every answer that merges it.

        ``algorithm="ilp"`` always builds: the solver stops on a
        wall-clock budget, so its fragment is not a function of the
        document alone.
        """
        annotated, nlp_signature = self._nlp_stage(document)
        clauses, extract_signature = self._extraction_stage(
            annotated, nlp_signature
        )
        cache = self.stage_cache
        if (
            cache is None
            or not extract_signature
            or self.config.algorithm == "ilp"
        ):
            return self.process_document(annotated, clauses=clauses)[0]
        signature = _stage_signature(
            "fragment", self._fragment_stage_digest(), extract_signature
        )
        fragment = cache.get("fragment", signature)
        if fragment is None:
            fragment = self.process_document(annotated, clauses=clauses)[0]
            cache.put(
                "fragment",
                signature,
                fragment,
                size_bytes=_fragment_size(fragment),
            )
        return fragment

    def _nlp_stage_digest(self) -> str:
        if self._nlp_stage_digest_memo is None:
            self._nlp_stage_digest_memo = _stage_signature(
                "nlp-config",
                self.config.parser,
                self.session.fingerprint_of(self.entity_repository),
            )
        return self._nlp_stage_digest_memo

    def _fragment_stage_digest(self) -> str:
        if self._fragment_stage_digest_memo is None:
            self._fragment_stage_digest_memo = _stage_signature(
                "fragment-config",
                self.config.mode,
                self.config.algorithm,
                self.config_digest,
                self.session.fingerprint_of(self.pattern_repository),
                self.session.fingerprint_of(self.statistics),
            )
        return self._fragment_stage_digest_memo

    # ------------------------------------------------------------------
    # Document processing
    # ------------------------------------------------------------------

    def process_text(
        self, text: str, doc_id: str = "doc"
    ) -> Tuple[KnowledgeBase, DocumentTrace]:
        """Run the full pipeline over raw text."""
        trace = DocumentTrace(doc_id=doc_id)
        t0 = time.perf_counter()
        annotated = self.nlp.annotate_text(text, doc_id=doc_id)
        trace.preprocess_seconds = time.perf_counter() - t0
        kb, _, _ = self.process_document(annotated, trace)
        return kb, trace

    def process_document(
        self,
        annotated: Document,
        trace: Optional[DocumentTrace] = None,
        clauses: Optional[List[List[Clause]]] = None,
    ) -> Tuple[KnowledgeBase, SemanticGraph, DensifyResult]:
        """Stages 1-3 over a pre-annotated document.

        ``clauses`` optionally injects precomputed (possibly cached)
        per-sentence clause lists; extraction runs inline when omitted.
        """
        trace = trace or DocumentTrace(doc_id=annotated.doc_id)
        t0 = time.perf_counter()
        graph = self.builder.build(annotated, clauses=clauses)
        if self.config.mode == "noun":
            self._drop_pronouns(graph)
        if self.config.mode == "pipeline":
            result = self._pipeline_stage2(graph, annotated)
        elif self.config.algorithm == "ilp":
            result = self._ilp_stage2(graph, annotated)
        else:
            weights = EdgeWeights(
                graph, annotated, self.statistics, self.config.weights
            )
            result = DensestSubgraph().run(graph, weights)
        trace.graph_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        kb = self.canonicalizer.canonicalize(graph, result, doc_id=annotated.doc_id)
        if self.config.triples_only:
            kb = _restrict_to_triples(kb)
        trace.canonicalize_seconds = time.perf_counter() - t0
        trace.graph_stats = graph.stats()
        trace.num_facts = len(kb)
        return kb, graph, result

    # ------------------------------------------------------------------
    # Variant stage-2 implementations
    # ------------------------------------------------------------------

    def _drop_pronouns(self, graph: SemanticGraph) -> None:
        """QKBfly-noun: remove all pronoun sameAs links."""
        for pronoun_id in graph.pronouns():
            for neighbor in list(graph.same_as.get(pronoun_id, ())):
                graph.remove_same_as(pronoun_id, neighbor)

    def _pipeline_stage2(
        self, graph: SemanticGraph, annotated: Document
    ) -> DensifyResult:
        """QKBfly-pipeline: independent NED then CR, no joint inference.

        NED picks, per sameAs group, the candidate maximizing only the
        means weight (prior + context similarity); the type-signature and
        coherence features are omitted. CR resolves each pronoun to the
        nearest preceding subject noun phrase with compatible gender.
        """
        params = WeightParameters(
            alpha1=self.config.weights.alpha1,
            alpha2=self.config.weights.alpha2,
            alpha3=0.0,
            alpha4=0.0,
        )
        weights = EdgeWeights(graph, annotated, self.statistics, params)
        result = DensifyResult()
        seen: set = set()
        for phrase_id in sorted(graph.noun_phrases()):
            if phrase_id in seen:
                continue
            group = sorted(graph.np_same_as_group(phrase_id))
            seen.update(group)
            scores: Dict[str, float] = {}
            for member in group:
                for entity_id in graph.candidates(member):
                    scores[entity_id] = scores.get(entity_id, 0.0) + (
                        weights.means_weight(member, entity_id)
                    )
            if scores:
                ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
                chosen, best = ranked[0]
                total = sum(v for _, v in ranked) or 1.0
                for member in group:
                    result.assignment[member] = chosen
                    result.confidence[member] = best / total
            else:
                for member in group:
                    result.assignment[member] = None
        for pronoun_id in sorted(graph.pronouns()):
            result.antecedent[pronoun_id] = self._nearest_antecedent(
                graph, pronoun_id
            )
        return result

    def _nearest_antecedent(
        self, graph: SemanticGraph, pronoun_id: str
    ) -> Optional[str]:
        pronoun = graph.phrases[pronoun_id]
        best: Optional[str] = None
        best_key: Tuple = ()
        for neighbor in sorted(graph.same_as.get(pronoun_id, ())):
            node = graph.phrases[neighbor]
            if node.node_type != NodeType.NOUN_PHRASE:
                continue
            distance = pronoun.sentence_index - node.sentence_index
            key = (node.is_subject, -distance, node.start)
            if best is None or key > best_key:
                best = neighbor
                best_key = key
        return best

    def _ilp_stage2(
        self, graph: SemanticGraph, annotated: Document
    ) -> DensifyResult:
        """QKBfly-ilp: exact Stage 2 via the Appendix-A ILP."""
        from repro.graph.ilp import IlpStage2

        weights = EdgeWeights(
            graph, annotated, self.statistics, self.config.weights
        )
        return IlpStage2(time_budget=self.config.ilp_time_budget).run(
            graph, weights
        )


# Stage-cache weights. Pickling a stage product to weigh it (the stage
# cache's default) costs more than most of the work it caches, and the
# products are near-uniform rows, so their counts are as honest. Each
# set of constants is a least-squares fit of the pickled size over the
# reference world (``World(WorldConfig(), seed=7)``: the products of its
# 240 documents, or its 400 name x channel rankings), each constant
# rounded up; the largest error of a fit is given with it.


def _ranking_size(doc_ids: Sequence[str]) -> int:
    """Weight of one retrieval entry, a ranked doc-id list (at most
    40 % over on these few-dozen-byte entries, 9 % on average)."""
    return 7 + sum(9 + len(doc_id) for doc_id in doc_ids)


def _annotation_size(document: Document) -> int:
    """Weight of one annotated document (max 5 % off)."""
    tokens = spans = 0
    for sentence in document.sentences:
        tokens += len(sentence.tokens)
        spans += (
            len(sentence.noun_phrases)
            + len(sentence.entity_mentions)
            + len(sentence.time_mentions)
        )
    return 350 + 57 * tokens + 26 * spans


def _clauses_size(clauses: List[List[Clause]]) -> int:
    """Weight of one document's clause lists: the constituents plus the
    sentences the clauses carry along (max 7 % off)."""
    constituents = tokens = 0
    for sentence_clauses in clauses:
        if sentence_clauses:
            tokens += len(sentence_clauses[0].sentence.tokens)
        for clause in sentence_clauses:
            constituents += len(clause.arguments())
    return 450 + 113 * constituents + 59 * tokens


def _fragment_size(fragment: KnowledgeBase) -> int:
    """Weight of one fragment, the KB of one document."""
    mentions = sum(len(m) for m in fragment.entity_mentions.values())
    return (
        384
        + 160 * len(fragment.facts)
        + 128 * len(fragment.emerging)
        + 32 * len(fragment.entity_types)
        + 24 * mentions
    )


def _restrict_to_triples(kb: KnowledgeBase) -> KnowledgeBase:
    """Keep only subject-predicate-object projections of the facts."""
    return kb.with_facts(replace(f, objects=f.objects[:1]) for f in kb.facts)


__all__ = ["DocumentTrace", "QKBfly", "QKBflyConfig", "SessionState"]
