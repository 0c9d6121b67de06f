"""Run-time span tracing from the benchmark's own files.

``install`` wraps the public entry points of each layer (the table in
``TARGETS``) at class level — nothing under ``src/`` is edited. A span
records name, start, end, the span that caused it and the ordinal of
the request it belongs to; spans stay in memory until the workload
ends. ``analyze`` turns them into per-name call counts, total time and
*self* time (a span's duration minus the part its child spans cover).

No wrapper goes on functions called more than ~10^3 times per request
(``weights.relation_weight``, ``dependency.score``): the wrapper cost
(~1 us) would swamp them. That depth belongs to in-program spans
(ROADMAP item 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextvars import ContextVar
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# A live span is a list so the wrapper can fill it in place:
# [name, start_ns, end_ns, parent span | None, request id, tag, value].
_NAME, _START, _END, _PARENT, _REQUEST, _TAG, _VALUE = range(7)

_current: ContextVar[Optional[list]] = ContextVar("e2e_span", default=None)

#: A finished span as ``analyze`` reads it (parent is an index).
Record = Tuple[str, int, int, Optional[int], Optional[int], Optional[str], Any]


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        #: Ordinal of the request the closed-loop caller is issuing;
        #: root spans copy it, children inherit it from their parent.
        self.request_id: Optional[int] = None
        #: The running root span of the single in-process caller.
        #: Executor worker threads start with an empty context, so
        #: their spans adopt it as parent (the caller is blocked on
        #: the future for exactly that interval).
        self.adopt: Optional[list] = None

    def records(self) -> List[Record]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            (
                span[_NAME],
                span[_START],
                span[_END],
                index.get(id(span[_PARENT])),
                span[_REQUEST],
                span[_TAG],
                span[_VALUE],
            )
            for span in self.spans
            if span[_END]  # a span still open when we stopped is dropped
        ]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def read_jsonl(path: str) -> List[Record]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


# ---- observers: (tag, value) from a call's arguments and result -----------


def _served_from(args, result):
    return result.served_from, None


def _hit_or_miss(args, result):
    return ("hit" if result is not None else "miss"), None


def _try_load(args, result):
    answered, kb = result
    return ("hit" if kb is not None else "miss" if answered else "busy"), None


def _annotated(args, result):
    return None, (len(result.sentences), result.num_tokens())


def _length(args, result):
    return None, len(result)


def _returned(args, result):
    return None, result


def _graph_size(args, result):
    nodes = result["phrases"] + result["entities"] + result["clauses"]
    edges = (
        result["relation_edges"]
        + result["means_edges"]
        + result["same_as_edges"]
    )
    return None, (nodes, edges)


def _engine_docs(args, result):
    engine = args[0]
    return None, len(engine.wikipedia_docs) + len(engine.news_docs)


def _touched(args, result):
    return None, len(result["touched_entities"])


def _page_rows(args, result):
    return None, len(result.results)


#: (module, class, attribute, span name, observer, is the caller's root)
TARGETS = [
    ("repro.service.api", "QueryRequest", "from_dict", "api.request_decode", None, False),
    ("repro.service.api", "QueryResult", "to_dict", "api.result_encode", None, False),
    ("repro.service.admission", "AdmissionController", "admit", "admission.admit", None, False),
    ("repro.service.admission", "AdmissionController", "settle", "admission.settle", None, False),
    ("repro.service.service", "QKBflyService", "serve", "service.serve", _served_from, True),
    ("repro.service.async_service", "AsyncQKBflyService", "serve", "service.serve", _served_from, False),
    ("repro.kb.facts", "KnowledgeBase", "copy", "service.kb_copy", None, False),
    ("repro.service.cache", "QueryCache", "get", "cache.get", _hit_or_miss, False),
    ("repro.service.cache", "QueryCache", "put", "cache.put", None, False),
    ("repro.service.cache", "QueryCache", "invalidate_entities", "cache.invalidate", _returned, False),
    ("repro.service.ingest.versions", "EntityVersionVector", "versions_for_query", "versions.for_query", None, False),
    ("repro.service.sharding", "ShardedKbStore", "load", "store.load", _hit_or_miss, False),
    ("repro.service.sharding", "ShardedKbStore", "try_load", "store.load", _try_load, False),
    ("repro.service.sharding", "ShardedKbStore", "save", "store.save", None, False),
    ("repro.service.sharding", "ShardedKbStore", "delete_for_entities", "store.delete_for_entities", _returned, False),
    ("repro.service.stage_cache", "StageCache", "get", "stage_cache.get", None, False),
    ("repro.service.stage_cache", "StageCache", "put", "stage_cache.put", None, False),
    ("repro.service.stage_cache", "StageCache", "discard_tagged", "stage_cache.discard_tagged", None, False),
    ("repro.service.executor", "BatchExecutor", "submit", "executor.submit", None, False),
    ("repro.core.qkbfly", "QKBfly", "build_kb", "qkbfly.build_kb", None, False),
    ("repro.corpus.retrieval", "SearchEngine", "search", "retrieval.search", None, False),
    ("repro.corpus.retrieval", "SearchEngine", "__init__", "retrieval.engine_build", _engine_docs, False),
    ("repro.nlp.pipeline", "NlpPipeline", "annotate_text", "nlp.annotate", _annotated, False),
    ("repro.nlp.dependency", "GreedyTransitionParser", "parse", "nlp.parse", None, False),
    ("repro.openie.clausie", "ClausIE", "extract", "openie.extract", _length, False),
    ("repro.graph.builder", "GraphBuilder", "build", "graph.build", None, False),
    ("repro.graph.semantic_graph", "SemanticGraph", "stats", "graph.stats", _graph_size, False),
    ("repro.graph.weights", "EdgeWeights", "__init__", "graph.edge_weights", None, False),
    ("repro.graph.densify", "DensestSubgraph", "run", "graph.densify", None, False),
    ("repro.core.canonicalize", "Canonicalizer", "canonicalize", "canonicalize.canonicalize", _length, False),
    ("repro.kb.facts", "KnowledgeBase", "merge", "canonicalize.merge", None, False),
    ("repro.service.ingest.pipeline", "IngestPipeline", "ingest", "ingest.ingest", _touched, True),
    ("repro.service.ingest.pipeline", "IngestPipeline", "compute_touched", "ingest.compute_touched", None, False),
    ("repro.service.ingest.subscriptions", "SubscriptionRegistry", "notify", "subscriptions.notify", None, False),
    ("repro.service.ingest.subscriptions", "SubscriptionRegistry", "poll", "subscriptions.poll", None, False),
    ("repro.service.service", "QKBflyService", "search_facts", "search.page", _page_rows, True),
    ("repro.service.kb_store", "KbStore", "search_facts", "search.shard_query", None, False),
]


def _open(recorder: Recorder, name: str, root: bool):
    parent = _current.get() or recorder.adopt
    span = [
        name,
        0,
        0,
        parent,
        parent[_REQUEST] if parent is not None else recorder.request_id,
        None,
        None,
    ]
    recorder.spans.append(span)
    token = _current.set(span)
    previous = recorder.adopt
    if root:
        recorder.adopt = span
    span[_START] = perf_counter_ns()
    return span, token, previous


def _close(recorder: Recorder, span: list, token, previous, root: bool) -> None:
    span[_END] = perf_counter_ns()
    _current.reset(token)
    if root:
        recorder.adopt = previous


def _wrap(recorder: Recorder, fn: Callable, name: str, observe, root: bool):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            span, token, previous = _open(recorder, name, root)
            try:
                result = await fn(*args, **kwargs)
            finally:
                _close(recorder, span, token, previous, root)
            if observe is not None:
                span[_TAG], span[_VALUE] = observe(args, result)
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span, token, previous = _open(recorder, name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                _close(recorder, span, token, previous, root)
            if observe is not None:
                span[_TAG], span[_VALUE] = observe(args, result)
            return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point in ``TARGETS``; returns the uninstaller."""
    originals = []
    for module_name, class_name, attr, name, observe, root in TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = cls.__dict__[attr]
        originals.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(
                _wrap(recorder, raw.__func__, name, observe, root)
            )
        else:
            wrapped = _wrap(recorder, raw, name, observe, root)
        setattr(cls, attr, wrapped)

    def uninstall() -> None:
        for cls, attr, raw in originals:
            setattr(cls, attr, raw)

    return uninstall


# ---- analysis --------------------------------------------------------------


class LayerStat:
    """Aggregate of every span sharing one name (or ``name#tag``)."""

    def __init__(self) -> None:
        self.durations_ns: List[int] = []
        self.selfs_ns: List[int] = []
        self.values: List[Any] = []

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_ms(self) -> float:
        return sum(self.durations_ns) / 1e6

    @property
    def self_ms(self) -> float:
        return sum(self.selfs_ns) / 1e6

    def p50_us(self, self_time: bool = False) -> float:
        samples = sorted(self.selfs_ns if self_time else self.durations_ns)
        return samples[len(samples) // 2] / 1e3 if samples else 0.0

    def value_sum(self, position: Optional[int] = None) -> float:
        if position is None:
            return float(sum(self.values))
        return float(sum(value[position] for value in self.values))


def _covered(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """Length of the part of [start, end] that ``children`` cover."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def analyze(
    records: Iterable[Record],
    windows: Optional[List[Tuple[int, int]]] = None,
) -> Dict[str, LayerStat]:
    """Per-name stats over the spans that start inside ``windows``
    (every span when None)."""
    records = list(records)

    def inside(record: Record) -> bool:
        return windows is None or any(
            lo <= record[_START] <= hi for lo, hi in windows
        )

    children: Dict[int, List[Tuple[int, int]]] = {}
    for record in records:
        parent = record[_PARENT]
        if parent is not None and inside(record):
            children.setdefault(parent, []).append(
                (record[_START], record[_END])
            )
    stats: Dict[str, LayerStat] = {}
    for index, record in enumerate(records):
        if not inside(record):
            continue
        duration = record[_END] - record[_START]
        self_ns = duration - _covered(
            record[_START], record[_END], children.get(index, [])
        )
        keys = [record[_NAME]]
        if record[_TAG] is not None:
            keys.append(f"{record[_NAME]}#{record[_TAG]}")
        for key in keys:
            stat = stats.setdefault(key, LayerStat())
            stat.durations_ns.append(duration)
            stat.selfs_ns.append(self_ns)
            if record[_VALUE] is not None:
                stat.values.append(record[_VALUE])
    return stats
