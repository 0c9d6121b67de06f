"""QKBfly reproduction: query-driven on-the-fly knowledge base construction.

This package reimplements the full system of Nguyen et al.,
"Query-Driven On-The-Fly Knowledge Base Construction" (PVLDB 11(1), 2017),
including every substrate the paper depends on: a linguistic pipeline
(tokenizer, POS tagger, lemmatizer, chunker, NER, time tagger, two
dependency parsers), a ClausIE-style clause detector, background
repositories (entity repository, paraphrase dictionary, background corpus
statistics), the semantic-graph model with the greedy densest-subgraph
densification algorithm and its ILP counterpart, the canonicalization
stage producing binary and higher-arity facts, the baselines used in the
evaluation (DEFIE/Babelfy, Reverb, Ollie, Open IE 4.2, DeepDive-style
spouse extraction), and the ad-hoc question-answering use case.

Typical usage::

    from repro import build_world, QKBfly

    world = build_world(seed=7)
    system = QKBfly.from_world(world)
    kb = system.build_kb("Alice Stone", source="wikipedia", num_documents=1)
    for fact in kb.facts:
        print(fact)
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

__all__ = [
    "Fact",
    "KbBuilder",
    "KnowledgeBase",
    "QKBfly",
    "QKBflyConfig",
    "QKBflyService",
    "QueryRequest",
    "QueryResult",
    "ServiceConfig",
    "SessionState",
    "World",
    "WorldConfig",
    "build_world",
]

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.core.qkbfly import QKBfly, QKBflyConfig, SessionState
    from repro.corpus.world import World, WorldConfig, build_world
    from repro.kb.facts import Fact, KbBuilder, KnowledgeBase
    from repro.service.api import QueryRequest, QueryResult
    from repro.service.service import QKBflyService, ServiceConfig

_LAZY = {
    "QKBfly": ("repro.core.qkbfly", "QKBfly"),
    "QKBflyConfig": ("repro.core.qkbfly", "QKBflyConfig"),
    "SessionState": ("repro.core.qkbfly", "SessionState"),
    "World": ("repro.corpus.world", "World"),
    "WorldConfig": ("repro.corpus.world", "WorldConfig"),
    "build_world": ("repro.corpus.world", "build_world"),
    "Fact": ("repro.kb.facts", "Fact"),
    "KbBuilder": ("repro.kb.facts", "KbBuilder"),
    "KnowledgeBase": ("repro.kb.facts", "KnowledgeBase"),
    "QKBflyService": ("repro.service.service", "QKBflyService"),
    "QueryRequest": ("repro.service.api", "QueryRequest"),
    "QueryResult": ("repro.service.api", "QueryResult"),
    "ServiceConfig": ("repro.service.service", "ServiceConfig"),
}


def __getattr__(name: str):
    """Lazily resolve the public API to keep import time minimal."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
