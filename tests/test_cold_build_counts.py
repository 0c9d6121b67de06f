"""Exact work counts of cold builds through the stage cache.

Every name of world 7 on both channels, built once by ``build_kb``
with a stage cache installed — the first-touch path the paper's claim
rests on. Each piece of work is done once per document: no stage
product is pickled to be weighed, each candidate pair's relation
weight is computed once, and densification weighs the relation edges
once before its first move.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.qkbfly import QKBfly, SessionState
from repro.corpus.world import World, WorldConfig
from repro.graph import densify
from repro.graph.weights import EdgeWeights
from repro.service.stage_cache import StageCache


@pytest.fixture()
def counts(monkeypatch):
    """Call counters on the functions the fences name."""
    seen = {}
    weights = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = seen.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, name in (
        (pickle, "dumps", "pickle.dumps"),
        (EdgeWeights, "coherence", "pair evaluations"),
        (densify._State, "_compute_edge_weight", "edge weights"),
        (densify.DensestSubgraph, "run", "densify runs"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    state_init = densify._State.__init__

    def measured_state_init(self, graph, *args, **kwargs):
        before = seen.get("edge weights", 0)
        state_init(self, graph, *args, **kwargs)
        seen["initial edge weights"] = seen.get("initial edge weights", 0) + (
            seen.get("edge weights", 0) - before
        )
        seen["relation edges"] = seen.get("relation edges", 0) + len(
            graph.relation_edges
        )

    monkeypatch.setattr(densify._State, "__init__", measured_state_init)
    init = EdgeWeights.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        weights.append(self)

    monkeypatch.setattr(EdgeWeights, "__init__", recording_init)
    seen["weights"] = weights
    return seen


def test_cold_builds_do_each_piece_of_work_once(counts):
    session = SessionState.from_world(World(WorldConfig(), seed=7))
    session.stage_cache = StageCache()
    pipeline = QKBfly.from_session(session)
    names = sorted(
        entity.canonical_name
        for entity in session.entity_repository.entities()
    )
    for source in ("wikipedia", "news"):
        for name in names:
            pipeline.build_kb(name, source=source, num_documents=2)
    stats = session.stage_cache.stats()
    assert stats["puts"] > 0 and stats["rejected"] == 0
    # Stage products are weighed from their counts, never pickled.
    assert counts.get("pickle.dumps", 0) == 0
    # One evaluation per distinct (a, b, pattern) of each document.
    distinct = sum(len(w._pair_cache) for w in counts["weights"])
    assert distinct > 0
    assert counts["pair evaluations"] == distinct
    # One initial edge-weight pass per densify run: construction
    # weighs each relation edge once, after the gender pruning.
    assert counts["densify runs"] > 0
    assert counts["relation edges"] > 0
    assert counts["initial edge weights"] == counts["relation edges"]
