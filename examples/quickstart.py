"""Quickstart: build an on-the-fly KB for one entity (Table 1 analogue).

The paper's Table 1 shows the KB excerpt QKBfly builds from the
Wikipedia page of Brad Pitt: canonical and emerging entities with their
mentions, relations with their paraphrases, and binary plus ternary
facts. This script does the same for a prominent actor of the synthetic
world — served through :class:`repro.service.QKBflyService`, so a
repeated query is answered from the warm cache instead of re-running
the pipeline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import build_world
from repro.service import QKBflyService, QueryRequest


def main() -> None:
    world = build_world(seed=7)
    service = QKBflyService.from_world(world)

    # Pick a prominent actor (the Brad Pitt of this world).
    actor_id = max(
        world.person_ids_by_profession["ACTOR"],
        key=lambda e: world.entities[e].prominence,
    )
    actor = world.entities[actor_id]
    print(f"Query: {actor.name}   Corpus: wikipedia   Size: 1")
    print(f"Corpus version: {service.corpus_version}")

    result = service.serve(
        QueryRequest(query=actor.name, source="wikipedia", num_documents=1)
    )
    kb = result.kb
    print(f"Served in {result.seconds * 1000:.2f} ms "
          f"(served_from={result.served_from})")

    print(f"\nEntities & Mentions ({len(kb.entity_mentions)} linked, "
          f"{len(kb.emerging)} emerging):")
    for entity_id, mentions in sorted(kb.entity_mentions.items())[:6]:
        name = world.entities[entity_id].name
        print(f"  {name} -> {sorted(mentions)}")
    for emerging in list(kb.emerging.values())[:4]:
        print(f"  {emerging.display_name}* -> {list(emerging.mentions)}")

    print(f"\nRelations & Patterns ({len(kb.predicates())} predicates):")
    for predicate in kb.predicates()[:8]:
        if predicate in service.pattern_repository:
            patterns = service.pattern_repository.get(predicate).patterns
            print(f"  {predicate} -> {patterns[:4]}")
        else:
            print(f"  {predicate} -> new relation (not in PATTY)")

    print(f"\nFacts ({len(kb)} total, {len(kb.higher_arity_facts())} higher-arity):")
    for fact in kb.facts:
        marker = "  [ternary+]" if not fact.is_triple() else ""
        print(f"  {fact}  (conf {fact.confidence:.2f}){marker}")

    # The same query again: answered from the cache, orders of magnitude
    # faster, byte-identical result.
    repeat = service.serve(
        QueryRequest(query=actor.name, source="wikipedia", num_documents=1)
    )
    print(f"\nRepeat query served in {repeat.seconds * 1000:.3f} ms "
          f"(served_from={repeat.served_from})")
    print(f"Serving stats: {service.stats()['cache']}")
    service.close()


if __name__ == "__main__":
    main()
