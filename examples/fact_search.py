"""Fact search over an on-the-fly KB (the demo UI of Figures 3-4).

The paper's browser demo lets users filter facts by subject, predicate
and object, including ``Type:`` category search (e.g. subjects of type
MUSICAL_ARTIST with predicate receive_in_from). This script reproduces
that interaction for a musician of the synthetic world.

Run:  python examples/fact_search.py
"""

from __future__ import annotations

from repro import KnowledgeBase, QKBfly, build_world


def main() -> None:
    world = build_world(seed=7)
    system = QKBfly.from_world(world)

    musician_id = max(
        world.person_ids_by_profession["MUSICAL_ARTIST"],
        key=lambda e: world.entities[e].prominence,
    )
    musician = world.entities[musician_id]
    print(f"Query: {musician.name}   Corpus: wikipedia + news")

    kb = KnowledgeBase.merge([
        system.build_kb(musician.name, source="wikipedia", num_documents=1),
        system.build_kb(musician.name, source="news", num_documents=5),
    ])
    print(f"On-the-fly KB: {len(kb)} facts\n")

    searches = [
        dict(subject="Type:MUSICAL_ARTIST", predicate="receive"),
        dict(subject="Type:PERSON", predicate="perform"),
        dict(subject=musician.aliases[-1]),
        dict(predicate="win"),
    ]
    for query in searches:
        results = kb.search(**query)
        rendered = ", ".join(f"{k}={v!r}" for k, v in query.items())
        print(f"Filter [{rendered}] -> {len(results)} facts")
        for fact in results[:4]:
            print(f"  {fact}")
        print()


if __name__ == "__main__":
    main()
