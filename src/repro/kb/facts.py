"""Fact and knowledge-base model, including higher-arity facts.

A fact is an n-tuple: subject, predicate, and one or more objects.
Arguments are either canonical entities (linked to the entity
repository), *emerging* entities (out-of-repository sameAs clusters), or
literals (strings, time expressions, amounts). The KB supports the
search operations of the paper's demo UI (Figures 3-4): filtering by
subject / predicate / object substring and ``Type:`` category search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

ARG_ENTITY = "entity"
ARG_EMERGING = "emerging"
ARG_LITERAL = "literal"
ARG_TIME = "time"
ARG_MONEY = "money"


@dataclass(frozen=True)
class Argument:
    """One argument slot of a fact.

    Attributes:
        kind: One of ``entity``, ``emerging``, ``literal``, ``time``,
            ``money``.
        value: Entity id for ``entity``; cluster id for ``emerging``;
            surface/normalized string otherwise.
        display: Human-readable rendering.
    """

    kind: str
    value: str
    display: str

    def is_entity(self) -> bool:
        """True for canonical or emerging entity arguments."""
        return self.kind in (ARG_ENTITY, ARG_EMERGING)

    def to_dict(self) -> Dict[str, str]:
        """Plain-dict form for persistence (see :mod:`repro.service`)."""
        return {"kind": self.kind, "value": self.value, "display": self.display}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Argument":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"], value=data["value"], display=data["display"]
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        marker = "*" if self.kind == ARG_EMERGING else ""
        return f"{self.display}{marker}"


@dataclass(frozen=True)
class Fact:
    """An extracted n-ary fact; an immutable value.

    Attributes:
        subject: Subject argument.
        predicate: Canonical relation id when the pattern was found in
            the pattern repository, else the lemmatized surface pattern
            (a *new relation*).
        objects: One object for a triple; more for higher-arity facts.
        pattern: The original lemmatized surface pattern.
        confidence: Min confidence over disambiguated arguments
            (Section 4, "Confidence Scores").
        doc_id / sentence_index: Provenance.
        canonical_predicate: True when ``predicate`` came from the
            pattern repository.
    """

    subject: Argument
    predicate: str
    objects: Tuple[Argument, ...]
    pattern: str = ""
    confidence: float = 1.0
    doc_id: str = ""
    sentence_index: int = -1
    canonical_predicate: bool = False

    def __post_init__(self) -> None:
        if type(self.objects) is not tuple:
            object.__setattr__(self, "objects", tuple(self.objects))

    @property
    def arity(self) -> int:
        """Total argument count (subject + objects)."""
        return 1 + len(self.objects)

    def is_triple(self) -> bool:
        """True for plain subject-predicate-object facts."""
        return len(self.objects) == 1

    def arguments(self) -> List[Argument]:
        """Subject followed by all objects."""
        return [self.subject] + list(self.objects)

    def key(self) -> Tuple:
        """Deduplication key: predicate plus argument identities."""
        return (
            self.predicate,
            self.subject.kind,
            self.subject.value,
            tuple((o.kind, o.value) for o in self.objects),
        )

    def to_dict(self) -> Dict:
        """Plain-dict form (stable field order) for persistence."""
        return {
            "subject": self.subject.to_dict(),
            "predicate": self.predicate,
            "objects": [o.to_dict() for o in self.objects],
            "pattern": self.pattern,
            "confidence": self.confidence,
            "doc_id": self.doc_id,
            "sentence_index": self.sentence_index,
            "canonical_predicate": self.canonical_predicate,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Fact":
        """Inverse of :meth:`to_dict`."""
        return cls(
            subject=Argument.from_dict(data["subject"]),
            predicate=data["predicate"],
            objects=[Argument.from_dict(o) for o in data["objects"]],
            pattern=data.get("pattern", ""),
            confidence=data.get("confidence", 1.0),
            doc_id=data.get("doc_id", ""),
            sentence_index=data.get("sentence_index", -1),
            canonical_predicate=data.get("canonical_predicate", False),
        )

    def __str__(self) -> str:
        return f"<{self.subject}, {self.predicate}, " + ", ".join(
            str(o) for o in self.objects
        ) + ">"


@dataclass(frozen=True)
class EmergingEntity:
    """An out-of-repository entity discovered on the fly; immutable.

    Formed from a sameAs cluster of noun-phrase mentions that could not
    be linked to the entity repository (Section 5).
    """

    cluster_id: str
    display_name: str
    mentions: Tuple[str, ...] = ()
    guessed_type: str = "MISC"

    def __post_init__(self) -> None:
        if type(self.mentions) is not tuple:
            object.__setattr__(self, "mentions", tuple(self.mentions))

    def to_dict(self) -> Dict:
        """Plain-dict form for persistence."""
        return {
            "cluster_id": self.cluster_id,
            "display_name": self.display_name,
            "mentions": list(self.mentions),
            "guessed_type": self.guessed_type,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EmergingEntity":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cluster_id=data["cluster_id"],
            display_name=data["display_name"],
            mentions=list(data.get("mentions", [])),
            guessed_type=data.get("guessed_type", "MISC"),
        )


class KbBuilder:
    """The one way to populate a :class:`KnowledgeBase`.

    Collects rows, then :meth:`build` seals them into an immutable KB.
    A key → position index makes a duplicate fact O(1): it keeps the
    first row's position and provenance and only ever raises its
    confidence, by replacing the (frozen) row.
    """

    def __init__(self) -> None:
        self._facts: List[Fact] = []
        self._index: Dict[Tuple, int] = {}
        self._emerging: Dict[str, EmergingEntity] = {}
        self._mentions: Dict[str, Set[str]] = {}
        self._types: Dict[str, Tuple[str, ...]] = {}

    def add_fact(self, fact: Fact) -> bool:
        """Add a fact unless an identical one is already present.

        Returns True when the fact was new. Duplicate facts keep the
        maximum confidence seen.
        """
        key = fact.key()
        position = self._index.get(key)
        if position is None:
            self._index[key] = len(self._facts)
            self._facts.append(fact)
            return True
        existing = self._facts[position]
        if fact.confidence > existing.confidence:
            self._facts[position] = replace(existing, confidence=fact.confidence)
        return False

    def add_emerging(self, entity: EmergingEntity) -> None:
        """Register an emerging entity cluster."""
        self._emerging[entity.cluster_id] = entity

    def observe_mention(self, entity_id: str, mention: str) -> None:
        """Record that ``mention`` referred to ``entity_id``."""
        self._mentions.setdefault(entity_id, set()).add(mention)

    def set_entity_types(self, entity_id: str, types: Sequence[str]) -> None:
        """Attach semantic types for ``Type:`` search."""
        self._types[entity_id] = tuple(types)

    def build(self) -> "KnowledgeBase":
        """Seal what was collected into a new immutable KB."""
        return KnowledgeBase(
            self._facts, self._emerging, self._mentions, self._types
        )


class KnowledgeBase:
    """The on-the-fly KB: facts plus entity/mention bookkeeping.

    An immutable value, built through :class:`KbBuilder` (or
    :meth:`merge`): ``facts`` is a tuple of frozen rows; ``emerging``
    (cluster id → cluster), ``entity_mentions`` (entity id → mentions
    observed in the input documents, a ``frozenset``) and
    ``entity_types`` (entity id → semantic types with ancestors, for
    ``Type:`` search, a tuple) are read-only maps. Every consumer — the
    stage cache's fragments, the query cache, every caller served from
    it — shares one instance.
    """

    __slots__ = ("facts", "emerging", "entity_mentions", "entity_types")

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        emerging: Optional[Mapping[str, EmergingEntity]] = None,
        entity_mentions: Optional[Mapping[str, Iterable[str]]] = None,
        entity_types: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        mentions, types = entity_mentions or {}, entity_types or {}
        seal = object.__setattr__
        seal(self, "facts", tuple(facts))
        seal(self, "emerging", MappingProxyType(dict(emerging or {})))
        seal(self, "entity_mentions", MappingProxyType({e: frozenset(m) for e, m in mentions.items()}))
        seal(self, "entity_types", MappingProxyType({e: tuple(t) for e, t in types.items()}))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"KnowledgeBase is immutable (.{name}); build with KbBuilder")

    def __reduce__(self):
        # MappingProxyType does not pickle: rebuild from plain containers.
        maps = (self.emerging, self.entity_mentions, self.entity_types)
        return KnowledgeBase, (self.facts, *map(dict, maps))

    # ---- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.facts)

    def triples(self) -> List[Fact]:
        """Only the binary facts."""
        return [f for f in self.facts if f.is_triple()]

    def higher_arity_facts(self) -> List[Fact]:
        """Only the ternary-and-above facts."""
        return [f for f in self.facts if not f.is_triple()]

    def predicates(self) -> List[str]:
        """Distinct predicates, sorted."""
        return sorted({f.predicate for f in self.facts})

    def num_new_relations(self) -> int:
        """Predicates not found in the pattern repository."""
        return len({f.predicate for f in self.facts if not f.canonical_predicate})

    # ---- search (demo UI semantics, Figures 3-4) ---------------------------

    def search(
        self,
        subject: str = "",
        predicate: str = "",
        obj: str = "",
        min_confidence: float = 0.0,
    ) -> List[Fact]:
        """Filter facts by substring / ``Type:`` queries per slot.

        Each non-empty filter must match: a plain string matches as a
        case-insensitive substring of the slot's display text; a string
        prefixed with ``Type:`` matches entity arguments whose type set
        contains the given category (subject/object slots only).
        """
        out: List[Fact] = []
        for fact in self.facts:
            if fact.confidence < min_confidence:
                continue
            if subject and not self._slot_matches(fact.subject, subject):
                continue
            if predicate and predicate.lower() not in fact.predicate.lower():
                continue
            if obj and not any(self._slot_matches(o, obj) for o in fact.objects):
                continue
            out.append(fact)
        return out

    def _slot_matches(self, argument: Argument, query: str) -> bool:
        if query.startswith("Type:"):
            wanted = query[len("Type:"):].strip().upper().replace(" ", "_")
            if argument.kind == ARG_ENTITY:
                return wanted in {
                    t.upper() for t in self.entity_types.get(argument.value, ())
                }
            if argument.kind == ARG_EMERGING:
                emerging = self.emerging.get(argument.value)
                return emerging is not None and emerging.guessed_type.upper() == wanted
            return False
        return query.lower() in argument.display.lower()

    def with_facts(self, facts: Iterable[Fact]) -> "KnowledgeBase":
        """This KB's entity bookkeeping around ``facts`` instead of its
        own, deduplicated as :meth:`KbBuilder.add_fact` does."""
        builder = KbBuilder()
        for fact in facts:
            builder.add_fact(fact)
        return KnowledgeBase(
            builder._facts, self.emerging, self.entity_mentions, self.entity_types
        )

    def copy(self) -> "KnowledgeBase":
        """``self``: the value is immutable, so it is its own copy (as
        ``frozenset.copy`` is). Kept only as a trace target of
        ``benchmarks/e2e/trace.py``; goes away with ROADMAP item 7's
        wrapper table."""
        return self

    # ---- persistence -------------------------------------------------------

    def to_dict(self) -> Dict:
        """Canonical plain-dict form of the whole KB.

        Deterministic (mentions and map keys are sorted), so two KBs
        with identical content serialize identically — the property the
        store round-trip and batch-equivalence tests rely on.
        """
        return {
            "facts": [f.to_dict() for f in self.facts],
            "emerging": {
                cid: self.emerging[cid].to_dict()
                for cid in sorted(self.emerging)
            },
            "entity_mentions": {
                eid: sorted(self.entity_mentions[eid])
                for eid in sorted(self.entity_mentions)
            },
            "entity_types": {
                eid: list(self.entity_types[eid])
                for eid in sorted(self.entity_types)
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "KnowledgeBase":
        """Inverse of :meth:`to_dict`."""
        builder = KbBuilder()
        for fact_data in data.get("facts", []):
            builder.add_fact(Fact.from_dict(fact_data))
        for emerging_data in data.get("emerging", {}).values():
            builder.add_emerging(EmergingEntity.from_dict(emerging_data))
        for entity_id, mentions in data.get("entity_mentions", {}).items():
            for mention in mentions:
                builder.observe_mention(entity_id, mention)
        for entity_id, types in data.get("entity_types", {}).items():
            builder.set_entity_types(entity_id, types)
        return builder.build()

    @classmethod
    def merge(cls, kbs: Iterable["KnowledgeBase"]) -> "KnowledgeBase":
        """Fold KBs (e.g. per-document fragments) into a new sealed KB.

        First occurrence wins for rows, emerging clusters and types;
        mentions are unioned; a duplicate fact only raises the kept
        row's confidence. Rows are shared with the inputs, never
        copied, and a one-element fold returns its input itself — a
        one-document answer *is* the cached fragment
        (``docs/PIPELINE.md``).
        """
        kbs = list(kbs)
        if len(kbs) == 1:
            return kbs[0]
        builder = KbBuilder()
        for kb in kbs:
            for fact in kb.facts:
                builder.add_fact(fact)
            for cluster_id, emerging in kb.emerging.items():
                builder._emerging.setdefault(cluster_id, emerging)
            for entity_id, mentions in kb.entity_mentions.items():
                builder._mentions.setdefault(entity_id, set()).update(mentions)
            for entity_id, types in kb.entity_types.items():
                builder._types.setdefault(entity_id, types)
        return builder.build()


__all__ = [
    "ARG_EMERGING",
    "ARG_ENTITY",
    "ARG_LITERAL",
    "ARG_MONEY",
    "ARG_TIME",
    "Argument",
    "EmergingEntity",
    "Fact",
    "KbBuilder",
    "KnowledgeBase",
]
