"""Fact and knowledge-base model, including higher-arity facts.

A fact is an n-tuple: subject, predicate, and one or more objects.
Arguments are either canonical entities (linked to the entity
repository), *emerging* entities (out-of-repository sameAs clusters), or
literals (strings, time expressions, amounts). The KB supports the
search operations of the paper's demo UI (Figures 3-4): filtering by
subject / predicate / object substring and ``Type:`` category search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

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


@dataclass
class Fact:
    """An extracted n-ary fact.

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
    objects: List[Argument]
    pattern: str = ""
    confidence: float = 1.0
    doc_id: str = ""
    sentence_index: int = -1
    canonical_predicate: bool = False

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

    def copy(self) -> "Fact":
        """A row of its own: fresh ``objects`` list, shared (frozen)
        ``Argument`` instances."""
        return Fact(
            subject=self.subject,
            predicate=self.predicate,
            objects=list(self.objects),
            pattern=self.pattern,
            confidence=self.confidence,
            doc_id=self.doc_id,
            sentence_index=self.sentence_index,
            canonical_predicate=self.canonical_predicate,
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


@dataclass
class EmergingEntity:
    """An out-of-repository entity discovered on the fly.

    Formed from a sameAs cluster of noun-phrase mentions that could not
    be linked to the entity repository (Section 5).
    """

    cluster_id: str
    display_name: str
    mentions: List[str] = field(default_factory=list)
    guessed_type: str = "MISC"

    def copy(self) -> "EmergingEntity":
        """A cluster record of its own (fresh ``mentions`` list)."""
        return EmergingEntity(
            cluster_id=self.cluster_id,
            display_name=self.display_name,
            mentions=list(self.mentions),
            guessed_type=self.guessed_type,
        )

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


class KnowledgeBase:
    """The on-the-fly KB: facts plus entity/mention bookkeeping."""

    def __init__(self) -> None:
        self.facts: List[Fact] = []
        self.emerging: Dict[str, EmergingEntity] = {}
        # entity id -> mentions observed in the input documents.
        self.entity_mentions: Dict[str, Set[str]] = {}
        # entity id -> semantic types (with ancestors), for Type: search.
        self.entity_types: Dict[str, List[str]] = {}
        self._fact_keys: Set[Tuple] = set()

    # ---- population ------------------------------------------------------

    def add_fact(self, fact: Fact) -> bool:
        """Add a fact unless an identical one is already present.

        Returns True when the fact was new. Duplicate facts keep the
        maximum confidence seen.
        """
        key = fact.key()
        if key in self._fact_keys:
            self._raise_confidence(key, fact.confidence)
            return False
        self._fact_keys.add(key)
        self.facts.append(fact)
        return True

    def _raise_confidence(self, key: Tuple, confidence: float) -> None:
        for existing in self.facts:
            if existing.key() == key:
                existing.confidence = max(existing.confidence, confidence)
                break

    def add_emerging(self, entity: EmergingEntity) -> None:
        """Register an emerging entity cluster."""
        self.emerging[entity.cluster_id] = entity

    def observe_mention(self, entity_id: str, mention: str) -> None:
        """Record that ``mention`` referred to ``entity_id``."""
        self.entity_mentions.setdefault(entity_id, set()).add(mention)

    def set_entity_types(self, entity_id: str, types: Sequence[str]) -> None:
        """Attach semantic types for ``Type:`` search."""
        self.entity_types[entity_id] = list(types)

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
                    t.upper() for t in self.entity_types.get(argument.value, [])
                }
            if argument.kind == ARG_EMERGING:
                emerging = self.emerging.get(argument.value)
                return emerging is not None and emerging.guessed_type.upper() == wanted
            return False
        return query.lower() in argument.display.lower()

    def copy(self) -> "KnowledgeBase":
        """Deep-enough copy: mutating the copy never touches the original.

        ``Fact`` rows are mutable (``add_fact`` raises confidences on
        duplicates, ``merge`` folds KBs together), so the serving layer
        hands out copies — a consumer merging a cached KB must not
        write through to the cache. Frozen ``Argument`` instances are
        shared; everything mutable is duplicated.
        """
        out = KnowledgeBase()
        out.facts = [fact.copy() for fact in self.facts]
        out._fact_keys = set(self._fact_keys)
        out.emerging = {
            cluster_id: emerging.copy()
            for cluster_id, emerging in self.emerging.items()
        }
        out.entity_mentions = {
            eid: set(mentions) for eid, mentions in self.entity_mentions.items()
        }
        out.entity_types = {
            eid: list(types) for eid, types in self.entity_types.items()
        }
        return out

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
        kb = cls()
        for fact_data in data.get("facts", []):
            kb.add_fact(Fact.from_dict(fact_data))
        for emerging_data in data.get("emerging", {}).values():
            kb.add_emerging(EmergingEntity.from_dict(emerging_data))
        for entity_id, mentions in data.get("entity_mentions", {}).items():
            for mention in mentions:
                kb.observe_mention(entity_id, mention)
        for entity_id, types in data.get("entity_types", {}).items():
            kb.set_entity_types(entity_id, types)
        return kb

    def merge(self, other: "KnowledgeBase") -> None:
        """Fold another KB (e.g. from a second document) into this one.

        ``other`` is only read: a new fact or emerging entity is adopted
        as a copy and a duplicate raises the confidence of the row in
        ``self``, so ``other`` may be shared — the pipeline merges
        cached per-document fragments (``docs/PIPELINE.md``) — and
        later merges into ``self`` never write through to it.
        """
        for fact in other.facts:
            key = fact.key()
            if key in self._fact_keys:
                self._raise_confidence(key, fact.confidence)
            else:
                self._fact_keys.add(key)
                self.facts.append(fact.copy())
        for cluster_id, emerging in other.emerging.items():
            if cluster_id not in self.emerging:
                self.emerging[cluster_id] = emerging.copy()
        for entity_id, mentions in other.entity_mentions.items():
            self.entity_mentions.setdefault(entity_id, set()).update(mentions)
        for entity_id, types in other.entity_types.items():
            if entity_id not in self.entity_types:
                self.entity_types[entity_id] = list(types)


__all__ = [
    "ARG_EMERGING",
    "ARG_ENTITY",
    "ARG_LITERAL",
    "ARG_MONEY",
    "ARG_TIME",
    "Argument",
    "EmergingEntity",
    "Fact",
    "KnowledgeBase",
]
