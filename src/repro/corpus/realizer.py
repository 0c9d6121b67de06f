"""Surface realizer: world facts -> documents.

Produces two document styles:

- *Wikipedia articles*: entity-centric pages rendering the entity's
  facts (and facts pointing at it) with pronouns, short aliases,
  coordination, relative clauses, appositive descriptors and possessive
  constructions.
- *News articles*: event-centric pages led by a dated sentence about the
  trend event, followed by background facts about the participants.

Every rendered sentence is paired with the *emitted facts* it expresses
(the per-document ground truth used by the simulated assessors) and with
*anchors* mapping each named entity mention to its true entity id (the
analogue of Wikipedia href links, used for the background statistics and
the NED ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.schema import SPECS_BY_ID, Template
from repro.corpus.world import World, WorldEntity, WorldFact
from repro.utils.rng import DeterministicRng

_VOWELS = "aeiou"

#: Instance attribute under which
#: :func:`repro.corpus.statistics.document_tokens` keeps its memo on a
#: :class:`RealizedDocument`; not a field, and dropped from pickles.
TOKENS_MEMO = "_tokens_memo"


def indefinite_article(noun: str) -> str:
    """Return "a" or "an" for ``noun``."""
    return "an" if noun[:1].lower() in _VOWELS else "a"


@dataclass
class EmittedFact:
    """Ground truth for one assertion expressed by a rendered sentence.

    Attributes:
        sentence_index: Sentence that carries the assertion.
        pattern: The lemmatized relation pattern the sentence realizes.
        relation_id: Canonical relation, or None for narrative assertions
            (e.g. "attended the ceremony") with no schema relation.
        subject_id: True entity id of the subject.
        args: Ordered object arguments as (kind, value) pairs with kind
            in {"entity", "literal", "time", "money"}; entity values are
            entity ids, other kinds hold normalized strings.
    """

    sentence_index: int
    pattern: str
    relation_id: Optional[str]
    subject_id: str
    args: List[Tuple[str, str]] = field(default_factory=list)

    def entity_args(self) -> List[str]:
        """Entity ids among the object arguments."""
        return [value for kind, value in self.args if kind == "entity"]


@dataclass
class MentionRecord:
    """One entity mention the realizer emitted (named or pronominal)."""

    sentence_index: int
    surface: str
    entity_id: str
    is_pronoun: bool = False


@dataclass
class RealizedDocument:
    """A rendered document plus its ground truth."""

    doc_id: str
    title: str
    sentences: List[str]
    emitted: List[EmittedFact]
    mentions: List[MentionRecord]
    source: str = "wikipedia"
    about: List[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        """Full document text."""
        return " ".join(self.sentences)

    def anchors(self) -> List[MentionRecord]:
        """Named (non-pronoun) mentions, the Wikipedia-link analogue."""
        return [m for m in self.mentions if not m.is_pronoun]

    def __getstate__(self) -> Dict:
        # Derived and re-derivable: keeps session pickles small.
        state = self.__dict__.copy()
        state.pop(TOKENS_MEMO, None)
        return state


class Realizer:
    """Renders :class:`RealizedDocument` objects from a :class:`World`."""

    def __init__(self, world: World, seed: int = 101) -> None:
        self.world = world
        self._rng = DeterministicRng(seed, namespace="realizer")

    # ------------------------------------------------------------------
    # Wikipedia-style articles
    # ------------------------------------------------------------------

    def wikipedia_article(
        self, entity_id: str, max_facts: int = 10
    ) -> RealizedDocument:
        """Render the Wikipedia-style page of ``entity_id``."""
        world = self.world
        entity = world.entity(entity_id)
        r = self._rng.fork(f"wiki:{entity_id}")
        doc = RealizedDocument(
            doc_id=f"wiki:{entity_id}", title=entity.name, sentences=[],
            emitted=[], mentions=[], source="wikipedia", about=[entity_id],
        )
        state = _DocState()

        self._intro_sentence(doc, state, entity, r)

        facts = self._article_facts(entity_id, r, max_facts)
        index = 0
        while index < len(facts):
            fact = facts[index]
            # Coordination: merge two consecutive facts of the same subject.
            nxt = facts[index + 1] if index + 1 < len(facts) else None
            if (
                nxt is not None
                and fact.subject_id == nxt.subject_id
                and r.maybe(0.25)
                and self._plain_template(fact, r) is not None
                and self._plain_template(nxt, r) is not None
            ):
                self._coordinated_sentence(doc, state, fact, nxt, r)
                index += 2
                continue
            if (
                nxt is not None
                and fact.subject_id == nxt.subject_id
                and r.maybe(0.15)
                and self._plain_template(fact, r) is not None
                and self._plain_template(nxt, r) is not None
            ):
                self._relative_clause_sentence(doc, state, fact, nxt, r)
                index += 2
                continue
            self._fact_sentence(doc, state, fact, r)
            index += 1
        return doc

    def _article_facts(
        self, entity_id: str, r: DeterministicRng, max_facts: int
    ) -> List[WorldFact]:
        """Subject facts of the entity, padded with facts pointing at it."""
        world = self.world
        facts = [f for f in world.facts_of(entity_id) if not f.recent]
        if len(facts) < 3:
            inbound = [
                f for f in world.facts
                if not f.recent and entity_id in (f.object_id, f.object2_id)
            ]
            facts.extend(r.sample(inbound, min(len(inbound), max_facts - len(facts))))
        r.shuffle(facts)
        return facts[:max_facts]

    def _intro_sentence(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        entity: WorldEntity,
        r: DeterministicRng,
    ) -> None:
        world = self.world
        primary = entity.types[0]
        if world.type_system.is_subtype(primary, "PERSON") and entity.profession_noun:
            noun = entity.profession_noun
            adjective = r.choice(["famous", "renowned", "prominent", ""])
            np = f"{adjective} {noun}".strip()
            surface = self._name_mention(doc, state, entity.entity_id, r, subject=True)
            doc.sentences.append(
                f"{surface} is {indefinite_article(np)} {np}."
            )
            doc.emitted.append(
                EmittedFact(
                    sentence_index=len(doc.sentences) - 1,
                    pattern="be", relation_id=None,
                    subject_id=entity.entity_id,
                    args=[("literal", noun)],
                )
            )
            state.last_subject = entity.entity_id

    # ---- sentence builders -------------------------------------------------

    def _fact_sentence(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        fact: WorldFact,
        r: DeterministicRng,
    ) -> None:
        template = self._choose_template(fact, r)
        if template is None:
            return
        subject_surface, used_pronoun = self._subject_mention(
            doc, state, fact.subject_id, r,
            allow_pronoun=not template.possessive,
        )
        body, emitted = self._render_body(
            doc, state, fact, template, subject_surface, r,
            sentence_index=len(doc.sentences),
        )
        doc.sentences.append(_capitalize(body) + ".")
        doc.emitted.extend(emitted)
        state.last_subject = fact.subject_id

    def _coordinated_sentence(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        first: WorldFact,
        second: WorldFact,
        r: DeterministicRng,
    ) -> None:
        t1 = self._plain_template(first, r)
        t2 = self._plain_template(second, r)
        assert t1 is not None and t2 is not None
        subject_surface, _ = self._subject_mention(
            doc, state, first.subject_id, r, allow_pronoun=True
        )
        sentence_index = len(doc.sentences)
        body1, emitted1 = self._render_body(
            doc, state, first, t1, subject_surface, r, sentence_index
        )
        # Second conjunct: subject elided; object may pronominalize when
        # it repeats the first object ("married Y ... and divorced her").
        pronoun_object = (
            second.object_id
            and second.object_id == first.object_id
            and self.world.entity(second.object_id).gender in ("male", "female")
        )
        body2, emitted2 = self._render_body(
            doc, state, second, t2, "", r, sentence_index,
            elide_subject=True, pronoun_object=bool(pronoun_object),
        )
        doc.sentences.append(_capitalize(f"{body1} and {body2}") + ".")
        doc.emitted.extend(emitted1 + emitted2)
        state.last_subject = first.subject_id

    def _relative_clause_sentence(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        embedded: WorldFact,
        main: WorldFact,
        r: DeterministicRng,
    ) -> None:
        t_embedded = self._plain_template(embedded, r)
        t_main = self._plain_template(main, r)
        assert t_embedded is not None and t_main is not None
        subject_surface, _ = self._subject_mention(
            doc, state, embedded.subject_id, r, allow_pronoun=False
        )
        sentence_index = len(doc.sentences)
        body1, emitted1 = self._render_body(
            doc, state, embedded, t_embedded, "", r, sentence_index,
            elide_subject=True,
        )
        body2, emitted2 = self._render_body(
            doc, state, main, t_main, "", r, sentence_index,
            elide_subject=True,
        )
        doc.sentences.append(
            _capitalize(f"{subject_surface}, who {body1}, {body2}") + "."
        )
        doc.emitted.extend(emitted1 + emitted2)
        state.last_subject = embedded.subject_id

    def _render_body(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        fact: WorldFact,
        template: Template,
        subject_surface: str,
        r: DeterministicRng,
        sentence_index: int,
        elide_subject: bool = False,
        pronoun_object: bool = False,
        suppress_time: bool = False,
    ) -> Tuple[str, List[EmittedFact]]:
        """Fill a template; returns (clause text, emitted facts)."""
        world = self.world
        emitted: List[EmittedFact] = []
        args: List[Tuple[str, str]] = []
        values: Dict[str, str] = {}

        if fact.amount:
            values["AMOUNT"] = fact.amount
            args.append(("money", fact.amount))
        if fact.object_id:
            if pronoun_object:
                entity = world.entity(fact.object_id)
                surface = "her" if entity.gender == "female" else "him"
                doc.mentions.append(
                    MentionRecord(sentence_index, surface, fact.object_id, True)
                )
            else:
                surface = self._object_mention(
                    doc, state, fact.object_id, r, sentence_index
                )
            values["O"] = surface
            args.append(("entity", fact.object_id))
        if fact.object2_id:
            values["O2"] = self._object_mention(
                doc, state, fact.object2_id, r, sentence_index
            )
            args.append(("entity", fact.object2_id))
        if fact.literal:
            values["LIT"] = fact.literal
            args.append(("literal", fact.literal))

        text = template.text
        if elide_subject:
            text = text.replace("{S} ", "", 1).replace("{S}", "", 1)
            values["S"] = ""
        else:
            values["S"] = subject_surface
        body = text.format(**values)

        # Optional adverbial adjuncts -> higher-arity emitted facts.
        if fact.time and template.time_prep and not suppress_time and r.maybe(0.7):
            display, normalized = fact.time
            prep = "on" if normalized.count("-") == 2 else "in"
            body += f" {prep} {display}"
            args.append(("time", normalized))
        if fact.location_id and template.loc and r.maybe(0.7):
            loc_surface = self._object_mention(
                doc, state, fact.location_id, r, sentence_index
            )
            body += f" in {loc_surface}"
            args.append(("entity", fact.location_id))

        emitted.append(
            EmittedFact(
                sentence_index=sentence_index,
                pattern=template.pattern,
                relation_id=fact.relation_id,
                subject_id=fact.subject_id,
                args=args,
            )
        )
        if template.possessive:
            # The possessive construction asserts the relation; the main
            # clause of the template asserts a narrative fact about O
            # ("<O> attended the ceremony").
            narrative = _possessive_narrative(template)
            if narrative is not None and fact.object_id:
                verb, literal = narrative
                emitted.append(
                    EmittedFact(
                        sentence_index=sentence_index,
                        pattern=verb,
                        relation_id=None,
                        subject_id=fact.object_id,
                        args=[("literal", literal)],
                    )
                )
        return body, emitted

    # ---- template selection --------------------------------------------------

    def _choose_template(
        self, fact: WorldFact, r: DeterministicRng
    ) -> Optional[Template]:
        spec = SPECS_BY_ID[fact.relation_id]
        candidates = [t for t in spec.templates if self._template_ok(t, fact)]
        if not candidates:
            return None
        return r.choice(candidates)

    def _plain_template(
        self, fact: WorldFact, r: DeterministicRng
    ) -> Optional[Template]:
        """A non-possessive template (usable in conjuncts / relatives)."""
        spec = SPECS_BY_ID[fact.relation_id]
        candidates = [
            t for t in spec.templates
            if not t.possessive and self._template_ok(t, fact)
        ]
        if not candidates:
            return None
        return r.fork(fact.fact_id).choice(candidates)

    def _template_ok(self, template: Template, fact: WorldFact) -> bool:
        """Gender and argument compatibility of a template with a fact."""
        gendered = {
            "wife": "female", "husband": "male",
            "father": "male", "mother": "female",
            "son": "male", "daughter": "female",
        }
        wanted = gendered.get(template.pattern)
        if wanted is not None:
            if not fact.object_id:
                return False
            if self.world.entity(fact.object_id).gender != wanted:
                return False
        if "{O2}" in template.text and not fact.object2_id:
            return False
        if "{AMOUNT}" in template.text and not fact.amount:
            return False
        if "{LIT}" in template.text and not fact.literal:
            return False
        return True

    # ---- mentions --------------------------------------------------------------

    def _subject_mention(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        entity_id: str,
        r: DeterministicRng,
        allow_pronoun: bool,
    ) -> Tuple[str, bool]:
        """Surface form for a subject slot; may pronominalize."""
        entity = self.world.entity(entity_id)
        can_pronoun = (
            allow_pronoun
            and state.last_subject == entity_id
            and entity.gender in ("male", "female")
            and entity_id in state.seen
        )
        if can_pronoun and r.maybe(0.6):
            surface = "He" if entity.gender == "male" else "She"
            doc.mentions.append(
                MentionRecord(len(doc.sentences), surface, entity_id, True)
            )
            return surface, True
        return self._name_mention(doc, state, entity_id, r, subject=True), False

    def _name_mention(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        entity_id: str,
        r: DeterministicRng,
        subject: bool = False,
        sentence_index: Optional[int] = None,
    ) -> str:
        entity = self.world.entity(entity_id)
        first_time = entity_id not in state.seen
        state.seen.add(entity_id)
        if first_time or len(entity.aliases) == 1 or r.maybe(0.55):
            surface = entity.name
        else:
            surface = r.choice(entity.aliases[1:])
        index = len(doc.sentences) if sentence_index is None else sentence_index
        doc.mentions.append(MentionRecord(index, surface, entity_id, False))
        return surface

    def _object_mention(
        self,
        doc: RealizedDocument,
        state: "_DocState",
        entity_id: str,
        r: DeterministicRng,
        sentence_index: int,
    ) -> str:
        entity = self.world.entity(entity_id)
        surface = self._name_mention(
            doc, state, entity_id, r, sentence_index=sentence_index
        )
        # Appositive descriptor flavor: "the actress Angelina Jolie".
        if (
            surface == entity.name
            and entity.profession_noun
            and entity.profession_noun not in ("parent", "child", "accuser")
            and self.world.type_system.is_subtype(entity.types[0], "PERSON")
            and r.maybe(0.15)
        ):
            return f"the {entity.profession_noun} {surface}"
        return surface

    # ------------------------------------------------------------------
    # Custom documents (datasets)
    # ------------------------------------------------------------------

    def single_sentence(
        self,
        fact: WorldFact,
        doc_id: str,
        second: Optional[WorldFact] = None,
    ) -> RealizedDocument:
        """Render one standalone web-style sentence for a fact.

        When ``second`` (a fact of the same subject) is given, the two
        facts are coordinated into one longer sentence — web sentences
        are longer than encyclopedic ones, which is what gives the chart
        parser its runtime disadvantage in the Open IE comparison.
        """
        r = self._rng.fork(f"single:{doc_id}:{fact.fact_id}")
        doc = RealizedDocument(
            doc_id=doc_id, title="", sentences=[], emitted=[], mentions=[],
            source="web", about=[fact.subject_id],
        )
        state = _DocState()
        template = self._plain_template(fact, r) or self._choose_template(fact, r)
        if template is None:
            return doc
        second_template = None
        if second is not None and second.subject_id == fact.subject_id:
            second_template = self._plain_template(second, r)
        subject_surface = self._name_mention(
            doc, state, fact.subject_id, r, subject=True
        )
        body, emitted = self._render_body(
            doc, state, fact, template, subject_surface, r, sentence_index=0
        )
        if second_template is not None:
            body2, emitted2 = self._render_body(
                doc, state, second, second_template, "", r,
                sentence_index=0, elide_subject=True,
            )
            body = f"{body} and {body2}"
            emitted = emitted + emitted2
        doc.sentences.append(_capitalize(body) + ".")
        doc.emitted.extend(emitted)
        return doc

    def article_from_facts(
        self,
        doc_id: str,
        title: str,
        facts: Sequence[WorldFact],
        source: str = "wikia",
    ) -> RealizedDocument:
        """Render a document from an explicit fact list (Wikia-style pages)."""
        r = self._rng.fork(f"custom:{doc_id}")
        doc = RealizedDocument(
            doc_id=doc_id, title=title, sentences=[], emitted=[],
            mentions=[], source=source,
        )
        state = _DocState()
        for fact in facts:
            self._fact_sentence(doc, state, fact, r)
        return doc

    # ------------------------------------------------------------------
    # News articles
    # ------------------------------------------------------------------

    def news_article(self, event, extra_background: int = 3) -> RealizedDocument:
        """Render a news article for a :class:`TrendEvent`."""
        world = self.world
        r = self._rng.fork(f"news:{event.event_id}")
        doc = RealizedDocument(
            doc_id=f"news:{event.event_id}",
            title=f"{event.headline}",
            sentences=[], emitted=[], mentions=[], source="news",
            about=list(event.main_entities),
        )
        state = _DocState()
        facts = [self._fact_by_id(fid) for fid in event.fact_ids]

        # Lead sentence: fronted date + the main event fact.
        lead = facts[0]
        template = self._plain_template(lead, r) or self._choose_template(lead, r)
        if template is not None:
            subject_surface = self._name_mention(
                doc, state, lead.subject_id, r, subject=True
            )
            body, emitted = self._render_body(
                doc, state, lead, template, subject_surface, r,
                sentence_index=0, suppress_time=True,
            )
            display = event.date[0]
            doc.sentences.append(f"On {display}, {body}.")
            for fact in emitted:
                if not any(kind == "time" for kind, _ in fact.args):
                    fact.args.append(("time", event.date[1]))
            doc.emitted.extend(emitted)
            state.last_subject = lead.subject_id

        for fact in facts[1:]:
            self._fact_sentence(doc, state, fact, r)

        # Background sentences about the participants.
        background: List[WorldFact] = []
        for entity_id in event.main_entities:
            background.extend(
                f for f in world.facts_of(entity_id) if not f.recent
            )
        r.shuffle(background)
        for fact in background[:extra_background]:
            self._fact_sentence(doc, state, fact, r)
        return doc

    def _fact_by_id(self, fact_id: str) -> WorldFact:
        for fact in self.world.facts:
            if fact.fact_id == fact_id:
                return fact
        raise KeyError(fact_id)


@dataclass
class _DocState:
    """Per-document realization state."""

    seen: set = field(default_factory=set)
    last_subject: str = ""


def _capitalize(text: str) -> str:
    return text[:1].upper() + text[1:] if text else text


def _possessive_narrative(template: Template) -> Optional[Tuple[str, str]]:
    """(verb lemma, literal object) asserted by a possessive template."""
    mapping = {
        "attended the ceremony": ("attend", "ceremony"),
        "attended the wedding": ("attend", "wedding"),
        "visited the museum": ("visit", "museum"),
        "visited the festival": ("visit", "festival"),
        "joined the tour": ("join", "tour"),
    }
    for phrase, record in mapping.items():
        if phrase in template.text:
            return record
    return None


__all__ = [
    "EmittedFact",
    "MentionRecord",
    "RealizedDocument",
    "Realizer",
    "indefinite_article",
]
