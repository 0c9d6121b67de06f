"""On-the-fly KB canonicalization (Section 5 of the paper).

Turns a densified semantic graph into knowledge-base facts:

- noun-phrase sameAs groups become canonical entities (when confidently
  linked to the repository) or *emerging entities* (out-of-repository
  groups, or groups linked with very low confidence);
- relation patterns are canonicalized through the pattern repository:
  patterns in the same PATTY synset collapse onto one relation id,
  out-of-repository patterns become new relations;
- clause structure determines fact boundaries: all phrase nodes linked
  to one clause by depends edges merge into a single (possibly
  higher-arity) fact;
- fact confidence is the minimum confidence over disambiguated entity
  arguments; facts below the threshold tau are dropped (tau = 0.5 in
  the paper's experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.densify import DensifyResult
from repro.graph.semantic_graph import NodeType, RelationEdge, SemanticGraph
from repro.kb.entity_repository import EntityRepository
from repro.kb.facts import (
    ARG_EMERGING,
    ARG_ENTITY,
    ARG_LITERAL,
    ARG_MONEY,
    ARG_TIME,
    Argument,
    EmergingEntity,
    Fact,
    KbBuilder,
    KnowledgeBase,
)
from repro.kb.pattern_repository import PatternRepository
from repro.utils.text import strip_determiners


@dataclass
class CanonicalizerConfig:
    """Thresholds of the canonicalization stage.

    Attributes:
        tau: Fact confidence threshold (0.5 in the paper; 0.9 for the
            precision-oriented spouse-extraction experiment).
        emerging_below: Linked groups whose confidence falls below this
            become emerging entities instead (the "very low confidence"
            rule of Section 5). Defaults to ``tau``: a link too weak to
            pass the fact threshold is demoted to an emerging entity,
            preserving recall.
        keep_literal_facts: Whether facts whose arguments are all
            literals/time/money survive (they carry confidence 1.0).
    """

    tau: float = 0.5
    emerging_below: Optional[float] = None
    keep_literal_facts: bool = True

    def __post_init__(self) -> None:
        if self.emerging_below is None:
            self.emerging_below = self.tau


class Canonicalizer:
    """Stage 3: graph + assignments -> canonical knowledge base."""

    def __init__(
        self,
        pattern_repository: PatternRepository,
        entity_repository: EntityRepository,
        config: Optional[CanonicalizerConfig] = None,
    ) -> None:
        self.patterns = pattern_repository
        self.entities = entity_repository
        self.config = config or CanonicalizerConfig()

    def canonicalize(
        self,
        graph: SemanticGraph,
        result: DensifyResult,
        doc_id: str = "",
    ) -> KnowledgeBase:
        """Build the on-the-fly KB fragment for one document.

        Reentrant: all per-call state lives on the stack, so one
        canonicalizer instance can serve concurrent queries.
        """
        kb = KbBuilder()
        cluster_of, cluster_displays = self._emerging_clusters(
            graph, result, kb, doc_id
        )

        # Group relation edges into facts by clause (fact boundaries via
        # depends edges); clause-less edges (possessive heuristic) form
        # binary facts on their own.
        by_clause: Dict[str, List[RelationEdge]] = {}
        standalone: List[RelationEdge] = []
        for edge in graph.relation_edges:
            if edge.clause_id:
                by_clause.setdefault(edge.clause_id, []).append(edge)
            else:
                standalone.append(edge)

        for clause_id in sorted(by_clause):
            edges = by_clause[clause_id]
            fact = self._fact_from_edges(
                graph, result, cluster_of, cluster_displays, edges, doc_id,
                negated=graph.clauses[clause_id].negated,
                sentence_index=graph.clauses[clause_id].sentence_index,
            )
            if fact is not None:
                kb.add_fact(fact)
        for edge in standalone:
            fact = self._fact_from_edges(
                graph, result, cluster_of, cluster_displays, [edge], doc_id,
                negated=False,
                sentence_index=graph.phrases[edge.source].sentence_index,
            )
            if fact is not None:
                kb.add_fact(fact)
        return kb.build()

    # ------------------------------------------------------------------
    # Emerging entities
    # ------------------------------------------------------------------

    def _emerging_clusters(
        self,
        graph: SemanticGraph,
        result: DensifyResult,
        kb: KbBuilder,
        doc_id: str,
    ) -> Tuple[Dict[str, str], Dict[str, str]]:
        """Assign cluster ids to out-of-KB / low-confidence groups.

        Returns phrase node id -> cluster id for emerging phrases, and
        cluster id -> display name.
        """
        cluster_of: Dict[str, str] = {}
        displays: Dict[str, str] = {}
        seen: set = set()
        counter = 0
        for phrase_id in sorted(graph.noun_phrases()):
            if phrase_id in seen:
                continue
            group = sorted(graph.np_same_as_group(phrase_id))
            seen.update(group)
            entity_id = result.assignment.get(group[0])
            confidence = result.confidence.get(group[0], 1.0)
            linked = (
                entity_id is not None
                and confidence >= self.config.emerging_below
            )
            members = [graph.phrases[pid] for pid in group]
            named = [
                m for m in members
                if m.kind == "np" and m.ner not in ("TIME", "MONEY")
            ]
            if linked:
                for member in members:
                    kb.observe_mention(entity_id, member.surface)
                if entity_id in self.entities:
                    kb.set_entity_types(
                        entity_id,
                        self.entities.types_of(entity_id, with_ancestors=True),
                    )
                continue
            # Emerging entity only for groups with a proper-name mention.
            has_name = any(m.ner not in ("O",) for m in named)
            if not has_name:
                continue
            counter += 1
            cluster_id = f"{doc_id}#new{counter}"
            display = max(
                (m.surface for m in named if m.ner != "O"),
                key=lambda s: len(s),
            )
            guessed = next(
                (m.ner for m in named if m.ner != "O"), "MISC"
            )
            displays[cluster_id] = strip_determiners(display)
            kb.add_emerging(
                EmergingEntity(
                    cluster_id=cluster_id,
                    display_name=displays[cluster_id],
                    mentions=sorted({m.surface for m in members}),
                    guessed_type=guessed,
                )
            )
            for member_id in group:
                cluster_of[member_id] = cluster_id
        return cluster_of, displays

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------

    def _fact_from_edges(
        self,
        graph: SemanticGraph,
        result: DensifyResult,
        cluster_of: Dict[str, str],
        cluster_displays: Dict[str, str],
        edges: List[RelationEdge],
        doc_id: str,
        negated: bool,
        sentence_index: int,
    ) -> Optional[Fact]:
        subject_id = edges[0].source
        subject = self._argument(
            graph, result, cluster_of, cluster_displays, subject_id
        )
        if subject is None:
            return None

        # Choose the primary pattern: prefer a pattern carrying a
        # preposition / complement noun over the bare verb.
        patterns = [e.pattern for e in edges]
        primary = next((p for p in patterns if " " in p), patterns[0])
        if negated:
            primary = f"not {primary}"

        objects: List[Argument] = []
        confidences: List[float] = []
        if subject.kind == ARG_ENTITY:
            confidences.append(result.confidence.get(subject_id, 1.0))
        ordered = sorted(
            edges,
            key=lambda e: (
                graph.phrases[e.target].sentence_index,
                graph.phrases[e.target].kind == "time",
                graph.phrases[e.target].start,
            ),
        )
        for edge in ordered:
            argument = self._argument(
                graph, result, cluster_of, cluster_displays, edge.target
            )
            if argument is None:
                continue
            # A copular complement co-referent with the subject ("X is an
            # actor" after the predicate-nominal sameAs merge) stays a
            # literal so the triple survives, as in the paper's Figure 2.
            if (
                argument.is_entity()
                and subject.is_entity()
                and argument.value == subject.value
            ):
                node = graph.phrases[edge.target]
                argument = Argument(
                    kind=ARG_LITERAL,
                    value=strip_determiners(node.surface).lower(),
                    display=node.surface,
                )
            objects.append(argument)
            if argument.kind == ARG_ENTITY:
                confidences.append(
                    result.confidence.get(edge.target, 1.0)
                )
        if not objects:
            return None
        if not self.config.keep_literal_facts and not (
            subject.is_entity() or any(o.is_entity() for o in objects)
        ):
            return None

        relation_id = self.patterns.canonicalize(primary)
        if relation_id is not None:
            predicate = relation_id
            canonical = True
        else:
            predicate = primary
            canonical = False
        confidence = min(confidences) if confidences else 1.0
        if confidence < self.config.tau:
            return None
        return Fact(
            subject=subject,
            predicate=predicate,
            objects=objects,
            pattern=primary,
            confidence=confidence,
            doc_id=doc_id,
            sentence_index=sentence_index,
            canonical_predicate=canonical,
        )

    def _argument(
        self,
        graph: SemanticGraph,
        result: DensifyResult,
        cluster_of: Dict[str, str],
        cluster_displays: Dict[str, str],
        phrase_id: str,
    ) -> Optional[Argument]:
        node = graph.phrases[phrase_id]
        if node.kind == "time":
            display = node.normalized or node.surface
            return Argument(kind=ARG_TIME, value=display, display=node.surface)
        if node.kind == "money":
            return Argument(kind=ARG_MONEY, value=node.surface, display=node.surface)

        resolved_id = phrase_id
        if node.node_type == NodeType.PRONOUN:
            antecedent = result.antecedent.get(phrase_id)
            if antecedent is None:
                return None
            resolved_id = antecedent
            node = graph.phrases[resolved_id]

        entity_id = result.assignment.get(resolved_id)
        confidence = result.confidence.get(resolved_id, 1.0)
        if entity_id is not None and confidence >= self.config.emerging_below:
            name = (
                self.entities.get(entity_id).canonical_name
                if entity_id in self.entities
                else node.surface
            )
            return Argument(kind=ARG_ENTITY, value=entity_id, display=name)
        cluster_id = cluster_of.get(resolved_id)
        if cluster_id is not None:
            display = cluster_displays.get(
                cluster_id, strip_determiners(node.surface)
            )
            return Argument(
                kind=ARG_EMERGING, value=cluster_id, display=display
            )
        return Argument(
            kind=ARG_LITERAL,
            value=strip_determiners(node.surface).lower(),
            display=node.surface,
        )


__all__ = ["Canonicalizer", "CanonicalizerConfig"]
