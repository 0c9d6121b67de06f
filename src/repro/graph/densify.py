"""Greedy constrained densest-subgraph algorithm (Section 4, Algorithm 1).

Jointly performs named-entity disambiguation and co-reference resolution:
starting from the full semantic graph, it repeatedly removes the means or
(pronoun) sameAs edge with the smallest contribution to the objective
W(S) — the sum of all means and relation edge weights — until the four
constraints hold:

(1) each noun-phrase node keeps at most one entity candidate;
(2) each pronoun keeps at most one antecedent noun phrase;
(3) mutually sameAs-linked noun phrases share one entity — enforced by
    treating NP sameAs groups as removal units over the *intersection*
    of their members' candidate sets;
(4) pronoun gender must match the entity's gender when the background
    repository provides one — enforced by pruning gender-incompatible
    pronoun links upfront (as in the paper's pseudocode).

Weight recomputation after a removal is selective and incremental: only
relation edges incident to the affected phrase nodes (and to pronouns
linked to them) are re-evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.graph.semantic_graph import NodeType, RelationEdge, SemanticGraph
from repro.graph.weights import EdgeWeights


@dataclass
class DensifyResult:
    """Outcome of the densification.

    Attributes:
        assignment: noun-phrase node id -> chosen entity id (absent or
            None when the phrase stays out-of-KB / emerging).
        antecedent: pronoun node id -> resolved noun-phrase node id.
        confidence: phrase node id -> normalized confidence score of its
            disambiguation (Section 4, "Confidence Scores").
        objective: final W(S*).
        removals: number of edges removed (diagnostics).
    """

    assignment: Dict[str, Optional[str]] = field(default_factory=dict)
    antecedent: Dict[str, Optional[str]] = field(default_factory=dict)
    confidence: Dict[str, float] = field(default_factory=dict)
    objective: float = 0.0
    removals: int = 0

    def entity_of(self, phrase_id: str) -> Optional[str]:
        """Chosen entity for a phrase (following pronoun antecedents)."""
        direct = self.assignment.get(phrase_id)
        if direct is not None:
            return direct
        antecedent = self.antecedent.get(phrase_id)
        if antecedent is not None:
            return self.assignment.get(antecedent)
        return None


class DensestSubgraph:
    """The greedy approximation algorithm."""

    def __init__(self, max_rounds: int = 10_000) -> None:
        self._max_rounds = max_rounds

    def run(self, graph: SemanticGraph, weights: EdgeWeights) -> DensifyResult:
        """Densify ``graph`` in place and return the assignments."""
        state = _State(graph, weights)

        removals = 0
        for _ in range(self._max_rounds):
            move = state.cheapest_move()
            if move is None:
                break
            state.apply(move)
            removals += 1

        result = DensifyResult(removals=removals, objective=state.objective())
        for group in state.groups:
            cands = sorted(state.group_cands[group])
            chosen = cands[0] if len(cands) == 1 else None
            for phrase_id in group:
                result.assignment[phrase_id] = chosen
        for pronoun_id, links in state.pronoun_links.items():
            ordered = sorted(links)
            result.antecedent[pronoun_id] = (
                ordered[0] if len(ordered) == 1 else None
            )
        state.compute_confidences(result)
        state.write_back()
        return result


# ---------------------------------------------------------------------------
# Internal state
# ---------------------------------------------------------------------------

_MOVE_MEANS = "means"
_MOVE_SAME_AS = "sameAs"


class _State:
    """Mutable candidate-set state with incremental edge weights.

    Construction applies constraint (4) — the gender pruning — before
    the relation-edge weights are computed, so the initial weights are
    computed once, over the pruned links.
    """

    def __init__(self, graph: SemanticGraph, weights: EdgeWeights) -> None:
        self.graph = graph
        self.weights = weights
        self.groups: List[FrozenSet[str]] = []
        self.group_of: Dict[str, FrozenSet[str]] = {}
        self.group_cands: Dict[FrozenSet[str], Set[str]] = {}
        self.original_cands: Dict[FrozenSet[str], Set[str]] = {}
        self.pronoun_links: Dict[str, Set[str]] = {}
        self.pronoun_exclusions: Dict[str, Set[str]] = {}
        self._build_groups()
        self._build_pronouns()
        self._edges_by_phrase: Dict[str, List[int]] = {}
        for index, edge in enumerate(graph.relation_edges):
            self._edges_by_phrase.setdefault(edge.source, []).append(index)
            self._edges_by_phrase.setdefault(edge.target, []).append(index)
        self._prune_gender_incompatible_links()
        self._edge_weights: List[float] = [
            self._compute_edge_weight(edge) for edge in graph.relation_edges
        ]

    # ---- construction -----------------------------------------------------

    def _build_groups(self) -> None:
        seen: Set[str] = set()
        for phrase_id in self.graph.noun_phrases():
            if phrase_id in seen:
                continue
            members = frozenset(self.graph.np_same_as_group(phrase_id))
            seen.update(members)
            self.groups.append(members)
            for member in members:
                self.group_of[member] = members
            # Intersect candidate sets over members that have candidates
            # (members with none stay unlinked without vetoing the rest).
            cands: Optional[Set[str]] = None
            for member in members:
                member_cands = self.graph.candidates(member)
                if not member_cands:
                    continue
                cands = (
                    set(member_cands) if cands is None
                    else cands & set(member_cands)
                )
            if cands is None:
                cands = set()
            if not cands:
                # Empty intersection of non-empty sets: fall back to the
                # union so a false-positive sameAs cannot erase all
                # linking options (the greedy loop will prune it).
                union: Set[str] = set()
                for member in members:
                    union.update(self.graph.candidates(member))
                cands = union
            self.group_cands[members] = set(cands)
            self.original_cands[members] = set(cands)

    def _build_pronouns(self) -> None:
        for pronoun_id in self.graph.pronouns():
            links = {
                neighbor
                for neighbor in self.graph.same_as.get(pronoun_id, ())
                if self.graph.phrases[neighbor].node_type == NodeType.NOUN_PHRASE
            }
            self.pronoun_links[pronoun_id] = links
            self.pronoun_exclusions[pronoun_id] = set()

    def _prune_gender_incompatible_links(self) -> None:
        """Constraint (4): drop candidates/links violating pronoun gender.

        Links and group members are visited in sorted order: an early
        stop over a set's iteration order would make the work (not the
        result) depend on the hash seed.
        """
        for pronoun_id, links in self.pronoun_links.items():
            gender = self.graph.phrases[pronoun_id].gender
            if not gender:
                continue
            # Exclude entities with a known, mismatching gender.
            for entity_id in self.pronoun_candidates(pronoun_id):
                node = self.graph.entities.get(f"e:{entity_id}")
                if node is not None and node.gender and node.gender != gender:
                    self.pronoun_exclusions[pronoun_id].add(entity_id)
            # Drop links to groups whose every candidate is incompatible —
            # but only when the group is surely in-KB: a group with a
            # named mention that has no repository candidates may be an
            # emerging entity of unknown gender, and constraint (4) only
            # applies "for which the background KB provides gender".
            to_drop = []
            for np_id in sorted(links):
                group = self.group_of[np_id]
                cands = self.group_cands[group]
                named = [
                    m for m in sorted(group)
                    if self.graph.phrases[m].ner not in ("O", "TIME", "MONEY")
                ]
                surely_linked = bool(named) and all(
                    self.graph.candidates(m) for m in named
                )
                if (
                    surely_linked
                    and cands
                    and cands <= self.pronoun_exclusions[pronoun_id]
                ):
                    to_drop.append(np_id)
            for np_id in to_drop:
                links.discard(np_id)

    # ---- candidate views --------------------------------------------------------

    def effective_candidates(self, phrase_id: str) -> Set[str]:
        """ent(n, S): current candidates of any phrase node."""
        node = self.graph.phrases[phrase_id]
        if node.node_type == NodeType.PRONOUN:
            return self.pronoun_candidates(phrase_id)
        group = self.group_of.get(phrase_id)
        if group is None:
            return set()
        return self.group_cands[group]

    def pronoun_candidates(self, pronoun_id: str) -> Set[str]:
        """ent(p, S): union over linked groups minus gender exclusions."""
        out: Set[str] = set()
        for np_id in self.pronoun_links.get(pronoun_id, ()):
            out.update(self.group_cands[self.group_of[np_id]])
        return out - self.pronoun_exclusions.get(pronoun_id, set())

    # ---- objective ---------------------------------------------------------------

    def objective(self) -> float:
        """W(S): sum of all current means and relation edge weights."""
        total = 0.0
        for group in self.groups:
            for entity_id in sorted(self.group_cands[group]):
                for member in sorted(group):
                    if entity_id in self.graph.candidates(member):
                        total += self.weights.means_weight(member, entity_id)
        total += sum(self._edge_weights)
        return total

    def _compute_edge_weight(self, edge: RelationEdge) -> float:
        return self.weights.relation_weight(
            edge,
            self.effective_candidates(edge.source),
            self.effective_candidates(edge.target),
        )

    def _refresh_all_edges(self) -> None:
        self._edge_weights = [
            self._compute_edge_weight(edge)
            for edge in self.graph.relation_edges
        ]

    def _refresh_edges_of(self, phrase_ids: Set[str]) -> None:
        """Selective incremental recomputation after a removal."""
        affected: Set[int] = set()
        for phrase_id in phrase_ids:
            affected.update(self._edges_by_phrase.get(phrase_id, ()))
        for index in affected:
            self._edge_weights[index] = self._compute_edge_weight(
                self.graph.relation_edges[index]
            )

    def _touched_by_group(self, group: FrozenSet[str]) -> Set[str]:
        """Group members plus pronouns whose union includes the group."""
        touched = set(group)
        for pronoun_id, links in self.pronoun_links.items():
            if any(self.group_of.get(np_id) == group for np_id in links):
                touched.add(pronoun_id)
        return touched

    # ---- moves ----------------------------------------------------------------------

    def cheapest_move(self) -> Optional[Tuple[str, object, object]]:
        """The means/sameAs removal with the smallest contribution c(x,y,S)."""
        best: Optional[Tuple[str, object, object]] = None
        best_cost = float("inf")
        for group in self.groups:
            cands = self.group_cands[group]
            if len(cands) < 2:
                continue
            for entity_id in sorted(cands):
                cost = self._means_removal_cost(group, entity_id)
                if cost < best_cost:
                    best_cost = cost
                    best = (_MOVE_MEANS, group, entity_id)
        for pronoun_id in sorted(self.pronoun_links):
            links = self.pronoun_links[pronoun_id]
            if len(links) < 2:
                continue
            for np_id in sorted(links):
                cost = self._link_removal_cost(pronoun_id, np_id)
                if cost < best_cost:
                    best_cost = cost
                    best = (_MOVE_SAME_AS, pronoun_id, np_id)
        return best

    def _means_removal_cost(self, group: FrozenSet[str], entity_id: str) -> float:
        """c for removing candidate ``entity_id`` from a whole NP group.

        Also scores the final graph, where the group's last candidate
        may be removed. Both loops run in sorted order: a float sum over
        a set's iteration order would depend on the hash seed.
        """
        cost = 0.0
        for member in sorted(group):
            if entity_id in self.graph.candidates(member):
                cost += self.weights.means_weight(member, entity_id)
        # Relation edges touching the group or linked pronouns.
        touched = self._touched_by_group(group)
        saved = self.group_cands[group]
        self.group_cands[group] = saved - {entity_id}
        for phrase_id in sorted(touched):
            for index in self._edges_by_phrase.get(phrase_id, ()):
                new_weight = self._compute_edge_weight(
                    self.graph.relation_edges[index]
                )
                cost += self._edge_weights[index] - new_weight
        self.group_cands[group] = saved
        return cost

    def _link_removal_cost(self, pronoun_id: str, np_id: str) -> float:
        """c for removing a pronoun sameAs edge."""
        cost = 0.0
        saved = self.pronoun_links[pronoun_id]
        self.pronoun_links[pronoun_id] = saved - {np_id}
        for index in self._edges_by_phrase.get(pronoun_id, ()):
            new_weight = self._compute_edge_weight(
                self.graph.relation_edges[index]
            )
            cost += self._edge_weights[index] - new_weight
        self.pronoun_links[pronoun_id] = saved
        # Salience retention bonus: recent antecedents and clause
        # subjects are harder to cut (the standard coref preferences,
        # acting only as a tie-breaker against the semantic weights).
        pronoun = self.graph.phrases[pronoun_id]
        np_node = self.graph.phrases[np_id]
        distance = max(0, pronoun.sentence_index - np_node.sentence_index)
        cost += 0.002 / (1.0 + distance)
        if np_node.is_subject:
            cost += 0.002
        return cost

    def apply(self, move: Tuple[str, object, object]) -> None:
        """Apply a removal move and refresh affected edge weights."""
        kind, x, y = move
        if kind == _MOVE_MEANS:
            group: FrozenSet[str] = x  # type: ignore[assignment]
            entity_id: str = y  # type: ignore[assignment]
            self.group_cands[group].discard(entity_id)
            self._refresh_edges_of(self._touched_by_group(group))
        else:
            pronoun_id: str = x  # type: ignore[assignment]
            np_id: str = y  # type: ignore[assignment]
            self.pronoun_links[pronoun_id].discard(np_id)
            self._refresh_edges_of({pronoun_id})

    # ---- confidence scores --------------------------------------------------------------

    def compute_confidences(self, result: DensifyResult) -> None:
        """Normalized confidence per disambiguated phrase (Section 4).

        score(ni, e, S*) = c(ni, e, S*) / sum_t c(ni, e_t, S_t) where S_t
        swaps the chosen candidate for each original alternative.
        """
        for group in self.groups:
            cands = self.group_cands[group]
            if len(cands) != 1:
                continue
            chosen = sorted(cands)[0]
            chosen_cost = self._means_removal_cost(group, chosen)
            denominator = 0.0
            for alternative in sorted(self.original_cands[group]):
                if alternative == chosen:
                    denominator += chosen_cost
                    continue
                saved = self.group_cands[group]
                self.group_cands[group] = {alternative}
                self._refresh_edges_of(self._touched_by_group(group))
                denominator += self._means_removal_cost(group, alternative)
                self.group_cands[group] = saved
                self._refresh_edges_of(self._touched_by_group(group))
            score = chosen_cost / denominator if denominator > 0 else 1.0
            for member in group:
                result.confidence[member] = score

    # ---- write back -----------------------------------------------------------------------

    def write_back(self) -> None:
        """Mutate the graph to reflect the densified subgraph S*."""
        for group in self.groups:
            cands = self.group_cands[group]
            for member in group:
                for entity_id in list(self.graph.candidates(member)):
                    if entity_id not in cands:
                        self.graph.remove_means(member, entity_id)
        for pronoun_id, links in self.pronoun_links.items():
            for neighbor in list(self.graph.same_as.get(pronoun_id, ())):
                if neighbor not in links:
                    self.graph.remove_same_as(pronoun_id, neighbor)


__all__ = ["DensestSubgraph", "DensifyResult"]
