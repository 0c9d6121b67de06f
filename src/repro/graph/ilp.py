"""ILP formulation of Stage 2 (Appendix A of the paper).

Binary variables:

- ``x[g, c]`` — NP sameAs group ``g`` is disambiguated to candidate
  ``c`` (the paper's ``cnd_ij`` with constraint (3) folded in by
  operating on groups); exactly one candidate per group.
- ``y[p, l]`` — pronoun ``p`` resolves to linked noun phrase ``l``;
  exactly one antecedent per pronoun.
- ``v[p, l, e]`` — pronoun ``p`` resolves to ``l`` *and* that group is
  disambiguated to ``e`` (linearized product ``y * x``).
- ``z[edge, e1, e2]`` — both endpoints of a relation edge take the
  respective candidates (the paper's ``joint-rel`` variables),
  linearized with ``z <= x`` / ``z <= v`` constraints; since all weights
  are non-negative, maximization makes ``z = min(...)`` automatically.

The objective mirrors the greedy algorithm's W(S): means weights on the
``x`` variables plus pairwise relation weights on the ``z`` variables
(and the same tiny salience tie-breakers on ``y``). Solved exactly by
:class:`repro.graph.solver.BranchAndBoundSolver`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.densify import DensifyResult, _State
from repro.graph.semantic_graph import NodeType, SemanticGraph
from repro.graph.solver import BranchAndBoundSolver, IlpProblem
from repro.graph.weights import EdgeWeights


class IlpStage2:
    """Exact joint NED + CR via 0-1 integer linear programming."""

    def __init__(self, time_budget: float = 120.0) -> None:
        self.time_budget = time_budget

    def run(self, graph: SemanticGraph, weights: EdgeWeights) -> DensifyResult:
        """Solve Stage 2 and return assignments compatible with greedy."""
        state = _State(graph, weights)

        index: Dict[Tuple, int] = {}
        objective: List[float] = []

        def var(key: Tuple, weight: float = 0.0) -> int:
            position = index.get(key)
            if position is None:
                position = len(objective)
                index[key] = position
                objective.append(weight)
            else:
                objective[position] += weight
            return position

        groups = [g for g in state.groups if state.group_cands[g]]
        group_key = {g: tuple(sorted(g)) for g in groups}

        # x variables with means weights.
        for group in groups:
            for candidate in sorted(state.group_cands[group]):
                weight = sum(
                    weights.means_weight(member, candidate)
                    for member in sorted(group)
                    if candidate in graph.candidates(member)
                )
                var(("x", group_key[group], candidate), weight)

        # y / v variables for pronouns.
        pronouns = {
            p: sorted(links)
            for p, links in state.pronoun_links.items()
            if links
        }
        for pronoun_id, links in sorted(pronouns.items()):
            pronoun = graph.phrases[pronoun_id]
            for np_id in links:
                np_node = graph.phrases[np_id]
                distance = max(0, pronoun.sentence_index - np_node.sentence_index)
                salience = 0.002 / (1.0 + distance)
                if np_node.is_subject:
                    salience += 0.002
                var(("y", pronoun_id, np_id), salience)
                link_group = state.group_of.get(np_id)
                if link_group is None or not state.group_cands[link_group]:
                    continue
                exclusions = state.pronoun_exclusions.get(pronoun_id, set())
                for entity_id in sorted(state.group_cands[link_group]):
                    if entity_id in exclusions:
                        continue
                    var(("v", pronoun_id, np_id, entity_id), 0.0)

        # z variables with pairwise relation weights.
        z_defs: List[Tuple[int, List[int]]] = []  # (z index, parent vars)
        for edge_index, edge in enumerate(graph.relation_edges):
            source_opts = self._endpoint_options(graph, state, edge.source)
            target_opts = self._endpoint_options(graph, state, edge.target)
            if not source_opts or not target_opts:
                continue
            for s_key, s_entity in source_opts:
                for t_key, t_entity in target_opts:
                    pair = weights.pair_weight(s_entity, t_entity, edge.pattern)
                    if pair <= 0.0:
                        continue
                    z_index = var(("z", edge_index, s_key, t_key), pair)
                    parents = [index[s_key], index[t_key]]
                    z_defs.append((z_index, parents))

        num_vars = len(objective)
        if num_vars == 0:
            result = DensifyResult()
            for group in state.groups:
                for member in group:
                    result.assignment[member] = None
            return result

        # Equality constraints: one candidate per group, one antecedent
        # per pronoun.
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for group in groups:
            row = np.zeros(num_vars)
            for candidate in sorted(state.group_cands[group]):
                row[index[("x", group_key[group], candidate)]] = 1.0
            eq_rows.append(row)
            eq_rhs.append(1.0)
        for pronoun_id, links in sorted(pronouns.items()):
            row = np.zeros(num_vars)
            for np_id in links:
                row[index[("y", pronoun_id, np_id)]] = 1.0
            eq_rows.append(row)
            eq_rhs.append(1.0)

        # Inequality constraints: v <= y, v <= x, z <= parents.
        le_rows: List[np.ndarray] = []
        le_rhs: List[float] = []
        for key, position in list(index.items()):
            if key[0] == "v":
                _, pronoun_id, np_id, entity_id = key
                row = np.zeros(num_vars)
                row[position] = 1.0
                row[index[("y", pronoun_id, np_id)]] -= 1.0
                le_rows.append(row)
                le_rhs.append(0.0)
                link_group = state.group_of[np_id]
                x_key = ("x", group_key[link_group], entity_id)
                if x_key in index:
                    row = np.zeros(num_vars)
                    row[position] = 1.0
                    row[index[x_key]] -= 1.0
                    le_rows.append(row)
                    le_rhs.append(0.0)
        for z_index, parents in z_defs:
            for parent in parents:
                row = np.zeros(num_vars)
                row[z_index] = 1.0
                row[parent] -= 1.0
                le_rows.append(row)
                le_rhs.append(0.0)

        problem = IlpProblem(
            objective=np.array(objective),
            le_matrix=np.vstack(le_rows) if le_rows else None,
            le_rhs=np.array(le_rhs) if le_rows else None,
            eq_matrix=np.vstack(eq_rows) if eq_rows else None,
            eq_rhs=np.array(eq_rhs) if eq_rows else None,
        )
        solution = BranchAndBoundSolver(time_budget=self.time_budget).solve(problem)

        # ---- extract assignments ------------------------------------------------
        result = DensifyResult(objective=solution.objective)
        chosen_by_group: Dict[Tuple, str] = {}
        for key, position in index.items():
            if key[0] == "x" and solution.values[position] > 0.5:
                chosen_by_group[key[1]] = key[2]
        for group in state.groups:
            chosen = chosen_by_group.get(tuple(sorted(group)))
            for member in group:
                result.assignment[member] = chosen
        for pronoun_id, links in pronouns.items():
            antecedent = None
            for np_id in links:
                if solution.values[index[("y", pronoun_id, np_id)]] > 0.5:
                    antecedent = np_id
                    break
            result.antecedent[pronoun_id] = antecedent
        for pronoun_id in graph.pronouns():
            result.antecedent.setdefault(pronoun_id, None)

        # Confidence scores: reuse the greedy machinery on the ILP
        # configuration so downstream thresholds behave identically.
        for group in state.groups:
            chosen = chosen_by_group.get(tuple(sorted(group)))
            state.group_cands[group] = {chosen} if chosen else set()
        for pronoun_id, links in state.pronoun_links.items():
            chosen_link = result.antecedent.get(pronoun_id)
            state.pronoun_links[pronoun_id] = (
                {chosen_link} if chosen_link else set()
            )
        state._refresh_all_edges()
        state.compute_confidences(result)
        state.write_back()
        return result

    def _endpoint_options(
        self, graph: SemanticGraph, state: _State, phrase_id: str
    ) -> List[Tuple[Tuple, str]]:
        """(variable key, entity id) options for one relation endpoint."""
        node = graph.phrases[phrase_id]
        options: List[Tuple[Tuple, str]] = []
        if node.node_type == NodeType.PRONOUN:
            exclusions = state.pronoun_exclusions.get(phrase_id, set())
            for np_id in sorted(state.pronoun_links.get(phrase_id, ())):
                link_group = state.group_of.get(np_id)
                if link_group is None:
                    continue
                for entity_id in sorted(state.group_cands[link_group]):
                    if entity_id in exclusions:
                        continue
                    options.append(
                        (("v", phrase_id, np_id, entity_id), entity_id)
                    )
        else:
            group = state.group_of.get(phrase_id)
            if group is None:
                return []
            for entity_id in sorted(state.group_cands[group]):
                options.append(
                    (("x", tuple(sorted(group)), entity_id), entity_id)
                )
        return options


__all__ = ["IlpStage2"]
