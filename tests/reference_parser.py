"""The rule-based parsers as they stood before the per-sentence scorer.

This is the reference that ``tests/test_nlp_parser_reference.py`` holds
``repro.nlp.dependency`` to: the arc scorer, the greedy easy-first
parser and the Eisner chart parser, copied verbatim, so any change to a
head, a label or a tie is caught against the code it replaced. It is
test code only; nothing under ``src/`` imports it. The labelling and
punctuation passes are unchanged and are shared with the program.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.nlp.dependency import (
    ROOT,
    _attach_punctuation,
    _content_indices,
    label_arcs,
)
from repro.nlp.lexicon import AUXILIARIES
from repro.nlp.tokens import Sentence, Token

# Coarse POS classes used by the score table.
_COARSE: Dict[str, str] = {
    "NN": "N", "NNS": "N", "NNP": "N", "NNPS": "N", "CD": "N", "PRP": "N",
    "WP": "W", "WDT": "W",
    "VB": "V", "VBD": "V", "VBZ": "V", "VBP": "V", "VBG": "V", "VBN": "V",
    "MD": "M",
    "JJ": "J", "DT": "D", "PRP$": "D", "POS": "P",
    "IN": "I", "TO": "I",
    "RB": "R", "CC": "C", "PUNCT": ".",
}


def coarse(pos: str) -> str:
    """Map a Penn tag to the coarse class used by the score table."""
    return _COARSE.get(pos, "O")


# Base scores for (head class, dep class, side) where side is "L" when the

# dependent precedes the head. Tuned so that the correct attachment wins
# for the grammatical constructions the corpus realizer produces.
_BASE_SCORES: Dict[Tuple[str, str, str], float] = {
    ("V", "N", "L"): 14.0,   # subject
    ("V", "N", "R"): 12.0,   # object
    ("V", "W", "L"): 12.0,   # relativizer subject
    ("V", "I", "R"): 10.0,   # verb PP attachment
    ("V", "I", "L"): 9.0,    # subordinating mark
    ("V", "R", "L"): 8.0,    # adverb
    ("V", "R", "R"): 8.0,
    ("V", "M", "L"): 16.0,   # modal auxiliary
    ("V", "V", "L"): 4.0,    # rare; auxiliaries get a dedicated boost
    ("V", "V", "R"): 6.0,    # coordination / complement clauses
    ("V", "C", "L"): 5.0,
    ("V", "C", "R"): 5.0,
    ("V", "J", "R"): 9.0,    # predicative adjective
    ("V", ".", "L"): 0.1,
    ("V", ".", "R"): 0.1,
    ("N", "D", "L"): 15.0,   # determiner
    ("N", "J", "L"): 13.0,   # adjectival modifier
    ("N", "N", "L"): 13.0,   # compound (adjacency enforced below)
    ("N", "N", "R"): 2.0,    # apposition (comma rule boosts)
    ("N", "P", "R"): 15.0,   # possessive clitic
    ("N", "I", "R"): 4.0,    # noun PP attachment (lower than verb)
    ("N", "V", "R"): 3.0,    # reduced relative (relativizer rule boosts)
    ("N", "R", "L"): 3.0,
    ("N", "C", "R"): 4.0,
    ("N", ".", "L"): 0.1,
    ("N", ".", "R"): 0.1,
    ("I", "N", "R"): 16.0,   # preposition object
    ("I", "V", "R"): 3.0,
    ("N", "W", "L"): 1.0,
}

_DISTANCE_DECAY = 0.35


def arc_score(tokens: Sequence[Token], head: int, dep: int) -> float:
    """Score the directed arc ``head -> dep`` (``head == ROOT`` allowed).

    The score combines the POS-pair base score, a hyperbolic distance
    decay, and construction-specific adjustments. Returns a small
    non-negative epsilon for implausible arcs so every token stays
    attachable and the parsers always produce a full tree.
    """
    dep_token = tokens[dep]
    dep_class = coarse(dep_token.pos)

    if head == ROOT:
        if dep_class == "V":
            score = 20.0
            if _preceded_by_relativizer(tokens, dep):
                score = 4.0
            if dep_token.lower() in AUXILIARIES and _has_later_content_verb(tokens, dep):
                score = 8.0
            return score
        if dep_class == "N":
            return 5.0
        return 0.5

    head_token = tokens[head]
    head_class = coarse(head_token.pos)
    side = "L" if dep < head else "R"
    base = _BASE_SCORES.get((head_class, dep_class, side), 0.2)
    distance = abs(head - dep)

    # ---- construction-specific adjustments ------------------------------
    # Auxiliary verbs attach tightly to the following content verb.
    if head_class == "V" and dep_class == "V" and side == "L":
        if dep_token.lower() in AUXILIARIES and distance <= 2:
            base = 16.0
    # A content verb should not govern its own auxiliary from the left in
    # reverse ("was born": born governs was, not vice versa).
    if head_class == "V" and head_token.lower() in AUXILIARIES and dep_class == "V" and side == "R":
        if distance <= 2:
            base = 1.0
    # Noun compounds require adjacency.
    if head_class == "N" and dep_class == "N" and side == "L":
        if distance > 1 or tokens[dep].pos == "PRP":
            base = 0.3
        # A possessive clitic between the nouns means the left noun is a
        # possessor (nmod:poss), which is a valid non-adjacent arc.
        if distance == 2 and tokens[dep + 1].pos == "POS":
            base = 14.0
    # Determiners, adjectives and the possessive clitic are near-adjacent.
    if dep_class in {"D", "J", "P"} and distance > 3:
        base *= 0.2
    # Relative clause: a verb right of a noun with a relativizer between.
    if head_class == "N" and dep_class == "V" and side == "R":
        if _relativizer_between(tokens, head, dep):
            base = 11.0
    # Apposition: comma-separated adjacent NPs ("his father, William Pitt").
    if head_class == "N" and dep_class == "N" and side == "R":
        if _comma_between(tokens, head, dep) and not _verb_between(tokens, head, dep):
            base = 6.0
    # A year following a month forms one temporal unit ("August 2014").
    if (
        head_class == "N"
        and dep_class == "N"
        and side == "R"
        and distance == 1
        and head_token.ner == "TIME"
        and dep_token.ner == "TIME"
    ):
        base = 18.0
    # PP attachment: a preposition whose object is a time expression or
    # bare number prefers the verb; entity objects may stay nominal.
    if dep_class == "I":
        pobj_ner = _prep_object_ner(tokens, dep)
        if head_class == "V" and pobj_ner == "TIME":
            base *= 2.0
        if head_class == "N" and pobj_ner == "TIME":
            base *= 0.4
    # Coordination: same-class conjuncts across a coordinating conjunction.
    if head_class == dep_class and head_class in {"V", "N"} and side == "R":
        if _cc_between(tokens, head, dep):
            base = 9.0
    # Nothing crosses a verb to attach a left noun (keeps clause-local
    # subjects): a noun dependent left of a verb head must not have
    # another verb in between — unless a relativizer opens a relative
    # clause in the span ("Pitt, who starred in Troy, lives in ..."),
    # where the matrix subject legitimately crosses the embedded verb.
    if head_class == "V" and dep_class in {"N", "W"} and side == "L":
        if _verb_between(tokens, dep, head) and not _relativizer_between(
            tokens, dep, head
        ):
            base *= 0.1
    # Arguments belong to the content verb, not its auxiliary: penalize
    # nominal dependents of an auxiliary that is directly followed by a
    # content verb ("She was born ...": "She" must attach to "born").
    if (
        head_class == "V"
        and head_token.lower() in AUXILIARIES
        and dep_class in {"N", "W"}
        and _has_later_content_verb(tokens, head)
    ):
        base *= 0.15

    return base / (1.0 + _DISTANCE_DECAY * (distance - 1))


def _preceded_by_relativizer(tokens: Sequence[Token], index: int) -> bool:
    for j in range(index - 1, -1, -1):
        cls = coarse(tokens[j].pos)
        if cls == "W":
            return True
        if cls == "V":
            return False
    return False


def _has_later_content_verb(tokens: Sequence[Token], index: int) -> bool:
    for j in range(index + 1, min(index + 3, len(tokens))):
        if coarse(tokens[j].pos) == "V" and tokens[j].lower() not in AUXILIARIES:
            return True
    return False


def _relativizer_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    return any(coarse(tokens[j].pos) == "W" for j in range(left + 1, right))


def _comma_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    return any(tokens[j].text == "," for j in range(left + 1, right))


def _verb_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    """A *content* verb strictly between the positions.

    Auxiliaries do not count: in "She was born", "was" must not block
    the subject arc She -> born.
    """
    return any(
        coarse(tokens[j].pos) == "V" and tokens[j].lower() not in AUXILIARIES
        for j in range(left + 1, right)
    )


def _cc_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    return any(coarse(tokens[j].pos) == "C" for j in range(left + 1, right))


def _prep_object_ner(tokens: Sequence[Token], prep: int) -> str:
    """NER label of the first plausible object right of a preposition."""
    for j in range(prep + 1, min(prep + 4, len(tokens))):
        if coarse(tokens[j].pos) == "N":
            return tokens[j].ner
    return ""



def _finalize_roots(tokens: Sequence[Token], content: List[int]) -> None:
    """Keep exactly one root among content tokens; reattach the rest."""
    roots = [i for i in content if tokens[i].head == ROOT]
    if not roots:
        if content:
            tokens[content[0]].head = ROOT
        return
    best = max(roots, key=lambda i: arc_score(tokens, ROOT, i))
    for i in roots:
        if i != best:
            tokens[i].head = best


class ReferenceGreedyParser:
    """Greedy easy-first parser (Goldberg & Elhadad style).

    Maintains a list of *pending* subtree roots (initially all content
    tokens). At each step it scores, for every adjacent pending pair, the
    two possible arcs, discounted by how much the would-be dependent
    still "wants" children of its own among nearby pending tokens. The
    best arc is taken greedily and the dependent removed from the pending
    list. The last survivor becomes the root.

    Near-linear in practice; this is the fast MaltParser stand-in the
    paper swaps in for speed.
    """

    def __init__(self, child_penalty: float = 0.8, window: int = 4) -> None:
        self._child_penalty = child_penalty
        self._window = window

    def parse(self, sentence: Sentence) -> None:
        """Fill ``token.head`` for every token (labels via ``label_arcs``)."""
        tokens = sentence.tokens
        n = len(tokens)
        if n == 0:
            return
        content = _content_indices(tokens)
        if not content:
            _attach_punctuation(tokens, content)
            label_arcs(sentence)
            return

        cache: Dict[Tuple[int, int], float] = {}

        def score(head: int, dep: int) -> float:
            key = (head, dep)
            value = cache.get(key)
            if value is None:
                value = arc_score(tokens, head, dep)
                cache[key] = value
            return value

        pending: List[int] = list(content)

        def pair_priority(k: int):
            """Best arc between pending[k] and pending[k+1]."""
            a, b = pending[k], pending[k + 1]
            best = None
            for head, dep, dep_pos in ((a, b, k + 1), (b, a, k)):
                penalty = self._future_child_score(score, pending, dep_pos)
                priority = score(head, dep) - self._child_penalty * penalty
                if best is None or priority > best[0]:
                    best = (priority, head, dep)
            return best

        priorities = [pair_priority(k) for k in range(len(pending) - 1)]
        while len(pending) > 1:
            best_k = 0
            for k in range(1, len(priorities)):
                if priorities[k][0] > priorities[best_k][0]:
                    best_k = k
            _, head, dep = priorities[best_k]
            tokens[dep].head = head
            j = pending.index(dep)
            pending.pop(j)
            if not priorities:
                break
            priorities.pop(j if j < len(priorities) else j - 1)
            # Only pairs whose penalty window touched position j change.
            lo = max(0, j - self._window - 1)
            hi = min(len(priorities), j + self._window + 1)
            for m in range(lo, hi):
                priorities[m] = pair_priority(m)

        tokens[pending[0]].head = ROOT
        _finalize_roots(tokens, content)
        _attach_punctuation(tokens, content)
        label_arcs(sentence)

    def _future_child_score(self, score, pending: List[int], dep_pos: int) -> float:
        """How strongly pending[dep_pos] still attracts its own children."""
        dep = pending[dep_pos]
        lo = max(0, dep_pos - self._window)
        hi = min(len(pending), dep_pos + self._window + 1)
        best = 0.0
        for k in range(lo, hi):
            if k == dep_pos:
                continue
            value = score(dep, pending[k])
            if value > best:
                best = value
        return best



class ReferenceEisnerParser:
    """Exact maximum projective spanning tree via Eisner's algorithm.

    O(n^3) time / O(n^2) space. Uses a virtual root at position 0 of the
    internal index space; real tokens occupy 1..n.
    """

    def parse(self, sentence: Sentence) -> None:
        """Fill ``token.head`` with the exact best projective tree."""
        tokens = sentence.tokens
        n = len(tokens)
        if n == 0:
            return
        content = _content_indices(tokens)
        m = len(content)
        if m <= 1:
            if m == 1:
                tokens[content[0]].head = ROOT
            _attach_punctuation(tokens, content)
            label_arcs(sentence)
            return

        # DP tables over the content tokens only; the (single) root is
        # selected explicitly at the end, which keeps the tree
        # single-rooted without a multi-child virtual root.
        size = m
        scores = [[0.0] * size for _ in range(size)]
        for head in range(size):
            for dep in range(size):
                if head == dep:
                    continue
                scores[head][dep] = arc_score(
                    tokens, content[head], content[dep]
                )

        NEG = float("-inf")
        # complete[s][t][d] / incomplete[s][t][d]; d=0 head on right (t),
        # d=1 head on left (s).
        complete = [[[0.0, 0.0] for _ in range(size)] for _ in range(size)]
        incomplete = [[[NEG, NEG] for _ in range(size)] for _ in range(size)]
        bp_complete: List[List[List[int]]] = [
            [[-1, -1] for _ in range(size)] for _ in range(size)
        ]
        bp_incomplete: List[List[List[int]]] = [
            [[-1, -1] for _ in range(size)] for _ in range(size)
        ]

        for span in range(1, size):
            for s in range(size - span):
                t = s + span
                # Incomplete spans: an arc between s and t.
                best_left, best_right = NEG, NEG
                arg_left = arg_right = -1
                for r in range(s, t):
                    inner = complete[s][r][1] + complete[r + 1][t][0]
                    left = inner + scores[t][s]   # t -> s (head right)
                    right = inner + scores[s][t]  # s -> t (head left)
                    if left > best_left:
                        best_left, arg_left = left, r
                    if right > best_right:
                        best_right, arg_right = right, r
                incomplete[s][t][0] = best_left
                incomplete[s][t][1] = best_right
                bp_incomplete[s][t][0] = arg_left
                bp_incomplete[s][t][1] = arg_right
                # Complete spans.
                best0, arg0 = NEG, -1
                for r in range(s, t):
                    value = complete[s][r][0] + incomplete[r][t][0]
                    if value > best0:
                        best0, arg0 = value, r
                complete[s][t][0] = best0
                bp_complete[s][t][0] = arg0
                best1, arg1 = NEG, -1
                for r in range(s + 1, t + 1):
                    value = incomplete[s][r][1] + complete[r][t][1]
                    if value > best1:
                        best1, arg1 = value, r
                complete[s][t][1] = best1
                bp_complete[s][t][1] = arg1

        # Single-root selection: the root token r combines a left-facing
        # complete span (0..r headed at r) with a right-facing one
        # (r..m-1 headed at r), plus the root-attachment score.
        best_root, best_total = 0, float("-inf")
        for r in range(size):
            total = (
                complete[0][r][0]
                + complete[r][size - 1][1]
                + arc_score(tokens, ROOT, content[r])
            )
            if total > best_total:
                best_total = total
                best_root = r
        heads = [ROOT] * size
        self._backtrack(
            bp_complete, bp_incomplete, 0, best_root, 0, True, heads
        )
        self._backtrack(
            bp_complete, bp_incomplete, best_root, size - 1, 1, True, heads
        )
        heads[best_root] = -1
        for internal_dep in range(size):
            internal_head = heads[internal_dep]
            real_dep = content[internal_dep]
            tokens[real_dep].head = (
                ROOT if internal_head == -1 else content[internal_head]
            )
        _attach_punctuation(tokens, content)
        label_arcs(sentence)

    def _backtrack(
        self,
        bp_complete: List[List[List[int]]],
        bp_incomplete: List[List[List[int]]],
        s: int,
        t: int,
        direction: int,
        complete: bool,
        heads: List[int],
    ) -> None:
        if s == t:
            return
        if complete:
            r = bp_complete[s][t][direction]
            if direction == 0:
                self._backtrack(bp_complete, bp_incomplete, s, r, 0, True, heads)
                self._backtrack(bp_complete, bp_incomplete, r, t, 0, False, heads)
            else:
                self._backtrack(bp_complete, bp_incomplete, s, r, 1, False, heads)
                self._backtrack(bp_complete, bp_incomplete, r, t, 1, True, heads)
        else:
            if direction == 0:
                heads[s] = t
            else:
                heads[t] = s
            r = bp_incomplete[s][t][direction]
            self._backtrack(bp_complete, bp_incomplete, s, r, 1, True, heads)
            self._backtrack(bp_complete, bp_incomplete, r + 1, t, 0, True, heads)
