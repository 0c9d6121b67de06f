"""Projective dependency parsing.

Two parsers share one rule-based arc scorer, :class:`ArcScorer`, built
once per sentence:

- :class:`GreedyTransitionParser` — an easy-first parser with a
  bounded-lookahead decision rule: O(n * window) arc scores and O(n^2)
  comparisons per sentence; this is the MaltParser stand-in that QKBfly
  uses for speed.
- :class:`EisnerChartParser` — the classic O(n^3) dynamic program that
  finds the *exact* maximum-scoring projective tree. This is the
  Stanford-parser stand-in: slightly more accurate on hard attachments,
  an order of magnitude slower — reproducing the trade-off behind the
  paper's parser swap (Section 2.2 / Table 5).

Arc scores come from POS-pair rules with distance decay plus targeted
adjustments (auxiliaries, copulas, relative clauses, PP attachment with a
time-expression preference). Labels are assigned by a post-pass over the
finished tree.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nlp.lexicon import AUXILIARIES
from repro.nlp.tokens import Sentence, Token

ROOT = -1

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
    attachable and the parsers always produce a full tree. One-off
    form of :meth:`ArcScorer.compute`; the parsers keep one
    :class:`ArcScorer` per sentence instead.
    """
    return ArcScorer(tokens).compute(head, dep)


def _prefix_counts(flags) -> List[int]:
    """``counts[k]``: how many of ``flags[:k]`` are true."""
    return list(accumulate(flags, initial=0))


class ArcScorer:
    """The arc scores of one sentence.

    Every per-token fact the score reads — coarse class, POS tag,
    auxiliary flag, a content verb in the next two tokens, the
    NER label of a preposition's object, a relativizer opening the
    clause — is computed once, and prefix counts answer each
    "is there a content verb / comma / conjunction / relativizer
    strictly between" test in O(1). :meth:`score` memoises in an
    n x n table, so each arc is computed at most once per sentence.
    """

    __slots__ = (
        "_n", "_classes", "_pos", "_ner", "_aux", "_later_verb",
        "_pobj_ner", "_after_relativizer", "_verbs", "_commas", "_ccs",
        "_relativizers", "_memo", "_root_memo",
    )

    def __init__(self, tokens: Sequence[Token]) -> None:
        n = len(tokens)
        classes = [coarse(t.pos) for t in tokens]
        aux = [t.lower() in AUXILIARIES for t in tokens]
        content_verb = [c == "V" and not a for c, a in zip(classes, aux)]
        self._n = n
        self._classes = classes
        self._pos = [t.pos for t in tokens]
        self._ner = [t.ner for t in tokens]
        self._aux = aux
        self._later_verb = [
            any(content_verb[i + 1:min(i + 3, n)]) for i in range(n)
        ]
        pobj_ner = []
        for i in range(n):
            label = ""
            for j in range(i + 1, min(i + 4, n)):
                if classes[j] == "N":
                    label = tokens[j].ner
                    break
            pobj_ner.append(label)
        self._pobj_ner = pobj_ner
        # Does a relativizer come before i with no verb in between?
        after_relativizer = []
        opened = False
        for cls in classes:
            after_relativizer.append(opened)
            if cls == "W":
                opened = True
            elif cls == "V":
                opened = False
        self._after_relativizer = after_relativizer
        self._verbs = _prefix_counts(content_verb)
        self._commas = _prefix_counts(t.text == "," for t in tokens)
        self._ccs = _prefix_counts(c == "C" for c in classes)
        self._relativizers = _prefix_counts(c == "W" for c in classes)
        self._memo: List[Optional[float]] = [None] * (n * n)
        self._root_memo: List[Optional[float]] = [None] * n

    def score(self, head: int, dep: int) -> float:
        """The memoised score of ``head -> dep``."""
        if head == ROOT:
            value = self._root_memo[dep]
            if value is None:
                value = self._root_memo[dep] = self.compute(ROOT, dep)
            return value
        key = head * self._n + dep
        value = self._memo[key]
        if value is None:
            value = self._memo[key] = self.compute(head, dep)
        return value

    def compute(self, head: int, dep: int) -> float:
        """Score ``head -> dep`` from the per-token facts (no memo)."""
        classes = self._classes
        dep_class = classes[dep]

        if head == ROOT:
            if dep_class == "V":
                score = 20.0
                if self._after_relativizer[dep]:
                    score = 4.0
                if self._aux[dep] and self._later_verb[dep]:
                    score = 8.0
                return score
            if dep_class == "N":
                return 5.0
            return 0.5

        head_class = classes[head]
        left = dep < head
        base = _BASE_SCORES.get((head_class, dep_class, "L" if left else "R"), 0.2)
        distance = head - dep if left else dep - head
        lo, hi = (dep, head) if left else (head, dep)

        # ---- construction-specific adjustments ------------------------------
        # Auxiliary verbs attach tightly to the following content verb.
        if head_class == "V" and dep_class == "V" and left:
            if self._aux[dep] and distance <= 2:
                base = 16.0
        # A content verb should not govern its own auxiliary from the left in
        # reverse ("was born": born governs was, not vice versa).
        if head_class == "V" and self._aux[head] and dep_class == "V" and not left:
            if distance <= 2:
                base = 1.0
        # Noun compounds require adjacency.
        if head_class == "N" and dep_class == "N" and left:
            if distance > 1 or self._pos[dep] == "PRP":
                base = 0.3
            # A possessive clitic between the nouns means the left noun is a
            # possessor (nmod:poss), which is a valid non-adjacent arc.
            if distance == 2 and self._pos[dep + 1] == "POS":
                base = 14.0
        # Determiners, adjectives and the possessive clitic are near-adjacent.
        if dep_class in {"D", "J", "P"} and distance > 3:
            base *= 0.2
        # Relative clause: a verb right of a noun with a relativizer between.
        if head_class == "N" and dep_class == "V" and not left:
            if self._between(self._relativizers, lo, hi):
                base = 11.0
        # Apposition: comma-separated adjacent NPs ("his father, William Pitt").
        if head_class == "N" and dep_class == "N" and not left:
            if self._between(self._commas, lo, hi) and not self._between(
                self._verbs, lo, hi
            ):
                base = 6.0
        # A year following a month forms one temporal unit ("August 2014").
        if (
            head_class == "N"
            and dep_class == "N"
            and not left
            and distance == 1
            and self._ner[head] == "TIME"
            and self._ner[dep] == "TIME"
        ):
            base = 18.0
        # PP attachment: a preposition whose object is a time expression or
        # bare number prefers the verb; entity objects may stay nominal.
        if dep_class == "I":
            pobj_ner = self._pobj_ner[dep]
            if head_class == "V" and pobj_ner == "TIME":
                base *= 2.0
            if head_class == "N" and pobj_ner == "TIME":
                base *= 0.4
        # Coordination: same-class conjuncts across a coordinating conjunction.
        if head_class == dep_class and head_class in {"V", "N"} and not left:
            if self._between(self._ccs, lo, hi):
                base = 9.0
        # Nothing crosses a verb to attach a left noun (keeps clause-local
        # subjects): a noun dependent left of a verb head must not have
        # another verb in between — unless a relativizer opens a relative
        # clause in the span ("Pitt, who starred in Troy, lives in ..."),
        # where the matrix subject legitimately crosses the embedded verb.
        if head_class == "V" and dep_class in {"N", "W"} and left:
            if self._between(self._verbs, lo, hi) and not self._between(
                self._relativizers, lo, hi
            ):
                base *= 0.1
        # Arguments belong to the content verb, not its auxiliary: penalize
        # nominal dependents of an auxiliary that is directly followed by a
        # content verb ("She was born ...": "She" must attach to "born").
        if (
            head_class == "V"
            and self._aux[head]
            and dep_class in {"N", "W"}
            and self._later_verb[head]
        ):
            base *= 0.15

        return base / (1.0 + _DISTANCE_DECAY * (distance - 1))

    @staticmethod
    def _between(counts: List[int], left: int, right: int) -> bool:
        """A counted token strictly between ``left`` and ``right``."""
        return counts[right] > counts[left + 1]


def _comma_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    return any(tokens[j].text == "," for j in range(left + 1, right))


def _cc_between(tokens: Sequence[Token], left: int, right: int) -> bool:
    return any(coarse(tokens[j].pos) == "C" for j in range(left + 1, right))


# ---------------------------------------------------------------------------
# Greedy arc-standard parser (MaltParser stand-in)
# ---------------------------------------------------------------------------


def _content_indices(tokens: Sequence[Token]) -> List[int]:
    """Indices of non-punctuation tokens; punctuation is attached later."""
    return [i for i, t in enumerate(tokens) if t.pos != "PUNCT"]


def _attach_punctuation(tokens: Sequence[Token], content: List[int]) -> None:
    """Attach punctuation to the nearest preceding content token."""
    content_set = set(content)
    for i, token in enumerate(tokens):
        if i in content_set:
            continue
        head = ROOT
        for j in range(i - 1, -1, -1):
            if j in content_set:
                head = j
                break
        if head == ROOT:
            for j in range(i + 1, len(tokens)):
                if j in content_set:
                    head = j
                    break
        token.head = head


def _finalize_roots(
    tokens: Sequence[Token], content: List[int], scorer: ArcScorer
) -> None:
    """Keep exactly one root among content tokens; reattach the rest."""
    roots = [i for i in content if tokens[i].head == ROOT]
    if not roots:
        if content:
            tokens[content[0]].head = ROOT
        return
    best = max(roots, key=lambda i: scorer.score(ROOT, i))
    for i in roots:
        if i != best:
            tokens[i].head = best


class GreedyTransitionParser:
    """Greedy easy-first parser (Goldberg & Elhadad style).

    Maintains a list of *pending* subtree roots (initially all content
    tokens). At each step it scores, for every adjacent pending pair, the
    two possible arcs, discounted by how much the would-be dependent
    still "wants" children of its own among nearby pending tokens. The
    best arc is taken greedily (the leftmost pair on a tie, the
    left-headed arc within a pair) and the dependent removed from the
    pending list. The last survivor becomes the root.

    Each pending token's "wants children" score — its best arc to a
    pending token at most ``window`` places away — is kept per position
    and recomputed only when a removal changed that window, so a step
    costs O(window) arc lookups plus one O(n) pass to pick the best
    pair: O(n * window) arc scores and O(n^2) comparisons per sentence.
    This is the MaltParser stand-in the paper swaps in for speed.
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

        scorer = ArcScorer(tokens)
        score = scorer.score
        penalty = self._child_penalty
        window = self._window
        pending: List[int] = list(content)

        best_child = self._best_child
        children = [best_child(score, pending, k) for k in range(len(pending))]

        def pair_priority(k: int) -> Tuple[float, int, int]:
            """Best arc between pending[k] and pending[k+1]."""
            a, b = pending[k], pending[k + 1]
            right = score(a, b) - penalty * children[k + 1]
            left = score(b, a) - penalty * children[k]
            return (left, b, a) if left > right else (right, a, b)

        priorities = [pair_priority(k) for k in range(len(pending) - 1)]
        values = [priority[0] for priority in priorities]
        while len(pending) > 1:
            # The leftmost best pair wins a tie.
            _, head, dep = priorities[values.index(max(values))]
            tokens[dep].head = head
            j = pending.index(dep)
            pending.pop(j)
            children.pop(j)
            drop = j if j < len(priorities) else j - 1
            priorities.pop(drop)
            values.pop(drop)
            # Only the windows that held position j changed: each lost
            # ``dep`` and gained at most the token that slid in at its
            # far end. Unless ``dep`` was the window's best, the best
            # moves only if the newcomer beats it.
            for m in range(max(0, j - window), min(len(pending), j + window)):
                owner = pending[m]
                if score(owner, dep) < children[m]:
                    k = m + window if m < j else m - window
                    if 0 <= k < len(pending):
                        value = score(owner, pending[k])
                        if value > children[m]:
                            children[m] = value
                else:
                    children[m] = best_child(score, pending, m)
            # A pair changes when either end's window did, or (pair
            # j - 1) when its two ends became neighbours.
            for m in range(max(0, j - window - 1), min(len(priorities), j + window)):
                priority = priorities[m] = pair_priority(m)
                values[m] = priority[0]

        tokens[pending[0]].head = ROOT
        _finalize_roots(tokens, content, scorer)
        _attach_punctuation(tokens, content)
        label_arcs(sentence)

    def _best_child(self, score, pending: List[int], k: int) -> float:
        """How strongly pending[k] still attracts its own children."""
        window = self._window
        dep = pending[k]
        best = 0.0
        for other in pending[max(0, k - window):k]:
            value = score(dep, other)
            if value > best:
                best = value
        for other in pending[k + 1:k + window + 1]:
            value = score(dep, other)
            if value > best:
                best = value
        return best


# ---------------------------------------------------------------------------
# Eisner chart parser (Stanford-parser stand-in)
# ---------------------------------------------------------------------------


class EisnerChartParser:
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
        compute = ArcScorer(tokens).compute
        scores = [[0.0] * size for _ in range(size)]
        for head in range(size):
            for dep in range(size):
                if head == dep:
                    continue
                scores[head][dep] = compute(content[head], content[dep])

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
                + compute(ROOT, content[r])
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


# ---------------------------------------------------------------------------
# Arc labeling
# ---------------------------------------------------------------------------


def label_arcs(sentence: Sentence) -> None:
    """Assign ``deprel`` labels to a head-annotated sentence.

    Labels follow Stanford-dependency conventions: nsubj, dobj, iobj,
    attr, acomp, prep, pobj, det, amod, nummod, compound, nmod:poss, case,
    aux, advmod, acl:relcl, conj, cc, appos, mark, advcl, punct, dep.
    """
    tokens = sentence.tokens
    children: Dict[int, List[int]] = {}
    for i, token in enumerate(tokens):
        children.setdefault(token.head, []).append(i)

    for i, token in enumerate(tokens):
        head = token.head
        if head == ROOT:
            token.deprel = "root"
            continue
        head_token = tokens[head]
        token.deprel = _label_for(tokens, head_token, token, children)

    # Per-verb argument refinement: among right-side bare noun dependents
    # of a non-copular verb, two objects mean iobj + dobj (SVOO).
    for i, token in enumerate(tokens):
        if coarse(token.pos) != "V":
            continue
        right_objs = [
            j
            for j in children.get(i, [])
            if j > i and tokens[j].deprel == "dobj"
        ]
        if len(right_objs) >= 2:
            tokens[right_objs[0]].deprel = "iobj"
            for j in right_objs[2:]:
                tokens[j].deprel = "dep"


def _label_for(
    tokens: Sequence[Token],
    head: Token,
    dep: Token,
    children: Dict[int, List[int]],
) -> str:
    hc = coarse(head.pos)
    dc = coarse(dep.pos)
    left = dep.index < head.index

    if dep.pos == "PUNCT":
        return "punct"
    if dc == "C":
        return "cc"

    if hc == "V":
        if dc in {"N", "W"} and left:
            return "nsubj"
        if dc == "N" and not left:
            if head.lemma == "be":
                return "attr"
            return "dobj"
        if dep.pos == "JJ" and not left:
            return "acomp" if head.lemma == "be" else "xcomp"
        if dc == "I":
            if left:
                # A fronted preposition with a nominal object is still a
                # prepositional modifier ("In 2009, ..."); a subordinator
                # introducing a clause is a mark.
                has_nominal_child = any(
                    coarse(tokens[j].pos) == "N"
                    for j in children.get(dep.index, [])
                )
                return "prep" if has_nominal_child else "mark"
            return "prep"
        if dc == "R":
            return "advmod"
        if dep.pos == "MD" or (dc == "V" and left and dep.lower() in AUXILIARIES):
            return "aux"
        if dc == "V" and not left:
            if _cc_between(tokens, head.index, dep.index):
                return "conj"
            return "ccomp"
        if dc == "V" and left:
            return "aux"
        return "dep"

    if hc == "N":
        if dep.pos in {"DT"}:
            return "det"
        if dep.pos == "PRP$":
            return "nmod:poss"
        if dep.pos in {"JJ", "VBG", "VBN"} and left:
            return "amod"
        if dep.pos == "CD":
            return "nummod"
        if dep.pos == "POS":
            return "case"
        if dc == "N" and left:
            # Possessor if a clitic intervenes, otherwise compound.
            if (
                dep.index + 1 < head.index
                and tokens[dep.index + 1].pos == "POS"
            ):
                return "nmod:poss"
            return "compound"
        if dc == "N" and not left:
            if _comma_between(tokens, head.index, dep.index):
                return "appos"
            return "dep"
        if dc == "V" and not left:
            return "acl:relcl"
        if dc == "I":
            return "prep"
        if dc == "R":
            return "advmod"
        return "dep"

    if hc == "I":
        if dc == "N":
            return "pobj"
        if dc == "V":
            return "pcomp"
        return "dep"

    return "dep"


def tree_is_valid(sentence: Sentence) -> bool:
    """Check the head assignment is a single-rooted acyclic tree."""
    n = len(sentence.tokens)
    roots = [i for i, t in enumerate(sentence.tokens) if t.head == ROOT]
    if len(roots) != 1 and n > 0:
        return False
    seen_global = set()
    for start in range(n):
        seen = set()
        node = start
        while node != ROOT:
            if node in seen:
                return False
            seen.add(node)
            node = sentence.tokens[node].head
        seen_global.update(seen)
    return len(seen_global) == n


__all__ = [
    "ROOT",
    "ArcScorer",
    "EisnerChartParser",
    "GreedyTransitionParser",
    "arc_score",
    "coarse",
    "label_arcs",
    "tree_is_valid",
]
