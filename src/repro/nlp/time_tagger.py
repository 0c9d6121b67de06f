"""SUTime-style time expression recognition and normalization.

Recognizes dates ("September 19, 2016", "17 December 1936", "May 2012",
"2008"), relative expressions ("yesterday", "last year") and marks the
spans with NER label ``TIME`` plus an ISO-8601-ish normalized value.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.nlp.lexicon import MONTHS, WEEKDAYS
from repro.nlp.tokens import Sentence, Span

_MONTH_NUM = {month: i + 1 for i, month in enumerate(
    ["january", "february", "march", "april", "may", "june", "july",
     "august", "september", "october", "november", "december"]
)}

_YEAR_RE = re.compile(r"^(1[6-9]\d\d|20\d\d)$")
_DAY_RE = re.compile(r"^([1-9]|[12]\d|3[01])(st|nd|rd|th)?$")

_RELATIVE = {
    "yesterday": "PAST_REF",
    "today": "PRESENT_REF",
    "tomorrow": "FUTURE_REF",
    "recently": "PAST_REF",
    "currently": "PRESENT_REF",
}


def tag_times(sentence: Sentence) -> None:
    """Fill ``sentence.time_mentions`` / ``time_values`` and set token NER.

    Longest match wins; matched tokens receive ``ner = "TIME"`` so later
    stages treat them as time arguments rather than entity mentions.
    """
    tokens = sentence.tokens
    words = [t.text for t in tokens]
    lower = [w.lower() for w in words]
    found: List[Tuple[Span, str]] = []
    i = 0
    while i < len(tokens):
        match = _match_at(words, lower, i)
        if match is not None:
            span, value = match
            found.append((span, value))
            i = span.end
        else:
            i += 1
    sentence.time_mentions = [span for span, _ in found]
    sentence.time_values = {span.start: value for span, value in found}
    for span, _ in found:
        for index in range(span.start, span.end):
            tokens[index].ner = "TIME"


def _match_at(
    words: List[str], lower: List[str], i: int
) -> Optional[Tuple[Span, str]]:
    """Try every date pattern anchored at token ``i``; longest first.

    ``words`` / ``lower`` are the sentence's token texts, built once
    per sentence by :func:`tag_times`.
    """
    n = len(words)

    def year_at(j: int) -> Optional[int]:
        if j < n and _YEAR_RE.match(words[j]):
            return int(words[j])
        return None

    def day_at(j: int) -> Optional[int]:
        if j < n and _DAY_RE.match(lower[j]):
            day = re.sub(r"[a-z]", "", lower[j])
            return int(day)
        return None

    # "September 19 , 2016" / "September 19 2016"
    if lower[i] in MONTHS:
        month = _MONTH_NUM[lower[i]]
        day = day_at(i + 1)
        if day is not None:
            j = i + 2
            if j < n and words[j] == ",":
                j += 1
            year = year_at(j)
            if year is not None:
                return Span(i, j + 1, "TIME"), f"{year:04d}-{month:02d}-{day:02d}"
            return Span(i, i + 2, "TIME"), f"XXXX-{month:02d}-{day:02d}"
        # "May 2012"
        year = year_at(i + 1)
        if year is not None:
            return Span(i, i + 2, "TIME"), f"{year:04d}-{month:02d}"
        return Span(i, i + 1, "TIME"), f"XXXX-{month:02d}"

    # "17 December 1936"
    day = day_at(i)
    if day is not None and i + 1 < n and lower[i + 1] in MONTHS:
        month = _MONTH_NUM[lower[i + 1]]
        year = year_at(i + 2)
        if year is not None:
            return Span(i, i + 3, "TIME"), f"{year:04d}-{month:02d}-{day:02d}"
        return Span(i, i + 2, "TIME"), f"XXXX-{month:02d}-{day:02d}"

    # Bare year, optionally "in 2008" handled by caller context.
    year = year_at(i)
    if year is not None:
        # Avoid treating e.g. "2016" inside "$2016" as a year: the
        # tokenizer keeps currency as one token, so a bare match is safe.
        return Span(i, i + 1, "TIME"), f"{year:04d}"

    # "the 1980s"
    if re.match(r"^(1[6-9]|20)\d0s$", lower[i]):
        return Span(i, i + 1, "TIME"), lower[i][:4]

    if lower[i] in WEEKDAYS:
        return Span(i, i + 1, "TIME"), lower[i].upper()

    if lower[i] in _RELATIVE:
        return Span(i, i + 1, "TIME"), _RELATIVE[lower[i]]

    # "last|next year|month|week|season"
    if lower[i] in {"last", "next"} and i + 1 < n and lower[i + 1] in {
        "year", "month", "week", "season", "summer", "winter",
    }:
        direction = "PAST_REF" if lower[i] == "last" else "FUTURE_REF"
        return Span(i, i + 2, "TIME"), direction

    return None


__all__ = ["tag_times"]
