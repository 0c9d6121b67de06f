"""Linguistic pipeline: the Stanford CoreNLP / MaltParser substrate.

The paper pre-processes every document with tokenization, POS tagging,
noun-phrase chunking, NER (Stanford CoreNLP), time tagging (SUTime) and
dependency parsing (MaltParser, swapped in for the Stanford parser for
speed). This package reimplements each of those components from scratch:

- :mod:`repro.nlp.tokenizer` / :mod:`repro.nlp.sentences` — tokenization
  and sentence splitting.
- :mod:`repro.nlp.pos` — lexicon + suffix-rule POS tagger.
- :mod:`repro.nlp.lemma` — rule-based English lemmatizer.
- :mod:`repro.nlp.chunker` — regex-over-POS noun-phrase chunker.
- :mod:`repro.nlp.ner` — gazetteer + shape-feature named-entity tagger.
- :mod:`repro.nlp.time_tagger` — SUTime-style recognition/normalization.
- :mod:`repro.nlp.dependency` — two projective dependency parsers: a
  greedy easy-first parser (the MaltParser stand-in) and an exact
  O(n^3) Eisner chart parser (the Stanford-parser stand-in).
- :mod:`repro.nlp.pipeline` — orchestration of all of the above.
"""

from repro.nlp.pipeline import NlpPipeline, PipelineConfig
from repro.nlp.tokens import Document, Sentence, Token

__all__ = ["Document", "NlpPipeline", "PipelineConfig", "Sentence", "Token"]
