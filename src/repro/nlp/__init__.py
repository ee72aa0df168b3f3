"""NLP substrate: tokenizer, structured-English grammar, Algorithm 1's
per-sentence vocabulary, antonym dictionary — the offline stand-in for
the Stanford parser."""

from .antonyms import DEFAULT_PAIRS, AntonymDictionary
from .dependencies import candidate_subjects, sentence_vocabulary
from .grammar import (
    Clause,
    ClauseGroup,
    Sentence,
    StructuredEnglishError,
    SubClause,
    TimeConstraint,
    normalise_name,
    parse_sentence,
)
from .tokenizer import split_sentences, tokenize
from .tree import TreeNode, render, render_sentence, syntax_tree

__all__ = [
    "AntonymDictionary",
    "Clause",
    "ClauseGroup",
    "DEFAULT_PAIRS",
    "Sentence",
    "StructuredEnglishError",
    "SubClause",
    "TimeConstraint",
    "TreeNode",
    "candidate_subjects",
    "normalise_name",
    "parse_sentence",
    "render",
    "render_sentence",
    "sentence_vocabulary",
    "split_sentences",
    "syntax_tree",
    "tokenize",
]
