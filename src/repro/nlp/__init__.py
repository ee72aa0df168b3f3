"""NLP substrate: tokenizer, structured-English grammar, dependencies,
antonym dictionary — the offline stand-in for the Stanford parser."""

from .antonyms import DEFAULT_PAIRS, AntonymDictionary
from .dependencies import (
    Dependency,
    candidate_subjects,
    clause_dependencies,
    extract_dependencies,
    sentence_vocabulary,
    subject_dependents,
)
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
    "Dependency",
    "Sentence",
    "StructuredEnglishError",
    "SubClause",
    "TimeConstraint",
    "TreeNode",
    "candidate_subjects",
    "clause_dependencies",
    "extract_dependencies",
    "normalise_name",
    "parse_sentence",
    "render",
    "render_sentence",
    "sentence_vocabulary",
    "split_sentences",
    "subject_dependents",
    "syntax_tree",
    "tokenize",
]
