"""Tokenisation of requirement documents.

A specification file is a sequence of requirements, one sentence each
(Section IV-C: "A specification here is a set of sentences").  The
tokenizer lower-cases words, keeps hyphenated compounds ("auto-control")
and decimal numbers ("2.5") as single tokens, separates punctuation, and
splits a document into sentences at full stops.
"""

from __future__ import annotations

import re
from typing import Iterator, List

_TOKEN_RE = re.compile(
    r"""
      [a-zA-Z][a-zA-Z0-9]*(?:[-'][a-zA-Z0-9]+)*   # words, incl. hyphenated
    | [0-9]+(?:\.[0-9]+)?                         # numbers, incl. decimals
    | [.,;:!?()]                                  # punctuation
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[str]:
    """Tokenise one sentence (or fragment) into lower-case tokens.

    Each match is lower-cased on its own: lower-casing the text first
    would turn non-ASCII letters such as U+212A KELVIN SIGN into ASCII
    ones the pattern then matches.
    """
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def split_sentences(document: str) -> Iterator[str]:
    """Split a requirement document into sentences.

    Sentences end at a full stop or at a line break; blank lines and
    comment lines (starting with ``#``) are skipped, so requirement files
    can carry annotations.
    """
    for raw_line in document.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        for part in re.split(r"\.\s+|\.$", line):
            part = part.strip()
            if part:
                yield part
