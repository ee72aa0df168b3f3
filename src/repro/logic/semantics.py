"""Ultimately periodic words: the lassos that witness LTL satisfiability.

An infinite word is represented as a *lasso*: a finite ``prefix`` followed
by a non-empty ``loop`` repeated forever.  Every omega-regular language is
non-empty iff it contains such a word, so the emptiness check
(:mod:`repro.automata.emptiness`) returns one as its witness and the
controller check (:mod:`repro.synthesis.verify`) as its counterexample.
The textbook trace semantics that decides ``word |= formula`` is a test
reference, not a production path: it lives in ``tests/oracles/ltl.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

Letter = FrozenSet[str]


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic word ``prefix . loop^omega``.

    Each position is the set of atomic propositions holding there.
    """

    prefix: Tuple[Letter, ...]
    loop: Tuple[Letter, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("lasso loop must be non-empty")
