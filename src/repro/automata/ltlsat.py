"""LTL satisfiability and validity via automata emptiness.

The realizability ladder (:mod:`repro.synthesis.realizability`) uses
satisfiability and validity as its second and third rungs, on components
the obligation certificate cannot settle: an unsatisfiable conjunction of
requirements can never be implemented, whatever the input/output
partition.  Each check builds a GPVW tableau for the whole conjunction,
which is why the certificate runs first.
"""

from __future__ import annotations

from typing import Optional

from ..logic.ast import Formula, Not
from .emptiness import Witness, find_witness
from .gpvw import translate


def satisfiable(formula: Formula) -> Optional[Witness]:
    """A satisfying lasso word for *formula*, or ``None`` if unsatisfiable.

    Deliberately uncached beyond the automaton translation: the pipeline's
    repeated satisfiability checks are absorbed upstream by the
    component-outcome cache in :mod:`repro.synthesis.realizability`, and
    the conjunction nodes queried here are short-lived, so a weak-keyed
    witness cache would never be hit.
    """
    return find_witness(translate(formula))


def is_valid(formula: Formula) -> bool:
    """True when *formula* holds on every infinite word."""
    return satisfiable(Not(formula)) is None
