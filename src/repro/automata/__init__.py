"""Automata substrate: Büchi automata, GPVW translation, emptiness, LTL-SAT."""

from .buchi import BuchiAutomaton, Label
from .emptiness import Witness, find_witness
from .gpvw import translate
from .ltlsat import is_valid, satisfiable

__all__ = [
    "BuchiAutomaton",
    "Label",
    "Witness",
    "find_witness",
    "is_valid",
    "satisfiable",
    "translate",
]
