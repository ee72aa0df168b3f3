"""Stage 2 of SpecCC: LTL realizability checking (the G4LTL substitute).

One exact engine — a k-co-Büchi safety-game reduction (G4LTL's
algorithm), with SAT-based bounded synthesis (Finkbeiner-Schewe) of an
environment strategy as its dual for unrealizable verdicts — behind the
obligation certificate and the GPVW tableau rungs, plus
variable-partitioned modular decomposition, controller verification and
inconsistency localization.
"""

from .bounded import BoundedSynthesisResult, IncrementalBoundedSynthesizer
from .localization import LocalizationResult, default_checker, localize
from .mealy import Letter, MealyMachine, all_letters
from .modular import Component, decompose
from .realizability import (
    ComponentResult,
    RealizabilityResult,
    SynthesisLimits,
    Verdict,
    check_realizability,
    synthesis_stats,
)
from .safety_game import SafetyGameResult, StateSpaceLimit, solve_automaton
from .safety_game import solve as solve_safety_game
from .verify import satisfies_specification, violation_witness

__all__ = [
    "BoundedSynthesisResult",
    "Component",
    "ComponentResult",
    "IncrementalBoundedSynthesizer",
    "Letter",
    "LocalizationResult",
    "MealyMachine",
    "RealizabilityResult",
    "SafetyGameResult",
    "StateSpaceLimit",
    "SynthesisLimits",
    "Verdict",
    "all_letters",
    "check_realizability",
    "decompose",
    "default_checker",
    "localize",
    "satisfies_specification",
    "solve_automaton",
    "solve_safety_game",
    "synthesis_stats",
    "violation_witness",
]
