"""Mealy machines: the controllers produced by LTL synthesis.

A Mealy machine reads one input letter (a set of input propositions) per
step and reacts with an output letter in the same step — the reactive
semantics G4LTL uses for PLC code generation.  Machines are total over the
declared input alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Letter = FrozenSet[str]


def all_letters(propositions: Sequence[str]) -> List[Letter]:
    """Every subset of *propositions*, smallest first, deterministic order."""
    ordered = sorted(propositions)
    subsets = chain.from_iterable(
        combinations(ordered, size) for size in range(len(ordered) + 1)
    )
    return [frozenset(subset) for subset in subsets]


@dataclass
class MealyMachine:
    """A deterministic, complete Mealy machine."""

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    num_states: int
    initial: int = 0
    # (state, input letter) -> (successor, output letter)
    transitions: Dict[Tuple[int, Letter], Tuple[int, Letter]] = field(
        default_factory=dict
    )

    def add_transition(
        self, state: int, letter: Iterable[str], successor: int, output: Iterable[str]
    ) -> None:
        self.transitions[(state, frozenset(letter))] = (
            successor,
            frozenset(output),
        )

    def step(self, state: int, letter: Iterable[str]) -> Tuple[int, Letter]:
        key = (state, frozenset(letter) & frozenset(self.inputs))
        if key not in self.transitions:
            raise KeyError(f"machine is not total: missing {key}")
        return self.transitions[key]

    def describe(self) -> str:
        """Human-readable transition table."""
        lines = [
            f"Mealy machine: {self.num_states} states, "
            f"inputs={sorted(self.inputs)}, outputs={sorted(self.outputs)}"
        ]
        for (state, letter), (successor, output) in sorted(
            self.transitions.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
        ):
            in_text = "{" + ",".join(sorted(letter)) + "}"
            out_text = "{" + ",".join(sorted(output)) + "}"
            lines.append(f"  s{state} --{in_text}/{out_text}--> s{successor}")
        return "\n".join(lines)
