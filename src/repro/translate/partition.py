"""Heuristic input/output variable partition (Section IV-F).

"For left-hand parts in an implication, or for right-hand parts of the
Until operator, we assume that the constituting variables are input
variables.  If a proposition in positive form appears in the both sides of
such operators, it is assumed as an output."  Per-requirement partitions
are then unified: any conflict makes the variable an output, and if no
input remains one output is promoted (deterministically, instead of the
paper's random pick).

A requirement's classification reads only its own formula, so the
translator classifies each final formula once, under its cache record,
and each pass only unifies the stored classes (:func:`partition_formulas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, NamedTuple, Sequence, Set, Tuple

from ..logic.ast import Atom, Bool, Formula, Iff, Implies, Until, WeakUntil


@dataclass(frozen=True)
class Partition:
    """A complete input/output split of the specification's propositions."""

    inputs: FrozenSet[str]
    outputs: FrozenSet[str]

    def __post_init__(self) -> None:
        overlap = self.inputs & self.outputs
        if overlap:
            raise ValueError(f"variables on both sides: {sorted(overlap)}")

    def move_to_output(self, name: str) -> "Partition":
        """Refinement step: reclassify one variable as an output."""
        if name not in self.inputs:
            raise ValueError(f"{name!r} is not an input")
        return Partition(self.inputs - {name}, self.outputs | {name})


class RequirementPartition(NamedTuple):
    """Per-requirement variable classification, before unification: the
    names on each side, sorted."""

    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


def classify_requirement(formula: Formula) -> RequirementPartition:
    """Classify one requirement's variables by the paper's side heuristic."""
    condition_side: Set[str] = set()
    response_side: Set[str] = set()
    _walk(formula, condition_side, response_side, in_condition=False)
    # A name on both sides is an output: every response-side name is one.
    return RequirementPartition(
        tuple(sorted(condition_side - response_side)), tuple(sorted(response_side))
    )


def _walk(
    formula: Formula,
    condition: Set[str],
    response: Set[str],
    in_condition: bool,
) -> None:
    if isinstance(formula, Atom):
        (condition if in_condition else response).add(formula.name)
        return
    if isinstance(formula, Bool):
        return
    if isinstance(formula, Implies):
        _walk(formula.left, condition, response, True)
        _walk(formula.right, condition, response, in_condition)
        return
    if isinstance(formula, (Until, WeakUntil)):
        # The right-hand side of Until is the environment event that
        # releases the obligation.
        _walk(formula.left, condition, response, in_condition)
        _walk(formula.right, condition, response, True)
        return
    if isinstance(formula, Iff):
        _walk(formula.left, condition, response, in_condition)
        _walk(formula.right, condition, response, in_condition)
        return
    for child in formula.children():
        _walk(child, condition, response, in_condition)


def partition_formulas(per_requirement: Sequence[RequirementPartition]) -> Partition:
    """Unify per-requirement classifications (:func:`classify_requirement`
    of each formula): conflicts become outputs."""
    inputs: Set[str] = set()
    outputs: Set[str] = set()
    for part in per_requirement:
        inputs.update(part.inputs)
        outputs.update(part.outputs)
    conflicted = inputs & outputs
    inputs -= conflicted
    if not inputs and outputs:
        # The paper picks a random output; we pick the alphabetically first
        # so runs are reproducible.
        promoted = min(outputs)
        inputs = {promoted}
        outputs = outputs - {promoted}
    return Partition(frozenset(inputs), frozenset(outputs))
