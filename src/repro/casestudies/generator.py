"""Deterministic generation of component requirement documents.

Table I reports, for thirteen CARA component specifications and five
TELEPROMISE applications, only the *scale* of each specification (number
of formulas, inputs and outputs) — the actual requirement documents are
external and not reproduced in the paper.  This module synthesises
structured-English requirement sets with exactly the published formula
counts and matching variable pools, using each component's domain
vocabulary, so the pipeline exercises the same code paths at the same
scale.  Generation is seed-free and fully deterministic: the same
descriptor always yields the same sentences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Adjectives used for monitored (input) conditions, cycled in order.
_CONDITION_ADJECTIVES = ("available", "valid", "ready", "active", "normal")

#: Passive response verbs, cycled in order.
_RESPONSE_VERBS = (
    "triggered",
    "started",
    "updated",
    "reported",
    "issued",
    "selected",
    "activated",
    "stored",
    "displayed",
    "confirmed",
)


@dataclass(frozen=True)
class ComponentDescriptor:
    """Scale and vocabulary of one generated component specification."""

    name: str
    num_formulas: int
    input_nouns: Tuple[str, ...]  # one monitored variable each
    output_nouns: Tuple[str, ...]  # one controlled variable each
    #: (formula index -> delay in seconds) for "in t seconds" constraints.
    timed: Tuple[Tuple[int, int], ...] = ()
    #: formula indices translated with "eventually".
    eventual: Tuple[int, ...] = ()
    #: extra hand-written requirements appended verbatim (id, sentence).
    extra: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if 2 * self.num_formulas < len(self.input_nouns):
            raise ValueError(
                f"{self.name}: at most two conditions per formula supported"
            )
        if 2 * self.num_formulas < len(self.output_nouns):
            raise ValueError(
                f"{self.name}: at most two responses per formula supported"
            )


def generate(descriptor: ComponentDescriptor) -> List[Tuple[str, str]]:
    """Produce ``(identifier, sentence)`` requirements for *descriptor*.

    Every input noun appears in at least one condition and every output
    noun in at least one response; extra formulas cycle through two-input
    conditions so the specification stays variable-connected like real
    requirement documents.
    """
    total = descriptor.num_formulas - len(descriptor.extra)
    inputs = descriptor.input_nouns
    outputs = descriptor.output_nouns
    timed = dict(descriptor.timed)
    eventual = set(descriptor.eventual)
    def adjective_for(noun_index: int) -> str:
        # One fixed adjective per noun, so each monitored noun contributes
        # exactly one proposition and the input count matches Table I.
        return _CONDITION_ADJECTIVES[noun_index % len(_CONDITION_ADJECTIVES)]

    def verb_for(noun_index: int) -> str:
        return _RESPONSE_VERBS[noun_index % len(_RESPONSE_VERBS)]

    requirements: List[Tuple[str, str]] = []
    for index in range(total):
        input_index = index % len(inputs)
        output_index = index % len(outputs)
        input_noun = inputs[input_index]
        output_noun = outputs[output_index]
        condition = f"the {input_noun.replace('_', ' ')} is {adjective_for(input_index)}"
        second_index: Optional[int] = None
        spare_inputs = len(inputs) - total
        if index < spare_inputs:
            # More inputs than formulas (Table I row 3.1): cover the
            # remaining inputs through two-input conditions.
            second_index = total + index
        elif index >= max(len(inputs), len(outputs)):
            # Later formulas take two-input conditions for realism.
            second_index = (input_index + 1) % len(inputs)
        if second_index is not None and inputs[second_index] != input_noun:
            second = inputs[second_index]
            condition += (
                f", and the {second.replace('_', ' ')} is "
                f"{adjective_for(second_index)}"
            )
        response = f"the {output_noun.replace('_', ' ')} is {verb_for(output_index)}"
        # When a specification has more outputs than formulas (Table I row
        # 2.2.6), early formulas carry a two-output conjunction response.
        spare = len(outputs) - total
        if index < spare:
            partner_index = total + index
            partner = outputs[partner_index]
            response += (
                f" and the {partner.replace('_', ' ')} is "
                f"{verb_for(partner_index)}"
            )
        if index in eventual:
            response = f"eventually {response}"
        if index in timed:
            response += f" in {timed[index]} seconds"
        sentence = f"If {condition}, {response}."
        requirements.append((f"{descriptor.name}-{index + 1:02d}", sentence))
    for identifier, sentence in descriptor.extra:
        requirements.append((identifier, sentence))
    return requirements


def noun_pool(prefix: str, count: int, themes: Sequence[str]) -> Tuple[str, ...]:
    """``count`` domain nouns: the given themes, then numbered fallbacks."""
    pool = list(themes[:count])
    index = 1
    while len(pool) < count:
        pool.append(f"{prefix} {index}")
        index += 1
    return tuple(pool[:count])
