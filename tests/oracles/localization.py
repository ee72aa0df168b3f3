"""Localization as whole-prefix growth, then a proposition-closure filter."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.logic.ast import Formula, atoms
from repro.synthesis.realizability import Verdict, check_realizability


def localize(
    formulas: Sequence[Formula],
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """``(culprit, core)``, or ``None`` when no prefix is unrealizable.

    Kept verbatim as the reference implementation: every prefix is
    checked whole, the culprit's component is recomputed as a fixpoint
    over shared propositions, and the shrink pass is production's.  The
    differential tests assert production's growth over joined groups
    returns the same pair.
    """

    def checker(subset: Sequence[Formula]) -> Verdict:
        return check_realizability(list(subset), inputs, outputs).verdict

    formulas = list(formulas)
    culprit: Optional[int] = None
    prefix: List[int] = []
    for index in range(len(formulas)):
        prefix.append(index)
        if checker([formulas[i] for i in prefix]) is Verdict.UNREALIZABLE:
            culprit = index
            break
    if culprit is None:
        return None

    # Filter: keep only formulas sharing propositions with the culprit
    # (transitively), as the paper suggests, then shrink to a minimal core.
    relevant = _proposition_closure(formulas, prefix, culprit)
    core = list(relevant)
    position = 0
    while position < len(core):
        candidate = core[:position] + core[position + 1 :]
        if culprit not in candidate:
            position += 1
            continue
        if checker([formulas[i] for i in candidate]) is Verdict.UNREALIZABLE:
            core = candidate
        else:
            position += 1
    return culprit, tuple(core)


def _proposition_closure(
    formulas: Sequence[Formula], candidates: Sequence[int], culprit: int
) -> List[int]:
    """Indices connected to the culprit through shared propositions."""
    support = {index: atoms(formulas[index]) for index in candidates}
    support[culprit] = atoms(formulas[culprit])
    names = set(support[culprit])
    selected = {culprit}
    changed = True
    while changed:
        changed = False
        for index in candidates:
            if index in selected:
                continue
            if support[index] & names:
                selected.add(index)
                names |= support[index]
                changed = True
    return sorted(selected)
