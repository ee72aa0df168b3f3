"""Inconsistency localization (Section V-B, first bullet).

"The process starts from a subset of consistent formulas.  We can add more
formulas continuously to the subset to check which one is not consistent
with the subset.  Once we have located the problem, we could filter out
other formulas that do not contain any propositions of the located
formulas."

:func:`localize` grows the subset one formula at a time over
variable-connected groups: formula *k* merges the groups whose
propositions it shares, and only that merged group is checked.  No other
group changed, and none was unrealizable, or growth would have stopped;
so the subset is unrealizable iff the merged group is.  That group is
also the paper's filter: the formulas connected to the culprit through
shared propositions.  A shrinking pass then removes formulas irrelevant to
the conflict, yielding an (inclusion-)minimal unrealizable core.

Growth makes one component query per formula.  Each group is built as
:func:`.modular.decompose` builds it, so a group any earlier check
analysed is answered by the component cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..logic.ast import Formula, atoms
from . import realizability
from .modular import Component
from .realizability import Verdict


@dataclass(frozen=True)
class LocalizationResult:
    """An unrealizable core, as reports name it."""

    culprit: int  # index whose addition broke realizability
    core: Tuple[int, ...]  # minimal set of indices jointly unrealizable


def localize(
    formulas: Sequence[Formula],
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> Optional[LocalizationResult]:
    """Locate a minimal unrealizable subset by incremental growth.

    Returns ``None`` when the whole specification checks out realizable
    (or the engines cannot decide it).
    """
    formulas = list(formulas)
    input_set, output_set = frozenset(inputs), frozenset(outputs)
    owner: Dict[str, Component] = {}  # proposition -> the group holding it
    for culprit, formula in enumerate(formulas):
        names = atoms(formula)
        joined = {id(old): old for old in map(owner.get, names) if old is not None}
        # In index order, as decompose() lists a component: the cache key.
        indices = tuple(
            sorted(index for old in joined.values() for index in old.indices)
        ) + (culprit,)
        group = Component(
            indices,
            tuple(formulas[index] for index in indices),
            names.union(*(old.variables for old in joined.values())),
        )
        for name in group.variables:
            owner[name] = group
        check = realizability.check_component(group, input_set, output_set)
        if check.verdict is Verdict.UNREALIZABLE:
            break
    else:
        return None

    # Shrink the group to a minimal core that still holds the culprit.
    core = list(group.indices)
    position = 0
    while position < len(core):
        candidate = core[:position] + core[position + 1 :]
        if culprit not in candidate:
            position += 1
            continue
        subset = [formulas[index] for index in candidate]
        verdict = realizability.check_realizability(subset, inputs, outputs).verdict
        if verdict is Verdict.UNREALIZABLE:
            core = candidate
        else:
            position += 1
    return LocalizationResult(culprit, tuple(core))
