"""Inconsistency localization (Section V-B, first bullet).

"The process starts from a subset of consistent formulas.  We can add more
formulas continuously to the subset to check which one is not consistent
with the subset.  Once we have located the problem, we could filter out
other formulas that do not contain any propositions of the located
formulas."

:func:`localize` implements exactly that incremental growth, followed by a
shrinking pass that removes formulas irrelevant to the conflict, yielding
an (inclusion-)minimal unrealizable core.

The growth loop issues O(n) realizability queries over overlapping subsets
and the shrink loop another O(core²) — almost all of whose components have
been analysed before.  With interned formulas the realizability layer's
component cache answers those repeats without re-translating a single
formula, which is what keeps localization affordable on Table-I-sized
specifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..logic.ast import Formula, atoms
from .realizability import Verdict, check_realizability

Checker = Callable[[Sequence[Formula]], Verdict]


@dataclass(frozen=True)
class LocalizationResult:
    """An unrealizable core with bookkeeping for reporting."""

    culprit: int  # index whose addition broke realizability
    core: Tuple[int, ...]  # minimal set of indices jointly unrealizable
    checks: int  # number of realizability queries spent


def default_checker(inputs: Sequence[str], outputs: Sequence[str]) -> Checker:
    """A checker closure over a fixed I/O partition."""

    def run(formulas: Sequence[Formula]) -> Verdict:
        return check_realizability(list(formulas), inputs, outputs).verdict

    return run


def localize(
    formulas: Sequence[Formula],
    checker: Checker,
) -> Optional[LocalizationResult]:
    """Locate a minimal unrealizable subset by incremental growth.

    Returns ``None`` when the whole specification checks out realizable
    (or the engines cannot decide it).
    """
    formulas = list(formulas)
    checks = 0
    culprit: Optional[int] = None
    prefix: List[int] = []
    for index in range(len(formulas)):
        prefix.append(index)
        checks += 1
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
        checks += 1
        if checker([formulas[i] for i in candidate]) is Verdict.UNREALIZABLE:
            core = candidate
        else:
            position += 1
    return LocalizationResult(culprit, tuple(core), checks)


def _proposition_closure(
    formulas: Sequence[Formula], candidates: Sequence[int], culprit: int
) -> List[int]:
    """Indices connected to the culprit through shared propositions."""
    # atoms() is cached per interned node, but hoisting the lookups keeps
    # the fixpoint loop free of repeated frozenset construction.
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
