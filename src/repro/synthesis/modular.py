"""Variable-partitioned compositional checking.

Industrial specifications are conjunctions of many requirements, most of
which touch only a few propositions.  Two requirements that share no
proposition cannot interact, so the conjunction is realizable iff every
*variable-connected component* is realizable — each component gets its own
controller and the controllers run side by side.  This keeps the alphabet
of each synthesis call small, which is what makes explicit-letter engines
tractable (the same observation underlies G4LTL's performance on the
paper's Table I specifications).

Soundness: components share no variables at all, in particular no outputs,
so the parallel composition of per-component controllers is well-defined;
inputs not constrained by any component are ignored.  Completeness: a
counterstrategy for one component is a counterstrategy for the whole
conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..logic.ast import Formula, atoms

#: Entries in each per-component cache: the component outcomes
#: (:mod:`.realizability`) and the constant-word verdicts
#: (:mod:`.invariants`).
COMPONENT_CACHE_CAPACITY = 2048


@dataclass(frozen=True)
class Component:
    """A variable-connected group of requirements."""

    indices: Tuple[int, ...]  # positions in the original formula list
    formulas: Tuple[Formula, ...]
    variables: FrozenSet[str]


def decompose(formulas: Sequence[Formula]) -> List[Component]:
    """Group *formulas* into variable-connected components (union-find)."""
    parent = list(range(len(formulas)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    owner: Dict[str, int] = {}
    variable_sets = [atoms(formula) for formula in formulas]
    for index, names in enumerate(variable_sets):
        for name in names:
            if name in owner:
                union(owner[name], index)
            else:
                owner[name] = index

    grouped: Dict[int, List[int]] = {}
    for index in range(len(formulas)):
        grouped.setdefault(find(index), []).append(index)

    components = []
    for indices in sorted(grouped.values()):
        variables: Set[str] = set()
        for index in indices:
            variables |= variable_sets[index]
        components.append(
            Component(
                tuple(indices),
                tuple(formulas[index] for index in indices),
                frozenset(variables),
            )
        )
    return components
