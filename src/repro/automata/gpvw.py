"""LTL to generalized Büchi automata via the GPVW tableau construction.

This is the classic on-the-fly algorithm of Gerth, Peled, Vardi and Wolper
("Simple on-the-fly automatic verification of linear temporal logic", PSTV
1995), which also powers the Stanford-parser-to-LTL toolchains the paper
builds on.  Input formulas are first brought into negation normal form; the
resulting automaton has

* one transition label per *node* (the conjunction of literals the node
  committed to), and
* one acceptance set per ``Until`` subformula, containing the nodes that do
  not owe that until obligation.

The implementation is iterative (explicit worklist) so deeply nested ``X``
chains — the discrete-time encoding of Section IV-E produces chains of up
to 180 — do not overflow the Python recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, FrozenSet, List, Set, Tuple
from weakref import WeakKeyDictionary

from ..logic.ast import (
    And,
    Atom,
    Bool,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Until,
    atoms as formula_atoms,
)
from ..logic.nnf import to_nnf
from ..logic.rewrite import simplify
from .buchi import BuchiAutomaton, Label


@dataclass
class _Node:
    """A tableau node in construction."""

    name: int
    incoming: Set[int] = field(default_factory=set)
    new: Set[Formula] = field(default_factory=set)
    old: Set[Formula] = field(default_factory=set)
    next: Set[Formula] = field(default_factory=set)

    def clone(self, name: int) -> "_Node":
        return _Node(
            name=name,
            incoming=set(self.incoming),
            new=set(self.new),
            old=set(self.old),
            next=set(self.next),
        )


_INIT = -1  # virtual predecessor of initial nodes

# Stable per-formula sort keys make node processing independent of Python's
# per-process hash randomisation, so repeated runs build identical automata
# (important for reproducible benchmark tables).  The canonical string is
# cached on the interned node itself (Formula.sort_key), so — unlike the old
# module-level ``_sort_keys`` dict — the cache dies with the formula instead
# of growing forever in long-lived processes.
_sort_key = Formula.sort_key


def _pop_deterministic(formulas: Set[Formula]) -> Formula:
    chosen = min(formulas, key=_sort_key)
    formulas.remove(chosen)
    return chosen


# Per-formula automaton cache.  The automaton depends only on the
# formula, so the realizability driver, the partition-repair loop and
# localization all reuse one translation however often they revisit the
# formula.  Weak keys: entries vanish with the (interned) formula.  Cached
# automata are shared — callers must treat them as immutable, which every
# consumer in this code base does.
_translation_cache: "WeakKeyDictionary[Formula, BuchiAutomaton]" = WeakKeyDictionary()


def clear_translation_cache() -> None:
    """Drop all cached formula-to-automaton translations."""
    _translation_cache.clear()


def translation_cache_size() -> int:
    return len(_translation_cache)


def translate(formula: Formula) -> BuchiAutomaton:
    """Translate *formula* into a generalized Büchi automaton.

    The automaton accepts exactly the infinite words satisfying *formula*.
    Results are cached per formula (see ``_translation_cache``).
    """
    automaton = _translation_cache.get(formula)
    if automaton is None:
        automaton = _translation_cache[formula] = _translate(formula)
    return automaton


def _translate(formula: Formula) -> BuchiAutomaton:
    # simplify() may reintroduce F/G/W sugar; normalise once more.
    nnf = to_nnf(simplify(to_nnf(formula)))

    names = count()
    initial = _Node(name=next(names), incoming={_INIT}, new={nnf})

    # Finished nodes, keyed by (old, next) for merging.  Interned formulas
    # let the key be two frozensets of small ints — structural equality of
    # formula sets collapses to integer-set equality.
    finished: Dict[Tuple[FrozenSet[int], FrozenSet[int]], _Node] = {}
    worklist: List[_Node] = [initial]

    while worklist:
        node = worklist.pop()
        if not node.new:
            key = (
                frozenset(f._uid for f in node.old),
                frozenset(f._uid for f in node.next),
            )
            existing = finished.get(key)
            if existing is not None:
                existing.incoming |= node.incoming
                continue
            finished[key] = node
            successor = _Node(
                name=next(names), incoming={node.name}, new=set(node.next)
            )
            worklist.append(successor)
            continue

        eta = _pop_deterministic(node.new)
        if isinstance(eta, Bool):
            if eta.value:
                node.old.add(eta)
                worklist.append(node)
            # 'false' discards the node.
            continue
        if isinstance(eta, (Atom, Not)):
            negation = _negate_literal(eta)
            if negation in node.old:
                continue  # contradictory node
            node.old.add(eta)
            worklist.append(node)
            continue
        if isinstance(eta, And):
            for part in (eta.left, eta.right):
                if part not in node.old:
                    node.new.add(part)
            node.old.add(eta)
            worklist.append(node)
            continue
        if isinstance(eta, Next):
            node.old.add(eta)
            node.next.add(eta.operand)
            worklist.append(node)
            continue
        if isinstance(eta, (Or, Until, Release)):
            node1 = node.clone(next(names))
            node2 = node.clone(next(names))
            new1, next1, new2 = _split(eta)
            node1.old.add(eta)
            node2.old.add(eta)
            node1.new |= new1 - node1.old
            node1.next |= next1
            node2.new |= new2 - node2.old
            worklist.append(node1)
            worklist.append(node2)
            continue
        raise TypeError(f"formula not in NNF: {eta!r}")

    return _build_automaton(nnf, list(finished.values()))


def _negate_literal(literal: Formula) -> Formula:
    if isinstance(literal, Not):
        return literal.operand
    return Not(literal)


def _split(eta: Formula) -> Tuple[Set[Formula], Set[Formula], Set[Formula]]:
    """The GPVW split table: (New1, Next1, New2)."""
    if isinstance(eta, Until):
        return {eta.left}, {eta}, {eta.right}
    if isinstance(eta, Release):
        return {eta.right}, {eta}, {eta.left, eta.right}
    if isinstance(eta, Or):
        return {eta.left}, set(), {eta.right}
    raise TypeError(f"not a splittable formula: {eta!r}")


def _build_automaton(nnf: Formula, nodes: List[_Node]) -> BuchiAutomaton:
    automaton = BuchiAutomaton(atoms=formula_atoms(nnf))
    state_of: Dict[int, int] = {}
    for node in nodes:
        description = ", ".join(sorted(f.sort_key() for f in node.old)) or "true"
        state_of[node.name] = automaton.new_state(description)

    labels: Dict[int, Label] = {}
    for node in nodes:
        pos = {f.name for f in node.old if isinstance(f, Atom)}
        neg = {
            f.operand.name
            for f in node.old
            if isinstance(f, Not) and isinstance(f.operand, Atom)
        }
        labels[node.name] = Label.of(pos, neg)

    for node in nodes:
        dst = state_of[node.name]
        label = labels[node.name]
        for pred in node.incoming:
            if pred == _INIT:
                automaton.initial.add(dst)
            elif pred in state_of:
                automaton.add_transition(state_of[pred], label, dst)

    # Initial-state labels also constrain the first letter.  GPVW handles
    # this by treating node labels as constraints on the *incoming*
    # transition; initial nodes have their label checked against letter 0,
    # which we model with a fresh unconstrained pre-initial state.
    pre = automaton.new_state("init")
    for node in nodes:
        if _INIT in node.incoming:
            automaton.add_transition(pre, labels[node.name], state_of[node.name])
    automaton.initial = {pre}

    # Sorted so the acceptance-set order (and hence degeneralization) is
    # identical across runs, not just up to set reordering.
    untils = sorted(
        (f for f in _closure(nnf) if isinstance(f, Until)),
        key=_sort_key,
    )
    accepting_sets: List[Set[int]] = []
    for until in untils:
        members = {
            state_of[node.name]
            for node in nodes
            if until not in node.old or until.right in node.old
        }
        # The pre-initial state belongs to every set: it is visited once.
        members.add(pre)
        accepting_sets.append(members)
    automaton.accepting_sets = accepting_sets
    return automaton


def _closure(formula: Formula) -> Set[Formula]:
    seen: Set[Formula] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children())
    return seen
