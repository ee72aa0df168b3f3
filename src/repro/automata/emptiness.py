"""Emptiness checking of (generalized) Büchi automata with witnesses.

Non-emptiness of a GBA reduces to finding a reachable strongly connected
component that (a) contains at least one transition and (b) intersects every
acceptance set.  Tarjan's algorithm is implemented iteratively; a witness
lasso word is reconstructed by breadth-first search.  :func:`find_witness`
is the one entry point, and an automaton is empty exactly when it returns
``None``: the satisfiability and validity rungs
(:mod:`repro.automata.ltlsat`) read it that way, and the controller check
(:mod:`repro.synthesis.verify`) returns the witness's word as the
violating trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..logic.semantics import LassoWord
from .buchi import BuchiAutomaton, Label


@dataclass(frozen=True)
class Witness:
    """An accepting lasso through the automaton and the induced word."""

    prefix_states: Tuple[int, ...]
    loop_states: Tuple[int, ...]
    word: LassoWord


def find_witness(automaton: BuchiAutomaton) -> Optional[Witness]:
    """Return an accepting lasso, or ``None`` when the language is empty."""
    sccs = _tarjan(automaton)
    for component in sccs:
        if not _has_internal_transition(automaton, component):
            continue
        if all(component & acc for acc in automaton.accepting_sets):
            return _build_witness(automaton, component)
    return None


def _tarjan(automaton: BuchiAutomaton) -> List[Set[int]]:
    """Iterative Tarjan over the reachable part; returns all SCCs."""
    index_counter = 0
    indices: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[Set[int]] = []

    for root in automaton.initial:
        if root in indices:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            state, edge_index = work[-1]
            if edge_index == 0:
                indices[state] = index_counter
                lowlink[state] = index_counter
                index_counter += 1
                stack.append(state)
                on_stack.add(state)
            edges = automaton.successors(state)
            advanced = False
            while edge_index < len(edges):
                _, dst = edges[edge_index]
                edge_index += 1
                if dst not in indices:
                    work[-1] = (state, edge_index)
                    work.append((dst, 0))
                    advanced = True
                    break
                if dst in on_stack:
                    lowlink[state] = min(lowlink[state], indices[dst])
            if advanced:
                continue
            work.pop()
            if lowlink[state] == indices[state]:
                component: Set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == state:
                        break
                sccs.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[state])
    return sccs


def _has_internal_transition(automaton: BuchiAutomaton, component: Set[int]) -> bool:
    for state in component:
        for _, dst in automaton.successors(state):
            if dst in component:
                return True
    return False


def _build_witness(automaton: BuchiAutomaton, component: Set[int]) -> Witness:
    prefix_states, prefix_labels, entry = _path_to_component(automaton, component)
    loop_states, loop_labels = _loop_through_sets(automaton, component, entry)
    word = LassoWord(
        tuple(_concretise(label) for label in prefix_labels),
        tuple(_concretise(label) for label in loop_labels),
    )
    return Witness(tuple(prefix_states), tuple(loop_states), word)


def _path_to_component(
    automaton: BuchiAutomaton, component: Set[int]
) -> Tuple[List[int], List[Label], int]:
    """BFS from the initial states to *component*; returns (states, labels,
    entry state)."""
    parents: Dict[int, Tuple[int, Label]] = {}
    queue: List[int] = list(automaton.initial)
    seen: Set[int] = set(queue)
    target: Optional[int] = None
    for state in queue:
        if state in component:
            target = state
    position = 0
    while target is None and position < len(queue):
        state = queue[position]
        position += 1
        for label, dst in automaton.successors(state):
            if dst in seen:
                continue
            seen.add(dst)
            parents[dst] = (state, label)
            if dst in component:
                target = dst
                break
            queue.append(dst)
    assert target is not None, "component must be reachable"
    states = [target]
    labels: List[Label] = []
    current = target
    while current in parents:
        parent, label = parents[current]
        labels.append(label)
        states.append(parent)
        current = parent
    states.reverse()
    labels.reverse()
    return states, labels, target


def _loop_through_sets(
    automaton: BuchiAutomaton, component: Set[int], entry: int
) -> Tuple[List[int], List[Label]]:
    """A cycle inside *component* from *entry* back to itself that touches
    every acceptance set."""
    targets: List[Set[int]] = []
    for acc in automaton.accepting_sets:
        targets.append(acc & component)
    loop_states: List[int] = [entry]
    loop_labels: List[Label] = []
    current = entry
    for target in targets:
        if any(state in target for state in loop_states):
            continue
        states, labels = _bfs_inside(automaton, component, current, target)
        loop_states.extend(states[1:])
        loop_labels.extend(labels)
        current = loop_states[-1]
    states, labels = _bfs_inside(automaton, component, current, {entry})
    loop_states.extend(states[1:])
    loop_labels.extend(labels)
    if not loop_labels:
        # entry satisfies every set and needs a self-loop cycle.
        states, labels = _shortest_cycle(automaton, component, entry)
        loop_states.extend(states[1:])
        loop_labels.extend(labels)
    # Drop the duplicated final state (== entry).
    return loop_states[:-1], loop_labels


def _bfs_inside(
    automaton: BuchiAutomaton,
    component: Set[int],
    source: int,
    targets: Set[int],
) -> Tuple[List[int], List[Label]]:
    if source in targets:
        return [source], []
    parents: Dict[int, Tuple[int, Label]] = {}
    queue = [source]
    seen = {source}
    found: Optional[int] = None
    position = 0
    while found is None and position < len(queue):
        state = queue[position]
        position += 1
        for label, dst in automaton.successors(state):
            if dst not in component or dst in seen:
                continue
            seen.add(dst)
            parents[dst] = (state, label)
            if dst in targets:
                found = dst
                break
            queue.append(dst)
    assert found is not None, "targets must be reachable inside the SCC"
    states = [found]
    labels: List[Label] = []
    current = found
    while current != source:
        parent, label = parents[current]
        labels.append(label)
        states.append(parent)
        current = parent
    states.reverse()
    labels.reverse()
    return states, labels


def _shortest_cycle(
    automaton: BuchiAutomaton, component: Set[int], state: int
) -> Tuple[List[int], List[Label]]:
    """Shortest non-empty cycle from *state* back to itself inside the SCC."""
    best: Optional[Tuple[List[int], List[Label]]] = None
    for label, dst in automaton.successors(state):
        if dst == state:
            return [state, state], [label]
        if dst not in component:
            continue
        states, labels = _bfs_inside(automaton, component, dst, {state})
        candidate = ([state] + states, [label] + labels)
        if best is None or len(candidate[0]) < len(best[0]):
            best = candidate
    assert best is not None, "SCC with an internal transition has a cycle"
    return best


def _concretise(label: Label) -> FrozenSet[str]:
    """Pick the concrete letter that sets exactly the positive literals."""
    return frozenset(label.pos)
