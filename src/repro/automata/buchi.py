"""Büchi automata over partial-letter labels.

Transitions are labelled with a :class:`Label`: a conjunction of literals
over atomic propositions (a *partial* letter).  A concrete letter — a set of
atomic propositions — matches the label when it contains every positive
literal and no negative one.  Partial letters keep the automata produced by
GPVW small: propositions a transition does not mention stay unconstrained,
which the synthesis engines later exploit to avoid enumerating the full
``2^AP`` alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)


@dataclass(frozen=True)
class Label:
    """A conjunction of literals: ``pos`` must hold, ``neg`` must not."""

    pos: FrozenSet[str] = frozenset()
    neg: FrozenSet[str] = frozenset()

    @staticmethod
    def of(pos: Iterable[str] = (), neg: Iterable[str] = ()) -> "Label":
        return Label(frozenset(pos), frozenset(neg))

    def is_consistent(self) -> bool:
        return not (self.pos & self.neg)

    def matches(self, letter: FrozenSet[str]) -> bool:
        return self.pos <= letter and not (self.neg & letter)

    def restrict(self, keep: FrozenSet[str]) -> "Label":
        """Project the label onto the propositions in *keep*."""
        return Label(self.pos & keep, self.neg & keep)

    def __str__(self) -> str:
        parts = sorted(self.pos) + [f"!{name}" for name in sorted(self.neg)]
        return " && ".join(parts) if parts else "true"


@dataclass
class BuchiAutomaton:
    """A (generalized) nondeterministic Büchi automaton.

    ``accepting_sets`` holds one or more sets of accepting *states*; a run is
    accepting when it visits every set infinitely often.  An automaton with a
    single set is an ordinary NBA.  An empty list of sets means "all runs
    accept" and is represented by one set containing every state.
    """

    num_states: int = 0
    initial: Set[int] = field(default_factory=set)
    transitions: Dict[int, List[Tuple[Label, int]]] = field(default_factory=dict)
    accepting_sets: List[Set[int]] = field(default_factory=list)
    atoms: FrozenSet[str] = frozenset()
    state_info: Dict[int, str] = field(default_factory=dict)
    #: Memoised result of :meth:`degeneralize`.  Valid because automata are
    #: treated as immutable once built (the GPVW translation cache shares
    #: them between engines); never set it by hand.
    _degeneralized: Optional["BuchiAutomaton"] = field(
        default=None, repr=False, compare=False
    )

    def new_state(self, info: str = "") -> int:
        state = self.num_states
        self.num_states += 1
        self.transitions[state] = []
        if info:
            self.state_info[state] = info
        return state

    def add_transition(self, src: int, label: Label, dst: int) -> None:
        if not label.is_consistent():
            return
        self.transitions.setdefault(src, []).append((label, dst))

    def successors(self, state: int) -> List[Tuple[Label, int]]:
        return self.transitions.get(state, [])

    def degeneralize(self) -> "BuchiAutomaton":
        """Counter construction turning a GBA into an equivalent NBA.

        States become ``(state, index)`` where *index* counts how many
        acceptance sets have been visited in order; completing the round trip
        through all sets is the single new acceptance condition.

        The result is memoised: the synthesis engines degeneralize the same
        cached translation once per formula instead of once per call.
        """
        if self._degeneralized is None:
            self._degeneralized = self._degeneralize()
        return self._degeneralized

    def _degeneralize(self) -> "BuchiAutomaton":
        if not self.accepting_sets:
            whole = set(range(self.num_states))
            base = BuchiAutomaton(
                num_states=self.num_states,
                initial=set(self.initial),
                transitions={s: list(e) for s, e in self.transitions.items()},
                accepting_sets=[whole],
                atoms=self.atoms,
                state_info=dict(self.state_info),
            )
            return base
        if len(self.accepting_sets) == 1:
            return self
        sets = self.accepting_sets
        k = len(sets)
        result = BuchiAutomaton(atoms=self.atoms)
        index_of: Dict[Tuple[int, int], int] = {}

        def state_for(state: int, counter: int) -> int:
            key = (state, counter)
            if key not in index_of:
                info = self.state_info.get(state, str(state))
                index_of[key] = result.new_state(f"{info}#{counter}")
            return index_of[key]

        # Counter value c in [0, k) means "waiting to see acceptance set c";
        # value k marks the completion of a full round and is the (single)
        # acceptance condition.  For outgoing transitions, k behaves like 0.
        worklist: List[Tuple[int, int]] = []
        for init in self.initial:
            result.initial.add(state_for(init, 0))
            worklist.append((init, 0))
        seen = set(worklist)
        while worklist:
            state, counter = worklist.pop()
            src = state_for(state, counter)
            effective = 0 if counter == k else counter
            for label, dst in self.successors(state):
                next_counter = effective
                while next_counter < k and dst in sets[next_counter]:
                    next_counter += 1
                result.add_transition(src, label, state_for(dst, next_counter))
                if (dst, next_counter) not in seen:
                    seen.add((dst, next_counter))
                    worklist.append((dst, next_counter))
        accepting = {
            index_of[(state, counter)]
            for (state, counter) in index_of
            if counter == k
        }
        result.accepting_sets = [accepting]
        return result

    def reachable_states(self) -> Set[int]:
        seen = set(self.initial)
        stack = list(self.initial)
        while stack:
            state = stack.pop()
            for _, dst in self.successors(state):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen
