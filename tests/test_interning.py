"""Interning (hash-consing) invariants of the formula core.

The contract the hot paths rely on:

* structural equality implies pointer identity,
* hashes are cached, collision-stable and independent of
  ``PYTHONHASHSEED`` (so set/dict iteration over formulas is reproducible),
* pickle round-trips re-intern,
* nodes are immutable and garbage-collectable (the intern pools are weak),
* and — the regression that matters most — :func:`repro.automata.gpvw.translate`
  builds byte-identical automata to the pre-interning seed on the Table I
  case-study formulas (golden fingerprints in ``tests/data``).
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.automata import gpvw
from repro.logic.ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bool,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    atoms,
    conj,
    interned_count,
    next_chain,
    next_depth,
)
from repro.logic.parser import parse

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_automata.json"


def _child_env(hash_seed: str) -> dict:
    """This process's environment with only the module path and the hash
    seed replaced, so settings such as ``PYTHONDONTWRITEBYTECODE`` reach
    the child too."""
    return {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed}


# ---------------------------------------------------------------------------
# Identity and hashing


def test_structural_equality_is_identity():
    a, b = Atom("a"), Atom("b")
    assert Atom("a") is a
    assert Not(a) is Not(a)
    assert And(a, b) is And(a, b)
    assert And(a, b) is not And(b, a)
    assert Until(a, b) is Until(a, b)
    assert Bool(True) is TRUE and Bool(False) is FALSE
    assert parse("G (a -> F b)") is parse("G(a ->  F(b))")
    assert conj([a, b, Not(a)]) is conj([a, b, Not(a)])


def test_identity_equality_distinguishes_operators():
    a, b = Atom("a"), Atom("b")
    pairs = [Until(a, b), Release(a, b), WeakUntil(a, b), And(a, b), Or(a, b),
             Implies(a, b), Iff(a, b)]
    assert len(set(pairs)) == len(pairs)
    assert Next(a) is not Finally(a)
    assert Finally(a) is not Globally(a)


def test_hash_is_cached_and_consistent():
    deep = next_chain(And(Atom("a"), Not(Atom("b"))), 150)
    assert hash(deep) == hash(deep)
    rebuilt = next_chain(And(Atom("a"), Not(Atom("b"))), 150)
    assert rebuilt is deep and hash(rebuilt) == hash(deep)


def test_hash_stable_across_hash_randomisation():
    """Structural hashes avoid str hashing, so they cannot depend on
    PYTHONHASHSEED — formula-set iteration orders are reproducible."""
    program = (
        "from repro.logic.parser import parse;"
        "print(hash(parse('G (a -> F (b && X c))')), hash(parse('p U (q R r)')))"
    )
    outputs = set()
    for seed in ("1", "2", "random"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env=_child_env(seed),
            cwd=Path(__file__).parent.parent,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, f"hashes differ across seeds: {outputs}"


def test_uids_are_distinct_and_stable():
    # The intern keys of compound nodes are their children's uids.
    a, b = Atom("a"), Atom("b")
    nodes = [a, b, And(a, b), Or(a, b), Not(a)]
    assert len({n._uid for n in nodes}) == len(nodes)
    assert And(a, b)._uid == And(a, b)._uid


# ---------------------------------------------------------------------------
# Immutability, copying, pickling, lifetime


def test_nodes_are_immutable():
    node = And(Atom("a"), Atom("b"))
    with pytest.raises(AttributeError):
        node.left = Atom("c")
    with pytest.raises(AttributeError):
        del node.left
    with pytest.raises(ValueError):
        Atom("")


def test_copy_returns_same_object():
    node = Until(Atom("a"), Next(Atom("b")))
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node


def test_pickle_round_trip_reinterns():
    node = And(Not(Atom("a")), next_chain(Atom("b"), 150))
    clone = pickle.loads(pickle.dumps(node))
    assert clone is node
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(node, protocol)) is node


def test_intern_pools_are_weak():
    before = interned_count()
    bulk = [Atom(f"gc_probe_{i}") for i in range(100)]
    assert interned_count() >= before + 100
    del bulk
    gc.collect()
    assert interned_count() <= before + 5  # stragglers from cycles at most


def test_nnf_backlinks_do_not_pin_nodes():
    """Per-node caches point from child to parent (``a._nnf_neg`` is
    ``!a``); the pools must not turn that into an immortal pair, so whole
    formula clusters are reclaimed once externally unreferenced."""
    from repro.logic.nnf import to_nnf

    def build_and_drop():
        formula = parse("G (gc_cycle_a -> F gc_cycle_b)")
        to_nnf(Not(formula))  # populates _nnf_neg backlinks on every node

    before = interned_count()
    build_and_drop()
    gc.collect()
    assert interned_count() == before


# ---------------------------------------------------------------------------
# Cached analyses


def test_atoms_and_next_depth_match_definitions():
    formula = parse("G (a -> F (b && X (c U d)))")
    assert atoms(formula) == frozenset("abcd")
    assert next_depth(next_chain(formula, 150)) == 151
    assert next_depth(Atom("a")) == 0
    # Cache hits return identical objects.
    assert atoms(formula) is atoms(formula)


def test_sort_key_matches_printer():
    from repro.logic.printer import to_str

    formula = parse("(a U b) && X !c")
    assert formula.sort_key() == to_str(formula)
    assert formula.sort_key() is formula.sort_key()


# ---------------------------------------------------------------------------
# Translation cache


def test_translate_is_cached_per_formula():
    formula = parse("G (req -> F ack)")
    first = gpvw.translate(formula)
    assert gpvw.translate(formula) is first
    gpvw.clear_translation_cache()
    fresh = gpvw.translate(formula)
    assert fresh is not first
    assert _canonical(fresh) == _canonical(first)


def test_acceptance_set_order_is_run_stable():
    """The golden fingerprints canonicalise acceptance-set order away, so
    pin it separately: the *ordered* acceptance structure (which drives
    degeneralization and hence the synthesis engines) must be identical
    across processes with different hash seeds."""
    program = (
        "from repro.logic.parser import parse;"
        "from repro.automata.gpvw import translate;"
        "a = translate(parse('(F a) && (F b) && (c U d) && (x U y)'));"
        "print([sorted(s) for s in a.accepting_sets])"
    )
    outputs = set()
    for seed in ("0", "4242", "random"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
            env=_child_env(seed),
            cwd=Path(__file__).parent.parent,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, f"acceptance-set order varies across runs: {outputs}"


def test_degeneralize_is_memoised():
    gpvw.clear_translation_cache()
    automaton = gpvw.translate(parse("(F a) && (F b)"))
    assert automaton.degeneralize() is automaton.degeneralize()


def test_component_cache_reuses_outcomes():
    from repro.synthesis import realizability

    realizability.clear_caches()
    formulas = [parse("G (a -> X b)"), parse("G (c -> F d)")]
    first = realizability.check_realizability(formulas, ["a", "c"], ["b", "d"])
    size_after_first = realizability.component_cache_info()[0]
    assert size_after_first >= 1
    second = realizability.check_realizability(formulas, ["a", "c"], ["b", "d"])
    assert second.verdict is first.verdict
    assert realizability.component_cache_info()[0] == size_after_first


# ---------------------------------------------------------------------------
# Golden automata: byte-identical to the pre-interning seed


def _canonical(automaton) -> dict:
    transitions = sorted(
        (src, str(label), dst)
        for src, edges in automaton.transitions.items()
        for (label, dst) in edges
    )
    accepting = sorted(sorted(s) for s in automaton.accepting_sets)
    return {
        "num_states": automaton.num_states,
        "initial": sorted(automaton.initial),
        "transitions": transitions,
        "accepting": accepting,
        "atoms": sorted(automaton.atoms),
    }


def _fingerprint(formula: Formula) -> str:
    doc = _canonical(gpvw.translate(formula))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _golden_cases():
    data = json.loads(GOLDEN_PATH.read_text())
    for group, entries in sorted(data.items()):
        for text, digest in sorted(entries.items()):
            yield group, text, digest


@pytest.mark.parametrize(
    "group,text,digest",
    list(_golden_cases()),
    ids=[f"{g}:{t[:40]}" for g, t, _ in _golden_cases()],
)
def test_translate_matches_seed_golden(group, text, digest):
    """The automata recorded from the seed (pre-interning) implementation
    must be reproduced exactly, state numbering included."""
    assert _fingerprint(parse(text)) == digest
