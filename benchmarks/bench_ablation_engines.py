"""Ablation: synthesis engine comparison and modular decomposition.

Two design choices of the realizability stage:

* the k-co-Büchi safety game (G4LTL's algorithm) vs SAT-based bounded
  synthesis of a system controller on the same small specifications;
* variable-partitioned modular checking vs monolithic checking.
"""

from __future__ import annotations

import time

from repro.logic import conj, parse
from repro.synthesis import (
    Component,
    IncrementalBoundedSynthesizer,
    SynthesisLimits,
    Verdict,
    check_realizability,
    solve_safety_game,
)
from repro.synthesis.realizability import check_component

SPECS = [
    ("request/grant", ["G (r -> X g)"], ["r"], ["g"]),
    ("progress", ["G (r -> F g)", "G (c -> !g)"], ["r", "c"], ["g"]),
    ("clairvoyant", ["G (g <-> X X i)"], ["i"], ["g"]),
    ("arbiter", ["G (r1 -> F g1)", "G (r2 -> F g2)", "G (!g1 || !g2)"],
     ["r1", "r2"], ["g1", "g2"]),
]

NO_OBLIGATIONS = SynthesisLimits(use_obligations=False)

#: The largest game bound and machine size either engine tries.
BOUND = 3


def game_realizable(specification, inputs, outputs) -> bool:
    """Whether the safety game wins at some bound up to :data:`BOUND`."""
    return any(
        solve_safety_game(specification, inputs, outputs, bound=bound).realizable
        for bound in range(1, BOUND + 1)
    )


def bounded_realizable(specification, inputs, outputs) -> bool:
    """Whether bounded synthesis finds a controller of at most
    :data:`BOUND` states."""
    synthesizer = IncrementalBoundedSynthesizer.for_system(
        specification, inputs, outputs
    )
    return any(
        synthesizer.solve(num_states=size).realizable
        for size in range(1, BOUND + 1)
    )


def test_engine_comparison(capsys):
    lines = [f"{'spec':<14} {'game':>10} {'bounded-SAT':>12} realizable"]
    for name, texts, inputs, outputs in SPECS:
        specification = conj([parse(t) for t in texts])
        start = time.perf_counter()
        game = game_realizable(specification, inputs, outputs)
        game_seconds = time.perf_counter() - start
        start = time.perf_counter()
        bounded = bounded_realizable(specification, inputs, outputs)
        bounded_seconds = time.perf_counter() - start
        assert game == bounded, name
        lines.append(
            f"{name:<14} {game_seconds:>9.3f}s {bounded_seconds:>11.3f}s {game}"
        )
    with capsys.disabled():
        print("\nAblation — engine comparison (verdicts must agree)")
        print("\n".join(lines))


def test_modular_vs_monolithic(capsys):
    # Ten independent request/grant pairs: modular checking splits them
    # into ten 2-variable games; monolithic checking sees 20 variables and
    # must give up (the explicit alphabet is out of reach).
    formulas = [parse(f"G (r{k} -> X g{k})") for k in range(10)]
    inputs = [f"r{k}" for k in range(10)]
    outputs = [f"g{k}" for k in range(10)]

    start = time.perf_counter()
    modular = check_realizability(formulas, inputs, outputs, limits=NO_OBLIGATIONS)
    modular_seconds = time.perf_counter() - start
    assert modular.verdict is Verdict.REALIZABLE
    assert len(modular.components) == 10

    whole = Component(
        tuple(range(len(formulas))), tuple(formulas), frozenset(inputs + outputs)
    )
    monolithic = check_component(
        whole, frozenset(inputs), frozenset(outputs), limits=NO_OBLIGATIONS
    )
    assert monolithic.verdict is Verdict.UNKNOWN  # too many variables

    with capsys.disabled():
        print("\nAblation — modular decomposition")
        print(f"  modular   : realizable in {modular_seconds:.3f}s (10 components)")
        print("  monolithic: unknown (20 variables exceed the explicit engines)")


def test_game_engine_benchmark(benchmark):
    formulas = [parse("G (r -> F g)"), parse("G (g -> X !g)")]
    result = benchmark(
        check_realizability,
        formulas,
        ["r"],
        ["g"],
        limits=NO_OBLIGATIONS,
    )
    assert result.verdict is Verdict.REALIZABLE
