"""Ablation: time abstraction (Section IV-E) — none vs GCD vs optimal.

Reproduces the worked example: Theta = {3, 180, 60} (Req-08, Req-28,
Req-42), where the GCD reduction still leaves 81 Next operators while the
arrival-error optimisation with B=5 leaves 4 (d=60, theta'=(0,3,1),
Delta=(3,0,0)).
"""

from __future__ import annotations

from repro.casestudies import mode_switching_requirements
from repro.translate import AbstractionMethod, TranslationOptions, Translator
from repro.translate.timeabs import solve_abstraction


def spec_with(method: AbstractionMethod):
    translator = Translator(
        options=TranslationOptions(next_as_x=False),
        abstraction=method,
        error_bound=5,
    )
    return translator.translate(mode_switching_requirements())


def total_next(spec) -> int:
    from repro.logic import Next, walk

    return sum(
        1
        for requirement in spec.requirements
        for node in walk(requirement.formula)
        if isinstance(node, Next)
    )


def test_abstraction_ablation(capsys):
    none = spec_with(AbstractionMethod.NONE)
    gcd = spec_with(AbstractionMethod.GCD)
    optimal = spec_with(AbstractionMethod.OPTIMAL)

    counts = {
        "none": total_next(none),
        "gcd": total_next(gcd),
        "optimal": total_next(optimal),
    }
    # Paper: 3+180+60 = 243 raw; GCD(=3) leaves 1+60+20 = 81; the optimal
    # abstraction at B=5 leaves 0+3+1 = 4.
    assert counts["none"] == 243
    assert counts["gcd"] == 81
    assert counts["optimal"] == 4
    assert optimal.abstraction.solution.divisor == 60

    with capsys.disabled():
        print("\nAblation — time abstraction (Next operators left)")
        for method, count in counts.items():
            print(f"  {method:<8}: {count}")


def test_paper_running_example(capsys):
    thetas = (3, 180, 60)
    optimal = solve_abstraction(thetas, AbstractionMethod.OPTIMAL, 5)
    baseline = solve_abstraction(thetas, AbstractionMethod.GCD)
    assert optimal.divisor == 60
    assert (optimal.cost_next, optimal.cost_error) == (4, 3)
    assert (baseline.divisor, baseline.cost_next) == (3, 81)
    with capsys.disabled():
        print("\nSection IV-E running example (Theta={3,180,60}, B=5)")
        print(f"  GCD    : d={baseline.divisor}, sum theta'={baseline.cost_next}")
        print(f"  optimal: d={optimal.divisor}, theta'={optimal.scaled}, Delta={optimal.errors}")
