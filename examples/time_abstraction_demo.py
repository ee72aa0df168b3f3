"""Section IV-E walkthrough: discrete time, GCD reduction, and the
arrival-error optimisation of Eq. (1)/(2).

Run:  python examples/time_abstraction_demo.py
"""

from repro.logic import to_str
from repro.translate import AbstractionMethod, TranslationOptions, Translator
from repro.translate.timeabs import solve_abstraction

REQUIREMENTS = [
    ("Req-08", "If Air Ok signal remains low, auto control mode is terminated in 3 seconds."),
    ("Req-28", "If a valid blood pressure is unavailable in 180 seconds, manual mode should be triggered."),
    ("Req-42", "When auto control mode is running, and the arterial line or pulse wave or cuff is lost, an alarm should sound in 60 seconds."),
]


def show(title: str, method: AbstractionMethod) -> None:
    translator = Translator(
        options=TranslationOptions(next_as_x=False),
        abstraction=method,
        error_bound=5,
    )
    spec = translator.translate(REQUIREMENTS)
    print(f"--- {title} ---")
    for requirement in spec.requirements:
        print(f"  [{requirement.identifier}] {to_str(requirement.formula)}")
    solution = spec.abstraction.solution
    print(f"  divisor={solution.divisor}, sum theta'={solution.cost_next}, "
          f"sum Delta={solution.cost_error}\n")


def main() -> None:
    show("no abstraction (one X per second)", AbstractionMethod.NONE)
    show("GCD reduction (paper: 'quite conservative')", AbstractionMethod.GCD)
    show("optimal abstraction, B=5 (paper's running example)", AbstractionMethod.OPTIMAL)

    print("--- the optimisation problem itself (Eq. 1-2), Theta = {3, 180, 60} ---")
    for bound in (0, 5, 63, 243):
        solution = solve_abstraction((3, 180, 60), AbstractionMethod.OPTIMAL, bound)
        print(f"  B={bound:<3}: {solution}")


if __name__ == "__main__":
    main()
