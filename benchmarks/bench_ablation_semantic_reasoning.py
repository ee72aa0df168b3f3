"""Ablation: semantic reasoning (Section IV-D) on versus off.

The paper motivates Algorithm 1 with two savings: fewer atomic
propositions ("we can reduce the number of atomic propositions used in
the generated formulas") and no mutual-exclusion assumptions ("avoid
adding the assumptions on the mutual exclusive propositions").  This
benchmark quantifies both on the CARA mode-switching specification and on
the worked Req-32/44 example.
"""

from __future__ import annotations

from repro.casestudies import mode_switching_requirements
from repro.translate import (
    TranslationOptions,
    Translator,
    mutual_exclusion_assumptions,
)


def translate_with(semantic_reasoning: bool):
    translator = Translator(
        options=TranslationOptions(
            next_as_x=False, semantic_reasoning=semantic_reasoning
        )
    )
    return translator.translate(mode_switching_requirements())


def test_semantic_reasoning_reduces_propositions(capsys):
    with_reasoning = translate_with(True)
    without = translate_with(False)
    reduced = len(with_reasoning.variables())
    baseline = len(without.variables())
    assert reduced < baseline

    analysis = with_reasoning.analysis
    assumptions = mutual_exclusion_assumptions(analysis)
    assert assumptions  # the pairs exist, and none had to become formulas

    with capsys.disabled():
        print("\nAblation — semantic reasoning (CARA mode switching)")
        print(f"  propositions with reasoning   : {reduced}")
        print(f"  propositions without          : {baseline}")
        print(f"  antonym pairs found           : {len(analysis.antonym_pairs())}")
        print(f"  mutex assumptions avoided     : {len(assumptions)}")


def test_paper_worked_example_req32_req44():
    # Section IV-D: available/unavailable under subject pulse_wave.
    requirements = [
        (
            "Req-32",
            "If pulse wave or arterial line is available, and cuff is selected,"
            " corroboration is triggered.",
        ),
        (
            "Req-44",
            "If pulse wave and arterial line are unavailable, and cuff is"
            " selected, and blood pressure is not valid, next manual mode is"
            " started.",
        ),
    ]
    translator = Translator(options=TranslationOptions(next_as_x=False))
    pairs = translator.translate(requirements).analysis.antonym_pairs()
    assert ("pulse_wave", "available", "unavailable") in pairs
    assert ("arterial_line", "available", "unavailable") in pairs


def test_reasoning_benchmark(benchmark):
    spec = benchmark(translate_with, True)
    assert spec.analysis.antonym_pairs()
