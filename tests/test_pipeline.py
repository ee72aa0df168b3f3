"""End-to-end tests of the SpecCC pipeline (Figure 1) and its refinement
loop, plus the case-study integration checks behind Table I."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro import (
    SpecCC,
    SpecCCConfig,
    TranslationOptions,
    Verdict,
)
from repro.casestudies import (
    GOLD_FORMULAS,
    INITIALLY_FAILING_ROWS,
    MODE_SWITCHING_REQUIREMENTS,
    application_requirements,
    component_requirements,
    robot_requirements,
)
from repro.__main__ import main as cli_main
from repro.core import pipeline
from repro.logic import parse
from repro.service.reportjson import report_to_dict
from repro.service.server import serve
from repro.service.session import SpecSession
from repro.synthesis import check_realizability, decompose, localize, realizability
from repro.translate import TranslationOptions as TOpts
from repro.translate import Translator

from oracles import localization as oracle_localization
from oracles.automata import equivalent
from oracles.ladder import without_obligations

PAPER_CONFIG = SpecCCConfig(translation=TranslationOptions(next_as_x=False))


class TestPipelineBasics:
    def test_consistent_toy_specification(self):
        tool = SpecCC()
        report = tool.check_document(
            "If the button is pressed, the door is opened.\n"
            "If the alarm is issued, the door is not opened.\n"
        )
        # "alarm is issued" is input-like; the pair conflicts, so the
        # repair loop must move a variable before the spec checks out.
        assert report.consistent
        assert "verdict: realizable" in report.summary()

    def test_inconsistent_specification_is_localized(self, monkeypatch):
        # Repairs disabled: the heuristic could otherwise "fix" the clash
        # by declaring the sensor an output.
        monkeypatch.setattr(pipeline, "MAX_PARTITION_REPAIRS", 0)
        report = SpecCC().check(
            [
                ("R1", "If the sensor is active, the valve is opened."),
                ("R2", "If the sensor is active, the valve is not opened."),
            ]
        )
        assert not report.consistent
        assert set(report.inconsistent_requirements()) == {"R1", "R2"}

    def test_unsatisfiable_pair_detected(self):
        tool = SpecCC()
        report = tool.check(
            [
                ("R1", "The valve is opened."),
                ("R2", "The valve is not opened."),
            ]
        )
        assert not report.consistent

    def test_controllers_for_exact_engine(self):
        with without_obligations():
            report = SpecCC().check(
                [("R1", "If the button is pressed, the lamp is activated.")]
            )
        assert report.consistent
        assert len(report.controllers) == 1

    def test_repair_is_reported(self):
        tool = SpecCC()
        report = tool.check(
            [
                ("R1", "If the session is active, the page is displayed."),
                ("R2", "If the notice is posted, the page is not displayed."),
            ]
        )
        assert report.consistent
        assert report.repair_attempts >= 1
        assert report.repaired_partition is not None

    def test_repair_can_be_disabled(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PARTITION_REPAIRS", 0)
        report = SpecCC().check(
            [
                ("R1", "If the session is active, the page is displayed."),
                ("R2", "If the notice is posted, the page is not displayed."),
            ]
        )
        assert not report.consistent
        assert report.repair_attempts == 0
        assert report.inconsistent_requirements() == ["R1", "R2"]

    def test_check_translated_stamps_seconds(self):
        translator = Translator()
        translation = translator.translate(
            [("R1", "If the sensor is active, the valve is opened.")]
        )
        report = SpecCC().check_translated(translation)
        assert report.seconds > 0.0

    def test_check_formulas_is_stage_two_only(self):
        # The same clash the repair loop fixes end-to-end: stage 2 alone
        # must report it unrealizable under the unrepaired partition.
        translation = Translator().translate(
            [
                ("R1", "If the session is active, the page is displayed."),
                ("R2", "If the notice is posted, the page is not displayed."),
            ]
        )

        def stage_two(partition):
            return check_realizability(
                translation.formulas,
                sorted(partition.inputs),
                sorted(partition.outputs),
            )

        assert stage_two(translation.partition).verdict is Verdict.UNREALIZABLE
        repaired = SpecCC().check_translated(translation)
        assert repaired.consistent
        assert stage_two(repaired.partition).verdict is Verdict.REALIZABLE


#: Thirteen conditions on one lamp plus a precedence sentence: a single
#: 15-proposition component outside the certificate's fragment and past
#: the explicit engines' alphabet, so its verdict is UNKNOWN
#: (``too-large``) and localization finds no unrealizable prefix.
UNKNOWN_SENTENCES = [
    f"If the {word} sensor is valid, the hub lamp is started."
    for word in (
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
        "theta", "iota", "kappa", "lambda", "mu", "nu",
    )
] + ["The hub lamp is started before the exit gate is ready."]


class TestUnknownVerdict:
    """An UNKNOWN verdict is a report like any other, with no culprits."""

    def test_report_has_no_culprits(self):
        report = SpecCC().check_document("\n".join(UNKNOWN_SENTENCES))
        data = report_to_dict(report, timings=False)
        assert data["verdict"] == "unknown"
        assert data["culprits"] == []
        assert [part["method"] for part in data["components"]] == ["too-large"]

    def test_check_json_prints_the_report(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("\n".join(UNKNOWN_SENTENCES) + "\n")
        assert cli_main(["check", str(document), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "unknown"
        assert data["culprits"] == []

    def test_serve_answers_ok(self):
        requests = [
            {"op": "add", "id": f"R{index}", "text": text}
            for index, text in enumerate(UNKNOWN_SENTENCES, 1)
        ] + [{"op": "check", "timings": False}, {"op": "shutdown"}]
        stdout = io.StringIO()
        serve(io.StringIO("".join(json.dumps(r) + "\n" for r in requests)), stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        check = responses[len(UNKNOWN_SENTENCES)]
        assert check["ok"] is True, check
        assert check["report"]["verdict"] == "unknown"
        assert check["report"]["culprits"] == []


class TestOnePath:
    """Each stage has one production path: no engine or decomposition
    knob, no process-wide Algorithm 1 memo, no reference in ``src``, and
    no setting beyond the paper's."""

    @pytest.mark.parametrize("module", ["repro", "repro.synthesis"])
    def test_engine_is_not_exported(self, module):
        assert not hasattr(importlib.import_module(module), "Engine")

    @pytest.mark.parametrize("knob", ["engine", "modular"])
    def test_config_has_no_engine_or_modular_knob(self, knob):
        with pytest.raises(TypeError):
            SpecCCConfig(**{knob: None})

    def test_process_wide_cache_holds_only_component_outcomes(self):
        assert set(SpecCC.cache_stats()) == {
            "component_cache", "automaton_cache", "interned_nodes", "synthesis"
        }

    def test_core_exports_only_the_pipeline(self):
        import repro.core

        assert repro.core.__all__ == ["ConsistencyReport", "SpecCC", "SpecCCConfig"]
        assert not hasattr(importlib.import_module("repro"), "shared_graph")

    def test_brute_force_sat_lives_with_the_tests(self):
        import repro.sat

        assert "solve_brute" not in repro.sat.__all__
        assert not hasattr(repro.sat, "solve_brute")

    def test_config_holds_only_the_papers_settings(self):
        # How to read "next", Algorithm 1 on or off, and the time
        # abstraction method with its budget B (Sections IV-D and IV-E).
        assert [field.name for field in dataclasses.fields(SpecCCConfig)] == [
            "translation", "abstraction", "error_bound"
        ]
        assert [field.name for field in dataclasses.fields(TranslationOptions)] == [
            "next_as_x", "semantic_reasoning"
        ]

    @pytest.mark.parametrize("knob", ["signs", "dictionary"])
    def test_tools_take_no_signs_or_dictionary(self, knob):
        with pytest.raises(TypeError):
            SpecCC(**{knob: None})
        with pytest.raises(TypeError):
            Translator(**{knob: None})

    def test_limits_and_dictionary_signature_are_gone(self):
        from repro.nlp.antonyms import AntonymDictionary

        for module in ("repro", "repro.synthesis", "repro.synthesis.realizability"):
            assert not hasattr(importlib.import_module(module), "SynthesisLimits")
        assert not hasattr(AntonymDictionary, "signature")
        assert not hasattr(AntonymDictionary, "add_pair")

    def test_localization_returns_only_culprit_and_core(self):
        import repro.synthesis
        from repro.synthesis import LocalizationResult, localization

        assert [field.name for field in dataclasses.fields(LocalizationResult)] == [
            "culprit", "core"
        ]
        for name in ("Checker", "default_checker", "_proposition_closure"):
            assert not hasattr(localization, name)
        assert "default_checker" not in repro.synthesis.__all__

    def test_lasso_membership_and_equivalence_live_with_the_tests(self):
        import repro.automata

        for name in ("accepts", "equivalent", "is_satisfiable"):
            assert name not in repro.automata.__all__
            assert not hasattr(repro.automata, name)


class TestPartitionRepair:
    """The Section V-B repair heuristic, including the fallback branch."""

    def _failing_result(self, formulas, variables):
        from repro.synthesis.modular import Component
        from repro.synthesis.realizability import (
            ComponentResult,
            RealizabilityResult,
        )

        component = Component(
            tuple(range(len(formulas))), tuple(formulas), frozenset(variables)
        )
        part = ComponentResult(component, Verdict.UNREALIZABLE)
        return RealizabilityResult(Verdict.UNREALIZABLE, [part])

    def _io_classes(self, formulas):
        """What the translator stores per requirement for the repair."""
        from repro.translate.partition import classify_requirement

        return [classify_requirement(formula) for formula in formulas]

    def test_fallback_moves_an_input_of_the_failing_component(self):
        """No response-side candidate: both formulas put only `b` on the
        response side and `b` is already an output — the fallback must
        reach for *any* input of the failing component instead."""
        from repro.translate.partition import Partition

        formulas = [parse("G (a -> b)"), parse("G (a -> !b)")]
        partition = Partition(frozenset({"a"}), frozenset({"b"}))
        result = self._failing_result(formulas, {"a", "b"})
        repaired = SpecCC()._repair_partition(
            self._io_classes(formulas), partition, result
        )
        assert repaired is not None
        assert "a" in repaired.outputs
        assert repaired.inputs == frozenset()

    def test_no_candidate_returns_none(self):
        from repro.translate.partition import Partition

        formulas = [parse("G b"), parse("G !b")]
        partition = Partition(frozenset(), frozenset({"b"}))
        result = self._failing_result(formulas, {"b"})
        classes = self._io_classes(formulas)
        assert SpecCC()._repair_partition(classes, partition, result) is None

    def test_response_side_candidate_preferred_over_fallback(self):
        from repro.translate.partition import Partition

        # `b` sits on the response side but is (wrongly) an input: the
        # first loop must pick it, never falling through to `a`.
        formulas = [parse("G (a -> b)")]
        partition = Partition(frozenset({"a", "b"}), frozenset())
        result = self._failing_result(formulas, {"a", "b"})
        repaired = SpecCC()._repair_partition(
            self._io_classes(formulas), partition, result
        )
        assert repaired is not None
        assert repaired.outputs == frozenset({"b"})
        assert "a" in repaired.inputs

    def test_failed_repairs_keep_bookkeeping_honest(self):
        """Attempts are counted even when no repair succeeds, and
        ``repaired_partition`` stays None unless a repair *fixed* it."""
        report = SpecCC().check(
            [
                ("R1", "The valve is opened."),
                ("R2", "The valve is not opened."),
            ]
        )
        assert not report.consistent
        # The promoted input (open_valve) is moved back to the outputs by
        # the repair loop, which cannot help an unsatisfiable pair.
        assert report.repair_attempts == 1
        assert report.repaired_partition is None

    def test_attempts_never_exceed_the_configured_cap(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PARTITION_REPAIRS", 2)
        report = SpecCC().check(
            [
                ("R1", "The valve is opened."),
                ("R2", "The valve is not opened."),
            ]
        )
        assert report.repair_attempts <= 2
        assert report.repaired_partition is None

    def test_successful_repair_records_the_partition(self):
        report = SpecCC().check(
            [
                ("R1", "If the session is active, the page is displayed."),
                ("R2", "If the notice is posted, the page is not displayed."),
            ]
        )
        assert report.consistent
        assert report.repair_attempts >= 1
        assert report.repaired_partition is not None
        assert report.partition == report.repaired_partition


class TestCaraGold:
    """Translation fidelity against the appendix's hand-listed LTL."""

    @pytest.fixture(scope="class")
    def translated(self):
        translator = Translator(options=TOpts(next_as_x=False))
        return translator.translate(list(MODE_SWITCHING_REQUIREMENTS))

    def test_every_requirement_matches_gold(self, translated):
        for requirement in translated.requirements:
            gold = parse(GOLD_FORMULAS[requirement.identifier])
            assert requirement.formula == gold or equivalent(
                requirement.formula, gold
            ), requirement.identifier

    def test_time_abstraction_matches_paper(self, translated):
        # Section IV-E running example: Theta={3,60,180}, B=5 -> d=60.
        solution = translated.abstraction.solution
        assert solution.divisor == 60
        assert translated.abstraction.thetas == (3, 60, 180)
        assert solution.scaled == (0, 1, 3)

    def test_antonym_pairs_include_paper_example(self, translated):
        pairs = translated.analysis.antonym_pairs()
        assert ("pulse_wave", "available", "unavailable") in pairs

    def test_specification_is_consistent(self, translated):
        report = SpecCC(PAPER_CONFIG).check_translated(translated)
        assert report.verdict is Verdict.REALIZABLE

    def test_formula_count_matches_table(self, translated):
        assert len(translated.requirements) == 30


class TestTableIScales:
    EXPECTED = {
        "1": (20, 9, 14),
        "2.1.1": (14, 13, 12),
        "2.1.2": (15, 11, 14),
        "2.1.3": (14, 9, 12),
        "2.2.1": (16, 14, 15),
        "2.2.2": (19, 11, 16),
        "2.2.3": (13, 11, 10),
        "2.2.4": (11, 9, 10),
        "2.2.5": (16, 9, 13),
        "2.2.6": (12, 8, 13),
        "2.2.7": (20, 10, 21),
        "3.1": (9, 15, 11),
        "3.2": (56, 12, 20),
    }

    @pytest.fixture(scope="class")
    def translator(self):
        return Translator(options=TOpts(next_as_x=False))

    def test_cara_component_scales(self, translator):
        for row, requirements in component_requirements().items():
            spec = translator.translate(requirements)
            got = (len(spec.requirements), spec.num_inputs, spec.num_outputs)
            assert got == self.EXPECTED[row], row

    def test_telepromise_scales(self, translator):
        expected = {
            "1": (29, 11, 24),
            "2": (17, 3, 13),
            "3": (6, 3, 4),
            "4": (15, 8, 14),
            "5": (17, 7, 16),
        }
        for row, requirements in application_requirements().items():
            spec = translator.translate(requirements)
            got = (len(spec.requirements), spec.num_inputs, spec.num_outputs)
            assert got == expected[row], row

    def test_robot_scales(self, translator):
        expected = {(1, 4): (9, 2, 5), (1, 9): (14, 2, 10), (2, 5): (25, 2, 11)}
        for (robots, rooms), scale in expected.items():
            spec = translator.translate(robot_requirements(robots, rooms))
            got = (len(spec.requirements), spec.num_inputs, spec.num_outputs)
            assert got == scale, (robots, rooms)


class TestTableIVerdicts:
    def test_cara_components_consistent(self):
        tool = SpecCC(PAPER_CONFIG)
        for row, requirements in list(component_requirements().items())[:4]:
            report = tool.check(requirements)
            assert report.verdict is Verdict.REALIZABLE, row

    def test_telepromise_failing_rows_need_repair(self):
        tool = SpecCC(PAPER_CONFIG)
        for row, requirements in application_requirements().items():
            report = tool.check(requirements)
            assert report.verdict is Verdict.REALIZABLE, row
            if row in INITIALLY_FAILING_ROWS:
                assert report.repair_attempts >= 1, row
            else:
                assert report.repair_attempts == 0, row

    def test_single_robot_instances_consistent(self):
        tool = SpecCC(PAPER_CONFIG)
        for robots, rooms in [(1, 4), (1, 9)]:
            report = tool.check(robot_requirements(robots, rooms))
            assert report.verdict is Verdict.REALIZABLE, (robots, rooms)


class TestPrewarm:
    """The worker-pool initializer hook: cheap, transparent, observable."""

    def test_prewarm_populates_caches(self):
        SpecCC.clear_caches()
        stats = SpecCC().prewarm()
        assert stats["component_cache"]["misses"] >= 1
        assert stats["automaton_cache"]["size"] >= 0
        assert stats["interned_nodes"] > 0

    def test_prewarm_does_not_change_later_verdicts(self):
        SpecCC.clear_caches()
        cold = SpecCC().check([("R1", "If the sensor is active, the valve is opened.")])
        SpecCC.clear_caches()
        tool = SpecCC()
        tool.prewarm()
        warm = tool.check([("R1", "If the sensor is active, the valve is opened.")])
        from repro.service.reportjson import report_to_dict

        assert report_to_dict(cold, timings=False) == report_to_dict(
            warm, timings=False
        )

    def test_prewarm_custom_and_empty_workloads(self, monkeypatch):
        tool = SpecCC()
        monkeypatch.setattr(SpecCC, "PREWARM_SENTENCES", ("The valve is opened.",))
        stats = tool.prewarm()
        assert "component_cache" in stats
        monkeypatch.setattr(SpecCC, "PREWARM_SENTENCES", ())
        before = tool.cache_stats()
        assert tool.prewarm() == before  # no-op workload

    def test_cache_stats_snapshot_is_picklable(self):
        import pickle

        snapshot = SpecCC.cache_stats()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


@pytest.fixture(scope="module")
def bench_corpus():
    """perfbench/corpus.py, imported read-only by file path: the generated
    documents and edit blocks of the benchmark of record."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass() looks its module up there
    spec.loader.exec_module(module)
    return module


class TestLocalizationCorpus:
    """Every localizing check of the benchmark's generated corpora against
    prefix growth (``oracles.localization``), with a lookup bound."""

    @pytest.fixture
    def localizations(self, monkeypatch):
        """Record each ``localize`` call the pipeline makes: its arguments,
        its result and the ``check_component`` calls it made."""
        records = []

        def recording(formulas, inputs, outputs):
            original = realizability.check_component
            calls = 0

            def counting(*args):
                nonlocal calls
                calls += 1
                return original(*args)

            with monkeypatch.context() as patch:
                patch.setattr(realizability, "check_component", counting)
                result = localize(formulas, inputs, outputs)
            records.append((list(formulas), inputs, outputs, result, calls))
            return result

        monkeypatch.setattr(pipeline, "localize", recording)
        return records

    def assert_matches_prefix_growth(self, records):
        """Same culprit and core as the reference, and at most n + g²
        component lookups: one per formula while growing, then at most g
        per shrink step, g being the culprit's group (the paper's filter)."""
        for formulas, inputs, outputs, result, calls in records:
            assert result is not None
            reference = oracle_localization.localize(formulas, inputs, outputs)
            assert (result.culprit, result.core) == reference
            (group,) = [
                component
                for component in decompose(formulas[: result.culprit + 1])
                if result.culprit in component.indices
            ]
            bound = len(formulas) + len(group.indices) ** 2
            assert calls <= bound, (calls, len(formulas), len(group.indices))

    @pytest.mark.parametrize("seed", [5, 11])
    def test_regimes_block(self, seed, bench_corpus, localizations):
        tool = SpecCC(PAPER_CONFIG)
        localizing = 0
        for document in next(bench_corpus.regimes_blocks(seed)):
            report = tool.check(list(document.requirements))
            assert tuple(sorted(report.inconsistent_requirements())) == document.expected.culprits
            localizing += document.expected.verdict == "unrealizable"
        assert localizing == len(localizations) == 4
        self.assert_matches_prefix_growth(localizations)

    @pytest.mark.parametrize("seed", [7, 13])
    def test_maintain_block(self, seed, bench_corpus, localizations):
        script = bench_corpus.maintain_script(seed)
        session = SpecSession(SpecCC(PAPER_CONFIG))
        for identifier, text in script.base:
            session.add(identifier, text)
        assert session.check().consistent
        for edit in next(script.blocks):
            if edit.op == "add":
                session.add(edit.identifier, edit.text)
            elif edit.op == "update":
                session.update(edit.identifier, edit.text)
            else:
                session.remove(edit.identifier)
            report = session.check().report
            assert tuple(sorted(report.inconsistent_requirements())) == edit.expected.culprits
        assert len(localizations) == 1
        assert len(localizations[0][0]) == len(script.base) + 2
        self.assert_matches_prefix_growth(localizations)
