"""The component decision ladder (``realizability.RUNGS``).

The obligation certificate runs first, and the GPVW satisfiability rung
only on components the certificate cannot settle.  The certificate
answers REALIZABLE, which implies a satisfiable conjunction, or
UNREALIZABLE on a conjunction it has shown satisfiable by a constant
word, so the order changes no verdict, ``method`` or report byte; these
tests hold the order to that and pin that Table I never reaches the
tableau.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SpecCC, SpecCCConfig, TranslationOptions
from repro.__main__ import main as cli_main
from repro.logic import parse
from repro.logic.ast import next_depth
from repro.casestudies import (
    TABLE_INSTANCES,
    application_requirements,
    component_requirements,
    mode_switching_requirements,
    robot_requirements,
)
from repro.obs import Tracer, registry, set_process_tracer
from repro.sat.cdcl import CDCLSolver
from repro.service.reportjson import report_to_dict
from repro.service.server import serve
from repro.synthesis import invariants, realizability
from repro.synthesis.realizability import Verdict

from oracles.bounded import with_bounded_engines
from oracles.ladder import without_obligations
from oracles.obligations import single_solve

#: The ladder before the certificate moved to the front.
PRECHECK_FIRST = (
    realizability._satisfiability,
    realizability._validity,
    realizability._obligations,
    realizability._engines,
)


def paper_tool() -> SpecCC:
    return SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))


def table1_documents():
    """``(label, requirements)`` for the 22 Table I documents."""
    documents = [("cara-0", mode_switching_requirements())]
    documents += [
        (f"cara-{row}", requirements)
        for row, requirements in sorted(component_requirements().items())
    ]
    documents += [
        (f"tele-{row}", requirements)
        for row, requirements in sorted(application_requirements().items())
    ]
    documents += [
        (f"robot-{row}", robot_requirements(*TABLE_INSTANCES[row]))
        for row in sorted(TABLE_INSTANCES)
    ]
    assert len(documents) == 22
    return documents


def _numbered(*sentences):
    return [(f"R{index}", text) for index, text in enumerate(sentences, 1)]


#: One small document per verdict regime, each reaching a different rung.
REGIME_DOCUMENTS = [
    # The precedence sentence is outside the certificate's fragment: the
    # safety game decides, and its controller is verified.
    ("realizable", _numbered(
        "If the alpha sensor is valid, the gamma report is triggered.",
        "If the beta sensor is ready, eventually the gamma report is triggered.",
        "If the alpha sensor is valid, the omega lamp is started in 4 seconds.",
        "The omega lamp is started before the delta gate is ready.",
    )),
    # Two conditions demand the pump on and off: one partition repair.
    ("repairable", _numbered(
        "If the kappa switch is active, the sigma pump is started.",
        "If the lambda switch is valid, the sigma pump is not started.",
        "If the alpha sensor is valid, the gamma report is triggered.",
    )),
    # Four gates clash; three repairs leave one, which localization names.
    ("unrealizable", _numbered(*[
        f"If the a{gate} gate is active, the theta valve is {polarity}opened."
        for gate in range(1, 5)
        for polarity in ("", "not ")
    ], "If the alpha sensor is valid, the gamma report is triggered.")),
    ("unsatisfiable", _numbered(
        "Always the zeta lamp is on.",
        "Always the zeta lamp is not on.",
        "If the alpha sensor is valid, the gamma report is triggered.",
    )),
    # No condition-only variable: the promoted input's component has no
    # outputs and goes to the validity rung.
    ("outputless", _numbered(
        "If the mu switch is active, eventually the mu switch is active.",
        "Eventually the nu report is issued.",
        "If the nu report is issued, the xi report is stored.",
        "Always the rho report is displayed.",
    )),
]


def _cold_reports(tool: SpecCC, documents):
    """Canonical report bytes and per-component rung provenance."""
    reports, provenance = [], []
    for _, requirements in documents:
        realizability.clear_caches()
        report = tool.check(requirements)
        reports.append(
            json.dumps(report_to_dict(report, timings=False), sort_keys=True)
        )
        provenance.append([
            (part.verdict, part.method)
            for part in report.realizability.components
        ])
    realizability.clear_caches()
    return reports, provenance


class TestLadderOrder:
    def test_table1_reaches_the_tableau_only_before_repair(self, monkeypatch):
        reached = []
        original = realizability.satisfiable
        label = None

        def counting(formula):
            reached.append(label)
            return original(formula)

        monkeypatch.setattr(realizability, "satisfiable", counting)
        tool = paper_tool()
        methods = []
        for label, requirements in table1_documents():
            tool.clear_caches()
            tool.clear_translation_cache()
            report = tool.check(requirements)
            assert report.consistent, label
            methods += [part.method for part in report.realizability.components]
        realizability.clear_caches()
        # TELEPROMISE rows 4 and 5 each have one unrealizable component
        # under the initial partition; the certificate settles it from
        # its conflict core, and the repair fixes it.
        assert reached == []
        assert methods == ["obligations"] * 114

    @pytest.mark.parametrize("row", ["4", "5"])
    def test_table1_repairs_drive_the_exact_engines(self, row):
        """The certificate settles the component the repair fixes; with
        the certificate off, the exact engines reach the same verdict
        (a game solve and a bounded SAT solve), so Table I keeps the
        engines exercised and cross-checks the certificate with them."""
        SpecCC.clear_caches()
        report = paper_tool().check(application_requirements()[row])
        assert report.consistent and report.repair_attempts == 1
        initial = report.translation.partition
        inputs, outputs = frozenset(initial.inputs), frozenset(initial.outputs)
        result = realizability.check_realizability(
            report.translation.formulas, sorted(inputs), sorted(outputs)
        )
        (failing,) = [
            part for part in result.components
            if part.verdict is not Verdict.REALIZABLE
        ]
        assert (failing.verdict, failing.method) == (
            Verdict.UNREALIZABLE, "obligations"
        )
        with without_obligations():
            exact = realizability.check_component(failing.component, inputs, outputs)
            stats = realizability.synthesis_stats()
        assert (exact.verdict, exact.method) == (Verdict.UNREALIZABLE, "game")
        assert stats["game_solves"] >= 1, stats
        assert stats["sat_solves"] >= 1, stats

    def test_order_changes_no_report_byte(self, monkeypatch):
        documents = table1_documents() + REGIME_DOCUMENTS
        tool = paper_tool()
        cost_ordered = _cold_reports(tool, documents)
        monkeypatch.setattr(realizability, "RUNGS", PRECHECK_FIRST)
        assert _cold_reports(tool, documents) == cost_ordered
        methods = {method for doc in cost_ordered[1] for _, method in doc}
        assert {"obligations", "satisfiability", "validity", "game"} <= methods

    def test_bounded_engine_order_changes_no_verdict(self, monkeypatch):
        tool = paper_tool()
        monkeypatch.setattr(
            realizability, "RUNGS", with_bounded_engines(realizability.RUNGS)
        )
        cost_ordered = _cold_reports(tool, REGIME_DOCUMENTS)
        monkeypatch.setattr(
            realizability, "RUNGS", with_bounded_engines(PRECHECK_FIRST)
        )
        assert _cold_reports(tool, REGIME_DOCUMENTS) == cost_ordered
        methods = {method for doc in cost_ordered[1] for _, method in doc}
        assert "bounded" in methods


class TestCertificateWithoutSolver:
    """The certificate decides Table I by propagation, with the cores the
    single-solve reference (``oracles.obligations.single_solve``) finds."""

    def test_matches_the_single_solve_on_every_call(self, monkeypatch):
        calls = []
        check = invariants.check_obligations

        def recording(formulas, inputs, outputs):
            calls.append((formulas, inputs, outputs))
            return check(formulas, inputs, outputs)

        monkeypatch.setattr(invariants, "check_obligations", recording)
        tool = paper_tool()
        for _, requirements in table1_documents() + REGIME_DOCUMENTS:
            tool.clear_caches()
            tool.clear_translation_cache()
            tool.check(requirements)
        realizability.clear_caches()
        outcomes = set()
        for formulas, inputs, outputs in calls:
            result = check(formulas, inputs, outputs)
            reference = single_solve(formulas, inputs, outputs)
            assert (result.outcome, result.obligations, result.conflict) == (
                reference.outcome, reference.obligations, reference.conflict
            ), formulas
            outcomes.add(result.outcome.value)
        assert outcomes == {
            "realizable", "unrealizable", "inconclusive", "not-applicable"
        }

    def test_table1_makes_two_solver_calls(self, monkeypatch):
        """The single-solve certificate made 177 solves per cold Table I
        pass.  Propagation makes none; the only two left are the
        constant-word solves for the clashing component of TELEPROMISE
        rows 4 and 5, whose cores have single-atom conditions."""
        assumptions = []
        solve = CDCLSolver.solve

        def counting(solver, assumed=()):
            assumptions.append(len(assumed))
            return solve(solver, assumed)

        monkeypatch.setattr(CDCLSolver, "solve", counting)
        tool = paper_tool()
        for label, requirements in table1_documents():
            tool.clear_caches()
            tool.clear_translation_cache()
            assert tool.check(requirements).consistent, label
        realizability.clear_caches()
        assert assumptions == [0, 0]


#: ``(formulas, inputs, outputs)`` reaching every rung, including an
#: outputless component inside the certificate's fragment (the validity
#: rung keeps it), one past the explicit engines' alphabet limit, and the
#: clashing cores the certificate claims and those it must leave alone
#: (``tests/test_synthesis.py`` pins which is which).
FORMULA_SPECS = [
    (["G (a -> true)"], ["a"], []),
    (["G (a -> F a)"], ["a"], []),
    (["G a", "G !a"], ["a"], []),
    (["G (a -> o)", "G (b -> o2)"], ["a", "b"], ["o", "o2"]),
    (["G (a -> o)", "G (b -> !o)"], ["a", "b"], ["o"]),
    (["G (a -> X o)", "G (b -> !o)"], ["a", "b"], ["o"]),
    (["G (X X a -> o)", "G (b -> !o)"], ["a", "b"], ["o"]),
    (["G (a -> o)", "G (X a -> !o)"], ["a"], ["o"]),
    (["G (a -> o)", "G (!a -> !o)"], ["a"], ["o"]),
    (["o", "G (a -> X !o)"], ["a"], ["o"]),
    (["G (a -> (!b -> (o W b)))", "G (b -> !o)"], ["a", "b"], ["o"]),
    (["G (a -> o)", "G (b -> !o)"], ["a"], ["o"]),
    (["F o", "G (a -> !o)"], ["a"], ["o"]),
    (["F o", "G (a -> X !o)"], ["a"], ["o"]),
    (["G o", "G !o"], [], ["o"]),
    (["G (r -> X g)", "G (r -> F h)"], ["r"], ["g", "h"]),
    (["G (r -> (g U h))"], ["r"], ["g", "h"]),
    ([f"G (i{k} -> (o0 U o{k}))" for k in range(1, 8)],
     [f"i{k}" for k in range(1, 8)], [f"o{k}" for k in range(8)]),
]


def _outcomes():
    outcomes = []
    for texts, inputs, outputs in FORMULA_SPECS:
        realizability.clear_caches()
        result = realizability.check_realizability(
            [parse(text) for text in texts], inputs, outputs
        )
        outcomes.append([
            (
                part.verdict,
                part.method,
                part.controller is not None,
                part.counterstrategy is not None,
            )
            for part in result.components
        ])
    realizability.clear_caches()
    return outcomes


@pytest.mark.parametrize("engine", ["game", "bounded"])
def test_order_changes_no_component_outcome(monkeypatch, engine):
    # The last rung: the game with its bounded dual, or the reference rung
    # deciding with bounded synthesis in both directions.
    swap = with_bounded_engines if engine == "bounded" else tuple
    monkeypatch.setattr(realizability, "RUNGS", swap(realizability.RUNGS))
    cost_ordered = _outcomes()
    monkeypatch.setattr(realizability, "RUNGS", swap(PRECHECK_FIRST))
    assert _outcomes() == cost_ordered
    methods = {method for spec in cost_ordered for _, method, *_ in spec}
    assert {"obligations", "satisfiability", "validity", engine, "too-large"} <= methods


def _span_names(tracer: Tracer):
    by_id = {record["id"]: record for record in tracer.records()}
    return [
        (record["name"], by_id[record["parent"]]["name"], record["args"])
        for record in tracer.records()
        if record["name"].startswith("solve.") and record["parent"] in by_id
    ]


class TestRungObservability:
    @pytest.mark.parametrize(
        "regime,spans",
        [
            ("realizable", {"solve.obligations", "solve.satisfiability", "solve.game"}),
            ("unrealizable", {"solve.obligations"}),
            ("unsatisfiable", {"solve.obligations", "solve.satisfiability"}),
            ("outputless", {"solve.obligations", "solve.satisfiability", "solve.validity"}),
        ],
    )
    def test_each_rung_is_a_span_under_its_component(self, regime, spans):
        requirements = dict(REGIME_DOCUMENTS)[regime]
        realizability.clear_caches()
        tracer = Tracer(name="rungs")
        set_process_tracer(tracer)
        try:
            paper_tool().check(requirements)
        finally:
            set_process_tracer(None)
            realizability.clear_caches()
        rungs = _span_names(tracer)
        assert {name for name, _, _ in rungs} >= spans
        for name, parent, args in rungs:
            if name in ("solve.obligations", "solve.satisfiability", "solve.validity"):
                assert parent == "solve.component", name
            if name == "solve.obligations":
                # Outside the fragment the certificate never reaches SAT.
                assert args["outcome"] in (
                    "realizable", "unrealizable", "inconclusive", "not-applicable"
                )
                if args["outcome"] == "not-applicable":
                    assert args["solves"] == 0

    def test_table1_cara_never_opens_the_tableau(self):
        realizability.clear_caches()
        tracer = Tracer(name="cara")
        set_process_tracer(tracer)
        try:
            report = paper_tool().check(mode_switching_requirements())
        finally:
            set_process_tracer(None)
            realizability.clear_caches()
        names = [name for name, _, _ in _span_names(tracer)]
        assert report.consistent
        assert names.count("solve.obligations") == len(report.realizability.components)
        assert "solve.satisfiability" not in names

    def test_unrealizable_regime_never_reaches_the_engines(self):
        """Repairs and localization on an in-fragment clash are settled by
        the certificate's conflict core: no tableau, no game, no dual."""
        realizability.clear_caches()
        tracer = Tracer(name="unrealizable")
        set_process_tracer(tracer)
        try:
            report = paper_tool().check(dict(REGIME_DOCUMENTS)["unrealizable"])
        finally:
            set_process_tracer(None)
            realizability.clear_caches()
        names = {name for name, _, _ in _span_names(tracer)}
        assert report.verdict is Verdict.UNREALIZABLE
        assert report.repair_attempts == 3
        assert report.inconsistent_requirements() == ["R7", "R8"]
        assert "solve.obligations" in names
        assert not names & {"solve.satisfiability", "solve.game", "solve.bounded"}

    def test_decided_by_counts_analysed_components_once(self):
        realizability.clear_caches()
        tool = paper_tool()
        requirements = dict(REGIME_DOCUMENTS)["outputless"]
        report = tool.check(requirements)
        tool.check(requirements)  # served from the component cache
        counters = registry().counters()
        realizability.clear_caches()
        decided = {
            name[len("decided_by."):]: count
            for name, count in counters.items()
            if name.startswith("decided_by.")
        }
        expected = {}
        for part in report.realizability.components:
            expected[part.method] = expected.get(part.method, 0) + 1
        assert decided == expected

    def test_check_stats_reports_the_deciding_rung(self, tmp_path, capsys):
        document = tmp_path / "spec.txt"
        document.write_text("If the feed is valid, the lamp is activated.\n")
        realizability.clear_caches()
        assert cli_main(["check", str(document), "--json", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["decided_by"] == {"obligations": 1}

    def test_metrics_op_reports_the_deciding_rung(self):
        realizability.clear_caches()
        requests = [
            {"op": "add", "id": "R1", "text": "Always the zeta lamp is on."},
            {"op": "add", "id": "R2", "text": "Always the zeta lamp is not on."},
            {"op": "check", "timings": False},
            {"op": "metrics", "full": False},
            {"op": "shutdown"},
        ]
        stdout = io.StringIO()
        serve(io.StringIO("".join(json.dumps(r) + "\n" for r in requests)), stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        counters = responses[3]["metrics"]["counters"]
        assert counters.get("decided_by.satisfiability", 0) >= 1


class TestTableauBudget:
    #: A 4-formula component whose last requirement maps 60 seconds to a
    #: 20-step ``X`` chain (the other chains set the abstraction); the
    #: certificate leaves it undecided under the initial partition.
    PULSE_DOCUMENT = (
        "If the pulse wave is available, the alarm is sounded.",
        "If the pulse wave is unavailable, the alarm is not sounded.",
        "If the pulse wave is lost, the pump is stopped in 3 seconds.",
        "If the alarm is sounded, the pump is stopped in 60 seconds.",
        "If the door is open, the lamp is on in 4 seconds.",
        "If the button is pressed, the fan is started in 6 seconds.",
        "If the valve is closed, the heater is stopped in 7 seconds.",
    )

    #: Components the certificate leaves undecided, at each cap on their
    #: summed ``X`` depth and past it: ``(formulas, inputs, outputs, (cap,
    #: steps past it), verdict, method)``.  Past a cap the rungs it caps are
    #: skipped and their verdict is lost; at the cap it is exact.  Between
    #: the caps the satisfiability rung still decides.
    AT_AND_PAST_CAPS = [
        (("G (p -> X X X s)", "G (!p -> X X X !s)", "G (p -> a)", "G (!p -> !a)"),
         ("p",), ("a", "s"), ("MAX_GAME_NEXT_DEPTH", 0), "realizable", "game"),
        (("G (p -> X X X s)", "G (!p -> X X X !s)", "G (p -> X a)", "G (!p -> !a)"),
         ("p",), ("a", "s"), ("MAX_GAME_NEXT_DEPTH", 1), "unknown", "too-large"),
        (("G (p -> a)", "G (a -> X X X X s)", "G (X X X X !s)", "F p"),
         ("p",), ("a", "s"), ("MAX_GAME_NEXT_DEPTH", 2), "unrealizable", "satisfiability"),
        (("G (p -> X X X X X s)", "G (!p -> X X X X X !s)"),
         ("p", "s"), (), ("MAX_TABLEAU_NEXT_DEPTH", 0), "unrealizable", "validity"),
        (("G (p -> X X X X X s)", "G (!p -> X X X X X X !s)"),
         ("p", "s"), (), ("MAX_TABLEAU_NEXT_DEPTH", 1), "unknown", "too-large"),
    ]

    @pytest.mark.parametrize(
        "texts, inputs, outputs, cap, verdict, method", AT_AND_PAST_CAPS
    )
    def test_exact_at_each_cap_too_large_past_it(
        self, texts, inputs, outputs, cap, verdict, method
    ):
        formulas = [parse(text) for text in texts]
        name, past = cap
        assert sum(map(next_depth, formulas)) == getattr(realizability, name) + past
        realizability.clear_caches()
        result = realizability.check_realizability(formulas, inputs, outputs)
        realizability.clear_caches()
        assert result.verdict.value == verdict
        assert [component.method for component in result.components] == [method]

    def test_long_x_chain_answers_too_large_at_once(self, tmp_path):
        """Past both caps the component skips the tableau rungs and the
        game, whose GPVW tableau of the conjunction doubles with each
        further ``X``, and answers ``too-large`` at once; the repair then
        lets the certificate decide it.  In a subprocess, so a regression
        fails on the timeout instead of hanging the suite."""
        document = tmp_path / "pulse.txt"
        document.write_text("\n".join(self.PULSE_DOCUMENT) + "\n")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(document), "--json", "--stats"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).parent.parent,
        )
        report = json.loads(completed.stdout)
        assert report["verdict"] == "realizable"
        assert report["repair_attempts"] == 1
        assert report["stats"]["decided_by"] == {"obligations": 4, "too-large": 1}
