"""Synthesis-engine benchmark runner — emits ``BENCH_synthesis.json``.

Measures the optimisations of the synthesis-engine overhaul against the
reference implementations in ``tests/oracles/`` and guards them with
correctness cross-checks:

* **propagation**: CDCL clause visits per propagation, two-watched-literal
  lists (``CDCLSolver``, row ``watch``) vs the full-clause re-scan
  reference (``ScanCDCLSolver``, row ``scan``) on random 3-SAT,
  pigeonhole and a real bounded-synthesis encoding.  The watched scheme
  must visit at least 2x fewer clauses per propagation, and both schemes
  must agree on every verdict.
* **safety_game**: partial-letter exploration vs the concrete
  ``2^|I| * 2^|O|`` enumeration (``ConcreteGame``) — a wide-output
  scaling sweep showing the partial engine's work no longer depends on
  the number of don't-care outputs, plus byte-identical-strategy
  equivalence checks on a spec portfolio.
* **incremental_bounds**: bounded synthesis over a growing 1→N state
  ladder, one persistent ``IncrementalBoundedSynthesizer`` vs a
  from-scratch encoding per bound (``FreshBoundedSynthesizer``) on
  realizable and unrealizable specs.  Verdict ladders must agree between
  the encodings (and with the committed goldens), extracted machines
  must be byte-identical, and the incremental path must pay at least 2x
  fewer SAT conflicts in aggregate.
* **game_early_abort**: on-the-fly attractor solving vs full exploration
  plus the post-hoc fixpoint (``OfflineGame``) on games that are losing
  at the given bound — the early abort must visit strictly fewer
  positions.
* **case_studies**: end-to-end verdicts (and engine-work counters) on the
  paper's three case studies, asserted identical to the committed
  seed-goldens in ``benchmarks/baseline_synthesis.json``.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_synthesis.py         # full run
    PYTHONPATH=src python benchmarks/bench_synthesis.py --quick # CI smoke
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro import SpecCC, SpecCCConfig, TranslationOptions  # noqa: E402
from repro.casestudies import (  # noqa: E402
    MODE_SWITCHING_REQUIREMENTS,
    TABLE_INSTANCES,
    application_requirements,
    component_requirements,
    robot_requirements,
)
from repro.logic import parse  # noqa: E402
from repro.sat import CDCLSolver, CNF  # noqa: E402
from repro.synthesis import (  # noqa: E402
    IncrementalBoundedSynthesizer,
    solve_safety_game,
    synthesis_stats,
)

from oracles import game as oracle_game  # noqa: E402
from oracles.bounded import FreshBoundedSynthesizer  # noqa: E402
from oracles.game import ConcreteGame, OfflineGame  # noqa: E402
from oracles.sat import ScanCDCLSolver  # noqa: E402

SCHEMA = "repro-bench-synthesis/2"
BASELINE_SCHEMA = "repro-bench-synthesis-baseline/2"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline_synthesis.json"


def _config() -> SpecCCConfig:
    return SpecCCConfig(translation=TranslationOptions(next_as_x=False))


# ----------------------------------------------------------- CNF instances
def random_3sat(seed: int, num_vars: int, num_clauses: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF()
    for _ in range(num_clauses):
        clause = []
        while len(clause) < 3:
            var = rng.randint(1, num_vars)
            lit = var if rng.random() < 0.5 else -var
            if abs(lit) not in {abs(l) for l in clause}:
                clause.append(lit)
        cnf.add(clause)
    cnf.num_vars = max(cnf.num_vars, num_vars)
    return cnf


pigeonhole = CNF.pigeonhole


def exactly_one_grid(rows: int, cols: int) -> CNF:
    """Latin-square-flavoured exactly-one rows/columns: SAT but propagation
    heavy — the shape the bounded-synthesis transition encodings produce."""
    cnf = CNF()

    def var(r: int, c: int) -> int:
        return r * cols + c + 1

    for r in range(rows):
        cnf.add_exactly_one([var(r, c) for c in range(cols)])
    for c in range(cols):
        cnf.add_exactly_one([var(r, c) for r in range(rows)])
    return cnf


def propagation_instances(quick: bool) -> List[Tuple[str, CNF]]:
    if quick:
        return [
            ("random3sat-40v-170c", random_3sat(1, 40, 170)),
            ("pigeonhole-6x5", pigeonhole(6, 5)),
            ("exactly-one-7x7", exactly_one_grid(7, 7)),
        ]
    return [
        ("random3sat-60v-255c", random_3sat(1, 60, 255)),
        ("random3sat-60v-255c-s2", random_3sat(2, 60, 255)),
        ("random3sat-80v-340c", random_3sat(3, 80, 340)),
        ("pigeonhole-7x6", pigeonhole(7, 6)),
        ("pigeonhole-8x7", pigeonhole(8, 7)),
        ("exactly-one-9x9", exactly_one_grid(9, 9)),
    ]


def bench_propagation(quick: bool) -> Dict[str, object]:
    instances: Dict[str, object] = {}
    min_ratio = None
    for name, cnf in propagation_instances(quick):
        row: Dict[str, object] = {}
        verdicts = {}
        for mode, solver_class in (("watch", CDCLSolver), ("scan", ScanCDCLSolver)):
            solver = solver_class(cnf)
            start = time.perf_counter()
            result = solver.solve()
            seconds = time.perf_counter() - start
            stats = solver.stats()
            verdicts[mode] = bool(result)
            row[mode] = {
                "satisfiable": bool(result),
                "seconds": round(seconds, 4),
                "propagations": stats["propagations"],
                "clause_visits": stats["clause_visits"],
                "conflicts": stats["conflicts"],
                "restarts": stats["restarts"],
                "visits_per_propagation": round(
                    stats["clause_visits"] / max(1, stats["propagations"]), 3
                ),
            }
        assert verdicts["watch"] == verdicts["scan"], name
        ratio = (
            row["scan"]["visits_per_propagation"]
            / max(1e-9, row["watch"]["visits_per_propagation"])
        )
        row["visit_ratio"] = round(ratio, 2)
        min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
        instances[name] = row
    return {
        "instances": instances,
        "min_visit_ratio": round(min_ratio, 2),
        "watched_wins": min_ratio >= 2.0,
    }


# ------------------------------------------------------------- safety game
EQUIVALENCE_SPECS = [
    ("request-grant", "G (r -> X g)", ["r"], ["g"]),
    ("progress", "G (r -> F g) && G (c -> !g)", ["r", "c"], ["g"]),
    ("clairvoyant", "G (g <-> X X i)", ["i"], ["g"]),
    ("toggle", "G F g && G (g -> X !g)", [], ["g"]),
    ("unsat", "F g && G !g", [], ["g"]),
]


def bench_safety_game(quick: bool) -> Dict[str, object]:
    # Wide-output sweep: one real output plus N don't-cares.  Partial
    # exploration must do identical work for every N; the concrete
    # reference pays 2^N.
    widths = [0, 2, 4] if quick else [0, 2, 4, 6, 8]
    rows = []
    partial_letter_counts = set()
    for extra in widths:
        outputs = ["g"] + [f"o{k}" for k in range(extra)]
        start = time.perf_counter()
        partial = solve_safety_game(parse("G (r -> X g)"), ["r"], outputs, bound=2)
        partial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        concrete = oracle_game.solve(
            ConcreteGame, parse("G (r -> X g)"), ["r"], outputs, bound=2
        )
        concrete_seconds = time.perf_counter() - start
        assert partial.realizable and concrete.realizable
        assert partial.machine.transitions == concrete.machine.transitions
        partial_letter_counts.add(partial.stats["letters_enumerated"])
        rows.append(
            {
                "extra_outputs": extra,
                "partial_letters": partial.stats["letters_enumerated"],
                "concrete_letters": concrete.stats["letters_enumerated"],
                "partial_seconds": round(partial_seconds, 5),
                "concrete_seconds": round(concrete_seconds, 5),
                "positions": partial.positions_explored,
            }
        )

    equivalent = True
    for name, text, inputs, outputs in EQUIVALENCE_SPECS:
        for bound in (1, 2):
            partial = solve_safety_game(parse(text), inputs, outputs, bound=bound)
            concrete = oracle_game.solve(
                ConcreteGame, parse(text), inputs, outputs, bound=bound
            )
            same = (
                partial.realizable == concrete.realizable
                and partial.positions_explored == concrete.positions_explored
                and (
                    not partial.realizable
                    or partial.machine.transitions == concrete.machine.transitions
                )
            )
            equivalent = equivalent and same

    return {
        "wide_output_scaling": rows,
        "partial_independent_of_outputs": len(partial_letter_counts) == 1,
        "strategies_equivalent": equivalent,
    }


# ------------------------------------------------------- incremental bounds
# Bound-ladder portfolio: realizable specs that become winnable partway up
# the ladder (so the incremental solver re-solves a grown encoding) plus an
# unrealizable spec (UNSAT at every bound, the conflict-heavy case where
# carried learnt clauses pay the most).
LADDER_SPECS = [
    ("xor-next", "G (X g <-> (a || b))", ["a", "b"], ["g"]),
    ("and-next", "G (X g <-> (a && b))", ["a", "b"], ["g"]),
    ("delayed-grant", "G (r -> X (g || X g)) && G (!r -> X !g)", ["r"], ["g"]),
    ("spaced-grant", "G (r -> (g || X g || X X g)) && G !(g && X g)", ["r"], ["g"]),
    (
        "arbiter",
        "G (r1 -> F g1) && G (r2 -> F g2) && G !(g1 && g2)",
        ["r1", "r2"],
        ["g1", "g2"],
    ),
    ("unsat", "F g && G !g", [], ["g"]),
]
LADDER_MAX_STATES = 4
QUICK_LADDER_NAMES = {"xor-next", "delayed-grant", "unsat"}


def ladder_specs(quick: bool):
    if quick:
        return [row for row in LADDER_SPECS if row[0] in QUICK_LADDER_NAMES]
    return LADDER_SPECS


def bench_incremental_bounds(quick: bool) -> Dict[str, object]:
    specs: Dict[str, object] = {}
    aggregate = {"incremental": 0, "fresh": 0}
    machines_identical = True
    for name, text, inputs, outputs in ladder_specs(quick):
        spec = parse(text)
        synths = {
            "incremental": IncrementalBoundedSynthesizer.for_system(
                spec, inputs, outputs
            ),
            "fresh": FreshBoundedSynthesizer.for_system(spec, inputs, outputs),
        }
        conflicts = {"incremental": 0, "fresh": 0}
        seconds = {"incremental": 0.0, "fresh": 0.0}
        verdicts: List[bool] = []
        for num_states in range(1, LADDER_MAX_STATES + 1):
            results = {}
            for encoding, synth in synths.items():
                start = time.perf_counter()
                results[encoding] = synth.solve(num_states=num_states)
                seconds[encoding] += time.perf_counter() - start
                conflicts[encoding] += results[encoding].solver_stats["conflicts"]
            assert (
                results["incremental"].realizable == results["fresh"].realizable
            ), (name, num_states)
            verdicts.append(results["incremental"].realizable)
            if results["incremental"].realizable:
                inc, fresh = results["incremental"].machine, results["fresh"].machine
                same = (
                    inc.transitions == fresh.transitions
                    and inc.describe() == fresh.describe()
                )
                assert same, (name, num_states)
                machines_identical = machines_identical and same
        for encoding in aggregate:
            aggregate[encoding] += conflicts[encoding]
        ratio = conflicts["fresh"] / max(1, conflicts["incremental"])
        specs[name] = {
            "verdicts": verdicts,
            "incremental_conflicts": conflicts["incremental"],
            "fresh_conflicts": conflicts["fresh"],
            "conflict_ratio": round(ratio, 2),
            "incremental_seconds": round(seconds["incremental"], 4),
            "fresh_seconds": round(seconds["fresh"], 4),
        }
    aggregate_ratio = aggregate["fresh"] / max(1, aggregate["incremental"])
    return {
        "max_states": LADDER_MAX_STATES,
        "specs": specs,
        "aggregate_incremental_conflicts": aggregate["incremental"],
        "aggregate_fresh_conflicts": aggregate["fresh"],
        "conflict_ratio": round(aggregate_ratio, 2),
        "incremental_wins": aggregate_ratio >= 2.0,
        "machines_identical": machines_identical,
    }


# ------------------------------------------------------------- early abort
# Games that are losing at the stated bound: the on-the-fly attractor must
# abort before expanding the whole arena, so it explores strictly fewer
# positions than the offline reference (which always builds the full graph).
EARLY_ABORT_SPECS = [
    ("delayed-obligation-b1", "G (r -> X X X X b)", ["r"], ["b"], 1),
    ("delayed-obligation-b3", "G (r -> X X X X b)", ["r"], ["b"], 3),
    (
        "progress-conflict-b3",
        "G (r -> F g) && G (c -> !g)",
        ["r", "c"],
        ["g"],
        3,
    ),
    (
        "chain-echo-b2",
        "G (a -> X (b2 && X (c2 -> X g))) && G (g <-> X X a)",
        ["a", "c2"],
        ["b2", "g"],
        2,
    ),
    (
        "arbiter-starved-b2",
        "G (r1 -> F g1) && G (r2 -> F g2) && G !(g1 && g2) "
        "&& G (r1 && r2 -> X !g1)",
        ["r1", "r2"],
        ["g1", "g2"],
        2,
    ),
]


def bench_game_early_abort(quick: bool) -> Dict[str, object]:
    rows = []
    all_fewer = True
    for name, text, inputs, outputs, bound in (
        EARLY_ABORT_SPECS[:2] if quick else EARLY_ABORT_SPECS
    ):
        spec = parse(text)
        results = {}
        seconds = {}
        for solving, solve in (
            ("onthefly", solve_safety_game),
            ("offline", functools.partial(oracle_game.solve, OfflineGame)),
        ):
            start = time.perf_counter()
            results[solving] = solve(spec, inputs, outputs, bound=bound)
            seconds[solving] = time.perf_counter() - start
        onthefly, offline = results["onthefly"], results["offline"]
        assert onthefly.realizable == offline.realizable, name
        assert not onthefly.realizable, (name, "expected losing at this bound")
        fewer = onthefly.positions_explored < offline.positions_explored
        all_fewer = all_fewer and fewer
        rows.append(
            {
                "spec": name,
                "bound": bound,
                "onthefly_positions": onthefly.positions_explored,
                "offline_positions": offline.positions_explored,
                "onthefly_letters": onthefly.stats["letters_enumerated"],
                "offline_letters": offline.stats["letters_enumerated"],
                "positions_pruned": onthefly.stats["positions_pruned"],
                "onthefly_seconds": round(seconds["onthefly"], 5),
                "offline_seconds": round(seconds["offline"], 5),
                "fewer_positions": fewer,
            }
        )
    return {"games": rows, "early_abort_wins": all_fewer}


# ------------------------------------------------------------ case studies
def case_study_workloads(quick: bool) -> List[Tuple[str, List[Tuple[str, str]]]]:
    workloads = [("cara-mode-switching", list(MODE_SWITCHING_REQUIREMENTS))]
    components = sorted(component_requirements().items())
    # All five TELEPROMISE applications always run: applications 4 and 5
    # escape the obligation certificate, so they are what keeps the
    # exact engines (and their work counters) exercised end-to-end.
    applications = sorted(application_requirements().items())
    if quick:
        components = components[:2]
    workloads += [(f"cara-component-{row}", reqs) for row, reqs in components]
    workloads += [(f"telepromise-{row}", reqs) for row, reqs in applications]
    for row, (robots, rooms) in sorted(TABLE_INSTANCES.items()):
        workloads.append(
            (f"robot-{row}-{robots}x{rooms}", robot_requirements(robots, rooms))
        )
    return workloads


def bench_case_studies(quick: bool) -> Dict[str, object]:
    tool = SpecCC(_config())
    workloads: Dict[str, object] = {}
    for name, requirements in case_study_workloads(quick):
        SpecCC.clear_caches()
        start = time.perf_counter()
        report = tool.check(requirements)
        seconds = time.perf_counter() - start
        stats = synthesis_stats()
        workloads[name] = {
            "verdict": report.verdict.value,
            "seconds": round(seconds, 3),
            "game_solves": stats["game_solves"],
            "game_positions": stats["game_positions"],
            "game_letters": stats["game_letters"],
            "sat_solves": stats["sat_solves"],
            "sat_propagations": stats["sat_propagations"],
            "sat_clause_visits": stats["sat_clause_visits"],
        }
    # The obligation certificate short-circuits most rows; the golden
    # verdict check is only meaningful if at least some workloads actually
    # drove the optimised engines.
    engines_exercised = any(
        row["game_solves"] > 0 or row["sat_solves"] > 0
        for row in workloads.values()
    )
    return {"workloads": workloads, "engines_exercised": engines_exercised}


def compare_to_baseline(
    case_studies: Dict[str, object], incremental_bounds: Dict[str, object]
) -> Dict[str, object]:
    if not BASELINE_PATH.exists():
        return {
            "available": False,
            "verdicts_match_baseline": False,
            "ladders_match_baseline": False,
        }
    baseline = json.loads(BASELINE_PATH.read_text())
    verdicts = baseline["verdicts"]
    workloads = case_studies["workloads"]
    mismatches = {
        name: {"got": data["verdict"], "expected": verdicts[name]}
        for name, data in workloads.items()
        if name in verdicts and data["verdict"] != verdicts[name]
    }
    missing = [name for name in workloads if name not in verdicts]
    ladders = baseline.get("ladders", {})
    ladder_mismatches = {
        name: {"got": data["verdicts"], "expected": ladders[name]}
        for name, data in incremental_bounds["specs"].items()
        if name in ladders and data["verdicts"] != ladders[name]
    }
    ladder_missing = [
        name for name in incremental_bounds["specs"] if name not in ladders
    ]
    return {
        "available": True,
        "verdicts_match_baseline": not mismatches and not missing,
        "mismatches": mismatches,
        "unknown_to_baseline": missing,
        "ladders_match_baseline": not ladder_mismatches and not ladder_missing,
        "ladder_mismatches": ladder_mismatches,
        "ladders_unknown_to_baseline": ladder_missing,
    }


def build_report(quick: bool) -> Dict:
    case_studies = bench_case_studies(quick)
    incremental_bounds = bench_incremental_bounds(quick)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "propagation": bench_propagation(quick),
        "safety_game": bench_safety_game(quick),
        "incremental_bounds": incremental_bounds,
        "game_early_abort": bench_game_early_abort(quick),
        "case_studies": case_studies,
        "baseline": compare_to_baseline(case_studies, incremental_bounds),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_synthesis.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced instance sizes for CI smoke runs",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"(re)write the verdict goldens at {BASELINE_PATH}",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    if args.write_baseline:
        baseline = {
            "schema": BASELINE_SCHEMA,
            "verdicts": {
                name: data["verdict"]
                for name, data in report["case_studies"]["workloads"].items()
            },
            "ladders": {
                name: data["verdicts"]
                for name, data in report["incremental_bounds"]["specs"].items()
            },
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        report["baseline"] = compare_to_baseline(
            report["case_studies"], report["incremental_bounds"]
        )
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    propagation = report["propagation"]
    print(
        f"propagation: min visit ratio {propagation['min_visit_ratio']}x "
        f"(watched wins: {propagation['watched_wins']})"
    )
    for name, row in sorted(propagation["instances"].items()):
        print(
            f"  {name:24} watch {row['watch']['visits_per_propagation']:>8} "
            f"scan {row['scan']['visits_per_propagation']:>8} "
            f"ratio {row['visit_ratio']:>6}x"
        )
    game = report["safety_game"]
    print(
        f"safety game: partial independent of don't-care outputs: "
        f"{game['partial_independent_of_outputs']}, strategies equivalent: "
        f"{game['strategies_equivalent']}"
    )
    for row in game["wide_output_scaling"]:
        print(
            f"  +{row['extra_outputs']} outputs: partial {row['partial_letters']:>6} letters "
            f"concrete {row['concrete_letters']:>8} letters"
        )
    bounds = report["incremental_bounds"]
    print(
        f"incremental bounds: {bounds['aggregate_fresh_conflicts']} fresh vs "
        f"{bounds['aggregate_incremental_conflicts']} incremental conflicts "
        f"({bounds['conflict_ratio']}x, incremental wins: "
        f"{bounds['incremental_wins']}, machines identical: "
        f"{bounds['machines_identical']})"
    )
    for name, data in sorted(bounds["specs"].items()):
        print(
            f"  {name:24} incremental {data['incremental_conflicts']:>6} "
            f"fresh {data['fresh_conflicts']:>6} conflicts "
            f"ratio {data['conflict_ratio']:>6}x"
        )
    abort = report["game_early_abort"]
    print(f"game early abort: strictly fewer positions: {abort['early_abort_wins']}")
    for row in abort["games"]:
        print(
            f"  {row['spec']:24} onthefly {row['onthefly_positions']:>5} "
            f"offline {row['offline_positions']:>5} positions "
            f"(pruned {row['positions_pruned']})"
        )
    for name, data in sorted(report["case_studies"]["workloads"].items()):
        print(
            f"case {name:28} {data['verdict']:>12} {data['seconds']:>7.3f}s "
            f"(game positions {data['game_positions']}, sat propagations "
            f"{data['sat_propagations']})"
        )
    print(
        f"engines exercised: {report['case_studies']['engines_exercised']}, "
        f"verdicts match baseline: "
        f"{report['baseline']['verdicts_match_baseline']}, "
        f"ladders match baseline: "
        f"{report['baseline']['ladders_match_baseline']}"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
