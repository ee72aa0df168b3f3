"""The references in ``tests/oracles/`` must hook steps the engines define.

An oracle overrides one step of a production class.  If that step is
renamed in ``src/``, the override becomes dead code, the oracle silently
runs the production path, and every differential test against it compares
the engine with itself — and passes.
"""

from __future__ import annotations

import pytest

from repro.sat.cdcl import CDCLSolver
from repro.synthesis.bounded import IncrementalBoundedSynthesizer
from repro.synthesis.safety_game import _Game

from oracles.bounded import FreshBoundedSynthesizer
from oracles.game import ConcreteGame, OfflineGame
from oracles.sat import ScanCDCLSolver

SEAMS = [
    (ScanCDCLSolver, CDCLSolver, ("_grow", "_attach", "_reduce_learnts", "_propagate")),
    (ConcreteGame, _Game, ("_enumerated",)),
    (OfflineGame, _Game, ("_losing_region",)),
    (FreshBoundedSynthesizer, IncrementalBoundedSynthesizer, ("solve",)),
]


@pytest.mark.parametrize(
    "oracle,engine,steps", SEAMS, ids=[oracle.__name__ for oracle, _, _ in SEAMS]
)
def test_oracle_overrides_engine_steps(oracle, engine, steps):
    assert issubclass(oracle, engine)
    for name in steps:
        assert callable(vars(engine).get(name)), (engine.__name__, name)
        assert callable(vars(oracle).get(name)), (oracle.__name__, name)
