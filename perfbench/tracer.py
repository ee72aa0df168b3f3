"""Outside-in layer tracer: wraps public entry points, changes nothing in ``src``.

Each layer of the checker is named after the module it lives in (``nlp``,
``translate``, ``automata``, ``synthesis``, ``sat``, ``core``,
``service``).  :class:`LayerTracer` replaces the module attributes through
which callers reach a layer's entry point with a timing wrapper.  Callers
import names directly (``from ..automata.ltlsat import satisfiable``), so a
name is patched where its caller looks it up, e.g.
``repro.synthesis.realizability.satisfiable`` and not only the defining
module.

Self time: every wrapper pushes a child-time accumulator on a per-thread
stack; when a wrapped call returns, its duration is added to its parent's
accumulator, and its self time is its duration minus its own accumulator.
So the self times of all wrapped calls partition the time spent under the
outermost wrapped calls, and ``translate.graph`` (the self time of
``Translator.translate``) is exactly the translation time not spent in the
five wrapped translation stages.

State stays in memory; :meth:`LayerTracer.table` returns it once at the end.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (layer name, ((module, attribute path), ...)): every binding through
#: which the pipeline reaches the layer's entry point.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("nlp.parse", (("repro.translate.translator", "parse_sentence"),)),
    ("translate.semantics", (("repro.translate.translator", "analyse_incremental"),)),
    ("translate.formulas", (("repro.translate.translator", "sentence_formula"),)),
    ("translate.abstraction", (("repro.translate.translator", "solve_abstraction"),)),
    ("translate.partition", (("repro.translate.translator", "partition_formulas"),)),
    ("translate.graph", (("repro.translate.translator", "Translator.translate"),)),
    ("synthesis.decompose", (("repro.synthesis.realizability", "decompose"),)),
    ("synthesis.component", (("repro.synthesis.realizability", "check_component"),)),
    # The pipeline's satisfiability precheck.  ltlsat.is_valid calls
    # ltlsat.satisfiable internally; that call stays part of
    # automata.validity, so the precheck's decisive ratio is not diluted.
    ("automata.satisfiable", (("repro.synthesis.realizability", "satisfiable"),)),
    ("automata.validity", (("repro.automata.ltlsat", "is_valid"),)),
    # The exact engines' LTL-to-Buchi construction (the bounded engine's
    # factories are not wrapped, so without this it would be self time of
    # synthesis.component).
    (
        "automata.translate",
        (("repro.synthesis.bounded", "translate"), ("repro.synthesis.safety_game", "translate")),
    ),
    ("synthesis.obligations", (("repro.synthesis.invariants", "check_obligations"),)),
    ("synthesis.game", (("repro.synthesis.realizability", "solve_game"),)),
    ("synthesis.bounded", (("repro.synthesis.bounded", "IncrementalBoundedSynthesizer.solve"),)),
    ("synthesis.verify", (("repro.synthesis.realizability", "satisfies_specification"),)),
    ("sat.solve", (("repro.sat.cdcl", "CDCLSolver.solve"),)),
    ("synthesis.localize", (("repro.core.pipeline", "localize"),)),
    ("core.check_translated", (("repro.core.pipeline", "SpecCC.check_translated"),)),
    ("service.session", (("repro.service.session", "SpecSession.check"),)),
    ("service.report_to_dict", (("repro.service.server", "report_to_dict"),)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)


def _precheck_decisive(result) -> bool:
    # satisfiable() returns a witness, or None when the conjunction is
    # unsatisfiable: only then does the precheck decide the component.
    return result is None


def _obligations_decisive(result) -> bool:
    return getattr(result.outcome, "value", None) == "realizable"


#: Layers with a useful-outcome ratio: ``<layer>.decisive_ratio``.
DECISIVE: Dict[str, Callable[[object], bool]] = {
    "automata.satisfiable": _precheck_decisive,
    "synthesis.obligations": _obligations_decisive,
}


class LayerTracer:
    """Calls, self time and decisive outcomes per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.decisive: Dict[str, int] = {name: 0 for name in DECISIVE}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        """A wrapper recording *function*'s calls under layer *name*."""
        clock = self.clock
        decisive = DECISIVE.get(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += duration - children
            if decisive is not None and decisive(result):
                with tracer._lock:
                    tracer.decisive[name] += 1
            return result

        return traced

    def install(self) -> "LayerTracer":
        """Patch every entry point of :data:`LAYERS` (imports ``repro``)."""
        for name, targets in LAYERS:
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[attribute]
                setattr(owner, attribute, self.wrap(name, original))
                self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def table(self) -> dict:
        """Plain-data snapshot: calls, self seconds and decisive counts."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "decisive": dict(self.decisive),
            }


def layer_metrics(table: dict) -> Dict[str, Tuple[float, str]]:
    """``<layer>.calls``/``.self_s`` and decisive ratios from a :meth:`table`."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (table["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (table["self_s"].get(name, 0.0), "s")
    for name in DECISIVE:
        calls = table["calls"].get(name, 0)
        ratio = table["decisive"].get(name, 0) / calls if calls else 0.0
        metrics[f"{name}.decisive_ratio"] = (ratio, "ratio")
    return metrics


def explained_seconds(table: dict) -> float:
    """Time under the outermost wrapped calls: the sum of all self times."""
    return sum(table["self_s"].values())
