"""Child processes of the benchmark.

``python3 perfbench/child.py setup``
    Cold set-up probe: import the checker, build the paper-configured
    ``SpecCC``, prewarm it, print ``ready`` and exit.  The parent times
    process start to ``ready``.

``python3 perfbench/child.py serve``
    ``python -m repro serve`` with the layer tracer installed before the
    CLI runs.  The layer table stays in memory and goes to stderr once, at
    exit, as one ``LAYER_TABLE <json>`` line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def setup() -> int:
    from repro import SpecCC, SpecCCConfig, TranslationOptions

    tool = SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))
    tool.prewarm()
    print("ready", flush=True)
    return 0


def serve(argv) -> int:
    from tracer import LayerTracer

    tracer = LayerTracer().install()
    from repro.__main__ import main

    try:
        return main(["serve", *argv])
    finally:
        sys.stderr.write("LAYER_TABLE " + json.dumps(tracer.table()) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup())
    if mode == "serve":
        sys.exit(serve(rest))
    sys.exit(f"unknown mode {mode!r}")
