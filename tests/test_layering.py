"""The package's import layering: the lower layers never reach up.

``core`` (the pipeline) and ``service`` (sessions, serving, batches) sit
on top of translation, synthesis and the formula, language and solver
layers beneath them.  An import the other way round knots the layers
together, so every module under the lower packages is scanned, at module
and at function level, for an import of ``repro.core`` or
``repro.service``.  ``obs`` is exempt: its collectors read ``service``.

The serving tier also stays off every path that does not serve: fresh
interpreters check that a one-shot check and the stdio serve loop load
no module they never run.  And no module keeps an import it never reads.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER_LAYERS = (
    "logic", "nlp", "automata", "sat", "smt", "casestudies", "translate", "synthesis"
)
UPPER_LAYERS = ("repro.core", "repro.service")


def imported_modules(path: Path):
    """Every module name *path* imports, relative imports resolved."""
    package = ["repro", *path.relative_to(PACKAGE).with_suffix("").parts[:-1]]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:  # from .. import core
                yield node.lineno, f"{module}.{alias.name}"


def reaches_up(module: str) -> bool:
    return any(
        module == upper or module.startswith(upper + ".") for upper in UPPER_LAYERS
    )


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layer_imports_neither_core_nor_service(layer):
    offending = {
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in (PACKAGE / layer).rglob("*.py")
        for line, module in imported_modules(path)
        if reaches_up(module)
    }
    assert sorted(offending) == []


def test_the_scan_resolves_relative_imports():
    path = PACKAGE / "translate" / "translator.py"
    modules = {module for _, module in imported_modules(path)}
    assert "repro.translate.semantics" in modules
    assert "repro.logic.ast" in modules
    assert reaches_up("repro.core.pipeline") and not reaches_up("repro.corex")


#: Standard-library modules only the serving tier needs.
SERVING_LIBRARIES = ("asyncio", "ssl", "multiprocessing", "concurrent.futures.process")
#: ``repro``'s exports that resolve on first access, by submodule of
#: ``repro.service``.
LAZY_EXPORTS = {
    "BatchChecker": "batch",
    "SessionReport": "session",
    "SpecSession": "session",
    "WorkerPool": "pool",
}


def run_fresh(code: str) -> str:
    """The stdout of *code* run in a fresh interpreter on this ``src/``."""
    source = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def modules_after(code: str) -> set:
    """The names in ``sys.modules`` once *code* has run in a fresh interpreter."""
    printed = run_fresh(code + "\nimport sys\nprint('\\n'.join(sys.modules))\n")
    return set(printed.split())


def test_a_check_loads_no_serving_module():
    loaded = modules_after(textwrap.dedent("""
        from repro import SpecCC, SpecCCConfig, TranslationOptions
        from repro.casestudies import MODE_SWITCHING_REQUIREMENTS
        tool = SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))
        tool.prewarm()
        assert tool.check(MODE_SWITCHING_REQUIREMENTS).consistent
    """))
    serving = {
        name for name in loaded
        if name == "repro.service" or name.startswith("repro.service.")
    }
    assert sorted(serving | (loaded & set(SERVING_LIBRARIES))) == []


def test_the_serve_loop_loads_no_pool():
    loaded = modules_after("import repro.service.server")
    pool_tier = {
        f"repro.service.{name}"
        for name in ("batch", "pool", "gateway", "journal", "faults", "supervision")
    }
    assert sorted(loaded & (pool_tier | {"multiprocessing"})) == []


def test_star_import_binds_every_export_and_lazy_ones_are_their_modules():
    code = textwrap.dedent("""
        import importlib, json
        from repro import *
        import repro
        unbound = [name for name in repro.__all__ if name not in globals()]
        foreign = [
            name for name, submodule in LAZY_EXPORTS.items()
            if globals()[name]
            is not getattr(importlib.import_module("repro.service." + submodule), name)
        ]
        print(json.dumps([unbound, foreign]))
    """)
    assert json.loads(run_fresh(f"LAZY_EXPORTS = {LAZY_EXPORTS!r}\n{code}")) == [[], []]


def unused_imports(path: Path):
    """``(line, name)`` for each module-level import in *path* whose bound
    name never occurs as a ``Name`` in the module; ``__future__`` is exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in bound if name not in read)


def test_no_module_keeps_an_unused_import():
    """Package ``__init__``s are exempt: their imports are re-exports."""
    unused = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert unused == []


def test_the_unused_import_scan_reads_bound_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import Dict, List\n"
        "NAMES: List[str] = []\n"
    )
    assert list(unused_imports(module)) == [(2, "os"), (3, "codec"), (4, "Dict")]
