"""The package's import layering: the lower layers never reach up.

``core`` (the pipeline) and ``service`` (sessions, serving, batches) sit
on top of translation, synthesis and the formula, language and solver
layers beneath them.  An import the other way round knots the layers
together, so every module under the lower packages is scanned, at module
and at function level, for an import of ``repro.core`` or
``repro.service``.  ``obs`` is exempt: its collectors read ``service``.
"""

from __future__ import annotations

import ast
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
