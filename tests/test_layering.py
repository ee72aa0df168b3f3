"""The package's import layering: the lower layers never reach up.

``core`` (the pipeline) and ``service`` (sessions, serving, batches) sit
on top of translation, synthesis and the formula, language and solver
layers beneath them.  An import the other way round knots the layers
together, so every module under the lower packages is scanned, at module
and at function level, for an import of ``repro.core`` or
``repro.service``.  ``obs`` is exempt: its collectors read ``service``.

The serving tier also stays off every path that does not serve: fresh
interpreters check that a one-shot check and the stdio serve loop load
no module they never run.  No module keeps an import it never reads.
And every function, method and class in ``src/repro`` is referenced
outside the tests: a helper only tests call belongs in ``tests/``
(references under ``tests/oracles/``), apart from the serving and
observability seams listed in :data:`KEPT_SEAMS`.
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

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LOWER_LAYERS = (
    "logic", "nlp", "automata", "sat", "casestudies", "translate", "synthesis"
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


#: Where a definition in ``src/repro`` counts as used: what the CLI, the
#: serve loop, the benchmarks and the examples run.
REFERENCE_ROOTS = ("src", "benchmarks", "examples", "perfbench")

#: Serving and observability seams nothing under :data:`REFERENCE_ROOTS`
#: reaches, kept on purpose: each is how the tests (or an embedding
#: program) drive or inspect its tier.
KEPT_SEAMS = {
    # The core's session tables: the isolation, per-connection
    # namespacing, session-bound and journal-recovery tests read them.
    "AsyncSpecServer.session_names",
    "AsyncSpecServer.durable_tokens",
    # Routing and per-worker state of a pool: the tests check that a
    # document's shard is a pure function of it and that each shard
    # answers for its own caches.
    "WorkerPool.shard_of",
    "WorkerPool.worker_snapshots",
    # The concurrent-versus-sequential comparison of responses strips
    # exactly the volatile fields; one function, so comparisons agree.
    "normalize_response",
    # A fault plan round-trips through the REPRO_FAULTS environment
    # variable; the soaks write theirs by hand, the tests with this.
    "FaultPlan.to_json",
    # Disarms journal fault injection in the process that armed it.
    "uninstall_journal",
    # The metrics registry's gauge, which no collector sets yet: the
    # ``gauges`` key of the ``metrics`` payload is part of the protocol.
    "MetricsRegistry.set_gauge",
}


def definitions(path: Path):
    """``(qualified name, name, first line, last line)`` of every
    function, method and class in *path*; decorators count as lines."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield f"{prefix}{child.name}", child.name, first, child.end_lineno
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), "")


def references(path: Path):
    """``(line, name)`` for every name *path* reads: a ``Name``, an
    attribute, or an import outside a package ``__init__`` (whose imports
    are re-exports, not uses)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from ((node.lineno, alias.name) for alias in node.names)


def unreferenced(root: Path, package: Path):
    """``(path:line, qualified name)`` of each definition under *package*
    whose name nothing under *root*'s :data:`REFERENCE_ROOTS` reads
    outside the definition itself.  Dunder methods, which Python calls,
    and the serve loop's ``_op_*`` handlers, which it looks up by name,
    are exempt."""
    readers = {}
    for name in REFERENCE_ROOTS:
        for path in sorted((root / name).rglob("*.py")):
            for line, read in references(path):
                readers.setdefault(read, []).append((path, line))
    for path in sorted(package.rglob("*.py")):
        for qualname, name, first, last in definitions(path):
            if name.startswith("__") and name.endswith("__") or name.startswith("_op_"):
                continue
            if all(
                where == path and first <= line <= last
                for where, line in readers.get(name, ())
            ):
                yield f"{path.relative_to(package)}:{first}", qualname


def test_every_definition_is_referenced_outside_the_tests():
    flagged = [
        f"{where} {qualname}"
        for where, qualname in unreferenced(ROOT, PACKAGE)
        if qualname not in KEPT_SEAMS
    ]
    assert flagged == []


def test_every_kept_seam_is_still_unreferenced():
    """A seam something now reaches, or that is gone, leaves the list."""
    flagged = {qualname for _, qualname in unreferenced(ROOT, PACKAGE)}
    assert sorted(KEPT_SEAMS - flagged) == []


def test_the_reference_scan_reads_names_attributes_and_imports(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import exported\n")
    (package / "mod.py").write_text(textwrap.dedent("""
        def exported(n):
            return exported(n - 1) if n else 0
        def called():
            pass
        class Box:
            @property
            def method(self):
                pass
            def __len__(self):
                return 0
            def _op_ping(self):
                pass
        def dead():
            pass
    """))
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from pkg.mod import called\nBox().method\n"
    )
    assert list(unreferenced(tmp_path, package)) == [
        ("mod.py:2", "exported"), ("mod.py:14", "dead")
    ]
