"""Import layering of the library below the experiment harness.

The library packages must not depend on :mod:`repro.experiments`: the
harness sits on top of them.  The one exception is the serve CLI's
runner hook, which builds a session with the harness's helpers.  The
harness in turn reaches the metrics sinks only through the events it
emits, the solvers are pure numerics that read nothing from the
telemetry layer, and ``import repro`` must need only the declared
dependencies.  The core library is numpy/scipy only: ``orjson`` encodes
the daemon's replies and nothing outside :mod:`repro.serve` imports it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

LIBRARY = ("core", "shard", "ooc", "serve", "stream", "hin", "tensor", "solvers", "obs")

#: ``(file, enclosing function)`` pairs allowed to import the harness.
ALLOWED = {("serve/daemon.py", "run_serve_cli")}


def imports_of(path: Path, package: str):
    """``(enclosing function, module)`` of each import of ``package``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            scope = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            if isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            elif isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = []
            for module in modules:
                if module == package or module.startswith(package + "."):
                    found.append((scope, module))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_library_does_not_import_the_experiment_harness():
    offending = []
    for package in LIBRARY:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            for function, module in imports_of(path, "repro.experiments"):
                if (relative, function) not in ALLOWED:
                    offending.append(f"{relative} ({function}): {module}")
    assert offending == []


def test_solvers_import_nothing_from_obs():
    offending = [
        f"{path.relative_to(SRC).as_posix()}: {module}"
        for path in sorted((SRC / "solvers").rglob("*.py"))
        for _, module in imports_of(path, "repro.obs")
    ]
    assert offending == []


def named_identifiers(path: Path) -> set[str]:
    """Every identifier a module names: imports, names and attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_experiments_reach_metrics_only_through_events():
    sinks = {"MetricsRegistry", "MetricsRecorder"}
    offending = [
        f"{path.relative_to(SRC).as_posix()}: {name}"
        for path in sorted((SRC / "experiments").rglob("*.py"))
        for name in sorted(named_identifiers(path) & sinks)
    ]
    assert offending == []


def test_import_repro_needs_no_networkx():
    code = "import sys; sys.modules['networkx'] = None; import repro"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr


def test_import_repro_needs_no_orjson():
    code = "import sys; sys.modules['orjson'] = None; import repro"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr


def test_only_the_serving_tier_imports_orjson():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if imports_of(path, "orjson")
    }
    assert importers and all(name.startswith("serve/") for name in importers)
