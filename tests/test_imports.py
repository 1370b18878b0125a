"""Import-graph guards: the package root loads only what CordicConfig
needs, and no module of the package defers an import into a function."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_loads_only_cordic_and_fixq():
    # every other name is imported from its owning module, so the package
    # root must not load the rest of the pipeline
    code = (
        "import sys, hogpipe\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hogpipe'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["hogpipe", "hogpipe.cordic", "hogpipe.fixq"]


def test_no_module_imports_inside_a_function():
    # a deferred import hides a cycle between modules
    paths = sorted((SRC / "hogpipe").glob("*.py"))
    assert len(paths) > 10
    deferred, functions = set(), 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                functions += 1
                deferred |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                }
    assert functions > 50  # the walk sees the package's functions
    assert sorted(deferred) == []


def test_only_fixq_spells_the_pixel_range():
    # the 8-bit luma is fixq.LUMA: every other module derives 0..255, +-255,
    # the 256 levels and the 511-wide gradient grid from it
    paths = sorted((SRC / "hogpipe").glob("*.py"))
    assert len(paths) > 10 and SRC / "hogpipe" / "fixq.py" in paths
    ints, spelled = 0, []
    for path in paths:
        if path.name == "fixq.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                ints += 1
                if node.value in (255, 256, 511):
                    spelled.append(f"{path.name}:{node.lineno}")
    assert ints > 100  # the walk sees the package's int constants
    assert spelled == []
