import ast
from pathlib import Path


def test_oracles_import_nothing_from_hogpipe():
    # an oracle that calls the package checks the package against itself
    path = Path(__file__).with_name("oracles.py")
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "numpy" in modules  # the walk sees the module's imports
    assert [m for m in modules if m.split(".")[0] == "hogpipe"] == []
