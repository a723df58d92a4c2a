"""Package structure: no module imports another module's private name, and no
function imports a dtnlab module (a function-local import hides a cycle)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dtnlab"


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "dtnlab":
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert SRC.is_dir() and offenders == []


def test_no_function_local_package_import():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} imports {name} in a function"
                              for name in names
                              if name.startswith(".") or name.split(".")[0] == "dtnlab"]
    assert SRC.is_dir() and offenders == []
