"""Package structure: no module imports another module's private name."""

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
