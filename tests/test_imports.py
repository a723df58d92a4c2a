"""Package structure: no module imports another module's private name or reads
a private attribute of another object, no function imports a dtnlab module (a
function-local import hides a cycle), every export names a definition (a
removed type leaves no export behind), and no module imports a name it does
not use."""

import ast
import importlib
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


def test_no_private_attribute_read_across_objects():
    # a _name attribute is read on self or cls only: one object's private
    # state is not another's argument (dunders such as super().__init__ are
    # not private)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                offenders.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
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


def test_every_exported_name_exists():
    modules = [importlib.import_module(f"dtnlab.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if not hasattr(mod, name)]
    assert modules and missing == []


def test_package_reexports_only_exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"dtnlab.{node.module}").__all__
            offenders += [f"{node.module}.{alias.name}" for alias in node.names
                          if alias.name not in exported]
    assert offenders == []


def _unused_imports(path):
    """Names that a module imports at top level and neither uses nor lists in
    __all__; from __future__ and lines marked noqa are skipped."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(importlib.import_module(f"dtnlab.{path.stem}").__all__)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}: {name}")
    return unused


def test_no_unused_import():
    # __init__.py only re-exports
    unused = [name for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path)]
    assert SRC.is_dir() and unused == []
