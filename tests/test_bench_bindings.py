"""The benchmark's tracer wraps dtnlab functions at the names its callers look
up (perfbench/spans.py).  A rename in the package would leave such a binding
dangling and break a traced benchmark run; this catches it in the test suite."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dtnlab")


def _spans():
    # spans.py imports only the standard library at module level
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, *attrs):
    module = importlib.import_module(module_name)
    assert os.path.dirname(os.path.abspath(module.__file__)) == PACKAGE, module.__file__
    target = module
    for attr in attrs:
        assert hasattr(target, attr), f"{module_name}.{'.'.join(attrs)} is gone"
        target = getattr(target, attr)
    return target


def test_every_function_binding_resolves():
    spans = _spans()
    bindings = [b for targets in spans._FUNCTIONS.values() for b in targets]
    assert bindings
    for module_name, attr in bindings:
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def test_every_method_binding_resolves():
    spans = _spans()
    assert spans._METHODS
    for module_name, cls_name, attr in spans._METHODS.values():
        assert callable(_resolve(module_name, cls_name, attr)), (module_name, cls_name, attr)
