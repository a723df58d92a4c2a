"""The benchmark's tracer wraps dtnlab functions at the names its callers look
up (perfbench/spans.py), and its workloads are dtnlab configs
(perfbench/workloads.py).  A rename in the package would leave such a binding
dangling, and a deleted config key would reject a workload; either breaks a
benchmark run, and this catches it in the test suite."""

import importlib
import importlib.util
import os

import pytest

from dtnlab import config_from_dict
from dtnlab.report import build_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dtnlab")


def _load(name):
    # spans.py and workloads.py import only the standard library at module level
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("spans")


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


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("seed", [0, 3])
def test_every_workload_config_builds(seed, smoke):
    workloads = _load("workloads")
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        _, data, _ = workloads.make_config(name, seed, smoke)
        cfg = config_from_dict(data)
        cfg.classify_config()
        dom, op = build_model(cfg)
        assert op.n == dom.n_interior > 0, name
