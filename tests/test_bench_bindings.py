"""The benchmark's tracer wraps dtnlab functions at the names its callers look
up (perfbench/spans.py), and its workloads are dtnlab configs
(perfbench/workloads.py).  A rename in the package would leave such a binding
dangling, a call path that bypasses one would leave a count the smoke check
requires at 0, and a deleted config key would reject a workload; each breaks
a benchmark run, and this catches it in the test suite.  The benchmark's own
oracle check (perfbench/checks.py) also runs here on the sweeps' reports."""

import functools
import importlib
import importlib.util
import json
import os

import pytest

from dtnlab import config_from_dict
from dtnlab.cli import main
from dtnlab.report import build_model, run_sweep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dtnlab")


def _load(name):
    # spans.py and workloads.py import only the standard library at module
    # level, checks.py numpy and dtnlab
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


@pytest.mark.parametrize("workload", ["well1d-sweep", "annulus2d-sweep"])
def test_sweep_reaches_every_traced_count(workload):
    """Every *.calls count the smoke check requires of a sweep is reached through
    the bindings spans.py wraps, so a refactor that bypasses one fails here."""
    spans, workloads = _spans(), _load("workloads")
    names = [m[:-len(".calls")] for m in _load("smoke").NONZERO[workload]
             if m.endswith(".calls")]
    assert names
    calls = dict.fromkeys(names, 0)

    def counting(name):
        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    patches = spans.Patches()
    try:
        for name in names:
            if name in spans._METHODS:
                module_name, cls_name, attr = spans._METHODS[name]
                patches.replace(getattr(importlib.import_module(module_name), cls_name),
                                attr, counting(name))
            else:
                for module_name, attr in spans._FUNCTIONS[name]:
                    patches.replace(module_name, attr, counting(name))
        _, data, _ = workloads.make_config(workload, 0, smoke=True)
        run_sweep(config_from_dict(data))
    finally:
        patches.restore()
    assert all(calls.values()), calls


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("workload", ["well1d-sweep", "annulus2d-sweep"])
def test_sweep_passes_the_benchmark_check_without_defects(tmp_path, workload, smoke):
    """Every level of the sweep is detected and no verdict contradicts the
    oracle: the benchmark's check finds nothing, with no documented defect."""
    workloads, checks = _load("workloads"), _load("checks")
    command, data, _ = workloads.make_config(workload, 0, smoke)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    attempted = workloads.expected_operations(command, data)
    result = checks.check_classify(str(cfg_path), str(tmp_path), attempted, workloads.NO_DEFECTS)
    assert (result["failed"], result["known"], result["wrong"]) == (0, 0, 0), result["detail"]
