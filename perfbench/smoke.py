"""Self-check of the benchmark at reduced sizes.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced on the
reduced-size configs, and asserts that the result line has exactly the
contract's keys, that every metric BENCHMARK.json names is emitted with its
unit, that the traced counts in NONZERO are not 0, that the outputs passed
the oracle checks, and that the human-readable lines print fail_frac and
oracle_mismatch_frac.  Finally it copies the
benchmark alone (BENCHMARK.json and perfbench/) into a scratch directory and
asserts that the benchmark exits non-zero there without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")

# per-layer counts each workload must show; a binding the tracer no longer
# reaches would read 0 here
NONZERO = {
    "well1d-sweep": ("dtn.dtn_matrix.calls", "limits.slim_eta_M.calls",
                     "classify.classify_point.calls", "domain.factorize.calls"),
    "annulus2d-sweep": ("dtn.dtn_matrix.calls", "limits.analyticity_test.calls",
                        "classify.classify_point.calls", "domain.factorize.calls"),
    "well1d-stone": ("measures.stone_projection.factorize", "measures.stone_projection.panels",
                     "domain.solve.cols"),
    "annulus2d-validate": ("domain.factorize.calls", "domain.solve.calls"),
}


def _run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_workload(bench, name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{name}: outputs failed the oracle checks"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, \
        sorted(set(metrics) ^ {m["name"] for m in declared})
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if trace:
        for metric in NONZERO[name]:
            assert metrics[metric]["value"] > 0, f"{name}: {metric} is 0"
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) > 2}
    for label, unit in [(m["name"], m["unit"]) for m in bench["end_to_end"]] + [
            ("fail_frac", "ratio"), ("oracle_mismatch_frac", "ratio")]:
        assert printed.get(label) == unit, f"{name}: {label} not printed with unit {unit}"
    print(f"ok  {name:20s} trace={trace}  attempted={result['attempted']}")


def check_without_sources():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "--workload", "well1d-sweep", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program's sources"
    assert not proc.stdout.strip(), f"printed a result without sources: {proc.stdout!r}"
    print("ok  exits non-zero without the program's sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, workload["name"], trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
