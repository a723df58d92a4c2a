"""dtnlab benchmark: closed-loop passes of one CLI command, checked against the oracle.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs passes back to back in one fresh process (passrun.py), with
one BLAS thread and ``threads: 1``, for about ``--seconds`` seconds: at least
two passes, and after those no pass is started that would end past the budget
by the last pass's duration.  A pass is one ``classify``, ``measures`` or ``validate``
command on the generated config, timed from config parse to output files
written.  ``setup_s`` is the median of the run's ``parse_config`` +
``build_model`` samples, taken in batches between the passes.  ``peak_rss_mb`` is the
process's peak resident set at the end of its first pass.  With ``--trace 1``
one traced pass follows the untraced ones and the per-layer metrics come from
it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  ``--smoke`` runs the reduced-size
configs (see smoke.py).  Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, expected_operations, known_defects, make_config  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
BENCH_LAYER = [("bench.fail_frac", "ratio"), ("bench.oracle_mismatch_frac", "ratio"),
               ("bench.trace_overhead_s", "s"), ("bench.pass_rss_mb", "MB")]
RUN_LIMIT_S = 170.0     # a run must end within 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _tail_text(values):
    """The highest whole percentile with ten samples beyond it, if there is one."""
    n = len(values)
    if n < 20:
        return "no percentile has ten samples beyond it"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"


def run_child(workload, seed, seconds, trace, smoke):
    """Run the passes of one workload and seed; returns (summary dict, child log)."""
    start = time.monotonic()
    command, cfg, offset = make_config(workload, seed, smoke)
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = {"root": ROOT, "command": command, "config": os.path.join(work, "config.json"),
            "work": work, "seed": seed, "trace": bool(trace),
            "attempted": expected_operations(command, cfg),
            "known_defects": known_defects(workload, seed, smoke),
            "deadline": start + seconds, "result": os.path.join(work, "result.json")}
    with open(spec["config"], "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=1)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), spec_path],
                              cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                              capture_output=True, text=True, timeout=RUN_LIMIT_S)
        log = proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the child
        return None, f"passes timed out after {exc.timeout:.0f} s"
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None, log
    result.update(workload=workload, command=command, seed=seed, offset=offset, work=work,
                  elapsed_s=time.monotonic() - start)
    return result, log


def summarize(result):
    """Fold the passes into the contract's result and the printed report."""
    passes = result["passes"]
    deterministic = True
    for p in passes[1:]:
        # a pass whose output differs from the first pass fails all its operations
        if p["digest"] != passes[0]["digest"]:
            deterministic = False
            p["failed"] = p["attempted"]
            p["detail"]["reason"] = "output differs from the first pass"
    timed = [p for p in passes if not p["trace"]]
    ops = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(p["known"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    samples = {"wall_s": [p["wall_s"] for p in timed], "cpu_s": [p["cpu_s"] for p in timed],
               "setup_s": [t for batch in result["setup_batches"] for t in batch],
               "peak_rss_mb": [result["peak_rss_mb"]]}
    return {
        "correct": wrong == 0 and deterministic and all(p["exit_code"] == 0 for p in passes),
        "attempted": ops, "failed": failed,
        "fail_frac": failed / ops, "oracle_mismatch_frac": (known + wrong) / ops,
        "known_mismatches": known, "other_mismatches": wrong,
        "pass_rss_mb": result["peak_rss_mb"] - result["import_rss_mb"],
        "samples": samples,
        "median": {name: statistics.median(v) for name, v in samples.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size configs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dtnlab", "__init__.py")):
        print(f"no dtnlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    result, log = run_child(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if result is None:
        print(log, file=sys.stderr)
        print("the benchmark process produced no result", file=sys.stderr)
        return 2
    if any(p["exit_code"] != 0 for p in result["passes"]):
        print(log, file=sys.stderr)
    s = summarize(result)

    print(f"workload {args.workload} ({result['command']}), seed {args.seed}, window offset "
          f"{result['offset']!r}, {len(s['samples']['wall_s'])} untraced passes, "
          f"{result['elapsed_s']:.1f} s")
    how = {"peak_rss_mb": f"first pass; {s['pass_rss_mb']:.6g} MB of it above the "
                          f"resident set after imports"}
    for name, unit in END_TO_END:
        values = s["samples"][name]
        print(f"  {name:22s} {s['median'][name]:.6g} {unit}  "
              f"({how.get(name) or f'median of {len(values)}; {_tail_text(values)}'})")
    print(f"  {'fail_frac':22s} {s['fail_frac']:.6g} ratio  "
          f"({s['failed']} of {s['attempted']} operations)")
    print(f"  {'oracle_mismatch_frac':22s} {s['oracle_mismatch_frac']:.6g} ratio  "
          f"({s['known_mismatches']} documented in workloads.KNOWN_DEFECTS, "
          f"{s['other_mismatches']} other contradictions)")
    for p in result["passes"]:
        print(f"  pass exit={p['exit_code']} trace={int(p['trace'])} wall={p['wall_s']:.4f}s "
              f"detail={json.dumps(p['detail'])}")

    if args.trace:
        layer = dict(result["per_layer"])
        layer["bench.fail_frac"] = s["fail_frac"]
        layer["bench.oracle_mismatch_frac"] = s["oracle_mismatch_frac"]
        layer["bench.trace_overhead_s"] = result["passes"][-1]["wall_s"] - s["median"]["wall_s"]
        layer["bench.pass_rss_mb"] = s["pass_rss_mb"]
        units = PER_LAYER + BENCH_LAYER
        for name, unit in units:
            print(f"  {name:42s} {layer[name]:.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units}
    else:
        metrics = {name: {"value": s["median"][name], "unit": unit} for name, unit in END_TO_END}

    summary = dict(s, workload=args.workload, seed=args.seed, offset=result["offset"],
                   elapsed_s=result["elapsed_s"], metrics=metrics)
    with open(os.path.join(result["work"], "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
