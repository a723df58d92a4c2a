"""Measure and record the benchmark's baseline.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Runs ``run.py`` once per workload and seed (seeds interleaved across
workloads, ``run_seconds`` from BENCHMARK.json), then one traced run per
workload at the default seed, and writes to FILE (default
``perfbench/baseline.json``): the environment, the seeded window offsets, the
median, quartiles and spread (quartile distance as a share of the median) of
every end-to-end metric with the steadiness check against its bound, the
fail and oracle-mismatch fractions, and the per-layer numbers of the traced
runs.  Runs are sequential, so they never compete for the two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import CHILD_ENV  # noqa: E402
from workloads import DEFAULT_SEED, MAX_SHIFT_FRACTION, UNSHIFTED, make_config  # noqa: E402

NOTES = {
    "oracle_mismatch_frac": (
        "Non-zero on both sweeps at every seed: the classifier gives false "
        "'continuous' verdicts on these finite models (well: grid points 0.35 and "
        "0.55; annulus: 0.5 and 1.0) and misses oracle levels inside the window "
        "(well: all six, 0.0195 to 0.8132; annulus: 0.9153, 0.9511 and 0.9947 "
        "near the point 1.0).  A missed level is charged to the grid point nearest "
        "to it.  These are program defects the benchmark exposes (ROADMAP items 3 "
        "and 4), listed in workloads.KNOWN_DEFECTS; no window was re-sized to hide "
        "them.  They are reported, not counted against 'correct'; every other "
        "oracle contradiction, an undocumented 'continuous' verdict or missed level "
        "included, is."),
    "fail_frac": (
        "0 on every workload: no operation fails.  It and oracle_mismatch_frac are "
        "printed by run.py with their units and recorded per layer as "
        "bench.fail_frac and bench.oracle_mismatch_frac; they are not bounded "
        "end-to-end metrics because the contract asks for metrics that are never 0."),
    "seeds": (
        "The seed is passed to the program as --seed (validate draws its identity "
        "triples from it) and shifts the window of well1d-sweep and well1d-stone by "
        "a seeded fraction, below MAX_SHIFT_FRACTION, of one grid step.  Seed 0 is "
        "the unshifted reference at which the traced counts are recorded.  The "
        "annulus windows are not shifted: see workloads.UNSHIFTED."),
    "dropped_workloads": "none",
    "passes": ("Every run makes at least two untraced passes, so that the "
               "byte-identity of the output across passes is checked in every run."),
    "setup_s": ("The median of the run's set-up samples, 5 batches of 5 before "
                "every untraced pass and after the last.  This host's core speed "
                "flips by up to 2x for spells of a second to a minute, mostly slow; "
                "the median follows the usual state, the fastest sample does not."),
    "peak_rss_mb": ("Peak resident set of the run's fresh process at the end of its "
                    "first pass, read before the oracle check; most of it is the "
                    "Python/numpy/scipy import footprint.  bench.pass_rss_mb is the "
                    "part above the peak after imports."),
    "trace_overhead": "bench.trace_overhead_s = traced pass wall_s - median untraced wall_s.",
}


def _parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "child_env": CHILD_ENV,
        "threads": 1,
    }


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    summary_path = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}", "summary.json")
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    print(proc.stdout.splitlines()[0], flush=True)
    return summary


def _stats(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _parse_seeds(args.seeds)
    seconds = bench["run_seconds"]

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(_run(name, seed, seconds, trace=0))

    out = {"environment": _environment(), "notes": NOTES, "run_seconds": seconds,
           "default_seed": DEFAULT_SEED, "max_shift_fraction": MAX_SHIFT_FRACTION,
           "unshifted": sorted(UNSHIFTED), "seeds": seeds, "workloads": {}}
    for name in names:
        why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
        traced = _run(name, DEFAULT_SEED, seconds, trace=1)
        record = {
            "why": why,
            "offsets": {str(s): make_config(name, s)[2] for s in [DEFAULT_SEED] + seeds},
            "passes_per_run": [len(r["samples"]["wall_s"]) for r in runs[name]],
            "end_to_end": {m["name"]: _stats([r["median"][m["name"]] for r in runs[name]],
                                             m["bound"])
                           for m in bench["end_to_end"]},
            "fail_frac": [r["fail_frac"] for r in runs[name]],
            "oracle_mismatch_frac": [r["oracle_mismatch_frac"] for r in runs[name]],
            "correct": all(r["correct"] for r in runs[name]),
            "per_layer_at_default_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        out["workloads"][name] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, record in out["workloads"].items():
        for metric, st in record["end_to_end"].items():
            print(f"{name:20s} {metric:12s} median {st['median']:.6g} spread {st['spread']:.4f} "
                  f"bound {st['bound']} {'steady' if st['steady'] else 'NOT steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
