"""The passes of one benchmark run, in one fresh process.

Usage: python3 perfbench/passrun.py SPEC.json

The spec names the checkout root, the dtnlab command, the generated config,
the work directory, the seed, the deadline, whether to trace, the documented
oracle contradictions, and where to write the result.  After the imports the
process runs the CLI command in-process pass after pass, each timed from
config parse to output files written: at least two passes, then more until the
next pass would end past the deadline.  It times ``parse_config`` +
``build_model`` in short batches before every untraced pass and after the
last one (the set-up batches), so that they come from several moments of the
run.  The resident set is read after the imports and at the end of the first
pass, before its oracle check, while the process is still fresh.  With
tracing on, one traced pass follows.  The oracle checks of each pass run
outside its timed interval.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

MIN_PASSES = 2             # so that every run checks determinism across passes
SETUP_BATCHES = 5          # per moment: before each untraced pass and after the last
SETUP_REPS = 5             # set-ups per batch
SETUP_GAP_S = 0.05         # pause between batches


def _import_dtnlab(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dtnlab
    import dtnlab.cli  # noqa: F401  (imports every module a pass runs)

    if not os.path.abspath(dtnlab.__file__).startswith(src + os.sep):
        raise ImportError(f"dtnlab imported from {dtnlab.__file__}, not from {src}")


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_batches(cfg_path):
    """SETUP_BATCHES batches of SETUP_REPS set-up times, SETUP_GAP_S apart."""
    from dtnlab.config import parse_config
    from dtnlab.report import build_model

    batches = []
    for _ in range(SETUP_BATCHES):
        batch = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            build_model(parse_config(cfg_path))
            batch.append(time.perf_counter() - t0)
        batches.append(batch)
        time.sleep(SETUP_GAP_S)
    return batches


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _one_pass(spec, index, tracer=None):
    from dtnlab import cli

    import checks
    import spans

    out = os.path.join(spec["work"], f"pass{index}")
    patches = spans.Patches()
    stones = []
    spans.capture_stone_results(patches, stones)
    if tracer is not None:
        tracer.install(patches)
    argv = [spec["command"], "--config", spec["config"], "--out", out,
            "--threads", "1", "--seed", str(spec["seed"])]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        exit_code = cli.main(argv)
    except Exception:  # the pass reports the crash as failed operations
        traceback.print_exc()
        exit_code = 3
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    max_rss = _max_rss_mb()
    patches.restore()
    result = checks.check_pass(spec["command"], spec["config"], out, spec["attempted"],
                               exit_code, stones, spec["known_defects"])
    result.update(exit_code=exit_code, wall_s=wall, cpu_s=cpu, max_rss_mb=max_rss,
                  trace=tracer is not None,
                  digest=_digest(os.path.join(out, checks.OUTPUT_FILE[spec["command"]])))
    return result


def run(spec):
    _import_dtnlab(spec["root"])
    import spans

    out = {"import_rss_mb": _max_rss_mb(), "setup_batches": [], "passes": []}
    while True:
        out["setup_batches"] += _setup_batches(spec["config"])
        last = _one_pass(spec, len(out["passes"]))
        out["passes"].append(last)
        if last["exit_code"] != 0:
            break
        if (len(out["passes"]) >= MIN_PASSES
                and time.monotonic() + last["wall_s"] > spec["deadline"]):
            break
    out["peak_rss_mb"] = out["passes"][0]["max_rss_mb"]
    out["setup_batches"] += _setup_batches(spec["config"])
    if spec["trace"]:
        tracer = spans.Tracer()
        out["passes"].append(_one_pass(spec, len(out["passes"]), tracer))
        out["per_layer"] = tracer.per_layer()
        tracer.write(os.path.join(spec["work"], "spans.json"))
    return out


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
