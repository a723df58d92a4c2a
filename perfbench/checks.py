"""Oracle checks of one pass's outputs, run after the timed interval.

An operation is a grid point (classify), a Stone interval (measures) or an
identity draw (validate).  Each check returns how many operations were
attempted, how many failed, and how many contradict the eigendecomposition
oracle.  On a sweep, a contradiction is a 'continuous' verdict (a finite,
unfloored model has only eigenvalues and resolvent points), an 'eigenvalue'
verdict off every oracle level, or an oracle level inside the window that no
'eigenvalue' verdict matches within ``pole_match_radius``; a missed level is
charged to the grid point nearest to it.  Contradictions are split in two
kinds:

* ``known``: the false 'continuous' verdicts and missed levels documented in
  ``workloads.KNOWN_DEFECTS``, standing defects of the classifier that the
  benchmark reports as ``oracle_mismatch_frac`` rather than hides.
* ``wrong``: every other contradiction (an undocumented 'continuous' verdict
  or missed level, an eigenvalue off every oracle level, a Stone projector
  off the oracle projector, a non-empty AC/SC set for an atomic measure, an
  identity residual above its bound).  Any of these makes the run incorrect.
"""

from __future__ import annotations

import json
import os

import numpy as np

from dtnlab.config import parse_config
from dtnlab.domain import oracle_eigendecomposition, oracle_projector
from dtnlab.report import build_model

EIGENVALUE_TOL = 1e-6      # |refined_lambda - nearest oracle level|
STONE_DEFECT_TOL = 1e-3    # acceptance criterion 8
IDENTITY_TOL = 1e-10       # the exact boundary-triple identities
DOCUMENTED_X_TOL = 1e-6    # grid point vs a documented false-'continuous' point
DOCUMENTED_LEVEL_TOL = 1e-5  # oracle level vs a documented missed level

OUTPUT_FILE = {"classify": "report.json", "measures": "measures.json",
               "validate": "validate.json"}


def _result(attempted, failed=0, known=0, wrong=0, **detail):
    return {"attempted": attempted, "failed": failed, "known": known,
            "wrong": wrong, "detail": detail}


def _load(out_dir, command):
    path = os.path.join(out_dir, OUTPUT_FILE[command])
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _documented(value, documented, tol):
    return any(abs(value - d) <= tol for d in documented)


def check_classify(cfg_path, out_dir, attempted, known_defects):
    data = _load(out_dir, "classify")
    points = data["points"]
    if len(points) != attempted:
        return _result(attempted, failed=attempted, reason="incomplete report")
    cfg = parse_config(cfg_path)
    radius = cfg.classify_config().pole_match_radius
    _, op = build_model(cfg)
    levels = oracle_eigendecomposition(op).values
    xs = np.array([p["x"] for p in points])
    failed = 0
    known, wrong = set(), set()      # indices of contradicting points
    for i, p in enumerate(points):
        verdict = p["verdict"]
        if verdict == "inconclusive":
            failed += 1
        elif verdict == "continuous":
            documented = _documented(p["x"], known_defects["continuous"], DOCUMENTED_X_TOL)
            (known if documented else wrong).add(i)
        elif verdict == "eigenvalue":
            lam = p["refined_lambda"]
            if lam is None or np.min(np.abs(levels - lam)) > EIGENVALUE_TOL:
                wrong.add(i)
    detected = [p["refined_lambda"] for p in points
                if p["verdict"] == "eigenvalue" and p["refined_lambda"] is not None]
    lo, hi = data["window"]
    missed = []
    for lam in levels:
        if not lo < lam < hi or any(abs(d - lam) <= radius for d in detected):
            continue
        missed.append(float(lam))
        nearest = int(np.argmin(np.abs(xs - lam)))
        documented = _documented(lam, known_defects["missed_levels"], DOCUMENTED_LEVEL_TOL)
        (known if documented else wrong).add(nearest)
    known -= wrong
    return _result(attempted, failed, len(known), len(wrong),
                   verdicts=[p["verdict"] for p in points], missed_levels=missed)

def check_measures(cfg_path, out_dir, attempted, stones):
    data = _load(out_dir, "measures")
    if len(stones) != attempted or len(data["stone"]) != attempted:
        return _result(attempted, failed=attempted, reason="missing Stone results")
    _, op = build_model(parse_config(cfg_path))
    eig = oracle_eigendecomposition(op)
    supports = data["supports"]
    atomic_ok = not supports["ac_set"] and not supports["sc_set"]
    wrong = 0
    defects = []
    for res in stones:
        a, b = res.interval
        defect = float(np.max(np.abs(res.projector - oracle_projector(eig, a, b))))
        defects.append(defect)
        if defect > STONE_DEFECT_TOL or not atomic_ok:
            wrong += 1
    return _result(attempted, wrong=wrong, stone_defect=defects, atomic_supports_empty=atomic_ok)


def check_validate(out_dir, attempted):
    data = _load(out_dir, "validate")
    draws = data["draws"]
    if len(draws) != attempted:
        return _result(attempted, failed=attempted, reason="wrong number of draws")
    wrong = sum(max(d["residuals"].values()) > IDENTITY_TOL for d in draws)
    return _result(attempted, wrong=wrong, max_residual=data["max_residual"])


def check_pass(command, cfg_path, out_dir, attempted, exit_code, stones, known_defects):
    """Attempted/failed/contradicting operations of one pass."""
    if exit_code != 0:
        return _result(attempted, failed=attempted, reason=f"exit code {exit_code}")
    try:
        if command == "classify":
            return check_classify(cfg_path, out_dir, attempted, known_defects)
        if command == "measures":
            return check_measures(cfg_path, out_dir, attempted, stones)
        return check_validate(out_dir, attempted)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _result(attempted, failed=attempted, reason=f"unreadable output: {exc!r}")
