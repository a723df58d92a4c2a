"""Sweep orchestration and bit-stable serialization of reports and plot data.

The JSON report is emitted with sorted keys and shortest round-trip float
representation (Python's repr), so identical runs produce byte-identical
files regardless of thread count; all numeric content is computed in a fixed
order and threads only change scheduling, never values.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import (
    EIGENVALUE,
    ac_support,
    classify_point,
    make_probes,
    purity_filter,
    sc_screen,
)
from .config import SCHEMA_TAG, RunConfig
from .domain import (
    assemble_operator,
    build_domain,
    oracle_eigendecomposition,
    tabulated_potential,
    well_potential,
    zero_potential,
)
from .errors import DtnLabError
from .limits import dtn_profile

__all__ = [
    "ClassificationReport",
    "build_model",
    "run_sweep",
    "emit_report",
    "parse_report",
    "emit_csv",
    "emit_plot_data",
]

_ORACLE_DIM_CAP = 2000  # skip the dense eigendecomposition above this size

INCONCLUSIVE = "inconclusive"


def build_model(cfg: RunConfig):
    """Materialize (domain, operator) from a run configuration."""
    dom = build_domain(cfg.domain_spec())
    pot = cfg.potential
    if pot["kind"] == "zero":
        q = zero_potential(dom)
    elif pot["kind"] == "well":
        q = well_potential(dom, depth=pot["depth"], width=pot["width"])
    else:
        q = tabulated_potential(dom, pot["interior_values"], pot["boundary_values"])
    return dom, assemble_operator(dom, q)


@dataclass(frozen=True)
class ClassificationReport:
    """Serializable sweep outcome: a plain dict plus the raw CSV sample rows."""

    data: dict
    samples: tuple   # rows (x, eta, probe_id, re_Mgg, im_Mgg, abs_etaMg, verdict)


def _point_entry(x, ccfg, op, probes):
    """Verdict entry and CSV rows for one grid point (thread worker)."""
    dom = op.domain
    try:
        v = classify_point(op, x, ccfg, probes)
        verdict = v.verdict
        entry = {
            "x": float(x),
            "verdict": verdict,
            "refined_lambda": v.refined_lambda,
            "multiplicity": v.multiplicity,
            "slim_rel": [float(r) for r in v.evidence.get("slim_rel", [])],
            "decay_exponent": [None if s is None else float(s)
                               for s in v.evidence.get("decay_exponent", [])],
        }
    except DtnLabError as exc:
        verdict = INCONCLUSIVE
        entry = {"x": float(x), "verdict": verdict, "refined_lambda": None,
                 "multiplicity": 0, "reason": str(exc)}

    rows = []
    sched = ccfg.schedule(x)
    for pid, g in enumerate(probes):
        try:
            etas, applied, _ = dtn_profile(op, x, np.asarray(g, complex), sched)
        except DtnLabError:
            continue
        for eta, mg in zip(etas, applied):
            q = dom.boundary_inner(mg, g)
            rows.append((float(x), float(eta), pid, float(q.real), float(q.imag),
                         float(eta * dom.boundary_norm(mg)), verdict))
    return entry, rows


def _gridset_json(s):
    return [[lo, hi] for lo, hi in s.intervals]


def run_sweep(cfg: RunConfig) -> ClassificationReport:
    """Classify the whole window and assemble the report.

    Per-point failures become 'inconclusive' entries; the sweep never aborts
    on a single point.  Thread count affects scheduling only.
    """
    dom, op = build_model(cfg)
    ccfg = cfg.classify_config()
    probes = make_probes(dom, cfg.probes["kind"], cfg.probes["count"],
                         cfg.probes["seed"])
    lo, hi = cfg.window
    n = int(round((hi - lo) / cfg.grid_step))
    xs = lo + cfg.grid_step * np.arange(n + 1)

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(lambda x: _point_entry(x, ccfg, op, probes), xs))
    points = [entry for entry, _ in results]
    samples = tuple(row for _, rows in results for row in rows)

    acs = ac_support(op, cfg.window, probes, ccfg, cfg.grid_step)
    scr = sc_screen(op, cfg.window, probes, ccfg, cfg.grid_step)
    pur = purity_filter(op, cfg.window, probes, ccfg, cfg.grid_step)

    crosscheck = []
    if dom.n_interior <= _ORACLE_DIM_CAP:
        eig = oracle_eigendecomposition(op)
        levels = np.array([eig.values[g[0]] for g in eig.groups])
        # each detected pole is credited to its nearest level only; the first
        # pole in grid order that a level gets is the one reported
        credited = {}
        for p in points:
            lam_d = p["refined_lambda"]
            if p["verdict"] != EIGENVALUE or lam_d is None:
                continue
            k = int(np.argmin(np.abs(levels - lam_d)))
            if abs(levels[k] - lam_d) <= ccfg.pole_match_radius:
                credited.setdefault(k, lam_d)
        for k, lam in enumerate(levels):
            if lo < lam < hi:
                crosscheck.append({
                    "lambda_oracle": float(lam),
                    "multiplicity": eig.multiplicity(float(lam)),
                    "detected": k in credited,
                    "lambda_detected": float(credited[k]) if k in credited else None,
                })

    data = {
        "schema": SCHEMA_TAG,
        "config": cfg.raw,
        "window": [lo, hi],
        "grid_step": cfg.grid_step,
        "points": points,
        "ac_support": {
            "closed_union": _gridset_json(acs.closed_union),
            "per_probe": [_gridset_json(s) for s in acs.per_probe_closed],
            "ac_free": acs.ac_free,
        },
        "sc_screen": {
            "flagged": _gridset_json(scr.flagged_set),
            "excluded": scr.excluded,
            "caveat": scr.caveat,
        },
        "purity": [{
            "window": list(pur.window),
            "verdict": pur.verdict,
            "offending_points": list(pur.offending_points),
        }],
        "oracle_crosscheck": crosscheck,
    }
    return ClassificationReport(data=data, samples=samples)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def emit_report(report: ClassificationReport, out_dir: str) -> str:
    path = os.path.join(out_dir, "report.json")
    text = json.dumps(report.data, sort_keys=True, indent=1,
                      ensure_ascii=False, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def parse_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def emit_csv(report: ClassificationReport, out_dir: str) -> str:
    path = os.path.join(out_dir, "samples.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,eta,probe_id,re_Mgg,im_Mgg,abs_etaMg,verdict\n")
        for x, eta, pid, re_q, im_q, slim, verdict in report.samples:
            fh.write(f"{x!r},{eta!r},{pid},{re_q!r},{im_q!r},{slim!r},{verdict}\n")
    return path


def emit_plot_data(report: ClassificationReport, out_dir: str):
    """Plain-text plot files: boundary density trace and pole markers."""
    density_path = os.path.join(out_dir, "plot_density.dat")
    by_key = {}
    for x, eta, pid, re_q, im_q, _, _ in report.samples:
        by_key.setdefault((x, pid), []).append((eta, im_q))
    with open(density_path, "w", encoding="utf-8") as fh:
        fh.write("# x  probe_id  neg_im_Mgg_at_smallest_eta\n")
        for (x, pid) in sorted(by_key):
            eta, im_q = min(by_key[(x, pid)])
            fh.write(f"{x!r} {pid} {-im_q!r}\n")

    poles_path = os.path.join(out_dir, "plot_poles.dat")
    with open(poles_path, "w", encoding="utf-8") as fh:
        fh.write("# refined_lambda  multiplicity\n")
        for p in report.data["points"]:
            if p["verdict"] == EIGENVALUE and p["refined_lambda"] is not None:
                fh.write(f"{p['refined_lambda']!r} {p['multiplicity']}\n")
    return density_path, poles_path
