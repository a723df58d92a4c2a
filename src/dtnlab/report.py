"""Sweep orchestration and bit-stable serialization of reports and plot data.

sweep_window runs the level stage, then classify_point over the grid, then the
AC stage, each once, and each stage enters its certified z in one fill;
a point or stage that raises a DtnLabError keeps it as its result (an
'inconclusive' report entry), and sc_screen and purity_filter decide from
those results without evaluating M.

The sweep runs on one thread in grid order (the "threads" setting has no
effect).  The JSON report is emitted with sorted keys and shortest round-trip
float representation (Python's repr), so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .classify import (
    ac_support,
    classify_point,
    in_window,
    level_tolerance,
    make_probes,
    purity_filter,
    sc_screen,
    visible_multiplicity,
    window_grid,
    window_levels,
    window_slack,
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
from .dtn import dtn_matrices
from .errors import DtnLabError, attempt
from .limits import profile_nodes

__all__ = [
    "ClassificationReport",
    "WindowSweep",
    "build_model",
    "sweep_window",
    "run_sweep",
    "emit_report",
    "write_json",
    "parse_report",
    "emit_csv",
    "emit_plot_data",
]

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
        q = tabulated_potential(dom, pot["interior_values"])
    return dom, assemble_operator(dom, q)


@dataclass(frozen=True)
class ClassificationReport:
    """Serializable sweep outcome: a plain dict plus the raw CSV sample rows."""

    data: dict
    samples: tuple   # rows (x, eta, probe_id, re_Mgg, im_Mgg, abs_etaMg, verdict)


@dataclass(frozen=True)
class WindowSweep:
    """(x, classify_point's verdict) per grid point, then the window stages'
    results; a failed point or stage holds the DtnLabError it raised."""

    points: tuple
    levels: object
    ac_support: object
    sc_screen: object
    purity: object


def sweep_window(op, window, probes, ccfg, step) -> WindowSweep:
    """The window's levels, every grid point, the AC stage, then the SC screen of its pass.

    Once the levels are known, classify_point classifies the whole grid in one
    pass, which enters the certified z of every point's eta profile and
    analyticity window in one fill; the AC stage reads the same eta profiles.
    """
    levels = attempt(window_levels, op, window, probes, ccfg)
    xs = window_grid(window, step)
    points = tuple(zip(xs, classify_point(op, xs, ccfg, probes, levels)))
    acs = attempt(ac_support, op, window, probes, ccfg, step)
    scr = attempt(sc_screen, acs)
    return WindowSweep(points, levels, acs, scr,
                       attempt(purity_filter, window, points, levels, acs, scr, ccfg))


def _sample_rows(op, xs, probes, ccfg, verdicts):
    """CSV rows of the grid points xs: (M g, g) and |eta M g| along each one's schedule as
    far as it reached, from one dtn_matrices block per run of points sharing a schedule."""
    dom = op.domain
    probes = np.asarray(probes, dtype=complex)
    rows = []
    for sched, run in ccfg.schedule_runs(xs):
        etas = sched.samples()
        m, lengths, _ = dtn_matrices(op, profile_nodes(xs[run], sched))
        mg = (m @ probes[:, None, None, :, None])[..., 0]        # (probe, x, eta, n_B)
        q = dom.boundary_inner(mg, probes[:, None, None, :])
        slim = etas * dom.boundary_norm(mg)
        rows += [(float(xs[j]), float(eta), pid, float(qk.real), float(qk.imag), float(sk),
                  verdicts[j])
                 for i, j in enumerate(run) for pid in range(len(probes))
                 for eta, qk, sk in zip(etas[:lengths[i]], q[pid, i], slim[pid, i])]
    return rows


def _point_json(v):
    return {"verdict": v.verdict, "refined_lambda": v.refined_lambda,
            "multiplicity": v.multiplicity,
            "slim_rel": [float(r) for r in v.evidence["slim_rel"]],
            "decay_exponent": [None if np.isnan(s) else float(s)
                               for s in v.evidence["decay_exponent"]]}


def _levels_json(window):
    return lambda levels: [{"lambda": level.pole, "multiplicity": level.rank}
                           for level in levels if in_window(window, level.pole)]


def _gridset_json(s):
    return [[lo, hi] for lo, hi in s.intervals]


def _ac_json(acs):
    return {"closed_union": _gridset_json(acs.closed_union),
            "per_probe": [_gridset_json(s) for s in acs.per_probe_closed],
            "ac_free": acs.closed_union.is_empty}


def _sc_json(scr):
    return {"flagged": _gridset_json(scr.flagged_set), "excluded": scr.excluded,
            "caveat": scr.caveat}


def _purity_json(pur):
    return {"verdict": pur.verdict, "offending_points": list(pur.offending_points)}


def _stage_json(result, to_json):
    """Report entry of one grid point or window stage; a numerical failure stays in it."""
    if isinstance(result, DtnLabError):
        return {"verdict": INCONCLUSIVE, "reason": str(result)}
    return to_json(result)


def run_sweep(cfg: RunConfig) -> ClassificationReport:
    """Classify the whole window and assemble the report.

    Failures become 'inconclusive' entries, per grid point and per window
    stage; the sweep never aborts on one of them.
    """
    dom, op = build_model(cfg)
    ccfg = cfg.classify_config()
    probes = make_probes(dom, cfg.probes["kind"], cfg.probes["count"],
                         cfg.probes["seed"])
    lo, hi = cfg.window
    sweep = sweep_window(op, cfg.window, probes, ccfg, cfg.grid_step)
    points = [{"x": float(x), "refined_lambda": None, "multiplicity": 0,
               **_stage_json(v, _point_json)} for x, v in sweep.points]
    samples = tuple(_sample_rows(op, window_grid(cfg.window, cfg.grid_step), probes, ccfg,
                                 [p["verdict"] for p in points]))

    data_levels = _stage_json(sweep.levels, _levels_json(cfg.window))
    reason = None
    if hi > ccfg.level_edge:
        reason = "a floored eta schedule does not resolve levels"
    elif isinstance(sweep.levels, DtnLabError):
        reason = f"the level stage was inconclusive: {sweep.levels}"
    if reason:
        crosscheck = {"verdict": "skipped", "reason": reason}
    else:
        # the oracle on the stage's reach, where its levels are all the levels
        # of M, widened to hold every level in_window admits and every oracle
        # level within level_tolerance of a stage level
        tol = level_tolerance(op)
        pad = tol + window_slack(cfg.window)
        reach = sweep.levels.reach
        eig = oracle_eigendecomposition(op, (reach[0] - pad, reach[1] + pad))
        levels = eig.values[[g[0] for g in eig.groups]]
        # each level of the stage, in the window or beside it, is credited to its
        # nearest oracle level only, and only within the stage's accuracy
        credited = {}
        for lam_d in (level.pole for level in sweep.levels):
            gaps = np.abs(levels - lam_d)
            if np.any(gaps <= tol):
                credited.setdefault(int(np.argmin(gaps)), lam_d)
        visible = visible_multiplicity(dom, eig)
        crosscheck = [{"lambda_oracle": float(lam), "multiplicity": len(eig.groups[k]),
                       "visible_multiplicity": visible[k], "invisible": visible[k] == 0,
                       "detected": k in credited, "lambda_detected": credited.get(k)}
                      for k, lam in enumerate(levels) if in_window(cfg.window, lam)]

    data = {
        "schema": SCHEMA_TAG,
        "config": cfg.raw,
        "window": [lo, hi],
        "grid_step": cfg.grid_step,
        "points": points,
        "levels": data_levels,
        "ac_support": _stage_json(sweep.ac_support, _ac_json),
        "sc_screen": _stage_json(sweep.sc_screen, _sc_json),
        "purity": [{"window": [lo, hi], "offending_points": [],
                    **_stage_json(sweep.purity, _purity_json)}],
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


def _write_text(path: str, text: str) -> str:
    """Write text to path in one piece, as UTF-8; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_json(data, out_dir: str, name: str) -> str:
    """Write data to out_dir/name as every JSON output file is written: sorted
    keys, indent 1, UTF-8 text and a trailing newline, encoded whole and
    written once; returns the path."""
    text = json.dumps(data, sort_keys=True, indent=1, ensure_ascii=False, default=_json_default)
    return _write_text(os.path.join(out_dir, name), text + "\n")


def emit_report(report: ClassificationReport, out_dir: str) -> str:
    return write_json(report.data, out_dir, "report.json")


def parse_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def emit_csv(report: ClassificationReport, out_dir: str) -> str:
    rows = [f"{x!r},{eta!r},{pid},{re_q!r},{im_q!r},{slim!r},{verdict}\n"
            for x, eta, pid, re_q, im_q, slim, verdict in report.samples]
    return _write_text(os.path.join(out_dir, "samples.csv"),
                       "x,eta,probe_id,re_Mgg,im_Mgg,abs_etaMg,verdict\n" + "".join(rows))


def emit_plot_data(report: ClassificationReport, out_dir: str):
    """Plain-text plot files: boundary density trace and the levels of the window."""
    by_key = {}
    for x, eta, pid, re_q, im_q, _, _ in report.samples:
        by_key.setdefault((x, pid), []).append((eta, im_q))
    density = ["# x  probe_id  neg_im_Mgg_at_smallest_eta\n"]
    for (x, pid) in sorted(by_key):
        eta, im_q = min(by_key[(x, pid)])
        density.append(f"{x!r} {pid} {-im_q!r}\n")
    density_path = _write_text(os.path.join(out_dir, "plot_density.dat"), "".join(density))

    levels = report.data["levels"]
    poles = ["# lambda  multiplicity\n"]
    poles += [f"{level['lambda']!r} {level['multiplicity']}\n"
              for level in (levels if isinstance(levels, list) else ())]
    poles_path = _write_text(os.path.join(out_dir, "plot_poles.dat"), "".join(poles))
    return density_path, poles_path
