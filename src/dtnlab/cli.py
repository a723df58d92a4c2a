"""Command-line entry point.

Subcommands:
  validate     check the exact boundary-triple identities on random draws
  classify     sweep the configured window and emit report/CSV/plot data
  oracle       dump the oracle eigendecomposition
  measures     Stone projections, measure supports, simplicity rank
  convergence  h- and L-refinement study of the half-line m-function

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .classify import window_grid
from .config import RunConfig, parse_config
from .domain import (HalfLine1D, assemble_operator, build_domain, halfline_root,
                     oracle_eigendecomposition, zero_potential)
from .dtn import dtn_matrix, identity_suite
from .errors import ConfigError, DtnLabError
from .limits import EtaSchedule
from .measures import (
    ac_sc_supports,
    simplicity_rank,
    spectral_measure,
    stone_projection,
)
from .report import (
    build_model,
    emit_csv,
    emit_plot_data,
    emit_report,
    run_sweep,
    write_json,
)

__all__ = ["main"]


# validate makes this many identity draws; a draw whose z lie too close to the
# spectrum raises and is redrawn, up to ten tries per draw in all
_DRAWS = 20
_TRIES = 10 * _DRAWS
# |Im z| of a draw is drawn from _HEIGHTS and scaled so that the lowest is
# certified off the spectrum (DirichletOperator.certified): on a fine grid the
# NearSpectrum threshold, which grows as 1/h^2, lies above the whole range
_HEIGHTS = (0.2, 2)


def _cmd_validate(cfg: RunConfig, out_dir: str, seed: int) -> int:
    _, op = build_model(cfg)
    rng = np.random.default_rng(seed)
    scale = max(1.0, op.certified_height / _HEIGHTS[0])
    worst = 0.0
    draws = []
    for _ in range(_TRIES):
        lam, zeta, nu = (complex(rng.uniform(-3, 3), rng.uniform(*_HEIGHTS) * scale * s)
                         for s in (1, 1, -1))
        try:
            rep = identity_suite(op, lam, zeta, nu)
        except DtnLabError:
            continue
        worst = max(worst, rep.max_residual)
        draws.append({"lam": [lam.real, lam.imag], "zeta": [zeta.real, zeta.imag],
                      "nu": [nu.real, nu.imag],
                      "residuals": {k: float(v) for k, v in rep.residuals.items()}})
        if len(draws) == _DRAWS:
            break
    write_json({"draws": draws, "max_residual": worst}, out_dir, "validate.json")
    if len(draws) < _DRAWS:
        print(f"numerical failure: gave up after {_TRIES} tries, {len(draws)} of {_DRAWS} "
              "draws succeeded", file=sys.stderr)
        return 2
    print(f"identity residual max over {_DRAWS} draws: {worst:.3e}")
    return 0 if worst <= 1e-10 else 2


def _cmd_classify(cfg: RunConfig, out_dir: str, seed: int) -> int:
    report = run_sweep(cfg)
    emit_report(report, out_dir)
    emit_csv(report, out_dir)
    emit_plot_data(report, out_dir)
    verdicts = [p["verdict"] for p in report.data["points"]]
    print(f"classified {len(verdicts)} grid points: "
          + ", ".join(f"{v}={verdicts.count(v)}" for v in sorted(set(verdicts))))
    for pur in report.data["purity"]:
        offending = ", ".join(f"{x:.6f}" for x in pur["offending_points"])
        detail = pur.get("reason") or offending and f"offending points {offending}"
        print(f"purity of {pur['window']}: {pur['verdict']}" + (detail and f", {detail}"))
    checks = report.data["oracle_crosscheck"]
    if isinstance(checks, dict):
        print(f"oracle cross-check {checks['verdict']}: {checks['reason']}")
    else:
        found = sum(c["detected"] for c in checks)
        invisible = sum(c["invisible"] and not c["detected"] for c in checks)
        print(f"oracle levels in the window: {len(checks)}; found {found}, "
              f"missed {len(checks) - found - invisible}, invisible from the boundary "
              f"{invisible}")
        for c in checks:
            if c["detected"] and c["visible_multiplicity"] != c["multiplicity"]:
                print(f"found level {c['lambda_oracle']:.6f}: multiplicity {c['multiplicity']}, "
                      f"visible from the boundary {c['visible_multiplicity']}")
    return 0


def _cmd_oracle(cfg: RunConfig, out_dir: str, seed: int) -> int:
    _, op = build_model(cfg)
    eig = oracle_eigendecomposition(op)
    data = {"eigenvalues": [float(v) for v in eig.values],
            "degeneracy_tol": float(eig.degeneracy_tol)}
    path = write_json(data, out_dir, "oracle.json")
    print(f"wrote {len(eig.values)} eigenvalues to {path}")
    return 0


def _cmd_measures(cfg: RunConfig, out_dir: str, seed: int) -> int:
    dom, op = build_model(cfg)
    eig = oracle_eigendecomposition(op)
    out = {}

    stones = []
    for a, b in cfg.measures["stone_intervals"]:
        res = stone_projection(op, a, b, eig)
        stones.append({"interval": [a, b],
                       "extrapolation_error": res.extrapolation_error,
                       "panels": res.panels})
    out["stone"] = stones

    u = np.zeros(dom.n_interior)
    u[0] = 1.0
    mu = spectral_measure(op, eig, u)
    sched = EtaSchedule(cfg.eta["eta0"])
    sup = ac_sc_supports(mu, sched, window_grid(cfg.window, cfg.grid_step))
    out["supports"] = {
        "atoms": [[float(a), float(w)] for a, w in zip(mu.atoms, mu.weights)],
        "ac_set": [[lo, hi] for lo, hi in sup.ac_set.intervals],
        "sc_set": [[lo, hi] for lo, hi in sup.sc_set.intervals],
    }

    zetas = [complex(re, im) for re, im in cfg.measures["zeta_samples"]]
    sr = simplicity_rank(op, zetas)
    out["simplicity"] = {"rank": sr.rank, "interior_dim": sr.interior_dim,
                         "full": sr.full}
    path = write_json(out, out_dir, "measures.json")
    print(f"wrote {path}")
    return 0


def _free_halfline_m(x: float, eta: float, h: float) -> complex:
    """Exact discrete half-line m-function: (1 - r)/h with r + 1/r = 2 - h^2 lam, |r| <= 1."""
    return complex(1 - halfline_root(complex(x, eta), h)) / h


def _cmd_convergence(cfg: RunConfig, out_dir: str, seed: int) -> int:
    conv = cfg.convergence
    rows = []
    for h in conv["h_values"]:
        dom = build_domain(HalfLine1D(h=h, L=conv["L"]))
        op = assemble_operator(dom, zero_potential(dom))
        for x in conv["x_values"]:
            lam = complex(x, conv["eta"])
            m = dtn_matrix(op, lam)[0, 0]
            m_oracle = _free_halfline_m(x, conv["eta"], h)
            rows.append({
                "h": h, "x": x, "eta": conv["eta"],
                "m": [m.real, m.imag],
                "err_vs_continuum": float(abs(m - np.sqrt(-lam))),
                "err_vs_discrete_oracle": float(abs(m - m_oracle)),
            })
    write_json({"rows": rows}, out_dir, "convergence.json")
    for r in rows:
        print(f"h={r['h']:<8g} x={r['x']:<5g} |m - sqrt(-lam)|={r['err_vs_continuum']:.3e} "
              f"|m - m_h|={r['err_vs_discrete_oracle']:.3e}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "measures": _cmd_measures,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dtnlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="at least 1; no effect, the sweep runs on one thread")
    parser.add_argument("--seed", type=int, default=0, help="seed for random draws")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("threads must be at least 1")
            cfg = dataclasses.replace(cfg, threads=args.threads)
        out_dir = args.out if args.out is not None else cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return _COMMANDS[args.command](cfg, out_dir, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DtnLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
