"""Run configuration: JSON schema, validation, and defaults.

A config file is a JSON object with the sections below (all optional unless
noted; unknown keys anywhere are rejected with a suggestion):

    {
      "domain":    {"kind": "halfline", "h": 1.0, "L": 3.0},        # required
                   # or {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5}
      "potential": {"kind": "zero"},
                   # or {"kind": "well", "depth": 2.0, "width": 1.0}
                   # or {"kind": "tabulated", "interior_values": [...],
                   #     "boundary_values": [...]}
      "window":    {"lo": 0.0, "hi": 4.0, "grid_step": 0.1},        # required
      "eta":       {"eta0": 0.01, "ratio": 0.5, "count": 8,
                    "floor_mode": "none", "floor_const": 0.0, "floor_factor": 5.0},
      "probes":    {"kind": "basis"},   # or {"kind": "random", "count": 4, "seed": 0}
      "thresholds": {"tau_eig": 1e-6, "tau_ac": 1e-6, "null_fraction": 0.01,
                     "fit_tol": 1e-5, "pole_match_radius": null,
                     "window_half_width": null},
      "measures":  {"stone_intervals": [[0.5, 1.5]], "zeta_samples": [[0.0, 1.0]]},
      "convergence": {"x_values": [0.5, 1.0, 2.0], "eta": 0.1,
                      "h_values": [0.01, 0.005], "L": 200.0},
      "output_dir": ".",
      "threads": 1
    }

Null thresholds are derived from the grid step (pole_match_radius = step / 2,
window_half_width = step).
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, field

from .classify import ClassifyConfig
from .domain import Exterior2D, HalfLine1D, build_domain
from .errors import ConfigError, DomainError

__all__ = ["RunConfig", "parse_config", "config_from_dict"]

SCHEMA_TAG = "dtnlab-report-v1"

_SECTIONS = {
    "domain", "potential", "window", "eta", "probes", "thresholds",
    "measures", "convergence", "output_dir", "threads",
}
_KEYS = {
    "domain": {"kind", "h", "L", "a"},
    "potential": {"kind", "depth", "width", "interior_values", "boundary_values"},
    "window": {"lo", "hi", "grid_step"},
    "eta": {"eta0", "ratio", "count", "floor_mode", "floor_const", "floor_factor"},
    "probes": {"kind", "count", "seed"},
    "thresholds": {"tau_eig", "tau_ac", "null_fraction", "fit_tol",
                   "pole_match_radius", "window_half_width"},
    "measures": {"stone_intervals", "zeta_samples"},
    "convergence": {"x_values", "eta", "h_values", "L"},
}


def _reject_unknown(given, allowed, where):
    for key in given:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key {key!r} in {where}{suggestion}")


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A finite JSON number (the parser accepts NaN and Infinity)."""
    return isinstance(value, (int, float)) and math.isfinite(value)


def _require_numbers(section, values, keys):
    for key in keys:
        _require(_is_number(values[key]), f"{section}.{key} must be a finite number")


def _domain_spec(d):
    if d["kind"] == "halfline":
        return HalfLine1D(h=d["h"], L=d["L"])
    return Exterior2D(h=d["h"], a=d["a"], L=d["L"])


def _check_tabulated(pot, dom):
    """Tabulated values: finite numbers, one per interior and per boundary node."""
    for key in ("interior_values", "boundary_values"):
        _require(isinstance(pot.get(key), list) and all(map(_is_number, pot[key])),
                 f"potential.{key} must be a list of finite numbers")
    try:
        nodes = build_domain(_domain_spec(dom))
    except DomainError:
        return  # the geometry error is reported when the model is built
    for key, count in (("interior_values", nodes.n_interior),
                       ("boundary_values", nodes.n_boundary)):
        _require(len(pot[key]) == count,
                 f"potential.{key} has {len(pot[key])} entries for {count} nodes")


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted run configuration."""

    domain: dict
    potential: dict
    window: tuple
    grid_step: float
    eta: dict
    probes: dict
    thresholds: dict
    measures: dict
    convergence: dict
    output_dir: str
    threads: int
    raw: dict = field(repr=False)

    def domain_spec(self):
        return _domain_spec(self.domain)

    def classify_config(self) -> ClassifyConfig:
        t = self.thresholds
        e = self.eta
        pole_radius = t["pole_match_radius"]
        if pole_radius is None:
            pole_radius = self.grid_step / 2
        half_width = t["window_half_width"]
        if half_width is None:
            half_width = self.grid_step
        return ClassifyConfig(
            eta0=e["eta0"], eta_ratio=e["ratio"], eta_count=e["count"],
            floor_mode=e["floor_mode"], floor_const=e["floor_const"],
            floor_factor=e["floor_factor"],
            halfline_length=self.domain.get("L", 0.0),
            tau_eig_rel=t["tau_eig"], tau_ac=t["tau_ac"],
            null_fraction=t["null_fraction"], fit_tol=t["fit_tol"],
            pole_match_radius=pole_radius, window_half_width=half_width,
        )


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, _SECTIONS, "config root")
    for section, allowed in _KEYS.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            _reject_unknown(data[section], allowed, f"section {section!r}")

    _require("domain" in data, "missing required section 'domain'")
    _require("window" in data, "missing required section 'window'")

    dom = dict(data["domain"])
    kind = dom.get("kind")
    _require(kind in ("halfline", "exterior2d"),
             "domain.kind must be 'halfline' or 'exterior2d'")
    _require(_is_number(dom.get("h")) and dom["h"] > 0, "domain.h must be positive")
    _require(_is_number(dom.get("L")) and dom["L"] > 0, "domain.L must be positive")
    if kind == "exterior2d":
        _require(_is_number(dom.get("a")) and dom["a"] > 0,
                 "domain.a must be positive")

    pot = dict(data.get("potential", {"kind": "zero"}))
    pot.setdefault("kind", "zero")
    _require(pot["kind"] in ("zero", "well", "tabulated"),
             "potential.kind must be 'zero', 'well' or 'tabulated'")
    if pot["kind"] == "well":
        _require(_is_number(pot.get("depth")), "potential.depth must be a number")
        _require(_is_number(pot.get("width")) and pot["width"] > 0,
                 "potential.width must be positive")
    if pot["kind"] == "tabulated":
        _check_tabulated(pot, dom)

    win = data["window"]
    _require(_is_number(win.get("lo")) and _is_number(win.get("hi")) and win["lo"] < win["hi"],
             "window.lo must be < window.hi")
    _require(_is_number(win.get("grid_step")) and win["grid_step"] > 0,
             "window.grid_step must be positive")

    eta = {"eta0": 0.01, "ratio": 0.5, "count": 8,
           "floor_mode": "none", "floor_const": 0.0, "floor_factor": 5.0}
    eta.update(data.get("eta", {}))
    _require_numbers("eta", eta, ("eta0", "ratio", "count", "floor_const", "floor_factor"))
    _require(eta["eta0"] > 0, "eta.eta0 must be positive")
    _require(0 < eta["ratio"] < 1, "eta.ratio must lie in (0, 1)")
    _require(int(eta["count"]) >= 3, "eta.count must be at least 3")
    eta["count"] = int(eta["count"])
    _require(eta["floor_mode"] in ("none", "constant", "halfline_auto"),
             "eta.floor_mode must be 'none', 'constant' or 'halfline_auto'")
    _require(eta["floor_const"] >= 0, "eta.floor_const must be nonnegative")
    _require(eta["floor_factor"] > 0, "eta.floor_factor must be positive")

    probes = {"kind": "basis", "count": 1, "seed": 0}
    probes.update(data.get("probes", {}))
    _require(probes["kind"] in ("basis", "random"),
             "probes.kind must be 'basis' or 'random'")
    probes["count"] = int(probes["count"])
    probes["seed"] = int(probes["seed"])
    _require(probes["count"] >= 1, "probes.count must be at least 1")

    thr = {"tau_eig": 1e-6, "tau_ac": 1e-6, "null_fraction": 0.01,
           "fit_tol": 1e-5, "pole_match_radius": None, "window_half_width": None}
    thr.update(data.get("thresholds", {}))
    _require_numbers("thresholds", thr, ("tau_eig", "tau_ac", "null_fraction", "fit_tol"))
    _require(thr["tau_eig"] > 0, "thresholds.tau_eig must be positive")
    _require(thr["tau_ac"] > 0, "thresholds.tau_ac must be positive")
    _require(0 <= thr["null_fraction"] < 1,
             "thresholds.null_fraction must lie in [0, 1)")
    for key in ("pole_match_radius", "window_half_width"):
        if thr[key] is not None:
            _require_numbers("thresholds", thr, (key,))
            _require(thr[key] > 0, f"thresholds.{key} must be positive")

    meas = {"stone_intervals": [], "zeta_samples": [[0.0, 1.0], [0.0, 2.0]]}
    meas.update(data.get("measures", {}))
    conv = {"x_values": [0.5, 1.0, 2.0], "eta": 0.1,
            "h_values": [0.01, 0.005], "L": 200.0}
    conv.update(data.get("convergence", {}))

    threads = int(data.get("threads", 1))
    _require(threads >= 1, "threads must be at least 1")

    return RunConfig(
        domain=dom, potential=pot, window=(float(win["lo"]), float(win["hi"])),
        grid_step=float(win["grid_step"]), eta=eta, probes=probes,
        thresholds=thr, measures=meas, convergence=conv,
        output_dir=str(data.get("output_dir", ".")), threads=threads,
        raw=data,
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    return config_from_dict(data)
