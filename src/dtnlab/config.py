"""Run configuration: JSON schema, validation, and defaults.

A config file is a JSON object with the sections below (all optional unless
noted; unknown keys anywhere are rejected with a suggestion):

    {
      "domain":    {"kind": "halfline", "h": 1.0, "L": 3.0},        # required
                   # or {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5}
      "potential": {"kind": "zero"},
                   # or {"kind": "well", "depth": 2.0, "width": 1.0}
                   # or {"kind": "tabulated", "interior_values": [...]}
      "window":    {"lo": 0.0, "hi": 4.0, "grid_step": 0.1},        # required
      "eta":       {"eta0": 0.01, "ratio": 0.5, "count": 8,
                    "floor_mode": "none", "floor_factor": 5.0},
                   # floor_mode "none" (a finite model) or "halfline_auto": eta
                   # floored at floor_factor x the level spacing 2 pi sqrt(x) / L
      "probes":    {"kind": "basis"},   # or {"kind": "random", "count": 4, "seed": 0}
      "thresholds": {"tau_eig": 1e-6, "tau_ac": 1e-6, "fit_tol": 1e-5,
                     "pole_match_radius": null, "window_half_width": null},
      "measures":  {"stone_intervals": [[0.5, 1.5]], "zeta_samples": [[0.0, 1.0]]},
      "convergence": {"x_values": [0.5, 1.0, 2.0], "eta": 0.1,
                      "h_values": [0.01, 0.005], "L": 200.0},
      "output_dir": ".",
      "threads": 1
    }

Null thresholds are derived from the grid step (pole_match_radius = step / 2,
window_half_width = step).  Stone intervals need lo < hi, one zeta sample must
be non-real, and the convergence h_values and L must be positive.  "threads"
must be at least 1 and has no effect: the sweep runs on one thread.  Numbers
must be finite JSON numbers (true and false are not numbers), and eta.count,
probes.count, probes.seed (at least 0) and threads integer-valued ones (3.0,
not 2.7).  Three work caps bound a run: eta.count is at most MAX_ETA_COUNT,
probes.count at most MAX_PROBES, and the window holds at most MAX_GRID_POINTS
grid points.
"""

from __future__ import annotations

import difflib
import json
import math
import sys
from dataclasses import dataclass, field

from .classify import ClassifyConfig
from .domain import Exterior2D, HalfLine1D, build_domain
from .errors import ConfigError, DomainError

__all__ = ["RunConfig", "parse_config", "config_from_dict", "MAX_ETA_COUNT", "MAX_GRID_POINTS",
           "MAX_PROBES"]

SCHEMA_TAG = "dtnlab-report-v1"

# Work caps, checked here so that a runaway config exits 1 instead of failing
# deep in the sweep.  An analyticity window holds 17 x eta.count DtN matrices
# at once, and 64 halvings of eta already span a factor 1e19; every grid point
# costs one classification of many M(z) evaluations per probe.
MAX_ETA_COUNT = 64
MAX_GRID_POINTS = 10_000
MAX_PROBES = 1000

_SECTIONS = {
    "domain", "potential", "window", "eta", "probes", "thresholds",
    "measures", "convergence", "output_dir", "threads",
}
_KEYS = {
    "domain": {"kind", "h", "L", "a"},
    "potential": {"kind", "depth", "width", "interior_values"},
    "window": {"lo", "hi", "grid_step"},
    "eta": {"eta0", "ratio", "count", "floor_mode", "floor_factor"},
    "probes": {"kind", "count", "seed"},
    "thresholds": {"tau_eig", "tau_ac", "fit_tol", "pole_match_radius", "window_half_width"},
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
    """A finite JSON number (the parser accepts NaN, Infinity and integers past
    the float range; bool is an int)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(value, lo, hi, name) -> int:
    """value as an int; ConfigError unless it is an integer-valued number in [lo, hi]."""
    _require(_is_number(value) and float(value).is_integer() and lo <= value <= hi,
             f"{name} must be an integer in [{lo}, {hi}]")
    return int(value)


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


def _require_numbers(section, values, keys):
    for key in keys:
        _require(_is_number(values[key]), f"{section}.{key} must be a finite number")


def _domain_spec(d):
    if d["kind"] == "halfline":
        return HalfLine1D(h=d["h"], L=d["L"])
    return Exterior2D(h=d["h"], a=d["a"], L=d["L"])


def _check_tabulated(pot, dom):
    """Tabulated values: finite numbers, one per interior node."""
    values = pot.get("interior_values")
    _require(isinstance(values, list) and all(map(_is_number, values)),
             "potential.interior_values must be a list of finite numbers")
    try:
        nodes = build_domain(_domain_spec(dom))
    except DomainError:
        return  # the geometry error is reported when the model is built
    _require(len(values) == nodes.n_interior,
             f"potential.interior_values has {len(values)} entries for {nodes.n_interior} nodes")


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
            floor_mode=e["floor_mode"], floor_factor=e["floor_factor"],
            halfline_length=self.domain.get("L", 0.0),
            tau_eig_rel=t["tau_eig"], tau_ac=t["tau_ac"], fit_tol=t["fit_tol"],
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
    # window_grid places round(steps) + 1 points
    steps = (win["hi"] - win["lo"]) / win["grid_step"]
    _require(steps < MAX_GRID_POINTS - 0.5,
             f"window.grid_step gives more than {MAX_GRID_POINTS} grid points")

    eta = {"eta0": 0.01, "ratio": 0.5, "count": 8,
           "floor_mode": "none", "floor_factor": 5.0}
    eta.update(data.get("eta", {}))
    _require_numbers("eta", eta, ("eta0", "ratio", "floor_factor"))
    _require(eta["eta0"] > 0, "eta.eta0 must be positive")
    _require(0 < eta["ratio"] < 1, "eta.ratio must lie in (0, 1)")
    eta["count"] = _integer(eta["count"], 3, MAX_ETA_COUNT, "eta.count")
    _require(eta["floor_mode"] in ("none", "halfline_auto"),
             "eta.floor_mode must be 'none' or 'halfline_auto'")
    _require(eta["floor_factor"] > 0, "eta.floor_factor must be positive")

    probes = {"kind": "basis", "count": 1, "seed": 0}
    probes.update(data.get("probes", {}))
    _require(probes["kind"] in ("basis", "random"),
             "probes.kind must be 'basis' or 'random'")
    probes["count"] = _integer(probes["count"], 1, MAX_PROBES, "probes.count")
    probes["seed"] = _integer(probes["seed"], 0, math.inf, "probes.seed")

    thr = {"tau_eig": 1e-6, "tau_ac": 1e-6, "fit_tol": 1e-5,
           "pole_match_radius": None, "window_half_width": None}
    thr.update(data.get("thresholds", {}))
    _require_numbers("thresholds", thr, ("tau_eig", "tau_ac", "fit_tol"))
    _require(thr["tau_eig"] > 0, "thresholds.tau_eig must be positive")
    _require(thr["tau_ac"] > 0, "thresholds.tau_ac must be positive")
    for key in ("pole_match_radius", "window_half_width"):
        if thr[key] is not None:
            _require_numbers("thresholds", thr, (key,))
            _require(thr[key] > 0, f"thresholds.{key} must be positive")

    meas = {"stone_intervals": [], "zeta_samples": [[0.0, 1.0], [0.0, 2.0]]}
    meas.update(data.get("measures", {}))
    intervals, zetas = meas["stone_intervals"], meas["zeta_samples"]
    _require(isinstance(intervals, list) and all(_is_pair(p) and p[0] < p[1] for p in intervals),
             "measures.stone_intervals must be [lo, hi] pairs of finite numbers, lo < hi")
    _require(isinstance(zetas, list) and all(map(_is_pair, zetas))
             and any(im != 0 for _, im in zetas),
             "measures.zeta_samples must be [re, im] pairs of finite numbers, one with im != 0")
    conv = {"x_values": [0.5, 1.0, 2.0], "eta": 0.1,
            "h_values": [0.01, 0.005], "L": 200.0}
    conv.update(data.get("convergence", {}))
    _require_numbers("convergence", conv, ("eta", "L"))
    _require(conv["L"] > 0, "convergence.L must be positive")
    _require(isinstance(conv["x_values"], list) and all(map(_is_number, conv["x_values"])),
             "convergence.x_values must be a list of finite numbers")
    _require(isinstance(conv["h_values"], list)
             and all(_is_number(h) and h > 0 for h in conv["h_values"]),
             "convergence.h_values must be a list of positive numbers")

    threads = _integer(data.get("threads", 1), 1, math.inf, "threads")

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
