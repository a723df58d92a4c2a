"""Workload definitions and seeded config generation.

Each workload is one dtnlab CLI command on one generated JSON config.  The
seed is passed on as ``--seed`` (``validate`` draws its identity triples from
it) and, on the workloads that allow it, shifts the sampled window by a small
seeded fraction of one grid step.  It never changes a model, a window length
or a grid step, so every seed does the same kind and amount of work.  Seed 0
is the unshifted reference.

This module imports nothing outside the standard library: the benchmark's
parent process uses it before any child has imported numpy.
"""

from __future__ import annotations

import random

# Upper end of the seeded window shift, as a fraction of one grid step.  It is
# kept small so that a shift moves every grid point by less than the gap to the
# next oracle level and the verdicts, hence the work, stay those of seed 0.
MAX_SHIFT_FRACTION = 0.02

DEFAULT_SEED = 0

# Windows the seed leaves in place.  The annulus sweep's middle point 0.75 lies
# 7.9e-4 above the level 0.749213: there it is an eigenvalue verdict, but a
# shift up by 1e-4 already turns it into a false 'continuous' one, which drops
# the eigenvalue branch this workload is meant to run and adds 30-50% work.
# The validate window is never sampled.
UNSHIFTED = {"annulus2d-sweep", "annulus2d-validate"}

_WELL = {"kind": "well", "depth": 2.0, "width": 1.0}

# name -> (command, config at zero offset, reduced-size config for the smoke check)
WORKLOADS = {
    "well1d-sweep": (
        "classify",
        {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0}, "potential": _WELL,
         "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.05}},
        {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0}, "potential": _WELL,
         "window": {"lo": 0.3, "hi": 0.4, "grid_step": 0.05}},
    ),
    "annulus2d-sweep": (
        "classify",
        {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
         "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25}},
        {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5},
         "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.5}},
    ),
    "well1d-stone": (
        "measures",
        {"domain": {"kind": "halfline", "h": 0.1, "L": 20.0}, "potential": _WELL,
         "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.05},
         "measures": {"stone_intervals": [[0.05, 0.14]]}},
        {"domain": {"kind": "halfline", "h": 0.5, "L": 5.0}, "potential": _WELL,
         "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.25},
         "measures": {"stone_intervals": [[0.5, 1.5]]}},
    ),
    "annulus2d-validate": (
        "validate",
        {"domain": {"kind": "exterior2d", "h": 0.5, "a": 1.5, "L": 7.5},
         "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.25}},
        {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5},
         "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.25}},
    ),
}


# Oracle contradictions the classifier is known to make on the sweeps, at zero
# window offset: grid points with a false 'continuous' verdict, and oracle
# levels inside the window that no 'eigenvalue' verdict matches.  The well
# sweep detects none of its six levels (ROADMAP item 3, "CLI summary"); the
# false 'continuous' verdicts are ROADMAP item 4.  They are counted in
# oracle_mismatch_frac; any other contradiction makes a run incorrect.
# name -> (defects of the full config, defects of the reduced-size config)
_WELL_DEFECTS = {"continuous": (0.35, 0.55),
                 "missed_levels": (0.019519, 0.080892, 0.188820, 0.346166, 0.554152,
                                   0.813240)}
KNOWN_DEFECTS = {
    "well1d-sweep": (_WELL_DEFECTS, _WELL_DEFECTS),   # the reduced config is a sub-window
    "annulus2d-sweep": ({"continuous": (0.5, 1.0),
                         "missed_levels": (0.915290, 0.951083, 0.994689)},
                        {"continuous": (1.0,), "missed_levels": (0.929221,)}),
}
NO_DEFECTS = {"continuous": (), "missed_levels": ()}


def known_defects(name: str, seed: int, smoke: bool = False) -> dict:
    """Documented oracle contradictions; grid points shifted by the seed's offset."""
    full, reduced = KNOWN_DEFECTS.get(name, (NO_DEFECTS, NO_DEFECTS))
    defects = reduced if smoke else full
    offset = make_config(name, seed, smoke)[2]
    return {"continuous": [x + offset for x in defects["continuous"]],
            "missed_levels": list(defects["missed_levels"])}


def shift_fraction(name: str, seed: int) -> float:
    """Seeded window shift as a fraction of one grid step; 0 for seed 0."""
    if seed == 0 or name in UNSHIFTED:
        return 0.0
    return random.Random(seed).uniform(0.0, MAX_SHIFT_FRACTION)


def make_config(name: str, seed: int, smoke: bool = False):
    """(command, config dict, window offset) for one workload and seed."""
    command, full, reduced = WORKLOADS[name]
    cfg = {key: dict(value) for key, value in (reduced if smoke else full).items()}
    win = cfg["window"]
    offset = shift_fraction(name, seed) * win["grid_step"]
    win["lo"] += offset
    win["hi"] += offset
    cfg["threads"] = 1
    return command, cfg, offset


def expected_operations(command: str, cfg: dict) -> int:
    """Operations one pass attempts: grid points, Stone intervals or identity draws."""
    if command == "classify":
        win = cfg["window"]
        return int(round((win["hi"] - win["lo"]) / win["grid_step"])) + 1
    if command == "measures":
        return len(cfg["measures"]["stone_intervals"])
    return 20  # validate: the CLI draws a fixed number of identity triples
