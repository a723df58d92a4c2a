"""Seeded verdict audit: classify windows of random finite half-line models and
hold every verdict against the oracle.

A finite model has only eigenvalues and resolvent points, so on each draw:
no grid point reads `continuous`; no `eigenvalue` point lies farther than
pole_match_radius from a level that M can see (visible_multiplicity above 0); every
such level in the window is detected; and no window is PureAC or PureSC.  A
window whose level stage is inconclusive claims no level (its cross-check is
skipped), so only its points are held to the oracle there.  The draws are
made once, in order, from one seed, and each is one test.
"""

import numpy as np
import pytest

from dtnlab import config_from_dict
from dtnlab.classify import visible_multiplicity
from dtnlab.domain import oracle_eigendecomposition
from dtnlab.report import build_model, run_sweep

SEED, DRAWS = 1, 120


def _draw(rng) -> dict:
    """One half-line model and window; depth and width are drawn only for a well."""
    h = float(rng.choice([0.05, 0.1, 0.2, 0.5, 1.0]))
    L = float(np.round(rng.uniform(3, 25) / h) * h)
    well = not rng.random() < 0.3
    potential = {"kind": "zero"}
    if well:
        potential = {"kind": "well", "depth": float(np.round(rng.uniform(0.5, 10), 2)),
                     "width": float(np.round(rng.uniform(0.3, 3), 2))}
    step = float(rng.choice([0.05, 0.1, 0.25]))
    n = int(rng.integers(4, 16))
    lo = float(np.round(rng.uniform(-6 if well else 0, 6) / step) * step)
    return {"domain": {"kind": "halfline", "h": h, "L": L}, "potential": potential,
            "window": {"lo": lo, "hi": round(lo + n * step, 10), "grid_step": step},
            "eta": {"eta0": float(rng.choice([1e-2, 1e-3]))}}


_RNG = np.random.default_rng(SEED)
CASES = [_draw(_RNG) for _ in range(DRAWS)]

# draw 73 is a depth-7.24 well on (-2.75, 0.25) whose level stage returns one
# wrong level, 0.068758, for the three levels 0.020664, 0.082210 and 0.183310
# (ROADMAP item 12: a level stage that proves it found every pole)
_MISSES_LEVELS = {73}


@pytest.mark.parametrize("raw", [
    pytest.param(raw, id=f"seed{SEED}-draw{k:03d}",
                 marks=[pytest.mark.xfail(strict=True, reason="the level stage misses three "
                                          "levels of this well: ROADMAP item 12")]
                 if k in _MISSES_LEVELS else [])
    for k, raw in enumerate(CASES)])
def test_verdicts_agree_with_the_oracle(raw):
    cfg = config_from_dict(raw)
    data = run_sweep(cfg).data
    dom, op = build_model(cfg)
    eig = oracle_eigendecomposition(op)
    levels = eig.values[[g[0] for g in eig.groups]]
    visible = levels[np.array(visible_multiplicity(dom, eig)) > 0]
    radius = cfg.classify_config().pole_match_radius

    verdicts = {p["x"]: p["verdict"] for p in data["points"]}
    assert "continuous" not in verdicts.values(), verdicts
    for x, verdict in verdicts.items():
        if verdict == "eigenvalue":
            assert np.min(np.abs(visible - x), initial=np.inf) <= radius, (x, visible)
    checks = data["oracle_crosscheck"]
    if isinstance(checks, dict):
        assert data["levels"]["verdict"] == "inconclusive", checks
    else:
        missed = [c["lambda_oracle"] for c in checks if not (c["detected"] or c["invisible"])]
        assert not missed
    assert data["purity"][0]["verdict"] not in ("PureAC", "PureSC"), data["purity"]
