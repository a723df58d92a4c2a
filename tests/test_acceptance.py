"""Acceptance gate: the eleven numbered criteria, one test (or param group) each.

Tolerances are pinned; nothing here is loosened to make a model pass.  Each
test prints a PASS/FAIL line with the measured quantity so the log doubles as
an acceptance protocol.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from dtnlab import (
    ClassifyConfig,
    EtaSchedule,
    HalfLine1D,
    SpectralMeasure,
    ac_sc_supports,
    ac_support,
    analyticity_test,
    assemble_operator,
    build_domain,
    classify_point,
    config_from_dict,
    dtn_matrix,
    eigenspace_via_tau,
    identity_suite,
    make_probes,
    oracle_eigendecomposition,
    oracle_projector,
    point_mass,
    poisson_solve,
    sc_screen,
    simplicity_rank,
    spectral_measure,
    stone_projection,
    sweep_window,
    zero_potential,
)
from dtnlab.cli import _free_halfline_m
from dtnlab.report import emit_csv, emit_report, parse_report, run_sweep

T1_CFG = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.2)
FREE_CFG = ClassifyConfig(eta0=0.4, floor_mode="halfline_auto", halfline_length=60.0,
                          window_half_width=0.1)


def _report(name, ok, detail):
    print(f"[criterion {name}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- 1. exact boundary-triple identities ------------------------------------

def test_criterion_01_identities(t1, annulus2d, rng):
    start = time.monotonic()
    worst = 0.0
    for _, op in (t1, annulus2d):
        n = 0
        while n < 20:
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
            zeta = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
            nu = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 2))
            rep = identity_suite(op, lam, zeta, nu)
            worst = max(worst, rep.max_residual)
            n += 1
    elapsed = time.monotonic() - start
    _report("1", worst <= 1e-10 and elapsed < 5.0,
            f"max residual {worst:.3e} over 2x20 draws in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


# -- 2. Herglotz sign law ----------------------------------------------------

def test_criterion_02_herglotz(t1, annulus2d, rng):
    worst = 0.0
    for dom, op in (t1, annulus2d):
        for _ in range(50):
            lam = complex(rng.uniform(-4, 4), rng.uniform(0.05, 2.5))
            g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
            lhs = dom.boundary_inner(dtn_matrix(op, lam) @ g, g).imag
            rhs = -lam.imag * dom.interior_norm(poisson_solve(op, lam, g)) ** 2
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    _report("2", worst <= 1e-10, f"max relative defect {worst:.3e} over 2x50 draws")
    assert worst <= 1e-10


# -- 3. eigenvalue recovery on the 1D well ----------------------------------

def test_criterion_03_well_eigenvalue_recovery(well1d):
    dom, op = well1d
    eig = oracle_eigendecomposition(op)
    below = [float(v) for v in eig.values if v < 0]
    cfg = ClassifyConfig(eta0=1e-3, pole_match_radius=0.05, window_half_width=0.01)
    probes = make_probes(dom, "basis")
    worst_lam, worst_slim = 0.0, 0.0
    for lam in below:
        v = classify_point(op, lam, cfg, probes)
        assert v.verdict == "eigenvalue"
        worst_lam = max(worst_lam, abs(v.refined_lambda - lam))
        assert v.multiplicity == eig.multiplicity(lam) == 1
        for g in probes:
            from dtnlab import slim_eta_M
            est = slim_eta_M(op, lam, g, cfg.schedule(lam))
            defect = dom.boundary_norm(np.asarray(est.value) - (-1j) * (v.residue.r @ g))
            worst_slim = max(worst_slim, defect)
    ok = worst_lam <= 1e-6 and worst_slim <= 1e-6
    _report("3", ok, f"{len(below)} oracle eigenvalues below 0 "
            f"(lowest level {eig.values[0]:+.4f}); max |lam_det - lam_oracle| "
            f"{worst_lam:.2e}, max slim defect {worst_slim:.2e}")
    assert worst_lam <= 1e-6
    assert worst_slim <= 1e-6


# -- 4. tau-bijection --------------------------------------------------------

def test_criterion_04_tau_bijection(t1, annulus2d):
    _, op1 = t1
    eig1 = oracle_eigendecomposition(op1)
    _, op2 = annulus2d
    eig2 = oracle_eigendecomposition(op2)
    lam_deg = next(float(np.mean(eig2.values[list(g)]))
                   for g in eig2.groups if len(g) == 2)
    cases = [(op1, eig1, 1.0, 1), (op1, eig1, 3.0, 1), (op2, eig2, lam_deg, 2)]
    worst_angle, worst_ratio = 0.0, 1.0
    for op, eig, lam0, mult in cases:
        rep = eigenspace_via_tau(op, lam0, eig)
        assert rep.residue.rank == mult
        worst_angle = max(worst_angle, float(np.max(rep.principal_angles)))
        worst_ratio = min(worst_ratio, rep.gram_singular_ratio)
    ok = worst_angle <= 1e-6 and worst_ratio > 1e-8
    _report("4", ok, f"max principal angle {worst_angle:.2e} "
            f"(incl. multiplicity-2 level at {lam_deg:.6f}), "
            f"min Gram singular ratio {worst_ratio:.2e}")
    assert worst_angle <= 1e-6
    assert worst_ratio > 1e-8


# -- 5. continuum m-function convergence ------------------------------------

@pytest.fixture(scope="module")
def _m_tables():
    tables = {}
    for h in (0.01, 0.005):
        dom = build_domain(HalfLine1D(h=h, L=200.0))
        op = assemble_operator(dom, zero_potential(dom))
        for x in (0.5, 1.0, 2.0):
            tables[(h, x)] = complex(dtn_matrix(op, x + 0.1j)[0, 0])
    return tables


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_criterion_05_m_convergence(_m_tables, x):
    lam = x + 0.1j
    exact = np.sqrt(-lam)
    if exact.real < 0:
        exact = -exact
    err_h = abs(_m_tables[(0.01, x)] - exact)
    err_h2 = abs(_m_tables[(0.005, x)] - exact)
    trunc = max(abs(_m_tables[(h, x)] - _free_halfline_m(x, 0.1, h))
                for h in (0.01, 0.005))
    factor = err_h / err_h2
    ok = err_h <= 1e-2 and factor >= 1.8 and trunc <= 1e-6
    _report("5", ok, f"x={x}: |M - sqrt(-lam)| = {err_h:.5e} at h=0.01, "
            f"halving factor {factor:.3f}, truncation {trunc:.2e}")
    assert trunc <= 1e-6
    assert factor >= 1.8
    assert err_h <= 1e-2


# -- 6. AC characterization on the free half-line ----------------------------

def test_criterion_06_ac_characterization(freeline):
    dom, op = freeline
    probes = make_probes(dom, "basis")
    acs = ac_support(op, (0.25, 4.0), probes, FREE_CFG, 0.125)
    assert acs.closed_union.intervals == ((0.25, 4.0),)
    worst = max(
        abs(-acs.boundary_values[i, j].imag - np.sqrt(x)) / np.sqrt(x)
        for i in range(len(probes)) for j, x in enumerate(acs.grid)
    )
    assert worst <= 0.10

    neg = ac_support(op, (-2.0, -0.5), probes, FREE_CFG, 0.125)
    assert neg.closed_union.is_empty
    analytic = all(
        analyticity_test(op, x, FREE_CFG.window_half_width, probes,
                         FREE_CFG.schedule(x)).ok
        for x in neg.grid
    )
    assert analytic
    _report("6", True, f"(0.25,4) fully flagged, max |-Im M - sqrt(x)|/sqrt(x) "
            f"= {worst:.4f}; (-2,-0.5) empty and analytic at all "
            f"{len(neg.grid)} grid points")


# -- 7. pure-point models ----------------------------------------------------

def test_criterion_07_pure_point(t1, well1d):
    _, op1 = t1
    probes1 = make_probes(op1.domain, "basis")
    acs1 = ac_support(op1, (0.0, 4.0), probes1, T1_CFG, 0.1)
    scr1 = sc_screen(acs1)
    assert acs1.closed_union.is_empty
    assert scr1.excluded
    assert sweep_window(op1, (1.5, 2.5), probes1, T1_CFG, 0.25).purity.verdict == "NoSpectrum"
    for win in ((0.5, 1.5), (2.5, 3.5)):
        assert sweep_window(op1, win, probes1, T1_CFG, 0.25).purity.verdict == "Mixed/Unknown"

    dom, op = well1d
    eig = oracle_eigendecomposition(op)
    l1, l2 = float(eig.values[0]), float(eig.values[1])
    probes = make_probes(dom, "basis")
    cfg = ClassifyConfig(eta0=1e-3, pole_match_radius=0.01, window_half_width=0.1 * (l2 - l1))
    acs = ac_support(op, (-0.5, 0.5), probes, cfg, 0.02)
    scr = sc_screen(acs)
    assert acs.closed_union.is_empty
    assert scr.excluded
    gap = (l1 + 0.3 * (l2 - l1), l1 + 0.7 * (l2 - l1))
    eigwin = (l1 - 0.3 * (l2 - l1), l1 + 0.3 * (l2 - l1))
    pv_gap = sweep_window(op, gap, probes, cfg, (gap[1] - gap[0]) / 4).purity
    pv_eig = sweep_window(op, eigwin, probes, cfg, (eigwin[1] - eigwin[0]) / 4).purity
    assert pv_gap.verdict == "NoSpectrum"
    assert pv_eig.verdict == "Mixed/Unknown"
    _report("7", True, "T1 and well: AC support empty, SC excluded, purity "
            f"NoSpectrum on gaps and Mixed/Unknown around eigenvalues "
            f"(well levels {l1:.4f}, {l2:.4f})")


# -- 8. Stone's formula ------------------------------------------------------

def test_criterion_08_stone(t1, well1d):
    _, op1 = t1
    eig1 = oracle_eigendecomposition(op1)
    worst = 0.0
    for a, b in ((0.5, 1.5), (1.5, 2.5), (2.5, 3.5)):
        res = stone_projection(op1, a, b, eig1)
        defect = np.max(np.abs(res.projector - oracle_projector(eig1, a, b)))
        worst = max(worst, float(defect))

    dom, op = well1d
    eig = oracle_eigendecomposition(op)
    l1, l2, l3 = (float(v) for v in eig.values[:3])
    cuts = (l1 - 0.5 * (l2 - l1), (l1 + l2) / 2, (l2 + l3) / 2, l3 + 0.5 * (l3 - l2))
    for a, b in zip(cuts, cuts[1:]):
        res = stone_projection(op, a, b, eig, quad_tol=1e-8)
        defect = np.max(np.abs(res.projector - oracle_projector(eig, a, b)))
        worst = max(worst, float(defect))
    _report("8", worst <= 1e-3, f"max operator-norm defect {worst:.2e} over six intervals")
    assert worst <= 1e-3


# -- 9. measure lemma --------------------------------------------------------

def test_criterion_09_measure_lemma(t1):
    _, op = t1
    eig = oracle_eigendecomposition(op)
    mu = spectral_measure(op, eig, np.array([1.0, 0.0]))
    rep = ac_sc_supports(mu, EtaSchedule(1e-2, 0.5, 10), np.linspace(0, 4, 41))
    assert rep.ac_set.is_empty
    assert rep.sc_set.is_empty

    n = 10 ** 4
    atoms = (np.arange(n) + 0.5) / n
    quad = SpectralMeasure(atoms, np.full(n, 1.0 / n))
    sched = EtaSchedule(1e-2, 0.5, 10, floor=5.0 / n)
    grid = np.linspace(0.2, 0.8, 25)
    sup = ac_sc_supports(quad, sched, grid)
    dev = float(np.max(np.abs(sup.im_values / np.pi - 1.0)))
    assert sup.ac_set.intervals == ((0.2, 0.8),)
    assert dev <= 0.02

    pm_err = max(
        abs(point_mass(mu, 1.0) - 0.5),
        abs(point_mass(mu, 3.0) - 0.5),
        abs(point_mass(quad, atoms[137], EtaSchedule(1e-5, 0.5, 10)) - 1.0 / n),
    )
    assert pm_err <= 1e-8
    _report("9", True, f"atomic supports empty; quadrature density within "
            f"{dev:.4f} of 1; point-mass error {pm_err:.2e}")


# -- 10. simplicity ----------------------------------------------------------

def test_criterion_10_simplicity(t1, well1d, annulus2d):
    _, op1 = t1
    rep1 = simplicity_rank(op1, [1j, 2j])
    assert rep1.rank == rep1.interior_dim == 2

    rep2d = simplicity_rank(annulus2d[1], [1j, 2j])
    print(f"[criterion 10] 2D report (no assertion): rank {rep2d.rank} "
          f"of interior dimension {rep2d.interior_dim}")

    _, opw = well1d
    repw = simplicity_rank(opw, [1j, 2j])
    _report("10", repw.rank == repw.interior_dim,
            f"T1 rank {rep1.rank}/{rep1.interior_dim}; "
            f"well rank {repw.rank}/{repw.interior_dim} with 2 zeta-samples "
            "(a 2-column stack cannot reach rank 399; see ROADMAP \"Standing red criteria\")")
    assert repw.rank == repw.interior_dim


# -- 11. determinism & round-trip --------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg_data = {
        "domain": {"kind": "halfline", "h": 1.0, "L": 3.0},
        "window": {"lo": 0.0, "hi": 4.0, "grid_step": 0.1},
        "thresholds": {"pole_match_radius": 0.05, "window_half_width": 0.2},
    }
    cfg1 = config_from_dict(cfg_data)
    cfg4 = dataclasses.replace(cfg1, threads=4)
    rep1, rep4 = run_sweep(cfg1), run_sweep(cfg4)
    d1 = tmp_path / "one"
    d4 = tmp_path / "four"
    d1.mkdir()
    d4.mkdir()
    json_same = open(emit_report(rep1, str(d1))).read() == open(emit_report(rep4, str(d4))).read()
    csv_same = open(emit_csv(rep1, str(d1))).read() == open(emit_csv(rep4, str(d4))).read()
    roundtrip = parse_report(str(d1 / "report.json")) == rep1.data
    _report("11", json_same and csv_same and roundtrip,
            f"byte-identical across threads: json={json_same} csv={csv_same}; "
            f"round-trip={roundtrip}")
    assert json_same and csv_same and roundtrip
