import numpy as np
import pytest

import dtnlab.dtn
from dtnlab import (
    ClassifyConfig,
    Exterior2D,
    GridSet,
    HalfLine1D,
    ac_support,
    assemble_operator,
    build_domain,
    classify_point,
    dtn_matrix,
    eigenspace_via_tau,
    essential_closure,
    make_probes,
    oracle_eigendecomposition,
    purity_filter,
    refine_pole,
    sc_screen,
    well_potential,
    zero_potential,
)

T1_CFG = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, residue_rho=0.25,
                        window_half_width=0.2)

FREE_CFG = ClassifyConfig(eta0=0.4, floor_mode="halfline_auto", halfline_length=60.0,
                          window_half_width=0.1)


class TestGridSet:
    def test_from_flags_runs(self):
        s = GridSet.from_flags([0, 1, 2, 3, 4, 5, 6], [1, 1, 0, 1, 0, 0, 1])
        assert s.intervals == ((0.0, 1.0), (3.0, 3.0), (6.0, 6.0))

    def test_essential_closure_drops_points(self):
        s = GridSet(((0.0, 1.0), (3.0, 3.0), (6.0, 6.0)))
        assert essential_closure(s).intervals == ((0.0, 1.0),)

    def test_union_merges_touching(self):
        u = GridSet.union(GridSet(((0.0, 1.0),)), GridSet(((1.0, 2.0), (3.0, 4.0))))
        assert u.intervals == ((0.0, 2.0), (3.0, 4.0))

    def test_measure_contains(self):
        s = GridSet(((0.0, 1.0), (2.0, 4.0)))
        assert s.measure == 3.0
        assert s.contains(0.5) and s.contains(2.0) and not s.contains(1.5)

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            GridSet(((1.0, 0.0),))
        with pytest.raises(ValueError):
            GridSet(((0.0, 2.0), (1.0, 3.0)))


class TestRefinePole:
    def test_converges_from_offset(self, t1):
        _, op = t1
        g = np.array([1.0 + 0j])
        assert refine_pole(op, 1.05, g, 1e-2) == pytest.approx(1.0, abs=1e-7)
        assert refine_pole(op, 2.9, g, 1e-2) == pytest.approx(3.0, abs=1e-7)


class TestClassifyPoint:
    def test_t1_verdicts(self, t1):
        _, op = t1
        probes = make_probes(op.domain, "basis")
        expected = {1.0: "eigenvalue", 3.0: "eigenvalue", 2.0: "resolvent",
                    -1.0: "resolvent", 0.9: "resolvent"}
        for x, verdict in expected.items():
            v = classify_point(op, x, T1_CFG, probes)
            assert v.verdict == verdict, x

    def test_eigenvalue_details(self, t1):
        _, op = t1
        v = classify_point(op, 1.0, T1_CFG)
        assert v.refined_lambda == pytest.approx(1.0, abs=1e-7)
        assert v.multiplicity == 1
        assert v.residue.r[0, 0] == pytest.approx(0.5, abs=1e-8)

    def test_continuum_point_is_continuous(self, freeline):
        _, op = freeline
        v = classify_point(op, 1.0, FREE_CFG, make_probes(op.domain, "basis"))
        assert v.verdict == "continuous"

    def test_deep_well_bound_state_detected(self):
        dom = build_domain(HalfLine1D(h=0.05, L=20.0))
        op = assemble_operator(dom, well_potential(dom, depth=8.0, width=1.0))
        eig = oracle_eigendecomposition(op)
        lam = eig.values[0]
        assert lam < 0
        cfg = ClassifyConfig(eta0=1e-3, pole_match_radius=0.05, residue_rho=0.05,
                             window_half_width=0.02)
        v = classify_point(op, float(lam), cfg)
        assert v.verdict == "eigenvalue"
        assert v.refined_lambda == pytest.approx(lam, abs=1e-6)


class TestTau:
    def test_t1_bijection(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        rep = eigenspace_via_tau(op, 1.0, eig)
        assert rep.residue_rank == 1
        assert rep.gram_singular_ratio > 1e-8
        assert np.max(rep.principal_angles) <= 1e-8

    def test_2d_degenerate_level(self, annulus2d):
        _, op = annulus2d
        eig = oracle_eigendecomposition(op)
        lam0 = next(float(np.mean(eig.values[list(g)]))
                    for g in eig.groups if len(g) == 2)
        rep = eigenspace_via_tau(op, lam0, eig)
        assert rep.residue_rank == 2
        assert np.max(rep.principal_angles) <= 1e-6

    def test_not_an_eigenvalue(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        with pytest.raises(ValueError):
            eigenspace_via_tau(op, 2.0, eig)


class TestACSupport:
    def test_free_halfline_window_flagged(self, freeline):
        _, op = freeline
        probes = make_probes(op.domain, "basis")
        acs = ac_support(op, (0.25, 4.0), probes, FREE_CFG, 0.125)
        assert acs.closed_union.intervals == ((0.25, 4.0),)
        assert not acs.ac_free

    def test_resolvent_window_empty(self, freeline):
        _, op = freeline
        probes = make_probes(op.domain, "basis")
        acs = ac_support(op, (-2.0, -0.5), probes, FREE_CFG, 0.125)
        assert acs.closed_union.is_empty
        assert acs.ac_free

    def test_pure_point_model_empty(self, t1):
        _, op = t1
        acs = ac_support(op, (0.0, 4.0), make_probes(op.domain, "basis"), T1_CFG, 0.1)
        assert acs.closed_union.is_empty


class TestSCScreen:
    def test_free_halfline_excluded(self, freeline):
        _, op = freeline
        scr = sc_screen(op, (0.25, 4.0), make_probes(op.domain, "basis"), FREE_CFG, 0.25)
        assert scr.excluded

    def test_t1_excluded(self, t1):
        _, op = t1
        scr = sc_screen(op, (0.0, 4.0), make_probes(op.domain, "basis"), T1_CFG, 0.1)
        assert scr.excluded


class TestPurity:
    def test_gap_window_no_spectrum(self, t1):
        _, op = t1
        probes = make_probes(op.domain, "basis")
        assert purity_filter(op, (1.5, 2.5), probes, T1_CFG, 0.25).verdict == "NoSpectrum"

    def test_eigenvalue_window_mixed(self, t1):
        _, op = t1
        probes = make_probes(op.domain, "basis")
        v = purity_filter(op, (0.5, 1.5), probes, T1_CFG, 0.25)
        assert v.verdict == "Mixed/Unknown"
        assert v.offending_points[0] == pytest.approx(1.0, abs=1e-6)

    def test_free_halfline_pure_ac(self, freeline):
        _, op = freeline
        probes = make_probes(op.domain, "basis")
        assert purity_filter(op, (0.25, 4.0), probes, FREE_CFG, 0.25).verdict == "PureAC"


class TestProbes:
    def test_basis_probes(self, annulus2d):
        dom, _ = annulus2d
        probes = make_probes(dom, "basis")
        assert len(probes) == 8
        assert np.allclose(sum(probes), np.ones(8))

    def test_random_probes_deterministic(self, t1):
        dom, _ = t1
        a = make_probes(dom, "random", count=3, seed=42)
        b = make_probes(dom, "random", count=3, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(abs(dom.boundary_norm(g) - 1) < 1e-12 for g in a)

    def test_unknown_kind(self, t1):
        with pytest.raises(ValueError):
            make_probes(t1[0], "fourier")


class TestDtnTable:
    def test_each_z_materialized_once(self, monkeypatch):
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        op = assemble_operator(dom, zero_potential(dom))
        reached = []
        poisson_matrix = dtnlab.dtn.poisson_matrix

        def counting(op_, lam):
            reached.append(complex(lam))
            return poisson_matrix(op_, lam)

        monkeypatch.setattr(dtnlab.dtn, "poisson_matrix", counting)
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.25)
        classify_point(op, 1.0, cfg, make_probes(dom, "basis"))
        assert reached and len(set(reached)) == len(reached)
        table = {key for key in op._cache if isinstance(key, complex)}
        assert table == set(reached)

        monkeypatch.undo()
        fresh = assemble_operator(dom, zero_potential(dom))
        for z in reached:
            assert np.array_equal(dtn_matrix(op, z).m, dtn_matrix(fresh, z).m)
