import numpy as np
import pytest

import dtnlab.classify
import dtnlab.dtn
import dtnlab.limits
import dtnlab.report
from dtnlab import (
    ACSupportSet,
    ClassifyConfig,
    DirichletOperator,
    Exterior2D,
    GridSet,
    HalfLine1D,
    Inconclusive,
    Level,
    NearSpectrum,
    PointVerdict,
    SCReport,
    ac_support,
    assemble_operator,
    build_domain,
    classify_point,
    config_from_dict,
    dtn_matrix,
    eigenspace_via_tau,
    essential_closure,
    make_probes,
    oracle_eigendecomposition,
    purity_filter,
    refine_pole,
    run_sweep,
    sc_screen,
    sweep_window,
    well_potential,
    window_levels,
    zero_potential,
)
from dtnlab.classify import trace_invisible
from dtnlab.limits import DECAY_CUT, vanishes

T1_CFG = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.2)

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


class TestSlimNonzero:
    def test_small_limit_is_zero(self):
        assert not T1_CFG.slim_nonzero(0.5 * T1_CFG.tau_eig_rel, None)
        assert T1_CFG.slim_nonzero(2 * T1_CFG.tau_eig_rel, 0.0)

    def test_decaying_limit_is_zero(self):
        assert not T1_CFG.slim_nonzero(1.0, DECAY_CUT)
        assert not T1_CFG.slim_nonzero(1.0, 1.0)

    def test_slope_none_does_not_veto(self):
        assert T1_CFG.slim_nonzero(1.0, None)
        # arrays of limits: nan, an underflowed row, reads as None
        flags = T1_CFG.slim_nonzero(np.array([1.0, 1.0, 1e-9]), np.array([np.nan, 0.6, 0.0]))
        assert flags.tolist() == [True, False, False]

    def test_vanishes(self):
        # the y*F -> 0 rule of sc_screen and ac_sc_supports: None reads as vanished
        assert vanishes(None) and vanishes(0.5)
        assert not vanishes(0.49)
        assert vanishes(np.array([np.nan, 0.5, 0.49])).tolist() == [True, True, False]


class TestRefinePole:
    def test_converges_from_offset(self, t1):
        _, op = t1
        g = np.array([1.0 + 0j])
        assert refine_pole(op, 1.05, g, 1e-2) == pytest.approx(1.0, abs=1e-7)
        assert refine_pole(op, 2.9, g, 1e-2) == pytest.approx(3.0, abs=1e-7)

    def test_diverging_iterate_stops(self, reduced_annulus, monkeypatch):
        # from 0.5 + 2.5e-3i on basis probe 0 the iterates run off towards
        # |z| ~ 1e203; past 10 (||A_II||_1 + |x|) no further z is factorized
        dom, op = reduced_annulus
        factored = []
        factorize = DirichletOperator.factorize

        def counting(op_, z):
            factored.append(z)
            return factorize(op_, z)

        monkeypatch.setattr(DirichletOperator, "factorize", counting)
        assert refine_pole(op, 0.5, make_probes(dom, "basis")[0], 2.5e-3) is None
        assert len(factored) <= 4
        assert all(abs(z - 0.5) <= 10 * (op.a_norm + 0.5) for z in factored)


class TestClassifyPoint:
    def test_t1_verdicts(self, t1):
        # 0.9 lies within pole_match_radius (0.25) of the level 1, so it is
        # that level; 0.7 does not, and its analyticity window stops short of it
        _, op = t1
        probes = make_probes(op.domain, "basis")
        expected = {1.0: "eigenvalue", 3.0: "eigenvalue", 2.0: "resolvent",
                    -1.0: "resolvent", 0.9: "eigenvalue", 0.7: "resolvent"}
        for x, verdict in expected.items():
            v = classify_point(op, x, T1_CFG, probes)
            assert v.verdict == verdict, x
        assert classify_point(op, 0.9, T1_CFG, probes).refined_lambda == pytest.approx(1.0,
                                                                                     abs=1e-12)

    def test_eigenvalue_details(self, t1):
        _, op = t1
        v = classify_point(op, 1.0, T1_CFG)
        assert v.refined_lambda == pytest.approx(1.0, abs=1e-7)
        assert v.multiplicity == 1
        assert v.residue.r[0, 0] == pytest.approx(0.5, abs=1e-8)

    def test_window_sample_on_spectrum_spoils_only_its_window(self, t1):
        # eta0 = 1e-13: a window of the full half-width 0.1 around 0.9 or 1.1
        # would sample the level at 1 within the solver's distance threshold;
        # the level stage finds it, so their windows stop short of it
        _, op = t1
        cfg = ClassifyConfig(eta0=1e-13, pole_match_radius=0.05, window_half_width=0.1)
        assert classify_point(op, 0.9, cfg).verdict == "resolvent"
        assert classify_point(op, 1.1, cfg).verdict == "resolvent"
        with pytest.raises(NearSpectrum):
            classify_point(op, 1.0, cfg)

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
        cfg = ClassifyConfig(eta0=1e-3, pole_match_radius=0.05, window_half_width=0.02)
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

    def test_trace_invisible_level_has_rank_zero(self, annulus2d):
        # the eigenvector at 0.951083 has no trace, so M has no pole there:
        # the residue's singular values count against its bound, as in
        # window_levels (against its own largest one, any non-pole has rank >= 1)
        dom, op = annulus2d
        eig = oracle_eigendecomposition(op)
        k = int(np.argmin([abs(np.mean(eig.values[list(g)]) - 0.951083) for g in eig.groups]))
        lam0 = float(np.mean(eig.values[list(eig.groups[k])]))
        assert lam0 == pytest.approx(0.951083, abs=1e-6)
        assert trace_invisible(dom, eig)[k]
        rep = eigenspace_via_tau(op, lam0, eig)
        assert rep.residue_rank == 0
        assert rep.principal_angles.tolist() == [np.pi / 2]

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
        # (M g, g) at the level 1.0 on the grid extrapolates to 0.75 - 12400i,
        # diverging, which ac_flags does not accept: the windows are AC-free
        _, op = t1
        probes = make_probes(op.domain, "basis")
        for window, step in (((0.0, 4.0), 0.1), ((0.5, 1.5), 0.25)):
            acs = ac_support(op, window, probes, T1_CFG, step)
            assert acs.closed_union.is_empty and acs.ac_free, window


class TestSCScreen:
    def test_free_halfline_excluded(self, freeline):
        _, op = freeline
        scr = sc_screen(ac_support(op, (0.25, 4.0), make_probes(op.domain, "basis"),
                                   FREE_CFG, 0.25))
        assert scr.excluded

    def test_t1_excluded(self, t1):
        _, op = t1
        scr = sc_screen(ac_support(op, (0.0, 4.0), make_probes(op.domain, "basis"), T1_CFG, 0.1))
        assert scr.excluded

    def test_failed_ac_stage_raised_again(self):
        err = NearSpectrum("M(0.5 + i eta) hit the spectrum")
        with pytest.raises(NearSpectrum) as info:
            sc_screen(err)
        assert info.value is err


def _purity(op, window, cfg, step):
    return sweep_window(op, window, make_probes(op.domain, "basis"), cfg, step).purity


class TestPurity:
    def test_gap_window_no_spectrum(self, t1):
        _, op = t1
        assert _purity(op, (1.5, 2.5), T1_CFG, 0.25).verdict == "NoSpectrum"

    def test_eigenvalue_window_mixed(self, t1):
        _, op = t1
        v = _purity(op, (0.5, 1.5), T1_CFG, 0.25)
        assert v.verdict == "Mixed/Unknown"
        assert v.offending_points[0] == pytest.approx(1.0, abs=1e-6)

    def test_each_level_listed_once(self, annulus2d):
        # the grid point 0.75 lies 7.9e-4 above the level 0.749213: its nonzero
        # eta*M limit does not list the level again, and the double levels
        # 0.651945 and 0.915290 are listed once each; 0.951083, whose
        # eigenvector has no trace, is no pole of M
        _, op = annulus2d
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.125, window_half_width=0.25)
        v = _purity(op, (0.5, 1.0), cfg, 0.25)
        assert v.verdict == "Mixed/Unknown"
        assert v.offending_points == pytest.approx(
            (0.6519449374416, 0.749213076625244, 0.915290191023935, 0.994689338208813), abs=1e-9)

    def test_free_halfline_pure_ac(self, freeline):
        _, op = freeline
        assert _purity(op, (0.25, 4.0), FREE_CFG, 0.25).verdict == "PureAC"

    def test_pure_sc_branch(self, request):
        # finite models have no SC spectrum, and the level stage leaves the
        # purity rule no window to call PureSC.  The levels 1 (t1) and
        # 0.554152 (well) lie outside their windows: the point 0.9 is the
        # level 1, and the analyticity window at 0.6 stops short of 0.554152,
        # so those windows are NoSpectrum; the reduced annulus window holds
        # the level 0.929221, whose residue contour gives its value
        cases = [
            ("t1", (0.6, 0.9), 0.1, T1_CFG, ("NoSpectrum", ())),
            ("well1d", (0.6, 0.7), 0.05,
             ClassifyConfig(eta0=1e-2, pole_match_radius=0.025, window_half_width=0.05),
             ("NoSpectrum", ())),
            ("reduced_annulus", (0.5, 1.0), 0.25,
             ClassifyConfig(eta0=1e-2, pole_match_radius=0.125, window_half_width=0.25),
             ("Mixed/Unknown", (pytest.approx(0.929220688, abs=1e-9),))),
        ]
        for model, window, step, cfg, expected in cases:
            _, op = request.getfixturevalue(model)
            v = _purity(op, window, cfg, step)
            assert (v.verdict, v.offending_points) == expected, model

    def test_sweep_runs_each_stage_once(self, monkeypatch):
        # free half-line, floored schedules in three runs of grid points: the
        # level stage runs once (and finds none on a floored schedule), the
        # AC stage takes one boundary_value_M call per run, and the eta*M
        # limits are classify_point's, one per grid point.  The SC screen and
        # purity evaluate no M(z): they read the stages' results.
        calls = {}

        def counting(module, name):
            fn = getattr(module, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        for name in ("boundary_value_M", "slim_eta_M"):
            counting(dtnlab.classify, name)
        for name in ("window_levels", "ac_support"):
            counting(dtnlab.report, name)

        def sealing(name):
            fn = getattr(dtnlab.report, name)
            calls[name] = 0

            def refuse(*args):
                raise AssertionError(f"{name} evaluated M(z)")

            def sealed(*args):
                calls[name] += 1
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(DirichletOperator, "factorize", refuse)
                    for module in (dtnlab.dtn, dtnlab.limits):
                        m.setattr(module, "dtn_matrices", refuse)
                        m.setattr(module, "dtn_matrix", refuse)
                    return fn(*args)
            monkeypatch.setattr(dtnlab.report, name, sealed)

        for name in ("sc_screen", "purity_filter"):
            sealing(name)
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 0.05, "L": 60.0},
            "window": {"lo": 0.25, "hi": 4.0, "grid_step": 0.25},
            "eta": {"eta0": 0.4, "floor_mode": "halfline_auto"}}))
        assert len(report.data["points"]) == 16
        assert report.data["purity"][0]["verdict"] == "PureAC"
        assert calls == {"boundary_value_M": 3, "slim_eta_M": 16, "window_levels": 1,
                         "ac_support": 1, "sc_screen": 1, "purity_filter": 1}


class TestPurityRule:
    """purity_filter on hand-built stage results: no operator is involved."""

    CFG = ClassifyConfig(eta0=1e-2, pole_match_radius=0.1, window_half_width=0.1)
    WINDOW = (0.0, 1.0)
    XS = (0.0, 0.5, 1.0)
    QUIET = {"slim_rel": np.array([0.0]), "decay_exponent": np.array([np.nan])}

    def resolvent(self, x, verdict="resolvent"):
        return PointVerdict(x=x, verdict=verdict, evidence=self.QUIET)

    @staticmethod
    def levels(*lams):
        return tuple(Level(lam=lam, multiplicity=1, residue=None) for lam in lams)

    def stages(self, ac_free=True):
        grid = np.array(self.XS)
        acs = ACSupportSet(window=self.WINDOW, grid=grid, per_probe_closed=(GridSet(()),),
                           closed_union=GridSet(()), ac_free=ac_free,
                           boundary_values=np.zeros((1, 3), dtype=complex),
                           diverging=np.zeros((1, 3), bool), y_limit_zero=np.zeros((1, 3), bool))
        scr = SCReport(window=self.WINDOW, grid=grid, flagged_set=GridSet(()), excluded=True)
        return acs, scr

    def purity(self, points, lams=(), acs=None, scr=None):
        ac_default, sc_default = self.stages()
        return purity_filter(self.WINDOW, points, self.levels(*lams),
                             ac_default if acs is None else acs,
                             sc_default if scr is None else scr, self.CFG)

    def test_inconclusive_point_away_from_poles_raises_its_error(self):
        err = NearSpectrum("M(0.5 + i eta) hit the spectrum")
        points = [(0.0, self.resolvent(0.0)), (0.5, err), (1.0, self.resolvent(1.0))]
        with pytest.raises(NearSpectrum) as info:
            self.purity(points)
        assert info.value is err
        # a level farther than pole_match_radius does not explain it
        with pytest.raises(NearSpectrum):
            self.purity(points, lams=(0.8,))

    def test_inconclusive_point_next_to_a_pole_is_mixed(self):
        points = [(0.0, self.resolvent(0.0)), (0.5, NearSpectrum("at 0.5")),
                  (1.0, self.resolvent(1.0))]
        v = self.purity(points, lams=(0.55,))
        assert (v.verdict, v.offending_points) == ("Mixed/Unknown", (0.55,))

    def test_nonzero_limit_away_from_poles_is_offending(self):
        loud = PointVerdict(x=0.5, verdict="continuous",
                            evidence={"slim_rel": np.array([0.3]),
                                      "decay_exponent": np.array([0.0])})
        points = [(0.0, self.resolvent(0.0)), (0.5, loud), (1.0, self.resolvent(1.0))]
        assert self.purity(points).offending_points == (0.5,)
        # next to a level the point is that level; the level is listed once
        assert self.purity(points, lams=(0.52,)).offending_points == (0.52,)

    def test_levels_outside_the_window_are_not_offending(self):
        # the level 1.05 explains the inconclusive point 1.0 beside it, and
        # neither it nor -0.3 lies inside the window
        points = [(0.0, self.resolvent(0.0)), (0.5, self.resolvent(0.5)),
                  (1.0, NearSpectrum("at 1.0"))]
        assert self.purity(points, lams=(1.05, -0.3)).verdict == "NoSpectrum"
        points[1] = (0.5, self.resolvent(0.5, verdict="continuous"))
        v = self.purity(points, lams=(1.05, -0.3))
        assert (v.verdict, v.offending_points) == ("Mixed/Unknown", ())

    def test_no_spectrum_needs_every_point_resolvent(self):
        points = [(x, self.resolvent(x)) for x in self.XS]
        assert self.purity(points).verdict == "NoSpectrum"
        # a point M does not continue through: the AC and SC stages decide,
        # and without AC spectrum or a flagged SC run that is Mixed/Unknown
        points[1] = (0.5, self.resolvent(0.5, verdict="continuous"))
        assert self.purity(points).verdict == "Mixed/Unknown"
        acs, scr = self.stages(ac_free=False)
        assert self.purity(points, acs=acs, scr=scr).verdict == "PureAC"

    def test_failed_ac_stage_raised_only_when_needed(self):
        err = Inconclusive("AC stage failed")
        points = [(x, self.resolvent(x)) for x in self.XS]
        assert self.purity(points, acs=err).verdict == "NoSpectrum"
        assert self.purity(points, lams=(0.5,), acs=err).verdict == "Mixed/Unknown"
        points[1] = (0.5, self.resolvent(0.5, verdict="continuous"))
        with pytest.raises(Inconclusive) as info:
            self.purity(points, acs=err)
        assert info.value is err

    def test_failed_level_stage_raised(self):
        err = Inconclusive("level stage failed")
        points = [(x, self.resolvent(x)) for x in self.XS]
        with pytest.raises(Inconclusive) as info:
            purity_filter(self.WINDOW, points, err, *self.stages(), self.CFG)
        assert info.value is err


class TestLevels:
    def test_annulus_simple_level_has_multiplicity_one(self):
        # a residue radius fixed at 0.25 enclosed the neighbours of the simple
        # level 0.749213 and reported multiplicity 8 (= n_B)
        report = run_sweep(config_from_dict({
            "domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
            "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25}}))
        point = report.data["points"][1]
        assert (point["x"], point["verdict"], point["multiplicity"]) == (0.75, "eigenvalue", 1)
        assert point["refined_lambda"] == pytest.approx(0.749213076625, abs=1e-12)

    def test_reduced_annulus_point_multiplicity(self, reduced_annulus):
        # the same fixed radius reported the simple level 0.929221 with multiplicity 4
        dom, op = reduced_annulus
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.25)
        v = classify_point(op, 0.93, cfg, make_probes(dom, "basis"))
        assert (v.verdict, v.multiplicity) == ("eigenvalue", 1)
        assert v.refined_lambda == pytest.approx(0.929220687319, abs=1e-12)
        assert v.residue.rho == pytest.approx(0.45 * (1.049329420488 - 0.929220687319))

    def test_well_levels_match_the_oracle(self, well1d):
        # each value is the first moment of a residue contour that holds one
        # pole: all six levels in (0, 1) of the well1d-sweep model lie within
        # 5e-12 of the oracle (a Newton step from x + i h_c reached 1.1e-11)
        _, op = well1d
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.025, window_half_width=0.05)
        levels = window_levels(op, (0.0, 1.0), make_probes(op.domain, "basis"), cfg)
        oracle = oracle_eigendecomposition(op).values
        assert [level.multiplicity for level in levels] == [1] * 6
        for level in levels:
            assert 0.0 < level.lam < 1.0
            assert np.min(np.abs(oracle - level.lam)) <= 5e-12, level.lam

    def test_floored_schedule_has_no_levels(self, freeline):
        _, op = freeline
        assert window_levels(op, (0.25, 4.0), make_probes(op.domain, "basis"), FREE_CFG) == ()

    def test_failed_level_stage_makes_points_inconclusive(self, well1d):
        # 11 levels of the well lie inside the contour through -0.5 and 3.0,
        # more than 32 contour moments of a 1x1 M resolve: the stage and every
        # point carry its Inconclusive, and the sweep finishes
        _, op = well1d
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.125, window_half_width=0.25)
        sweep = sweep_window(op, (0.0, 2.5), make_probes(op.domain, "basis"), cfg, 0.5)
        assert isinstance(sweep.levels, Inconclusive)
        assert all(v is sweep.levels for _, v in sweep.points)
        assert sweep.purity is sweep.levels


class TestClassifyConfig:
    def test_unknown_floor_mode_rejected(self):
        # an unknown mode would otherwise run unfloored without a word
        with pytest.raises(ValueError, match="floor_mode"):
            ClassifyConfig(eta0=1e-2, floor_mode="constant")


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
        # a z enters the M(z) table once, by the tridiagonal reduction if it is
        # certified and by the LU (poisson_matrix) otherwise, and its value is
        # the one the same path gives on a fresh operator
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        op = assemble_operator(dom, zero_potential(dom))
        by_lu, by_reduction = [], []
        poisson_matrix, reduced = dtnlab.dtn.poisson_matrix, dtnlab.dtn._reduced_dtn

        def counting_lu(op_, lam):
            by_lu.append(complex(lam))
            return poisson_matrix(op_, lam)

        def counting_reduction(op_, zs):
            by_reduction.extend(complex(z) for z in zs)
            return reduced(op_, zs)

        monkeypatch.setattr(dtnlab.dtn, "poisson_matrix", counting_lu)
        monkeypatch.setattr(dtnlab.dtn, "_reduced_dtn", counting_reduction)
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.25)
        # the level 0.929221: the residue contour crosses the real axis
        assert classify_point(op, 0.93, cfg, make_probes(dom, "basis")).verdict == "eigenvalue"
        entered = by_lu + by_reduction
        assert by_lu and by_reduction and len(set(entered)) == len(entered)
        assert not any(op.certified(z) for z in by_lu)
        assert all(op.certified(z) for z in by_reduction)
        table = {key for key in op._cache if isinstance(key, complex)}
        assert table == set(entered)

        monkeypatch.undo()
        fresh = assemble_operator(dom, zero_potential(dom))
        for z in by_lu:
            assert np.array_equal(dtn_matrix(op, z).m, dtn_matrix(fresh, z).m)
        for z in by_reduction:
            assert np.array_equal(dtn_matrix(op, z).m, dtnlab.dtn._reduced_dtn(fresh, [z])[0])

    def test_reduced_annulus_sweep_factorization_count(self, monkeypatch):
        # Certified z come from the tridiagonal reduction and the level stage
        # evaluates M only through contour_sums, so every factorization left
        # is at an uncertified z: 8 here, the 2 real nodes of each of its 4
        # residue contours.  Polishing the 5 pole estimates in (0, 1.5) by
        # Newton as well, the sweep factorized 18 times; with a Newton scan
        # from every grid point and probe, 100; evaluating every M(z) by LU
        # as well, 588.
        factored = []
        factorize = DirichletOperator.factorize

        def counting(op_, z):
            factored.append((z, op_.certified(z)))
            return factorize(op_, z)

        monkeypatch.setattr(DirichletOperator, "factorize", counting)
        cfg = config_from_dict({
            "domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5},
            "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.5}})
        assert len(run_sweep(cfg).data["points"]) == 2
        assert not any(certified for _, certified in factored)
        assert len(factored) <= 8

    def test_reduced_well_sweep_factorization_count(self, monkeypatch):
        # The eta profiles and the level stage's ellipse are certified off
        # the spectrum, so the continued fraction gives all of them; the 2
        # factorizations left are the 2 real nodes of the residue contour of
        # the level 0.346166.  Polishing it by Newton as well, the sweep
        # factorized 4 times; with a Newton scan from every grid point, 12;
        # evaluating M(z) by LU as well, 740.
        factored = []
        factorize = DirichletOperator.factorize

        def counting(op_, z):
            factored.append((z, op_.certified(z)))
            return factorize(op_, z)

        monkeypatch.setattr(DirichletOperator, "factorize", counting)
        cfg = config_from_dict({
            "domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
            "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
            "window": {"lo": 0.3, "hi": 0.4, "grid_step": 0.05}})
        assert len(run_sweep(cfg).data["points"]) == 3
        assert not any(certified for _, certified in factored)
        assert len(factored) <= 2
