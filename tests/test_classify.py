import warnings
from collections import Counter

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
    NearSpectrum,
    PointVerdict,
    ResidueMatrix,
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
    normal_derivative,
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
from dtnlab.classify import visible_multiplicity
from dtnlab.limits import DECAY_CUT, RESIDUE_TOL, TAU_EIG, slim_nonzero, vanishes

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
        assert not slim_nonzero(0.5 * TAU_EIG, np.nan)
        assert slim_nonzero(2 * TAU_EIG, 0.0)

    def test_decaying_limit_is_zero(self):
        assert not slim_nonzero(1.0, DECAY_CUT)
        assert not slim_nonzero(1.0, 1.0)

    def test_nan_slope_does_not_veto(self):
        assert slim_nonzero(1.0, np.nan)
        # arrays of limits too
        flags = slim_nonzero(np.array([1.0, 1.0, 1e-9]), np.array([np.nan, 0.6, 0.0]))
        assert flags.tolist() == [True, False, False]

    def test_vanishes(self):
        # the y*F -> 0 rule of sc_screen and ac_sc_supports: nan reads as vanished
        assert vanishes(np.nan) and vanishes(0.5)
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

    def test_stopped_profile_no_level_explains_is_inconclusive(self, t1):
        # at 1e-10 from the level 1 the eta profile from 1e-8 stops at a
        # NearSpectrum after 6 samples; pole_match_radius 1e-11 leaves the
        # level too far to explain x, and a partial profile decides nothing
        _, op = t1
        cfg = ClassifyConfig(eta0=1e-8, pole_match_radius=1e-11, window_half_width=0.1)
        assert dtnlab.limits.slim_eta_M(op, 1 + 1e-10, [1.0], cfg.schedule(1 + 1e-10)).partial
        with pytest.raises(Inconclusive, match="solver failures along the eta schedule"):
            classify_point(op, 1 + 1e-10, cfg)

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

    def test_bound_state_near_the_floored_edge_detected(self):
        # the point's level window (lam - w, lam + w) crosses the band edge 0,
        # above which halfline_auto floors the schedule: the level below is found
        dom = build_domain(HalfLine1D(h=0.05, L=20.0))
        op = assemble_operator(dom, well_potential(dom, depth=3.5, width=1.0))
        lam = oracle_eigendecomposition(op).values[0]
        assert -0.25 < lam < 0
        cfg = ClassifyConfig(eta0=0.4, floor_mode="halfline_auto", halfline_length=20.0,
                             pole_match_radius=0.1, window_half_width=0.25)
        v = classify_point(op, float(lam), cfg)
        assert v.verdict == "eigenvalue"
        assert v.multiplicity == 1
        assert v.refined_lambda == pytest.approx(lam, abs=1e-9)
        assert classify_point(op, 0.05, cfg).verdict == "continuous"


class TestTau:
    def test_t1_bijection(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        rep = eigenspace_via_tau(op, 1.0, eig)
        assert rep.residue.rank == 1
        assert rep.gram_singular_ratio > 1e-8
        assert np.max(rep.principal_angles) <= 1e-8

    def test_2d_degenerate_level(self, annulus2d):
        _, op = annulus2d
        eig = oracle_eigendecomposition(op)
        lam0 = next(float(np.mean(eig.values[list(g)]))
                    for g in eig.groups if len(g) == 2)
        rep = eigenspace_via_tau(op, lam0, eig)
        assert rep.residue.rank == 2
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
        assert visible_multiplicity(dom, eig)[k] == 0
        rep = eigenspace_via_tau(op, lam0, eig)
        assert rep.residue.rank == 0
        assert rep.principal_angles.tolist() == [np.pi / 2]

    def test_trace_invisible_is_the_per_group_rule(self, annulus2d):
        # the visible multiplicities against their definition, one group at a
        # time: the weighted rank of a level's traces, their singular values
        # above RESIDUE_TOL times the norm of the trace map on w_I-unit
        # vectors, here taken from the matrix of that map; a level is
        # invisible at rank 0.  This annulus has multiplicity-2 groups and 12
        # invisible levels
        dom, op = annulus2d
        eig = oracle_eigendecomposition(op)
        w = np.sqrt(dom.boundary_node_weights)[:, None]
        zero = np.zeros((dom.n_boundary, op.n))
        taus = w * normal_derivative(dom, zero, eig.vectors)
        trace_map = w * normal_derivative(dom, zero, np.eye(op.n) / np.sqrt(dom.interior_weight))
        cut = RESIDUE_TOL * np.linalg.norm(trace_map, 2)
        expected = [int(np.sum(np.linalg.svd(taus[:, list(g)], compute_uv=False) > cut))
                    for g in eig.groups]
        assert any(len(g) == 2 for g in eig.groups)
        assert expected.count(0) == 12
        assert visible_multiplicity(dom, eig) == expected

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

    def test_resolvent_window_empty(self, freeline):
        _, op = freeline
        probes = make_probes(op.domain, "basis")
        acs = ac_support(op, (-2.0, -0.5), probes, FREE_CFG, 0.125)
        assert acs.closed_union.is_empty

    def test_pure_point_model_empty(self, t1):
        # (M g, g) at the level 1.0 on the grid extrapolates to 0.75 - 12400i,
        # diverging, which ac_flags does not accept: the windows are AC-free
        _, op = t1
        probes = make_probes(op.domain, "basis")
        for window, step in (((0.0, 4.0), 0.1), ((0.5, 1.5), 0.25)):
            acs = ac_support(op, window, probes, T1_CFG, step)
            assert acs.closed_union.is_empty, window


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
        # AC stage takes one boundary_value_M call per run, and classify_point
        # one slim_eta_M block and one analyticity_test call per run.  The SC
        # screen and purity evaluate no M(z): they read the stages' results.
        calls = {}

        def counting(module, name):
            fn = getattr(module, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        for name in ("boundary_value_M", "slim_eta_M", "analyticity_test"):
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
        assert calls == {"boundary_value_M": 3, "slim_eta_M": 3, "analyticity_test": 3,
                         "window_levels": 1, "ac_support": 1, "sc_screen": 1,
                         "purity_filter": 1}


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
        return tuple(ResidueMatrix(lam0=lam, rho=0.01, r=np.ones((1, 1)), bound=1.0, rank=1,
                                   pole=lam) for lam in lams)

    def stages(self, ac_free=True):
        # an AC-free window has an empty union; the other one is AC on all of it
        union = GridSet(()) if ac_free else GridSet((self.WINDOW,))
        acs = ACSupportSet(grid=np.array(self.XS), per_probe_closed=(union,),
                           closed_union=union, boundary_values=np.zeros((1, 3), dtype=complex),
                           diverging=np.zeros((1, 3), bool), y_limit_zero=np.zeros((1, 3), bool))
        scr = SCReport(flagged_set=GridSet(()), excluded=True)
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
        assert [level.rank for level in levels] == [1] * 6
        for level in levels:
            assert 0.0 < level.pole < 1.0
            assert np.min(np.abs(oracle - level.pole)) <= 5e-12, level.pole

    def test_a_level_is_its_residue(self, t1):
        # the level stage hands out the residue of each contour that holds a
        # pole, and an eigenvalue verdict carries that record itself
        _, op = t1
        probes = make_probes(op.domain, "basis")
        levels = window_levels(op, (0.0, 4.0), probes, T1_CFG)
        assert all(type(level) is ResidueMatrix and level.rank >= 1 for level in levels)
        assert [round(level.pole, 9) for level in levels] == [1.0, 3.0]
        for x, level in ((0.9, levels[0]), (3.0, levels[1])):
            v = classify_point(op, x, T1_CFG, probes, levels)
            assert v.residue is level
            assert (v.refined_lambda, v.multiplicity) == (level.pole, level.rank)

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


class TestWindowEdges:
    def test_endpoint_beside_an_unseen_level_is_resolvent(self):
        # the free half-line's level 2.761114 lies outside the level stage's
        # reach (2.8, 4.1); 2.9 kept the full half-width 0.1, its analyticity
        # window ran up to that level, and 2.9 read 'continuous'.  A quarter
        # of the distance to the reach caps it, as for a known level.
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 0.5, "L": 16.5},
            "window": {"lo": 2.9, "hi": 4.0, "grid_step": 0.1}, "eta": {"eta0": 1e-2}}))
        verdicts = [p["verdict"] for p in report.data["points"]]
        assert verdicts[0] == "resolvent" and "continuous" not in verdicts

    def test_level_on_an_endpoint_is_listed_and_detected(self):
        # the level stage finds the level on lo as exactly 1.0, and the oracle
        # as 1.0000000000000004: the report's levels dropped it (1.0 is not
        # inside (1.0, 1.65)) while the cross-check listed the oracle's value
        # as missed.  One membership rule (in_window) keeps both or neither.
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 1.0, "L": 21.0},
            "window": {"lo": 1.0, "hi": 1.65, "grid_step": 0.05}, "eta": {"eta0": 1e-3}}))
        data = report.data
        assert (data["points"][0]["verdict"], data["points"][0]["refined_lambda"]) == (
            "eigenvalue", data["levels"][0]["lambda"])
        assert [round(level["lambda"], 9) for level in data["levels"]] == [
            1.0, 1.269317951, 1.554958132]
        assert [c["detected"] for c in data["oracle_crosscheck"]] == [True] * 3
        assert [c["lambda_detected"] for c in data["oracle_crosscheck"]] == [
            level["lambda"] for level in data["levels"]]
        assert data["purity"][0]["offending_points"] == [
            level["lambda"] for level in data["levels"]]

    def test_a_level_is_credited_only_within_its_accuracy(self):
        # the level stage returns 0.068758 where the oracle has 0.020664,
        # 0.082210 and 0.183310; the cross-check credited 0.082210 with it, an
        # error of 1.3e-2, because it lay within pole_match_radius (0.125).
        # A level counts only within level_tolerance, the stage's accuracy.
        report = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 1.0, "L": 24.0},
            "potential": {"kind": "well", "depth": 7.24, "width": 2.25},
            "window": {"lo": -2.75, "hi": 0.25, "grid_step": 0.25}, "eta": {"eta0": 1e-3}}))
        assert [round(level["lambda"], 6) for level in report.data["levels"]] == [0.068758]
        check = report.data["oracle_crosscheck"]
        assert [round(c["lambda_oracle"], 6) for c in check] == [0.020664, 0.08221, 0.18331]
        assert [(c["detected"], c["lambda_detected"]) for c in check] == [(False, None)] * 3

    def test_in_window(self):
        # the closed window, widened by 1e-9 of its scale on both sides
        assert dtnlab.classify.in_window((1.0, 1.65), 1.0)
        assert dtnlab.classify.in_window((1.0, 1.65), 1.0 - 1e-10)
        assert not dtnlab.classify.in_window((1.0, 1.65), 1.0 - 1e-8)
        assert dtnlab.classify.in_window((-3.0, 4.0), 4.0 + 3e-9)
        assert not dtnlab.classify.in_window((-3.0, 4.0), 4.0 + 5e-9)


class TestClassifyConfig:
    def test_unknown_floor_mode_rejected(self):
        # an unknown mode would otherwise run unfloored without a word
        with pytest.raises(ValueError, match="floor_mode"):
            ClassifyConfig(eta0=1e-2, floor_mode="constant")

    def test_halfline_floor_needs_a_length(self):
        # without L there is no level spacing: it would run unfloored without a word
        with pytest.raises(ValueError, match="halfline_length"):
            ClassifyConfig(eta0=1e-2, floor_mode="halfline_auto")


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
    @pytest.mark.parametrize("model, window", [("well1d", (0.3, 0.4)),
                                               ("reduced_annulus", (0.5, 1.0))])
    def test_contours_come_in_conjugate_pairs(self, request, monkeypatch, model, window):
        # the level stage's ellipse and every residue circle are closed under
        # exact conjugation, so the M(z) table, one entry per conjugate pair,
        # takes half their nodes; a circle's crossings of the real axis are
        # exactly real, and the ellipse has none
        dom, op = request.getfixturevalue(model)
        contours, sums = [], dtnlab.limits.contour_sums

        def recording(op_, nodes, weights):
            contours.append(np.asarray(nodes))
            return sums(op_, nodes, weights)

        monkeypatch.setattr(dtnlab.classify, "contour_sums", recording)
        monkeypatch.setattr(dtnlab.limits, "contour_sums", recording)
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.025, window_half_width=0.05)
        levels = window_levels(op, window, make_probes(dom, "basis"), cfg)
        assert len(levels) >= 1 and len(contours) >= 2
        for k, nodes in enumerate(contours):
            assert len(set(nodes.tolist())) == len(nodes)
            assert set(nodes.tolist()) == set(nodes.conj().tolist())
            assert np.count_nonzero(nodes.imag == 0) == (0 if k == 0 else 2)
            assert np.count_nonzero(nodes.imag >= 0) == len(nodes) // 2 + (k > 0)

    def test_each_z_materialized_once(self, monkeypatch):
        # a z enters the M(z) table once, by the tridiagonal reduction if it is
        # certified and by the LU (poisson_matrix) otherwise, and its value is
        # the one dtn_matrix gives on a fresh operator
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        op = assemble_operator(dom, zero_potential(dom))
        by_lu, by_reduction = [], []
        poisson_matrix, reduced = dtnlab.dtn.poisson_matrix, DirichletOperator.trace_resolvent

        def counting_lu(op_, lam):
            by_lu.append(complex(lam))
            return poisson_matrix(op_, lam)

        def counting_reduction(op_, zs):
            by_reduction.extend(complex(z) for z in zs)
            return reduced(op_, zs)

        monkeypatch.setattr(dtnlab.dtn, "poisson_matrix", counting_lu)
        monkeypatch.setattr(DirichletOperator, "trace_resolvent", counting_reduction)
        cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.25, window_half_width=0.25)
        # the level 0.929221: the residue contour crosses the real axis
        assert classify_point(op, 0.93, cfg, make_probes(dom, "basis")).verdict == "eigenvalue"
        entered = by_lu + by_reduction
        assert by_lu and by_reduction and len(set(entered)) == len(entered)
        assert not any(op.certified(z) for z in by_lu)
        assert all(op.certified(z) for z in by_reduction)
        assert set(op.m_table) == {_upper(z) for z in entered}

        monkeypatch.undo()
        fresh = assemble_operator(dom, zero_potential(dom))
        for z in entered:
            assert dtn_matrix(op, z).tobytes() == dtn_matrix(fresh, z).tobytes()

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


WELL_SWEEP = {"domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
              "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
              "window": {"lo": 0.0, "hi": 1.0, "grid_step": 0.05}}
REDUCED_WELL_SWEEP = dict(WELL_SWEEP, window={"lo": 0.3, "hi": 0.4, "grid_step": 0.05})
ANNULUS_SWEEP = {"domain": {"kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 7.5},
                 "window": {"lo": 0.5, "hi": 1.0, "grid_step": 0.25}}
# windows across the band edge 0 of a floored schedule: the free half-line
# and the depth-8 well, whose analyticity windows below 0 stop short of it
FLOORED = {"eta0": 0.4, "floor_mode": "halfline_auto"}
FREE_FLOORED_SWEEP = {"domain": {"kind": "halfline", "h": 0.05, "L": 60.0},
                      "window": {"lo": -0.5, "hi": 1.0, "grid_step": 0.25}, "eta": FLOORED}
WELL_FLOORED_SWEEP = dict(WELL_SWEEP, potential={"kind": "well", "depth": 8.0, "width": 1.0},
                          window={"lo": -3.5, "hi": 1.0, "grid_step": 0.25}, eta=FLOORED)


# the M(z) table's entries after the sweep that evaluates M at that many distinct z
TABLE_ENTRIES = {2408: 2254, 440: 241, 625: 561, 1857: 1778}


def _upper(z):
    """The representative of z's conjugate pair in the M(z) table: Im >= 0."""
    return z.conjugate() if z.imag < 0 else z


def _counted_sweep(monkeypatch, raw):
    """run_sweep on a config: (its operator, the z at which the sweep evaluates
    M, the number of trace_resolvent fills).  M is evaluated by dtn_matrices,
    up to and including each row's first NearSpectrum, and by dtn_matrix."""
    ops, requested, fills = [], set(), []
    build_model, matrix = dtnlab.report.build_model, dtnlab.dtn.dtn_matrix
    matrices, trace = dtnlab.limits.dtn_matrices, DirichletOperator.trace_resolvent

    def keeping(cfg):
        ops.append(build_model(cfg))
        return ops[-1]

    def requesting(op_, lam):
        requested.add(complex(lam))
        return matrix(op_, lam)

    def requesting_rows(op_, zs):
        m, lengths, failures = matrices(op_, zs)
        for row, n, failure in zip(np.atleast_2d(zs), lengths, failures):
            requested.update(complex(z) for z in row[:n + (failure is not None)])
        return m, lengths, failures

    def counting(op_, zs):
        fills.append(len(zs))
        return trace(op_, zs)

    monkeypatch.setattr(dtnlab.report, "build_model", keeping)
    monkeypatch.setattr(dtnlab.dtn, "dtn_matrix", requesting)
    monkeypatch.setattr(dtnlab.limits, "dtn_matrices", requesting_rows)
    monkeypatch.setattr(DirichletOperator, "trace_resolvent", counting)
    run_sweep(config_from_dict(raw))
    monkeypatch.undo()
    [(_, op)] = ops
    return op, requested, len(fills)


class TestStageFill:
    @pytest.mark.parametrize("raw", [REDUCED_WELL_SWEEP, WELL_SWEEP, FREE_FLOORED_SWEEP,
                                     WELL_FLOORED_SWEEP])
    def test_one_fill_per_stage(self, monkeypatch, raw):
        # the level stage enters its ellipse, then every residue circle, and
        # the sweep every grid point's eta profile and analyticity window, each
        # in one continued fraction; one call per profile, analyticity window,
        # residue circle and ellipse made 43 of them on the full sweep
        assert _counted_sweep(monkeypatch, raw)[2] <= 3

    @pytest.mark.parametrize("raw, distinct", [(WELL_SWEEP, 2408), (ANNULUS_SWEEP, 440),
                                               (FREE_FLOORED_SWEEP, 625),
                                               (WELL_FLOORED_SWEEP, 1857)])
    def test_table_holds_only_requested_z(self, monkeypatch, raw, distinct):
        # every z that a stage fill enters is one the sweep then evaluates; the
        # free floored sweep's -0.5 lies below the edge, and its analyticity
        # window is capped by the level stage's reach (was 603 without the cap).
        # The table holds one entry per conjugate pair of those z: the
        # contours' lower halves take none of their own
        op, requested, _ = _counted_sweep(monkeypatch, raw)
        assert set(op.m_table) == {_upper(z) for z in requested}
        assert (len(requested), len(op.m_table)) == (distinct, TABLE_ENTRIES[distinct])

    @pytest.mark.parametrize("raw", [WELL_SWEEP, dict(ANNULUS_SWEEP, domain={
        "kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5})])
    def test_fill_leaves_values_unchanged(self, monkeypatch, raw):
        # each level and grid point of the sweep, bit for bit as the level
        # stage and classify_point give them on a fresh operator without any
        # stage fill, where every dtn_matrices call fills its own z
        cfg = config_from_dict(raw)
        ccfg, step = cfg.classify_config(), cfg.grid_step
        dom, op = dtnlab.report.build_model(cfg)
        probes = make_probes(dom, "basis")
        sweep = sweep_window(op, cfg.window, probes, ccfg, step)

        monkeypatch.setattr(dtnlab.classify, "fill_certified", lambda op_, zs: None)
        fresh = dtnlab.report.build_model(cfg)[1]
        levels = window_levels(fresh, cfg.window, probes, ccfg)
        assert len(levels) == len(sweep.levels) > 0
        for ours, theirs in zip(sweep.levels, levels):
            for name in ("lam0", "rho", "bound", "rank", "pole"):
                assert getattr(ours, name) == getattr(theirs, name)
            assert ours.r.tobytes() == theirs.r.tobytes()
        for x, v in sweep.points:
            w = classify_point(fresh, x, ccfg, probes, levels)
            assert (v.verdict, v.refined_lambda, v.multiplicity) == (
                w.verdict, w.refined_lambda, w.multiplicity)
            for key in ("slim_rel", "decay_exponent"):
                assert v.evidence[key].tobytes() == w.evidence[key].tobytes()

    @pytest.mark.parametrize("raw", [REDUCED_WELL_SWEEP, dict(ANNULUS_SWEEP, domain={
        "kind": "exterior2d", "h": 1.0, "a": 1.5, "L": 4.5})])
    def test_table_holds_only_m(self, monkeypatch, raw):
        # the operator's table maps complex z to M(z) and nothing else, and no
        # entry can be written, whether a stage fill or an LU entered it; its
        # other lazily built data are built once and read-only
        op = _counted_sweep(monkeypatch, raw)[0]
        assert op.m_table and all(type(key) is complex for key in op.m_table)
        assert not any(m.flags.writeable for m in op.m_table.values())
        arrays = []
        for name in ("a_norm", "b", "tridiagonal", "free_tail", "reduction", "trace_poles",
                     "banded", "m_table"):
            value = getattr(op, name)
            assert getattr(op, name) is value
            with pytest.raises(AttributeError):
                setattr(op, name, value)
            arrays += value if isinstance(value, tuple) else [value]
        assert not any(a.flags.writeable for a in arrays if isinstance(a, np.ndarray))
        # building them entered nothing in the table
        assert all(type(key) is complex for key in op.m_table)


class TestGridPass:
    """classify_point over a whole grid: one evidence block and one analyticity
    call per run of points that share a schedule."""

    T1_TINY_ETA = {"domain": {"kind": "halfline", "h": 1.0, "L": 3.0},
                   "window": {"lo": 0.0, "hi": 4.0, "grid_step": 0.1},
                   "eta": {"eta0": 1e-300}}

    def test_failure_stays_local(self):
        # at eta0 1e-300 the profiles at the levels 1 and 3 stop at eta0, so
        # the evidence block raises: those two points keep their NearSpectrum,
        # the other 39 are classified as a scalar call classifies them, and no
        # RuntimeWarning escapes the solver's distance estimate
        cfg = config_from_dict(self.T1_TINY_ETA)
        ccfg, step = cfg.classify_config(), cfg.grid_step
        dom, op = dtnlab.report.build_model(cfg)
        probes = make_probes(dom, "basis")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sweep = sweep_window(op, cfg.window, probes, ccfg, step)
            failed = {round(float(x), 12): str(v) for x, v in sweep.points
                      if isinstance(v, NearSpectrum)}
            assert failed == {
                1.0: "spectral parameter (1+1e-300j) is too close to the spectrum "
                     "(estimated distance 0.000e+00)",
                3.0: "spectral parameter (3+1e-300j) is too close to the spectrum "
                     "(estimated distance 0.000e+00)"}
            others = [(x, v) for x, v in sweep.points if not isinstance(v, NearSpectrum)]
            assert [v.verdict for _, v in others] == ["resolvent"] * 39
            fresh = dtnlab.report.build_model(cfg)[1]
            for x, v in others:
                w = classify_point(fresh, x, ccfg, probes)
                assert w.verdict == v.verdict, x
                for key in ("slim_rel", "decay_exponent"):
                    assert v.evidence[key].tobytes() == w.evidence[key].tobytes(), x

    def test_failed_pair_is_factorized_once(self, monkeypatch):
        # at eta0 1e-300 the z 1+1e-300i and 3+1e-300i lie on T1's levels: the
        # evidence block, the grid pass's one-point retry, ac_support and the
        # CSV rows each ask for them (4 factorizations each when the table
        # kept nothing); the table keeps their NearSpectrum, so each is
        # factorized once, as is every other z of the sweep, and the two
        # points still report it
        counts = Counter()
        factorize = DirichletOperator.factorize

        def counting(op_, z):
            counts[complex(z)] += 1
            return factorize(op_, z)

        monkeypatch.setattr(DirichletOperator, "factorize", counting)
        data = run_sweep(config_from_dict(self.T1_TINY_ETA)).data
        assert counts[1 + 1e-300j] == counts[3 + 1e-300j] == 1
        assert max(counts.values()) == 1
        failed = {p["x"]: p["reason"] for p in data["points"] if p["verdict"] == "inconclusive"}
        assert failed == {
            1.0: "spectral parameter (1+1e-300j) is too close to the spectrum "
                 "(estimated distance 0.000e+00)",
            3.0: "spectral parameter (3+1e-300j) is too close to the spectrum "
                 "(estimated distance 0.000e+00)"}

    def test_array_analyticity_matches_scalar_calls(self, monkeypatch):
        # the well sweep tests its 15 planned windows in one analyticity_test
        # call; each window alone, on a fresh operator, gives the same report
        calls = []
        analyticity_test = dtnlab.classify.analyticity_test

        def keeping(*args):
            calls.append(args)
            return analyticity_test(*args)

        monkeypatch.setattr(dtnlab.classify, "analyticity_test", keeping)
        run_sweep(config_from_dict(WELL_SWEEP))
        monkeypatch.undo()
        [(op, xs, half_widths, probes, sched)] = calls
        assert len(xs) == len(half_widths) == 15

        fresh = assemble_operator(op.domain, op.potential)
        block = analyticity_test(fresh, xs, half_widths, probes, sched)
        fresh = assemble_operator(op.domain, op.potential)
        alone = [analyticity_test(fresh, x, w, probes, sched) for x, w in zip(xs, half_widths)]
        assert block.ok.tolist() == [bool(rep.ok) for rep in alone]
        assert block.ok.all()
        for name in ("slim_max", "im_max"):
            assert getattr(block, name).tobytes() == np.array(
                [getattr(rep, name) for rep in alone]).tobytes(), name
        np.testing.assert_allclose(block.fit_misfit, [rep.fit_misfit for rep in alone],
                                   rtol=1e-12, atol=0)


def test_window_grid_stops_at_hi():
    assert np.array_equal(dtnlab.classify.window_grid((0.0, 1.0), 0.35), [0.0, 0.35, 0.7])
    assert len(dtnlab.classify.window_grid((0.0, 4.0), 0.1)) == 41
    assert len(dtnlab.classify.window_grid((0.3, 0.4), 0.05)) == 3
    assert dtnlab.classify.window_grid((0.0, 1.0), 0.35)[-1] <= 1.0
