from dataclasses import fields

import numpy as np
import pytest

from dtnlab import (
    ContourTouchesSpectrum,
    EtaSchedule,
    NearSpectrum,
    analyticity_test,
    assemble_operator,
    dtn_matrices,
    dtn_matrix,
    make_probes,
    boundary_value_M,
    oracle_eigendecomposition,
    poisson_matrix,
    residue_contour,
    richardson_extrapolate,
    richardson_weights,
    slim_eta_M,
)
from dtnlab.dtn import _dtn_from_gamma
from dtnlab.limits import RESIDUE_NODES, circle_nodes, decay_exponent

G = np.array([1.0 + 0j])


class TestEtaSchedule:
    def test_samples_decrease(self):
        s = EtaSchedule(1e-2, 0.5, 8)
        etas = s.samples()
        assert len(etas) == 8
        assert np.all(np.diff(etas) < 0)
        assert etas[0] == 1e-2

    def test_floor_dedup(self):
        s = EtaSchedule(1e-2, 0.5, 8, floor=3e-3)
        etas = s.samples()
        assert etas[-1] == 3e-3
        assert np.all(np.diff(etas) < 0)
        assert s.floored

    def test_validation(self):
        with pytest.raises(ValueError):
            EtaSchedule(-1.0)
        with pytest.raises(ValueError):
            EtaSchedule(float("nan"))
        with pytest.raises(ValueError):
            EtaSchedule(1e-2, ratio=1.5)
        with pytest.raises(ValueError):
            EtaSchedule(1e-2, count=2)
        with pytest.raises(ValueError):
            EtaSchedule(1e-2, floor=2e-2)
        with pytest.raises(ValueError):
            EtaSchedule(1e-2, floor=float("nan"))


class TestDecayExponent:
    @pytest.mark.parametrize("k", [-1.0, 0.0, 0.5, 2.0])
    def test_slope_of_power_law(self, k):
        etas = EtaSchedule(1e-2, 0.5, 8).samples()
        assert decay_exponent(etas, 3.0 * etas ** k) == pytest.approx(k, abs=1e-12)

    def test_nan_below_two_samples(self):
        etas = EtaSchedule(1e-2, 0.5, 8).samples()
        assert np.isnan(decay_exponent(etas, np.zeros(8)))
        assert np.isnan(decay_exponent(etas, [1.0] + [1e-300] * 7))

    def test_rows_match_polyfit(self):
        etas = EtaSchedule(1e-2, 0.5, 8).samples()
        rng = np.random.default_rng(7)
        norms = np.exp(rng.normal(size=(6, 8))) * etas ** rng.uniform(-2, 2, size=(6, 1))
        norms[3, 5:] = 1e-300          # partial underflow: five samples enter
        norms[4, 1:] = 0.0             # one sample left: no slope
        norms[5] = 0.0
        slopes = decay_exponent(etas, norms)
        assert slopes.shape == (6,)
        for row, slope in zip(norms, slopes):
            keep = row > 1e-290
            if keep.sum() < 2:
                assert np.isnan(slope) and np.isnan(decay_exponent(etas, row))
                continue
            ref = np.polyfit(np.log(etas[keep]), np.log(row[keep]), 1)[0]
            assert abs(slope - ref) <= 1e-13
            assert decay_exponent(etas, row) == slope


class TestRichardson:
    def test_polynomial_exact(self):
        etas = 0.1 * 0.5 ** np.arange(6)
        f = lambda e: 2.0 - 3.0 * e + 0.5 * e ** 2
        value = richardson_extrapolate(etas, [f(e) for e in etas])
        assert value == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weights_exact_on_polynomials(self, n):
        # sum_k w_k eta_k^d is the value at 0 of eta^d: 1 for d = 0, else 0, for d < n
        etas = 0.1 * 0.5 ** np.arange(n)
        w = richardson_weights(etas)
        assert abs(w.sum() - 1.0) <= 1e-14 * np.abs(w).sum()
        for d in range(1, n):
            assert abs(w @ etas ** d) <= 1e-14 * np.abs(w).sum() * etas[0] ** d

    def test_matches_neville(self):
        # the Neville table that the weighted sum replaced, as the reference
        etas = 0.1 * 0.5 ** np.arange(6)
        vals = np.random.default_rng(3).normal(size=(6, 4))
        table = list(vals)
        for m in range(1, len(table)):
            table = [(etas[i] * table[i + 1] - etas[i + m] * table[i]) / (etas[i] - etas[i + m])
                     for i in range(len(table) - 1)]
        value = richardson_extrapolate(etas, vals)
        scale = np.abs(richardson_weights(etas)) @ np.abs(vals)
        assert np.all(np.abs(value - table[0]) <= 1e-13 * scale)

    def test_vector_samples(self):
        etas = np.array([0.2, 0.1, 0.05])
        vals = [np.array([1 + e, 2 - e]) for e in etas]
        value = richardson_extrapolate(etas, vals)
        assert np.allclose(value, [1.0, 2.0])


class TestSlim:
    def test_nonzero_at_eigenvalue(self, t1):
        _, op = t1
        est = slim_eta_M(op, 1.0, G, EtaSchedule(1e-2))
        # near a simple pole, eta*M(x+i eta) -> -i * residue
        assert complex(est.value[0]) == pytest.approx(-0.5j, abs=1e-8)
        assert est.decay_exponent < 0.5

    def test_zero_off_spectrum(self, t1):
        _, op = t1
        est = slim_eta_M(op, 2.0, G, EtaSchedule(1e-2))
        assert abs(complex(est.value[0])) <= 1e-10
        assert est.decay_exponent > 0.5
        assert not est.partial


class TestBoundaryValue:
    def test_real_limit_in_gap(self, t1):
        _, op = t1
        est = boundary_value_M(op, 2.0, G, EtaSchedule(1e-2))
        assert complex(est.value) == pytest.approx(1.0, abs=1e-9)
        assert not est.partial and not est.diverging

    def test_divergence_flag_at_pole(self, t1):
        _, op = t1
        est = boundary_value_M(op, 1.0, G, EtaSchedule(1e-2))
        assert est.diverging

    def test_floored_reports_floor_value(self, t1):
        _, op = t1
        sched = EtaSchedule(1e-1, 0.5, 8, floor=2e-2)
        est = boundary_value_M(op, 2.0, G, sched)
        direct = dtn_matrix(op, 2.0 + 2e-2j)[0, 0]
        assert complex(est.value) == pytest.approx(direct)
        assert est.value == est.last


class TestLimitBlocks:
    @pytest.mark.parametrize("model, xs, sched", [
        ("t1", np.linspace(0.9, 1.1, 17), EtaSchedule(1e-9)),   # ragged: 1.0 keeps 2 samples
        ("t1", np.linspace(1.5, 2.5, 5), EtaSchedule(1e-1, floor=2e-2)),
        ("well1d", np.linspace(0.3, 0.4, 3), EtaSchedule(1e-2)),
        ("reduced_annulus", np.array([0.5, 0.75, 0.93]), EtaSchedule(1e-2)),
        ("reduced_annulus", np.array([0.5, 0.75]), EtaSchedule(1e-1, floor=2e-2)),
    ])
    def test_block_equals_pointwise(self, request, model, xs, sched):
        # every field of a (probe, point) block is bitwise the per-point call
        dom, op = request.getfixturevalue(model)
        probes = np.array(make_probes(dom, "random", count=3, seed=5))
        for limit in (slim_eta_M, boundary_value_M):
            block = limit(op, xs, probes, sched)
            assert block.partial.shape == (3, len(xs))
            for k, g in enumerate(probes):
                for j, x in enumerate(xs):
                    single = limit(op, x, g, sched)
                    for f in fields(block):
                        assert np.array_equal(getattr(block, f.name)[k, j],
                                              getattr(single, f.name), equal_nan=True), \
                            (limit.__name__, f.name, k, x)

    def test_ragged_block_is_partial_at_the_level(self, t1):
        _, op = t1
        est = slim_eta_M(op, np.linspace(0.9, 1.1, 17), G, EtaSchedule(1e-9))
        assert np.flatnonzero(est.partial).tolist() == [8]


class TestResidue:
    def test_residue_at_pole(self, t1):
        _, op = t1
        res = residue_contour(op, 1.0, 0.5)
        assert res.r[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_in_gap(self, t1):
        _, op = t1
        res = residue_contour(op, 2.0, 0.5)
        assert abs(res.r[0, 0]) <= 1e-9
        # no pole inside: the residue counts as zero and the pole is the centre
        assert res.pole == 2.0

    def test_pole_from_first_moment(self, t1):
        # off-centre by 1e-3, the first moment places the one pole inside
        _, op = t1
        res = residue_contour(op, 1.001, 0.3)
        assert res.pole == pytest.approx(1.0, abs=1e-12)

    def test_contour_touching_spectrum(self, t1):
        _, op = t1
        with pytest.raises(ContourTouchesSpectrum, match=r"node \(3\+0j\)") as exc:
            residue_contour(op, 2.0, 1.0)   # nodes land on 1.0 and 3.0, the first on 3.0
        assert isinstance(exc.value.__cause__, NearSpectrum)

    @pytest.mark.parametrize("rho", [0.05, 0.25])
    def test_annulus_residue_matches_lu(self, annulus2d, rho):
        # the certified nodes come from the tridiagonal reduction, the two on
        # the real axis from the LU; the reference is the LU at every node
        dom, op = annulus2d
        eig = oracle_eigendecomposition(op)
        lam0 = eig.values[np.argmin(np.abs(eig.values - 0.749213))]
        res = residue_contour(op, lam0, rho)
        w = np.exp(2j * np.pi * np.arange(32) / 32)
        ref = sum(_dtn_from_gamma(op, poisson_matrix(op, lam0 + rho * wj)) * wj
                  for wj in w) * rho / 32
        assert np.linalg.norm(res.r - ref) <= 1e-10 * np.linalg.norm(ref)
        # the ranks window_levels reads: weighted singular values above 1e-8 x the bound
        rank = [int(np.sum(dom.boundary_singular_values(r) > 1e-8 * res.bound))
                for r in (res.r, ref)]
        assert rank[0] == rank[1]

    def test_parameter_validation(self, t1):
        _, op = t1
        with pytest.raises(ValueError):
            residue_contour(op, 1.0, -0.5)

    @pytest.mark.parametrize("lam0, rho", [(0.749213, 0.05), (1.0, 0.5), (-3.0, 1e-3)])
    def test_circle_nodes_conjugate_pairs(self, lam0, rho):
        # node 32 - k is the exact conjugate of node k, and the crossings
        # lam0 + rho and lam0 - rho are exactly real (rho exp(i pi) is not)
        nodes, w = circle_nodes(lam0, rho)
        assert len(nodes) == len(w) == RESIDUE_NODES
        for points in (nodes, w):
            assert np.array_equal(points[:0:-1], points[1:].conj())
        assert nodes[0] == lam0 + rho and nodes[RESIDUE_NODES // 2] == lam0 - rho
        assert np.count_nonzero(nodes.imag == 0) == 2
        ref = lam0 + rho * np.exp(2j * np.pi * np.arange(RESIDUE_NODES) / RESIDUE_NODES)
        assert np.max(np.abs(nodes - ref)) <= 4e-16 * (abs(lam0) + rho)


class TestAnalyticity:
    def test_true_in_gap(self, t1):
        _, op = t1
        rep = analyticity_test(op, 2.0, 0.2, [G], EtaSchedule(1e-2))
        assert rep.ok
        assert rep.fit_misfit <= 1e-5

    def test_false_at_eigenvalue(self, t1):
        _, op = t1
        rep = analyticity_test(op, 1.0, 0.2, [G], EtaSchedule(1e-2))
        assert not rep.ok

    def test_true_below_spectrum(self, t1):
        _, op = t1
        rep = analyticity_test(op, -1.0, 0.3, [G], EtaSchedule(1e-2))
        assert rep.ok


def _pointwise_analyticity(op, x, half_width, probes, sched, n_window=17, fit_degree=10):
    """(slim_max, im_max, fit_misfit) composed point by point from slim_eta_M
    and boundary_value_M, the way analyticity_test is specified: one probe's fit
    at a time, on the window's points mapped onto [-1, 1]."""
    xs = np.linspace(x - half_width, x + half_width, n_window)
    nodes, poly = np.linspace(-1, 1, n_window), np.polynomial.polynomial
    slim_max = im_max = fit_misfit = 0.0
    for g in probes:
        fit_vals = np.empty(n_window, dtype=complex)
        for j, xj in enumerate(xs):
            slim_max = max(slim_max, slim_eta_M(op, xj, g, sched).relative)
            bv = boundary_value_M(op, xj, g, sched)
            im_max = max(im_max, abs(complex(bv.value).imag) / max(abs(complex(bv.value)), 1.0))
            fit_vals[j] = bv.last
        fit = poly.polyval(nodes, poly.polyfit(nodes, fit_vals, min(fit_degree, n_window - 2)))
        resid = np.max(np.abs(fit_vals - fit)) / max(np.max(np.abs(fit_vals)), 1e-300)
        fit_misfit = max(fit_misfit, float(resid))
    return slim_max, im_max, fit_misfit


def _block_and_pointwise(model, x, half_width, sched):
    """Both evaluations, each on a fresh operator (its own M(z) table); a
    NearSpectrum becomes its message."""
    dom, op = model
    probes = make_probes(dom, "basis")

    def block(fresh):
        rep = analyticity_test(fresh, x, half_width, probes, sched)
        return rep.slim_max, rep.im_max, rep.fit_misfit

    def pointwise(fresh):
        return _pointwise_analyticity(fresh, x, half_width, probes, sched)

    results = []
    for evaluate in (block, pointwise):
        try:
            results.append(evaluate(assemble_operator(dom, op.potential)))
        except NearSpectrum as exc:
            results.append(str(exc))
    return results


class TestAnalyticityBlock:
    @pytest.mark.parametrize("x, half_width, sched", [
        (0.5, 0.25, EtaSchedule(1e-2)),
        (0.93, 0.25, EtaSchedule(1e-2)),
        (1.0, 0.5, EtaSchedule(1e-2)),
        (0.75, 0.0625, EtaSchedule(1e-1, floor=2e-2)),
    ])
    def test_bitwise_in_2d(self, reduced_annulus, x, half_width, sched):
        block, pointwise = _block_and_pointwise(reduced_annulus, x, half_width, sched)
        assert block == pointwise

    @pytest.mark.parametrize("model, x, half_width, sched", [
        ("well1d", 0.35, 0.05, EtaSchedule(1e-2)),
        ("well1d", 0.55, 0.0125, EtaSchedule(1e-2)),
        ("t1", 2.0, 0.2, EtaSchedule(1e-1, floor=2e-2)),
        ("t1", 1.0, 0.1, EtaSchedule(1e-9)),      # ragged: the point at 1 keeps 2 samples
        ("t1", 0.9, 0.025, EtaSchedule(1e-13)),
    ])
    def test_matches_pointwise_in_1d(self, request, model, x, half_width, sched):
        block, pointwise = _block_and_pointwise(request.getfixturevalue(model), x,
                                                half_width, sched)
        assert np.allclose(block, pointwise, rtol=1e-10, atol=0)

    def test_ragged_profiles(self, t1):
        _, op = t1
        xs = np.linspace(0.9, 1.1, 17)
        _, lengths, failures = dtn_matrices(op, xs[:, None] + 1j * EtaSchedule(1e-9).samples())
        assert lengths[8] == 2 and set(np.delete(lengths, 8)) == {8}
        assert isinstance(failures[8], NearSpectrum)

    def test_failure_at_eta0_reraised(self, t1):
        # eta0 = 1e-13 puts the window point 1.0 on the level: both raise there
        block, pointwise = _block_and_pointwise(t1, 1.1, 0.1, EtaSchedule(1e-13))
        assert block == pointwise
        assert "(1+1e-13j) is too close to the spectrum" in block
