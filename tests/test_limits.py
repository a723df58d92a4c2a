import numpy as np
import pytest

from dtnlab import (
    ContourTouchesSpectrum,
    EtaSchedule,
    analyticity_test,
    boundary_value_M,
    residue_contour,
    richardson_extrapolate,
    slim_eta_M,
)
from dtnlab.limits import decay_exponent

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

    def test_none_below_two_samples(self):
        etas = EtaSchedule(1e-2, 0.5, 8).samples()
        assert decay_exponent(etas, np.zeros(8)) is None
        assert decay_exponent(etas, [1.0] + [1e-300] * 7) is None


class TestRichardson:
    def test_polynomial_exact(self):
        etas = 0.1 * 0.5 ** np.arange(6)
        f = lambda e: 2.0 - 3.0 * e + 0.5 * e ** 2
        value, err = richardson_extrapolate(etas, [f(e) for e in etas])
        assert value == pytest.approx(2.0, abs=1e-13)
        assert err <= 1e-10

    def test_vector_samples(self):
        etas = np.array([0.2, 0.1, 0.05])
        vals = [np.array([1 + e, 2 - e]) for e in etas]
        value, _ = richardson_extrapolate(etas, vals)
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
        assert est.converged


class TestBoundaryValue:
    def test_real_limit_in_gap(self, t1):
        _, op = t1
        est = boundary_value_M(op, 2.0, G, EtaSchedule(1e-2))
        assert complex(est.value) == pytest.approx(1.0, abs=1e-9)
        assert est.converged and not est.diverging

    def test_divergence_flag_at_pole(self, t1):
        _, op = t1
        est = boundary_value_M(op, 1.0, G, EtaSchedule(1e-2))
        assert est.diverging

    def test_floored_reports_floor_value(self, t1):
        _, op = t1
        sched = EtaSchedule(1e-1, 0.5, 8, floor=2e-2)
        est = boundary_value_M(op, 2.0, G, sched)
        from dtnlab import dtn_matrix
        direct = dtn_matrix(op, 2.0 + 2e-2j).m[0, 0]
        assert complex(est.value) == pytest.approx(direct)
        assert est.meta["floored"]


class TestResidue:
    def test_residue_at_pole(self, t1):
        _, op = t1
        res = residue_contour(op, 1.0, 0.5)
        assert res.r[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_in_gap(self, t1):
        _, op = t1
        res = residue_contour(op, 2.0, 0.5)
        assert abs(res.r[0, 0]) <= 1e-9

    def test_contour_touching_spectrum(self, t1):
        _, op = t1
        with pytest.raises(ContourTouchesSpectrum):
            residue_contour(op, 2.0, 1.0)   # nodes land on 1.0 and 3.0

    def test_parameter_validation(self, t1):
        _, op = t1
        with pytest.raises(ValueError):
            residue_contour(op, 1.0, 0.5, n=15)
        with pytest.raises(ValueError):
            residue_contour(op, 1.0, -0.5)


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
