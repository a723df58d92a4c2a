import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dtnlab import (
    DegenerateParameters,
    DirichletOperator,
    Exterior2D,
    SingularRobinPencil,
    assemble_operator,
    boundary_adjoint,
    build_domain,
    dtn_matrix,
    gamma_adjoint,
    identity_suite,
    normal_derivative,
    poisson_matrix,
    poisson_solve,
    robin_to_dirichlet,
    zero_potential,
)


def _random_params(rng):
    lam = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
    zeta = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
    nu = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 2))
    return lam, zeta, nu


class TestPoisson:
    def test_t1_at_zero(self, t1):
        _, op = t1
        u = poisson_solve(op, 0.0, np.array([1.0]))
        assert np.allclose(u, [2 / 3, 1 / 3])

    def test_matrix_columns(self, annulus2d, rng):
        _, op = annulus2d
        gamma = poisson_matrix(op, 0.3j).gamma
        g = rng.standard_normal(op.domain.n_boundary)
        assert np.allclose(gamma @ g, poisson_solve(op, 0.3j, g))

    def test_wrong_length(self, t1):
        _, op = t1
        with pytest.raises(ValueError):
            poisson_solve(op, 0.0, np.array([1.0, 2.0]))


class TestDtnMatrix:
    def test_t1_values(self, t1):
        _, op = t1
        assert dtn_matrix(op, 0.0).m[0, 0] == pytest.approx(1 / 3)
        assert dtn_matrix(op, 2.0).m[0, 0] == pytest.approx(1.0)

    def test_table_entries_read_only(self, annulus2d):
        _, op = annulus2d
        m = dtn_matrix(op, 0.3 + 0.2j).m
        assert dtn_matrix(op, 0.3 + 0.2j).m is m
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_table_filled_concurrently(self):
        # concurrent misses on one z may both build; every caller must still
        # get the value a serial run computes
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        zs = [complex(0.1 * k, 0.05) for k in range(20)]
        serial = assemble_operator(dom, zero_potential(dom))
        expected = [dtn_matrix(serial, z).m for z in zs]
        shared = assemble_operator(dom, zero_potential(dom))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = [pool.submit(lambda: [dtn_matrix(shared, z).m for z in zs])
                        for _ in range(8)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results + [[dtn_matrix(shared, z).m for z in zs]]:
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_normal_derivative_consistency(self, annulus2d, rng):
        # M g must equal the normal derivative of the Poisson solution
        dom, op = annulus2d
        g = rng.standard_normal(dom.n_boundary) + 0j
        lam = 0.4 + 0.8j
        u = poisson_solve(op, lam, g)
        assert np.allclose(dtn_matrix(op, lam).m @ g, normal_derivative(dom, g, u))

    def test_weighted_conjugate_symmetry_2d(self, annulus2d):
        # entrywise transpose symmetry fails at corners; the weighted adjoint is exact
        dom, op = annulus2d
        lam = 0.7 + 0.5j
        m = dtn_matrix(op, lam).m
        m_bar = dtn_matrix(op, np.conj(lam)).m
        assert np.max(np.abs(m_bar - boundary_adjoint(dom, m))) <= 1e-12
        assert np.max(np.abs(m_bar - m.conj().T)) > 1e-3

    def test_herglotz_sign_law(self, t1, annulus2d, rng):
        for dom, op in (t1, annulus2d):
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2))
                g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
                m = dtn_matrix(op, lam).m
                lhs = dom.boundary_inner(m @ g, g).imag
                rhs = -lam.imag * dom.interior_norm(poisson_solve(op, lam, g)) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGammaAdjoint:
    def test_adjoint_pairing(self, annulus2d, rng):
        dom, op = annulus2d
        lam = -0.6 + 1.1j
        gamma = poisson_matrix(op, lam).gamma
        g_star = gamma_adjoint(op, lam)
        g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
        u = rng.standard_normal(dom.n_interior) + 1j * rng.standard_normal(dom.n_interior)
        lhs = dom.interior_inner(gamma @ g, u)
        rhs = dom.boundary_inner(g, g_star @ u)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_t1_example(self, t1):
        _, op = t1
        g_star = gamma_adjoint(op, 0.0)
        assert g_star @ np.array([1.0, 0.0]) == pytest.approx(2 / 3)


class TestIdentitySuite:
    def test_machine_precision_t1(self, t1, rng):
        _, op = t1
        for _ in range(5):
            rep = identity_suite(op, *_random_params(rng))
            assert rep.max_residual <= 1e-12

    def test_machine_precision_2d(self, annulus2d, rng):
        _, op = annulus2d
        for _ in range(5):
            rep = identity_suite(op, *_random_params(rng))
            assert rep.max_residual <= 1e-12

    @pytest.mark.parametrize("model", ["reduced_annulus", "well1d"])
    def test_one_factorization_per_distinct_z(self, request, model, rng, monkeypatch):
        _, op = request.getfixturevalue(model)
        op = assemble_operator(op.domain, op.potential)
        lam, zeta, nu = _random_params(rng)
        factored = []
        factorize = DirichletOperator.factorize

        def counting(op_, z):
            factored.append(complex(z))
            return factorize(op_, z)

        monkeypatch.setattr(DirichletOperator, "factorize", counting)
        rep = identity_suite(op, lam, zeta, nu)
        monkeypatch.undo()
        assert rep.max_residual <= 1e-10
        assert len(factored) == 4 and set(factored) == {lam, zeta, zeta.conjugate(), nu}
        # the M(z) it entered in the table are the ones dtn_matrix computes
        fresh = assemble_operator(op.domain, op.potential)
        for z in factored:
            assert np.array_equal(op._cache[z], dtn_matrix(fresh, z).m)

    def test_reports_all_four(self, t1):
        _, op = t1
        rep = identity_suite(op, 0.5 + 1j, -0.5 + 0.8j, 0.2 - 0.6j)
        assert set(rep.residuals) == {
            "poisson_update", "weyl_difference", "three_point", "weyl_representation",
        }

    def test_degenerate_parameters(self, t1):
        _, op = t1
        zeta = -0.5 + 0.8j
        with pytest.raises(DegenerateParameters):
            identity_suite(op, 0.5 + 1j, zeta, np.conj(zeta))
        with pytest.raises(DegenerateParameters):
            identity_suite(op, 0.5 + 1j, zeta, 0.5 + 1j)


class TestRobin:
    def test_zero_theta_inverts_m(self, t1):
        _, op = t1
        lam = 0.0
        m = dtn_matrix(op, lam).m
        rm = robin_to_dirichlet(op, lam, np.zeros((1, 1)))
        assert rm.m_theta[0, 0] == pytest.approx(-1 / m[0, 0])

    def test_singular_pencil(self, t1):
        _, op = t1
        with pytest.raises(SingularRobinPencil):
            robin_to_dirichlet(op, 0.0, np.array([[1 / 3]]))

    def test_nonsymmetric_theta_rejected(self, annulus2d, rng):
        _, op = annulus2d
        theta = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            robin_to_dirichlet(op, 0.5j, theta)
