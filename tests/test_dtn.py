import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dtnlab import (
    DegenerateParameters,
    DirichletOperator,
    Exterior2D,
    MTable,
    NearSpectrum,
    assemble_operator,
    boundary_adjoint,
    build_domain,
    dtn_matrices,
    dtn_matrix,
    identity_suite,
    normal_derivative,
    poisson_matrix,
    poisson_solve,
    zero_potential,
)
from dtnlab.domain import ShiftedSolver
from dtnlab.dtn import _adjoint_from_gamma


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
        gamma = poisson_matrix(op, 0.3j)
        g = rng.standard_normal(op.domain.n_boundary)
        assert np.allclose(gamma @ g, poisson_solve(op, 0.3j, g))

    def test_wrong_length(self, t1):
        _, op = t1
        with pytest.raises(ValueError):
            poisson_solve(op, 0.0, np.array([1.0, 2.0]))


class TestMTable:
    def test_gather_across_blocks_and_conjugates(self):
        # M(z) = [[z]] stands in for a DtN matrix: M(conj z) = conj M(z)
        table = MTable()
        table.cached_many([1j, 2 - 1j, 1j], lambda zs: np.array(zs)[:, None, None])
        table.cached_many([3 - 1j], lambda zs: np.array(zs)[:, None, None])
        assert set(table) == {1j, 2 + 1j, 3 + 1j} and len(table) == 3
        zs = np.array([[1j, -1j, 3 + 1j], [3 - 1j, 5j, 2 - 1j]])
        out = np.full(zs.shape + (1, 1), 7.0 + 0j)
        hit = table.gather(zs, out)
        assert hit.tolist() == [[True, True, True], [True, False, True]]
        assert out[..., 0, 0].tolist() == [[1j, -1j, 3 + 1j], [3 - 1j, 7, 2 - 1j]]
        # only the pairs the table lacks are built, each once
        built = []
        table.cached_many([-1j, 5j, 5 - 1j, 5 + 1j], lambda zs: built.extend(zs) or
                          np.array(zs)[:, None, None])
        assert built == [5j, 5 + 1j] and len(table) == 5
        assert not any(m.flags.writeable for m in table.values())
        with pytest.raises(ZeroDivisionError):
            table.cached_many([7j], lambda zs: 1 / 0)
        assert 7j not in table and len(table) == 5

    def test_gather_writes_through_a_strided_out(self):
        # out.reshape copies a non-contiguous out: gather reported every hit
        # and wrote nothing
        table = MTable()
        table.cached_many([1j, 2j], lambda zs: np.array(zs)[:, None, None])
        out = np.zeros((3, 2, 1, 1), complex)[::2]
        hit = table.gather(np.array([[1j, -2j], [3j, 2j]]), out)
        assert hit.tolist() == [[True, True], [False, True]]
        assert out[..., 0, 0].tolist() == [[1j, -2j], [0, 2j]]


class TestDtnMatrix:
    def test_t1_values(self, t1):
        _, op = t1
        assert dtn_matrix(op, 0.0)[0, 0] == pytest.approx(1 / 3)
        assert dtn_matrix(op, 2.0)[0, 0] == pytest.approx(1.0)

    def test_table_entries_read_only(self, annulus2d):
        # every call reads the table anew: equal read-only arrays
        _, op = annulus2d
        m = dtn_matrix(op, 0.3 + 0.2j)
        again = dtn_matrix(op, 0.3 + 0.2j)
        assert again.tobytes() == m.tobytes() and not again.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_near_spectrum_enters_nothing(self, t1):
        # T1's eigenvalue 1.0: raised on every call, and no entry is made
        dom, _ = t1
        op = assemble_operator(dom, zero_potential(dom))
        for _ in range(2):
            with pytest.raises(NearSpectrum):
                dtn_matrix(op, 1.0)
        assert not op.m_table

    def test_lower_half_plane_reads_the_conjugate(self, annulus2d):
        # a certified z below the axis is entered at conj z and read back as
        # the conjugate of that entry, exactly
        dom, _ = annulus2d
        op = assemble_operator(dom, zero_potential(dom))
        z = 0.3 - 0.2j
        assert op.certified(z)
        m = dtn_matrix(op, z)
        assert set(op.m_table) == {z.conjugate()}
        assert m.tobytes() == op.m_table[z.conjugate()].conj().tobytes()
        assert not m.flags.writeable

    @pytest.mark.parametrize("model, z", [("well1d", 0.3 + 1e-3j), ("annulus2d", 0.7 + 0.5j)])
    def test_one_recipe_whichever_function_asks_first(self, request, model, z):
        # a certified z is filled (continued fraction, pole-residue sum) on
        # every path; dtn_matrix and identity_suite once entered the LU's M,
        # which on the well differs from the fill's by 1.3e-12 relative here
        dom, op = request.getfixturevalue(model)
        first = (lambda op_: dtn_matrix(op_, z),
                 lambda op_: dtn_matrices(op_, [[z]]),
                 lambda op_: identity_suite(op_, z, -0.5 + 0.8j, 0.2 - 0.6j))
        seen = set()
        for call in first:
            fresh = assemble_operator(dom, op.potential)
            call(fresh)
            seen.add(dtn_matrix(fresh, z).tobytes())
            seen.add(dtn_matrices(fresh, [[z]])[0][0, 0].tobytes())
        assert len(seen) == 1

    def test_table_filled_concurrently(self):
        # concurrent misses on one z may both build; every caller must still
        # get the value a serial run computes
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        zs = [complex(0.1 * k, 0.05) for k in range(20)]
        serial = assemble_operator(dom, zero_potential(dom))
        expected = [dtn_matrix(serial, z) for z in zs]
        shared = assemble_operator(dom, zero_potential(dom))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = [pool.submit(lambda: [dtn_matrix(shared, z) for z in zs])
                        for _ in range(8)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results + [[dtn_matrix(shared, z) for z in zs]]:
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_normal_derivative_consistency(self, annulus2d, rng):
        # M g must equal the normal derivative of the Poisson solution
        dom, op = annulus2d
        g = rng.standard_normal(dom.n_boundary) + 0j
        lam = 0.4 + 0.8j
        u = poisson_solve(op, lam, g)
        assert np.allclose(dtn_matrix(op, lam) @ g, normal_derivative(dom, g, u))

    def test_normal_derivative_matches_node_loop(self, annulus2d, rng):
        # the per-node one-sided quotient of the module docstring, averaged
        # over each boundary node's inward neighbors
        dom, _ = annulus2d
        g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
        u = rng.standard_normal(dom.n_interior) + 1j * rng.standard_normal(dom.n_interior)
        loop = [np.mean([(g[b] - u[i]) / dom.h for i in nbrs if i >= 0])
                for b, nbrs in enumerate(dom.boundary_neighbors)]
        assert np.allclose(normal_derivative(dom, g, u), loop, rtol=1e-14, atol=0)

    def test_weighted_conjugate_symmetry_2d(self, annulus2d):
        # entrywise transpose symmetry fails at corners; the weighted adjoint is exact
        dom, op = annulus2d
        lam = 0.7 + 0.5j
        m = dtn_matrix(op, lam)
        m_bar = dtn_matrix(op, np.conj(lam))
        assert np.max(np.abs(m_bar - boundary_adjoint(dom, m))) <= 1e-12
        assert np.max(np.abs(m_bar - m.conj().T)) > 1e-3

    def test_herglotz_sign_law(self, t1, annulus2d, rng):
        for dom, op in (t1, annulus2d):
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2))
                g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
                m = dtn_matrix(op, lam)
                lhs = dom.boundary_inner(m @ g, g).imag
                rhs = -lam.imag * dom.interior_norm(poisson_solve(op, lam, g)) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGammaAdjoint:
    def test_adjoint_pairing(self, annulus2d, rng):
        dom, op = annulus2d
        lam = -0.6 + 1.1j
        gamma = poisson_matrix(op, lam)
        g_star = _adjoint_from_gamma(op, poisson_matrix(op, np.conj(lam)))
        g = rng.standard_normal(dom.n_boundary) + 1j * rng.standard_normal(dom.n_boundary)
        u = rng.standard_normal(dom.n_interior) + 1j * rng.standard_normal(dom.n_interior)
        lhs = dom.interior_inner(gamma @ g, u)
        rhs = dom.boundary_inner(g, g_star @ u)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_t1_example(self, t1):
        _, op = t1
        g_star = _adjoint_from_gamma(op, poisson_matrix(op, 0.0))
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
        # none at conj(zeta), whose gamma and M are the conjugates of those at
        # zeta; coinciding parameters are factored once
        _, op = request.getfixturevalue(model)
        factored, columns = [], []
        factorize, solve = DirichletOperator.factorize, ShiftedSolver.solve

        def counting_factorize(op_, z):
            factored.append(complex(z))
            return factorize(op_, z)

        def counting_solve(solver, rhs, adjoint=False):
            columns.append(np.asarray(rhs).reshape(len(rhs), -1).shape[1])
            return solve(solver, rhs, adjoint)

        lam, zeta, nu = _random_params(rng)
        for params in ((lam, zeta, nu), (lam, lam, nu), (lam, nu, nu)):
            op = assemble_operator(op.domain, op.potential)
            factored.clear()
            columns.clear()
            monkeypatch.setattr(DirichletOperator, "factorize", counting_factorize)
            monkeypatch.setattr(ShiftedSolver, "solve", counting_solve)
            rep = identity_suite(op, *params)
            monkeypatch.undo()
            distinct = set(params)
            assert rep.max_residual <= 1e-10
            assert len(factored) == len(distinct) and set(factored) == distinct
            assert sum(columns) == (len(distinct) + 2) * op.domain.n_boundary
            # it keeps the M of its own gamma and enters nothing in the table
            assert not op.m_table

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
