import numpy as np
import pytest

from dtnlab import (
    DomainError,
    EndpointOnEigenvalue,
    Exterior2D,
    HalfLine1D,
    NearSpectrum,
    assemble_operator,
    build_domain,
    oracle_eigendecomposition,
    oracle_projector,
    tabulated_potential,
    well_potential,
    zero_potential,
)


class TestHalfLineGeometry:
    def test_t1_node_sets(self, t1):
        dom, _ = t1
        assert dom.dimension == 1
        assert dom.n_interior == 2
        assert dom.n_boundary == 1
        assert dom.truncation_lattice.shape[0] == 1
        assert dom.boundary_adjacency == ((0,),)

    def test_weights(self, t1):
        dom, _ = t1
        assert dom.interior_weight == 1.0
        assert dom.boundary_weight == 1.0
        assert dom.boundary_node_weights.tolist() == [1.0]

    def test_fine_grid_counts(self):
        dom = build_domain(HalfLine1D(h=0.05, L=20.0))
        assert dom.n_interior == 399
        assert dom.n_boundary == 1

    def test_l_not_multiple_of_h(self):
        with pytest.raises(DomainError):
            build_domain(HalfLine1D(h=0.3, L=1.0))

    def test_too_short(self):
        with pytest.raises(DomainError):
            build_domain(HalfLine1D(h=1.0, L=2.0))

    def test_negative_h(self):
        with pytest.raises(DomainError):
            build_domain(HalfLine1D(h=-0.1, L=1.0))


class TestExteriorGeometry:
    def test_annulus_node_sets(self, annulus2d):
        dom, _ = annulus2d
        assert dom.dimension == 2
        assert dom.n_boundary == 8          # perimeter of a 3x3-node obstacle
        assert dom.n_interior == 160        # 13x13 - 9 = 160
        assert dom.truncation_lattice.shape[0] == 56

    def test_corner_neighbor_counts(self, annulus2d):
        dom, _ = annulus2d
        counts = sorted(dom.neighbor_counts.tolist())
        assert counts == [1, 1, 1, 1, 2, 2, 2, 2]   # 4 edges, 4 corners

    def test_corner_weights(self, annulus2d):
        dom, _ = annulus2d
        w = dom.boundary_node_weights
        assert set(w.tolist()) == {1.0, 2.0}

    def test_obstacle_too_small(self):
        with pytest.raises(DomainError):
            build_domain(Exterior2D(h=1.0, a=0.5, L=7.5))

    def test_no_room_between_obstacle_and_box(self):
        with pytest.raises(DomainError):
            build_domain(Exterior2D(h=1.0, a=1.5, L=2.5))


class TestPotentials:
    def test_well_support(self, well1d):
        dom, op = well1d
        q = op.potential
        inside = dom.interior_coords[:, 0] < 1.0
        assert np.all(q.interior_values[inside] == -2.0)
        assert np.all(q.interior_values[~inside] == 0.0)

    def test_tabulated_roundtrip(self, t1):
        dom, _ = t1
        q = tabulated_potential(dom, [0.5, -0.25], [0.0])
        assert q.bound == 0.5
        op = assemble_operator(dom, q)
        assert op.a_ii[0, 0] == 2.5

    def test_tabulated_wrong_length(self, t1):
        dom, _ = t1
        with pytest.raises(DomainError):
            tabulated_potential(dom, [1.0], [0.0])


class TestOperatorAssembly:
    def test_t1_matrix(self, t1):
        _, op = t1
        assert op.a_ii.toarray().tolist() == [[2.0, -1.0], [-1.0, 2.0]]
        assert op.b.toarray().tolist() == [[1.0], [0.0]]

    def test_stencil_scaling(self):
        dom = build_domain(HalfLine1D(h=0.5, L=2.0))
        op = assemble_operator(dom, zero_potential(dom))
        assert op.a_ii[0, 0] == pytest.approx(2 / 0.25)
        assert op.a_ii[0, 1] == pytest.approx(-1 / 0.25)
        assert op.b[0, 0] == pytest.approx(1 / 0.25)

    def test_2d_symmetric(self, annulus2d):
        _, op = annulus2d
        assert (op.a_ii != op.a_ii.T).nnz == 0


class TestShiftedSolver:
    def test_banded_matches_dense(self, well1d, rng):
        _, op = well1d
        z = 0.7 + 0.3j
        rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        u = op.solve(z, rhs)
        dense = np.linalg.solve(op.a_ii.toarray() - z * np.eye(op.n), rhs)
        assert np.linalg.norm(u - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_adjoint_solve(self, annulus2d, rng):
        _, op = annulus2d
        z = -0.4 + 0.9j
        rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        u = op.factorize(z).solve(rhs, adjoint=True)
        dense = np.linalg.solve(op.a_ii.toarray().conj().T - np.conj(z) * np.eye(op.n), rhs)
        assert np.linalg.norm(u - dense) <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("model", ["t1", "well1d", "reduced_annulus"])
    @pytest.mark.parametrize("z", [0.7 + 0.3j, 0.7 - 0.3j])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_solve_matches_dense(self, request, model, z, adjoint, rng):
        _, op = request.getfixturevalue(model)
        a = op.a_ii.toarray() - z * np.eye(op.n)
        rhs = rng.standard_normal((op.n, 3)) + 1j * rng.standard_normal((op.n, 3))
        u = op.factorize(z).solve(rhs, adjoint=adjoint)
        dense = np.linalg.solve(a.conj().T if adjoint else a, rhs)
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)
        assert np.linalg.norm(op.factorize(z).solve(rhs[:, 0], adjoint=adjoint)
                              - dense[:, 0]) <= 1e-12 * np.linalg.norm(dense[:, 0])

    @pytest.mark.parametrize("model", ["t1", "well1d", "reduced_annulus"])
    def test_factorize_at_oracle_eigenvalue_raises(self, request, model):
        _, op = request.getfixturevalue(model)
        for lam in oracle_eigendecomposition(op).values[[0, -1]]:
            with pytest.raises(NearSpectrum):
                op.factorize(lam)

    def test_near_spectrum_raises(self, t1):
        _, op = t1
        with pytest.raises(NearSpectrum):
            op.factorize(1.0)
        with pytest.raises(NearSpectrum):
            op.factorize(3.0 + 1e-14j)

    def test_away_from_spectrum_ok(self, t1):
        _, op = t1
        solver = op.factorize(2.0)
        assert solver.dist_estimate == pytest.approx(1.0, rel=1e-6)


class TestOracle:
    def test_t1_eigenvalues(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        assert np.allclose(eig.values, [1.0, 3.0])

    def test_orthonormal_in_weighted_product(self, well1d):
        dom, op = well1d
        eig = oracle_eigendecomposition(op)
        gram = dom.interior_weight * (eig.vectors.T @ eig.vectors)
        assert np.allclose(gram, np.eye(op.n), atol=1e-10)

    def test_2d_has_degenerate_level(self, annulus2d):
        _, op = annulus2d
        eig = oracle_eigendecomposition(op)
        sizes = {len(g) for g in eig.groups}
        assert 2 in sizes   # fourfold symmetry forces multiplicity-2 levels

    def test_projector_idempotent(self, t1):
        dom, op = t1
        eig = oracle_eigendecomposition(op)
        p = oracle_projector(eig, 0.5, 1.5)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(np.trace(p), 1.0)

    def test_projector_endpoint_guard(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        with pytest.raises(EndpointOnEigenvalue):
            oracle_projector(eig, 1.0, 2.0)


class TestWellSpectrum:
    def test_shallow_well_has_no_negative_eigenvalue(self, well1d):
        # the depth-2 well is below the critical coupling on this grid
        _, op = well1d
        eig = oracle_eigendecomposition(op)
        assert eig.values[0] > 0

    def test_deep_well_binds_states(self):
        dom = build_domain(HalfLine1D(h=0.05, L=20.0))
        op = assemble_operator(dom, well_potential(dom, depth=8.0, width=1.0))
        eig = oracle_eigendecomposition(op)
        assert eig.values[0] < 0
