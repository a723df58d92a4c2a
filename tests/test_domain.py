import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs

import dtnlab.domain
from dtnlab import (
    DirichletOperator,
    DiscreteDomain,
    DomainError,
    EndpointOnEigenvalue,
    Exterior2D,
    HalfLine1D,
    NearSpectrum,
    assemble_operator,
    build_domain,
    config_from_dict,
    oracle_eigendecomposition,
    oracle_projector,
    run_sweep,
    tabulated_potential,
    well_potential,
    zero_potential,
)
from dtnlab.domain import ShiftedSolver


class TestHalfLineGeometry:
    def test_t1_node_sets(self, t1):
        dom, _ = t1
        assert dom.dimension == 1
        assert dom.n_interior == 2
        assert dom.n_boundary == 1
        assert dom.truncation_lattice.shape[0] == 1
        assert dom.incidence.tolist() == [[1.0], [0.0]]
        assert dom.neighbor_counts.tolist() == [1]

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


@pytest.mark.parametrize("spec", [
    HalfLine1D(h=np.nan, L=2.0), HalfLine1D(h=np.inf, L=2.0), HalfLine1D(h=0.5, L=np.inf),
    Exterior2D(h=np.nan, a=1.5, L=7.5), Exterior2D(h=1.0, a=np.nan, L=7.5),
    Exterior2D(h=1.0, a=1.5, L=np.nan), Exterior2D(h=1.0, a=-np.inf, L=7.5),
], ids=repr)
def test_non_finite_geometry(spec):
    # a NaN compares false with every bound, so only a finiteness check stops
    # it before the builders' int(), whose ValueError is no DomainError
    with pytest.raises(DomainError, match="must be finite"):
        build_domain(spec)


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


def _halfline(interior=(1, 2), boundary=(0,), truncation=(3,), h=1.0):
    """Hand-built 1D domain, h = 1 unless given, from lattice indices."""
    def lattice(nodes):
        return np.array(nodes, dtype=int).reshape(-1, 1)
    return DiscreteDomain(h=h, interior_lattice=lattice(interior),
                          boundary_lattice=lattice(boundary),
                          truncation_lattice=lattice(truncation))


class TestValidate:
    def test_valid_hand_built(self):
        _halfline().validate()

    # explicit ids, so that a case keeps its test id when others are added or removed
    @pytest.mark.parametrize("kwargs, match", [
        pytest.param({"truncation": (2,)}, "more than one node set",
                     id="kwargs0-more than one node set"),
        pytest.param({"boundary": (0, -2)}, "has no interior neighbor",
                     id="kwargs2-has no interior neighbor"),
        pytest.param({"interior": (), "boundary": ()}, "empty interior",
                     id="kwargs6-empty interior"),
        pytest.param({"interior": (1, 3), "truncation": (4,)}, "not connected",
                     id="kwargs7-not connected"),
        pytest.param({"h": np.nan}, "must be finite", id="h-nan"),
        pytest.param({"h": np.inf}, "must be finite", id="h-inf"),
    ])
    def test_each_check_fires(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            _halfline(**kwargs).validate()

    def test_shared_node_is_named_lexicographically_first(self):
        # the truncation lattice takes two interior nodes, (2, -3) before (-2, 3):
        # the error names (-2, 3), the first in lexicographic order, not the
        # first given nor the first by its last coordinate
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        shared = np.array([[2, -3], [-2, 3]])
        assert all((dom.interior_lattice == node).all(axis=1).any() for node in shared)
        bad = DiscreteDomain(h=1.0, interior_lattice=dom.interior_lattice,
                             boundary_lattice=dom.boundary_lattice,
                             truncation_lattice=np.concatenate([dom.truncation_lattice, shared]))
        with pytest.raises(DomainError,
                           match=re.escape("node (-2, 3) appears in more than one node set")):
            bad.validate()


def _reference_stencil(dom, q):
    """A_II and P from the L1 lattice distances of every node pair."""
    interior, boundary = dom.interior_lattice, dom.boundary_lattice
    d_ii = np.abs(interior[:, None, :] - interior[None, :, :]).sum(axis=-1)
    d_ib = np.abs(interior[:, None, :] - boundary[None, :, :]).sum(axis=-1)
    h2 = dom.h ** 2
    a_ii = np.where(d_ii == 1, -1.0 / h2, 0.0)
    a_ii[np.diag_indices(dom.n_interior)] = 2 * dom.dimension / h2 + q
    return a_ii, np.where(d_ib == 1, 1.0, 0.0)


class TestStencil:
    @pytest.mark.parametrize("spec", [HalfLine1D(h=1.0, L=3.0), Exterior2D(h=1.0, a=1.5, L=4.5),
                                      Exterior2D(h=0.5, a=1.5, L=7.5)],
                             ids=["t1", "reduced_annulus", "annulus_h0.5"])
    def test_matches_lattice_distances(self, spec):
        dom = build_domain(spec)
        op = assemble_operator(dom, zero_potential(dom))
        a_ii, p = _reference_stencil(dom, op.potential)
        assert np.array_equal(op.a_ii.toarray(), a_ii)
        assert np.array_equal(dom.incidence, p)
        assert np.array_equal(op.b, p / dom.h ** 2)

    def test_neighbor_table_directions(self, annulus2d):
        dom, _ = annulus2d
        nbrs = dom.interior_neighbors
        assert nbrs.shape == (dom.n_interior, 4) and not nbrs.flags.writeable
        steps = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        for k, step in enumerate(steps):
            has = nbrs[:, k] >= 0
            moved = dom.interior_lattice[has] + step
            assert np.array_equal(dom.interior_lattice[nbrs[has, k]], moved)
            ring = np.abs(dom.interior_lattice[~has] + step).max(axis=1)
            assert set(ring.tolist()) == {1, 7}    # obstacle boundary or truncation ring

    def test_incidence_exact_at_h03(self):
        # B = P / h^2 is built from P, not P from B: (1 / h^2) * h^2 is not 1 at h = 0.3
        dom = build_domain(Exterior2D(h=0.3, a=0.9, L=2.1))
        assert set(np.unique(dom.incidence).tolist()) == {0.0, 1.0}


class TestPotentials:
    def test_well_support(self, well1d):
        dom, op = well1d
        q = op.potential
        inside = dom.interior_coords[:, 0] < 1.0
        assert np.all(q[inside] == -2.0)
        assert np.all(q[~inside] == 0.0)
        assert not q.flags.writeable

    def test_tabulated_roundtrip(self, t1):
        dom, _ = t1
        q = tabulated_potential(dom, [0.5, -0.25])
        assert q.tolist() == [0.5, -0.25] and not q.flags.writeable
        op = assemble_operator(dom, q)
        assert op.a_ii[0, 0] == 2.5

    def test_tabulated_wrong_length(self, t1):
        dom, _ = t1
        with pytest.raises(DomainError, match="wrong interior length"):
            tabulated_potential(dom, [1.0])
        with pytest.raises(DomainError, match="wrong interior length"):
            assemble_operator(dom, [1.0])

    @pytest.mark.parametrize("values", [[None, np.inf], [np.nan, 0.0], [0.0, -np.inf]])
    def test_tabulated_non_finite_rejected(self, t1, values):
        # None reads as nan, and a nan A_II passes the symmetry check
        dom, _ = t1
        with pytest.raises(DomainError, match="non-finite"):
            tabulated_potential(dom, values)
        with pytest.raises(DomainError, match="non-finite"):
            assemble_operator(dom, values)

    def test_tabulated_complex_rejected(self, t1):
        # a cast to float would drop the imaginary part and give q = 0
        dom, _ = t1
        for values in ([1j, 0], np.array([1j, 0])):
            with pytest.raises(DomainError, match="imaginary part"):
                tabulated_potential(dom, values)
            with pytest.raises(DomainError, match="imaginary part"):
                assemble_operator(dom, values)


class TestOperatorAssembly:
    def test_t1_matrix(self, t1):
        _, op = t1
        assert op.a_ii.toarray().tolist() == [[2.0, -1.0], [-1.0, 2.0]]
        assert op.b.tolist() == [[1.0], [0.0]]

    def test_stencil_scaling(self):
        dom = build_domain(HalfLine1D(h=0.5, L=2.0))
        op = assemble_operator(dom, zero_potential(dom))
        assert op.a_ii[0, 0] == pytest.approx(2 / 0.25)
        assert op.a_ii[0, 1] == pytest.approx(-1 / 0.25)
        assert op.b[0, 0] == pytest.approx(1 / 0.25)

    def test_2d_symmetric(self, annulus2d):
        _, op = annulus2d
        assert (op.a_ii != op.a_ii.T).nnz == 0

    def test_asymmetric_stencil_is_refused(self):
        # an unvalidated domain with the lattice node 2 listed twice: its box
        # cell holds the second copy, so the first copy's neighbor at -e_0, the
        # node at 1, names the second copy at +e_0, not the first
        dom = _halfline(interior=(1, 2, 2))
        with pytest.raises(DomainError, match="assembled operator is not exactly symmetric"):
            assemble_operator(dom, zero_potential(dom))


class TestShiftedSolver:
    def test_banded_matches_dense(self, well1d, rng):
        _, op = well1d
        z = 0.7 + 0.3j
        rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        u = op.factorize(z).solve(rhs)
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

    @pytest.mark.parametrize("z", [0.7 + 0j, 0.7 + 1e-12j, 0.7 + 0.3j],
                             ids=["real", "near_real", "complex"])
    def test_shifted_copy_factors_as_sparse_arithmetic(self, annulus2d, z, rng):
        # A_II - z as the stored band with z subtracted on the diagonal row of a
        # copy: the same gbtrf factors and pivots, bit for bit, as a band built
        # afresh from SciPy's (A_II - z I)[perm][:, perm], and the same solves
        _, op = annulus2d
        perm, k, lu, piv = op.factorize(z)._band
        a = (op.a_ii - z * sp.identity(op.n, format="csr"))[perm][:, perm].tocoo()
        ab = np.zeros((3 * k + 1, op.n), dtype=complex, order="F")
        ab[2 * k + a.row - a.col, a.col] = a.data
        ref_lu, ref_piv, info = zgbtrf(ab, k, k)
        assert info == 0
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
        rhs = rng.standard_normal((op.n, 3)) + 1j * rng.standard_normal((op.n, 3))
        for adjoint, trans in ((False, 1), (True, 2)):
            ref = np.empty_like(rhs)
            ref[perm] = zgbtrs(ref_lu, k, k, rhs[perm], ref_piv, trans=trans)[0]
            assert np.array_equal(op.factorize(z).solve(rhs, adjoint), ref)

    def test_band_of_the_validate_annulus(self):
        # n_I = 792 at h = 0.5: the reverse Cuthill-McKee band is narrower than
        # the lexicographic one
        dom = build_domain(Exterior2D(h=0.5, a=1.5, L=7.5))
        op = assemble_operator(dom, zero_potential(dom))
        a = op.a_ii.tocoo()
        assert (op.n, op.banded[1], np.max(np.abs(a.row - a.col))) == (792, 23, 29)

    def test_tridiagonal_reduction(self, annulus2d):
        # Q^T A_II Q = T with C = Q^T P: C^T (T - z)^-1 C = P^T (A_II - z)^-1 P
        dom, op = annulus2d
        diag, off, qtp, _, _ = op.reduction
        assert not any(a.flags.writeable for a in op.reduction)
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(np.linalg.eigvalsh(t), np.linalg.eigvalsh(op.a_ii.toarray()),
                           rtol=0, atol=1e-12)
        assert np.allclose(qtp.T @ qtp, dom.incidence.T @ dom.incidence, rtol=0, atol=1e-12)
        z = 0.7 + 0.3j
        ref = dom.incidence.T @ op.factorize(z).solve(dom.incidence.astype(complex))
        assert np.allclose(op.trace_resolvent([z])[0], ref, rtol=0, atol=1e-12)

    def test_2d_trace_resolvent_takes_no_tridiagonal_lu(self, annulus2d, monkeypatch):
        # a 2D fill reads the reduction's eigenpairs, formed once (stevd) with
        # no n x n array kept: no pivoted tridiagonal LU per z; gttrf is left
        # to the half-line's solver.  A z on an eigenvalue raises NearSpectrum.
        dom, op = annulus2d

        def no_gttrf(*args, **kwargs):
            raise AssertionError("the 2D trace resolvent called gttrf")

        monkeypatch.setattr(dtnlab.domain, "_GTTRF", no_gttrf)
        zs = 0.7 + np.array([0.3, 0.03, -0.3]) * 1j
        blocks = op.trace_resolvent(zs)
        assert blocks.shape == (3, dom.n_boundary, dom.n_boundary)
        lam, u, uu = op.trace_poles
        assert lam.shape == (op.n,) and u.shape == (op.n, dom.n_boundary)
        assert uu.shape == (dom.n_boundary ** 2, op.n)
        assert not (lam.flags.writeable or u.flags.writeable or uu.flags.writeable)
        with pytest.raises(NearSpectrum):
            op.trace_resolvent([0.3j, lam[3]])

    @pytest.mark.parametrize("model", ["t1", "well1d", "reduced_annulus"])
    def test_factorize_at_oracle_eigenvalue_raises(self, request, model):
        _, op = request.getfixturevalue(model)
        for lam in oracle_eigendecomposition(op).values[[0, -1]]:
            with pytest.raises(NearSpectrum):
                op.factorize(lam)

    def test_near_spectrum_raises(self, t1):
        # 1.0 is an eigenvalue of T1, so the band's LU meets an exactly zero pivot
        _, op = t1
        with pytest.raises(NearSpectrum) as exc:
            op.factorize(1.0)
        assert exc.value.dist_estimate == 0.0
        with pytest.raises(NearSpectrum):
            op.factorize(3.0 + 1e-14j)

    @pytest.mark.parametrize("model", ["t1", "well1d", "reduced_annulus"])
    def test_certified_z_skips_distance_estimate(self, request, model, monkeypatch):
        # sigma_min(A_II - z) >= |Im z| for real symmetric A_II, so a certified
        # z needs no power iteration: factorize makes no solve at all
        _, op = request.getfixturevalue(model)
        solves = []
        solve = ShiftedSolver.solve

        def counting(self, rhs, adjoint=False):
            solves.append(self.z)
            return solve(self, rhs, adjoint)

        monkeypatch.setattr(ShiftedSolver, "solve", counting)
        for z in (0.7 + 0.3j, -0.4 - 1e-3j, 5.0 + 1e-5j):
            assert op.certified(z)
            assert op.factorize(z).dist_estimate == abs(z.imag)
        assert solves == []
        near_real = -3.0 + 1e-12j            # below every spectrum here
        assert not op.certified(near_real)
        op.factorize(near_real)
        assert solves == [near_real] * 8     # four power steps, two solves each

    def test_away_from_spectrum_ok(self, t1):
        _, op = t1
        solver = op.factorize(2.0)
        assert solver.dist_estimate == pytest.approx(1.0, rel=1e-6)


class TestResolventSum:
    @pytest.mark.parametrize("zs, weights", [
        ([1j, 2j], [1.0, 1.0, 1.0]),
        ([1j, 2j], np.ones((3, 3))),
        ([[1j, 2j]], [[1.0, 1.0]]),
    ])
    def test_weights_of_another_shape(self, t1, zs, weights):
        _, op = t1
        message = f"weights of shape {np.shape(weights)} do not match zs of shape {np.shape(zs)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            op.resolvent_sum(zs, weights)

    def test_each_uncertified_z_is_factorized_once(self, reduced_annulus, monkeypatch):
        # in 2D every z is factorized: a z that two rows weight is factorized
        # once for the call and added to both, and each row of the (k, n, n)
        # result is the sum of a call with that row alone, bit for bit
        _, op = reduced_annulus
        zs = [0.4 + 0.3j, 1.7 - 0.2j, 2.9 + 1e-3j]
        rows = np.array([[1.0, 2j, 0.0], [0.5, -1.0, 3.0 - 1j]])
        factorized = []
        factorize = DirichletOperator.factorize
        monkeypatch.setattr(DirichletOperator, "factorize",
                            lambda op, z: factorized.append(z) or factorize(op, z))
        sums = op.resolvent_sum(zs, rows)
        assert factorized == zs
        assert sums.shape == (2, op.n, op.n)
        for row, total in zip(rows, sums):
            assert np.array_equal(total, op.resolvent_sum(zs, row))


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

    def test_halfline_oracle_never_densifies(self, monkeypatch):
        # the half-line oracle reads the stored tridiagonal; a dense A_II fails here
        dom = build_domain(HalfLine1D(h=0.05, L=20.0))
        op = assemble_operator(dom, well_potential(dom, depth=2.0, width=1.0))

        def no_dense(*args, **kwargs):
            raise AssertionError("oracle_eigendecomposition densified A_II")

        with monkeypatch.context() as patch:
            patch.setattr(type(op.a_ii), "toarray", no_dense)
            eig = oracle_eigendecomposition(op)
        assert eig.values.size == op.n

    def test_halfline_sweep_forms_no_eigenvector_matrix(self, monkeypatch):
        # the sweep's cross-check reads the half-line oracle on an interval:
        # bisection and inverse iteration, never stevd's n x n eigenvectors
        def no_stevd(*args, **kwargs):
            raise AssertionError("the sweep called stevd")

        monkeypatch.setattr(dtnlab.domain, "_eigh_tridiagonal", no_stevd)
        checks = run_sweep(config_from_dict({
            "domain": {"kind": "halfline", "h": 0.05, "L": 20.0},
            "potential": {"kind": "well", "depth": 2.0, "width": 1.0},
            "window": {"lo": 0.3, "hi": 0.4, "grid_step": 0.05}})).data["oracle_crosscheck"]
        assert [(round(c["lambda_oracle"], 6), c["detected"]) for c in checks] == [
            (0.346166, True)]

    def test_2d_interval_oracle_reads_trace_poles(self, annulus2d, monkeypatch):
        # on an interval the 2D oracle takes the eigenvalues of trace_poles,
        # bit for bit those of the whole oracle, and the traces from its U,
        # with no second stevd; a degenerate level keeps its group
        dom, op = annulus2d
        full = oracle_eigendecomposition(op)
        op.trace_poles

        def no_stevd(*args, **kwargs):
            raise AssertionError("the interval oracle called stevd")

        monkeypatch.setattr(dtnlab.domain, "_eigh_tridiagonal", no_stevd)
        eig = oracle_eigendecomposition(op, (0.5, 1.5))
        keep = (0.5 < full.values) & (full.values <= 1.5)
        assert eig.vectors is None and eig.degeneracy_tol == full.degeneracy_tol
        assert eig.values.tobytes() == full.values[keep].tobytes()
        first = np.flatnonzero(keep)[0]
        assert eig.groups == tuple(tuple(k - first for k in g) for g in full.groups
                                   if keep[g[0]])
        assert any(len(g) == 2 for g in eig.groups)
        np.testing.assert_allclose(eig.traces, full.traces[:, keep], rtol=0,
                                   atol=1e-12 * np.abs(full.traces).max())

    @pytest.mark.parametrize("model", ["t1", "reduced_annulus"])
    def test_empty_interval_is_rejected(self, request, model):
        _, op = request.getfixturevalue(model)
        for interval in ((1.5, 1.5), (2.0, 1.0)):
            with pytest.raises(ValueError, match="a < b"):
                oracle_eigendecomposition(op, interval)

    def test_interval_oracle_digits_do_not_depend_on_the_window(self):
        # bisection at stebz's default tolerance eps ||A_II||_1 left the lowest
        # level of this well 1.46e-11 apart on the two windows
        dom = build_domain(HalfLine1D(h=0.005, L=20.0))
        op = assemble_operator(dom, well_potential(dom, depth=2.0, width=1.0))
        narrow = oracle_eigendecomposition(op, (0.0, 0.1))
        wide = oracle_eigendecomposition(op, (0.0, 0.25))
        assert narrow.values[0] == wide.values[0]

    def test_projector_needs_the_whole_oracle(self, t1):
        # an interval oracle keeps no eigenvectors to project with
        _, op = t1
        eig = oracle_eigendecomposition(op, (0.5, 1.5))
        with pytest.raises(ValueError, match="whole-spectrum oracle"):
            oracle_projector(eig, 0.5, 1.5)

    def test_2d_oracle_reads_the_reduction(self, monkeypatch):
        # a 2D operator runs sytrd once for M(z) and the oracle together; the
        # oracle never calls dense eigh
        dom = build_domain(Exterior2D(h=1.0, a=1.5, L=4.5))
        op = assemble_operator(dom, zero_potential(dom))
        op.reduction
        calls = []
        sytrd = dtnlab.domain._SYTRD

        def counting_sytrd(*args, **kwargs):
            calls.append(1)
            return sytrd(*args, **kwargs)

        def no_eigh(*args, **kwargs):
            raise AssertionError("oracle_eigendecomposition called np.linalg.eigh")

        with monkeypatch.context() as patch:
            patch.setattr(dtnlab.domain, "_SYTRD", counting_sytrd)
            patch.setattr(np.linalg, "eigh", no_eigh)
            eig = oracle_eigendecomposition(op)
        assert calls == [] and eig.values.size == op.n

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
