import numpy as np
import pytest
from scipy.special import roots_legendre

from dtnlab import (
    AtomHit,
    DirichletOperator,
    EndpointOnEigenvalue,
    EtaSchedule,
    HalfLine1D,
    NearSpectrum,
    SpectralMeasure,
    ac_sc_supports,
    assemble_operator,
    borel_transform,
    build_domain,
    density,
    oracle_eigendecomposition,
    oracle_projector,
    point_mass,
    richardson_weights,
    simplicity_rank,
    spectral_measure,
    stone_projection,
    well_potential,
)
from dtnlab.measures import _EDGE_NODES, _first_rule_and_edges


def _uniform_quadrature_measure(n=10 ** 4):
    """Equal-weight atom quadrature of density 1 on [0, 1]."""
    atoms = (np.arange(n) + 0.5) / n
    return SpectralMeasure(atoms, np.full(n, 1.0 / n))


class TestSpectralMeasure:
    def test_t1_e1(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        mu = spectral_measure(op, eig, np.array([1.0, 0.0]))
        assert np.allclose(mu.atoms, [1.0, 3.0])
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_eigenvector_gives_single_atom(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        mu = spectral_measure(op, eig, eig.vectors[:, 0])
        assert mu.atoms.tolist() == [pytest.approx(1.0)]
        assert mu.weights.tolist() == [pytest.approx(1.0)]

    def test_mass_conservation(self, well1d, rng):
        dom, op = well1d
        eig = oracle_eigendecomposition(op)
        u = rng.standard_normal(dom.n_interior)
        mu = spectral_measure(op, eig, u)
        assert mu.total_mass == pytest.approx(dom.interior_norm(u) ** 2, rel=1e-10)

    def test_groups_match_the_loop(self, annulus2d, rng):
        # degenerate levels: an atom is its group's mean, a weight its group's
        # sum; reduceat adds in order where np.sum adds pairwise, so on a group
        # of k levels the two differ by at most about 2 k rounding errors
        dom, op = annulus2d
        eig = oracle_eigendecomposition(op)
        u = rng.standard_normal(dom.n_interior).astype(complex)
        mu = spectral_measure(op, eig, u)
        coeffs = dom.interior_weight * (eig.vectors.T @ u)
        k = max(map(len, eig.groups))
        assert k == 10
        tol = 2 * k * np.finfo(float).eps
        np.testing.assert_allclose(mu.atoms, [np.mean(eig.values[list(g)]) for g in eig.groups],
                                   rtol=tol, atol=0)
        np.testing.assert_allclose(
            mu.weights, [np.sum(np.abs(coeffs[list(g)]) ** 2) for g in eig.groups],
            rtol=tol, atol=0)

    def test_needs_the_whole_oracle(self, t1):
        # an interval oracle keeps no eigenvectors to project u onto
        _, op = t1
        eig = oracle_eigendecomposition(op, (0.5, 1.5))
        with pytest.raises(ValueError, match="whole-spectrum oracle"):
            spectral_measure(op, eig, np.array([1.0, 0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralMeasure(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SpectralMeasure(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestBorel:
    def test_single_atom(self):
        mu = SpectralMeasure(np.array([0.0]), np.array([1.0]))
        assert borel_transform(mu, 1j) == pytest.approx(1j)

    def test_t1_resolvent_consistency(self, t1, rng):
        dom, op = t1
        eig = oracle_eigendecomposition(op)
        u = np.array([1.0, 0.0])
        mu = spectral_measure(op, eig, u)
        assert borel_transform(mu, 0.0) == pytest.approx(2 / 3)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2))
            f = borel_transform(mu, z)
            quad = dom.interior_inner(op.factorize(z).solve(u.astype(complex)), u)
            assert f == pytest.approx(quad, rel=1e-10)

    def test_herglotz_invariant(self, rng):
        mu = _uniform_quadrature_measure(100)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 1))
            assert borel_transform(mu, z).imag > 0

    def test_atom_hit(self):
        mu = SpectralMeasure(np.array([1.0]), np.array([0.5]))
        with pytest.raises(AtomHit):
            borel_transform(mu, 1.0)
        with pytest.raises(AtomHit):
            borel_transform(mu, [[0.5j, 2.0], [1.0, 1.0 + 1j]])

    def test_array_matches_scalar_calls(self):
        mu = _uniform_quadrature_measure(100)
        zs = np.linspace(-0.5, 1.5, 7)[:, None] + 1j * np.geomspace(1e-3, 1, 5)
        assert np.array_equal(borel_transform(mu, zs),
                              [[borel_transform(mu, z) for z in row] for row in zs])
        assert np.array_equal(borel_transform(mu, [2.0]), [borel_transform(mu, 2.0)])
        assert type(borel_transform(mu, 0.5j)) is complex


class TestPointMass:
    def test_recovers_weight(self):
        mu = SpectralMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        assert point_mass(mu, 1.0) == pytest.approx(0.5, abs=1e-10)
        assert point_mass(mu, 3.0) == pytest.approx(0.25, abs=1e-10)

    def test_zero_off_atoms(self):
        mu = SpectralMeasure(np.array([1.0]), np.array([0.5]))
        assert point_mass(mu, 2.0) <= 1e-10

    def test_dense_quadrature_atom(self):
        mu = _uniform_quadrature_measure()
        x = mu.atoms[5000]
        assert point_mass(mu, x, EtaSchedule(1e-5, 0.5, 10)) == pytest.approx(1e-4, abs=1e-8)


def _count_factorizations(monkeypatch):
    """Record the z of every DirichletOperator.factorize call."""
    calls = []
    factorize = DirichletOperator.factorize

    def counting(op, z):
        calls.append(z)
        return factorize(op, z)

    monkeypatch.setattr(DirichletOperator, "factorize", counting)
    return calls


def _count_resolvent_nodes(monkeypatch):
    """Record the z of every DirichletOperator.resolvent_sum call."""
    calls = []
    resolvent_sum = DirichletOperator.resolvent_sum

    def counting(op, zs, weights):
        calls.extend(zs)
        return resolvent_sum(op, zs, weights)

    monkeypatch.setattr(DirichletOperator, "resolvent_sum", counting)
    return calls


@pytest.fixture(scope="module")
def stone_well():
    """The well of the well1d-stone benchmark: h = 0.1, L = 20, depth 2, width 1."""
    dom = build_domain(HalfLine1D(h=0.1, L=20.0))
    return dom, assemble_operator(dom, well_potential(dom, depth=2.0, width=1.0))


class TestStone:
    def test_t1_first_eigenspace(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        res = stone_projection(op, 0.5, 1.5, eig)
        assert np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 1.5))) <= 1e-3

    def test_t1_gap_is_zero(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        res = stone_projection(op, 1.5, 2.5, eig)
        assert np.max(np.abs(res.projector)) <= 1e-3

    def test_t1_level_resolved_with_few_factorizations(self, t1, monkeypatch):
        # panels counts the resolvent evaluations, the z handed to resolvent_sum;
        # in 1D only the two real contour crossings a and b are factorized
        _, op = t1
        eig = oracle_eigendecomposition(op)
        nodes = _count_resolvent_nodes(monkeypatch)
        factorized = _count_factorizations(monkeypatch)
        res = stone_projection(op, 0.5, 1.5, eig)
        assert np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 1.5))) <= 1e-12
        assert res.panels == len(nodes) <= 200
        assert sorted(complex(z).real for z in factorized) == [0.5, 1.5]

    def test_t1_level_in_five_resolvent_sums(self, t1, monkeypatch):
        # the 16-node rule and the six edge pieces are one call, with weight
        # rows for the rule, the extrapolated edges and their error, and each
        # doubling one more; together they hand over the panels nodes, each once
        _, op = t1
        eig = oracle_eigendecomposition(op)
        sizes = []
        resolvent_sum = DirichletOperator.resolvent_sum

        def counting(op, zs, weights):
            sizes.append(len(zs))
            return resolvent_sum(op, zs, weights)

        monkeypatch.setattr(DirichletOperator, "resolvent_sum", counting)
        res = stone_projection(op, 0.5, 1.5, eig)
        assert np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 1.5))) <= 1e-12
        assert len(sizes) <= 5
        assert sum(sizes) == res.panels

    @pytest.mark.parametrize("model, a, b", [("t1", 0.5, 1.5), ("stone_well", 0.05, 0.14)])
    def test_edges_match_the_piecewise_reference(self, request, model, a, b):
        # the reference forms the six edge integrals piece by piece, each piece
        # a single-row resolvent_sum call, and extrapolates the arrays with
        # richardson_weights; the three-row call folds both into its weights
        _, op = request.getfixturevalue(model)
        deltas = stone_projection(op, a, b, oracle_eigendecomposition(op)).deltas
        nodes, weights = roots_legendre(_EDGE_NODES)
        cuts = np.append(deltas, 0.0)
        edges = np.zeros((len(deltas), op.n, op.n))   # the integral from 0 to deltas[k]
        for k in reversed(range(len(deltas))):        # the piece [cuts[k + 1], cuts[k]]
            lo, half = cuts[k + 1], 0.5 * (cuts[k] - cuts[k + 1])
            s = 1j * (lo + half * (nodes + 1.0))
            piece = op.resolvent_sum(np.concatenate([b + s, a + s]),
                                     np.concatenate([weights, -weights]))
            edges[:k + 1] += half / np.pi * piece.real
        limit = np.tensordot(richardson_weights(deltas), edges, axes=1)
        five = np.tensordot(richardson_weights(deltas[:-1]), edges[:-1], axes=1)
        _, edge_limit, error = _first_rule_and_edges(op, a, b, deltas)
        tol = 1e-14 * np.max(np.abs(edges))   # the scale the extrapolation cancels from
        assert np.max(np.abs(edge_limit - limit)) <= tol
        assert abs(error - np.max(np.abs(limit - five))) <= tol

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 2.5)])
    def test_interval_oracle_is_refused(self, t1, a, b):
        # an interval oracle holds only the levels in (a, b]: on (1.0, 2.0) it
        # lacks T1's level at the endpoint 1, where the contour's crossing
        # would raise NearSpectrum and the whole oracle EndpointOnEigenvalue
        _, op = t1
        with pytest.raises(ValueError, match="needs the whole-spectrum oracle"):
            stone_projection(op, a, b, oracle_eigendecomposition(op, (a, b)))

    def test_panels_count_factorizations(self, reduced_annulus, monkeypatch):
        _, op = reduced_annulus
        eig = oracle_eigendecomposition(op)
        calls = _count_factorizations(monkeypatch)
        res = stone_projection(op, 0.99, 1.2, eig)
        assert res.panels == len(calls) > 0
        assert np.max(np.abs(res.projector - oracle_projector(eig, 0.99, 1.2))) <= 1e-10

    def test_endpoint_near_level_shows_in_extrapolation_error(self, t1):
        # an endpoint 1e-3 below the level at 1: the delta-schedule starts at
        # half that gap, not at 1e-2, where it could not resolve the level
        _, op = t1
        eig = oracle_eigendecomposition(op)
        res = stone_projection(op, 0.5, 0.999, eig)
        assert res.deltas[0] == pytest.approx(5e-4, rel=1e-12)
        defect = np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 0.999)))
        assert res.extrapolation_error >= defect

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
    def test_reported_error_bounds_the_defect_near_a_level(self, t1, gap):
        # with a schedule from 1e-2 the reported error fell below the defect
        # against the oracle projector: 0.047 against 0.15 at gap 1e-4
        _, op = t1
        eig = oracle_eigendecomposition(op)
        res = stone_projection(op, 0.5, 1 - gap, eig)
        defect = np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 1 - gap)))
        assert res.extrapolation_error >= defect

    def test_contour_cap_shows_in_extrapolation_error(self, t1):
        # 1e-5 below the level the contour stops unconverged at its node cap
        _, op = t1
        eig = oracle_eigendecomposition(op)
        res = stone_projection(op, 0.5, 0.99999, eig)
        defect = np.max(np.abs(res.projector - oracle_projector(eig, 0.5, 0.99999)))
        assert res.extrapolation_error >= defect > 1e-3

    def test_endpoint_guard(self, t1):
        # Stone and the oracle refuse the same endpoints: within
        # eig.degeneracy_tol = 2e-8 of the level 1 (T1's levels are 1 and 3)
        _, op = t1
        eig = oracle_eigendecomposition(op)
        for a in (1.0, 1.0 + 1.5e-8):
            with pytest.raises(EndpointOnEigenvalue):
                stone_projection(op, a, 2.0, eig)
            with pytest.raises(EndpointOnEigenvalue):
                oracle_projector(eig, a, 2.0)
        # accepted by both; the projector is not resolved this close to the level
        stone_projection(op, 1.0 + 2.5e-8, 2.0, eig)
        oracle_projector(eig, 1.0 + 2.5e-8, 2.0)

    def test_endpoint_on_level_without_oracle_is_near_spectrum(self, t1):
        # without eig the contour's real crossing a = 1.0, the level, is
        # factorized and its distance estimate raises
        _, op = t1
        with pytest.raises(NearSpectrum):
            stone_projection(op, 1.0, 2.0)


class TestSupports:
    def test_atomic_measure_empty(self, t1):
        _, op = t1
        eig = oracle_eigendecomposition(op)
        mu = spectral_measure(op, eig, np.array([1.0, 0.0]))
        rep = ac_sc_supports(mu, EtaSchedule(1e-2, 0.5, 10), np.linspace(0, 4, 41))
        assert rep.ac_set.is_empty
        assert rep.sc_set.is_empty

    @pytest.mark.parametrize("count", [8, 10])
    def test_atoms_diverge_on_short_schedules(self, t1, count):
        # Im F grows like 1/y at the atoms 1 and 3, by 2^7 and 2^9 over these
        # schedules: boundary_value_M's divergence rule flags them
        _, op = t1
        eig = oracle_eigendecomposition(op)
        mu = spectral_measure(op, eig, np.array([1.0, 0.0]))
        grid = np.linspace(0, 4, 41)
        rep = ac_sc_supports(mu, EtaSchedule(1e-2, 0.5, count), grid)
        assert rep.diverging[np.isclose(grid, 1.0)].all()
        assert rep.diverging[np.isclose(grid, 3.0)].all()
        assert rep.ac_set.is_empty
        assert rep.sc_set.is_empty

    def test_synthetic_ac_density(self):
        mu = _uniform_quadrature_measure()
        sched = EtaSchedule(1e-2, 0.5, 10, floor=5e-4)
        grid = np.linspace(0.2, 0.8, 25)
        rep = ac_sc_supports(mu, sched, grid)
        assert rep.ac_set.intervals == ((0.2, 0.8),)
        assert np.all(np.abs(rep.im_values / np.pi - 1.0) <= 0.02)

    def test_mixture_keeps_ac_excludes_atoms_from_sc(self):
        base = _uniform_quadrature_measure()
        atoms = np.sort(np.concatenate([base.atoms, [1.5, 2.5]]))
        weights = np.concatenate([base.weights, [0.3, 0.3]])
        weights = weights[np.argsort(np.concatenate([base.atoms, [1.5, 2.5]]))]
        mix = SpectralMeasure(atoms, weights)
        sched = EtaSchedule(1e-2, 0.5, 10, floor=5e-4)
        rep = ac_sc_supports(mix, sched, np.linspace(0.2, 0.8, 25))
        assert rep.ac_set.intervals == ((0.2, 0.8),)
        assert rep.sc_set.is_empty


class TestDensity:
    def test_poisson_regularized_density(self):
        mu = _uniform_quadrature_measure()
        assert density(mu, 0.5, 5e-4) == pytest.approx(1.0, rel=1e-2)


class TestSimplicity:
    def test_t1_full_rank(self, t1):
        _, op = t1
        rep = simplicity_rank(op, [1j, 2j])
        assert rep.rank == rep.interior_dim == 2
        assert rep.full

    def test_single_sample_rank_one(self, t1):
        _, op = t1
        rep = simplicity_rank(op, [1j])
        assert rep.rank == 1

    def test_needs_nonreal_sample(self, t1):
        _, op = t1
        with pytest.raises(ValueError):
            simplicity_rank(op, [0.5, 2.5])
