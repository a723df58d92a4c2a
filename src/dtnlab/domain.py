"""Discrete domains, Dirichlet operators and the dense eigendecomposition oracle.

The model is a uniform-grid finite-difference discretization of -Laplace + q
on a truncated unbounded domain: a half-line in 1D, the exterior of a
grid-aligned square obstacle in 2D.  Three disjoint node sets are kept:

* interior nodes (the unknowns),
* Dirichlet boundary nodes (the discrete boundary carrying data g),
* truncation nodes (artificial far boundary, clamped to zero).

Inner products are weighted so that discrete pairings mimic their continuum
counterparts: interior weight h^d, boundary weight h^(d-1) per adjacency pair
(a boundary node with k inward neighbors carries weight k*h^(d-1), which is
what makes the discrete Green identity exact, corners included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse.csgraph import connected_components

from .errors import DomainError, NearSpectrum

__all__ = [
    "DiscreteDomain",
    "PotentialField",
    "DirichletOperator",
    "EigenSystem",
    "HalfLine1D",
    "Exterior2D",
    "build_domain",
    "zero_potential",
    "well_potential",
    "tabulated_potential",
    "assemble_operator",
    "oracle_eigendecomposition",
    "oracle_projector",
]


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfLine1D:
    """Half-line (0, L) truncated at x = L, mesh spacing h."""

    h: float
    L: float


@dataclass(frozen=True)
class Exterior2D:
    """Exterior of a square obstacle of half-width a inside a box of half-width L."""

    h: float
    a: float
    L: float


@dataclass(frozen=True)
class DiscreteDomain:
    """Truncated grid geometry with the three node sets and product weights.

    Node coordinates are stored as integer lattice multi-indices scaled by h.
    ``boundary_adjacency[b]`` lists the interior indices of the inward
    neighbors of boundary node b (at lattice distance one).
    """

    dimension: int
    h: float
    interior_lattice: np.ndarray          # (n_I, d) int
    boundary_lattice: np.ndarray          # (n_B, d) int
    truncation_lattice: np.ndarray        # (n_T, d) int
    boundary_adjacency: tuple             # tuple of tuples of interior indices

    @property
    def n_interior(self) -> int:
        return self.interior_lattice.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_lattice.shape[0]

    @property
    def interior_coords(self) -> np.ndarray:
        return self.interior_lattice * self.h

    @property
    def boundary_coords(self) -> np.ndarray:
        return self.boundary_lattice * self.h

    @property
    def interior_weight(self) -> float:
        """Quadrature weight of one interior node: h^d."""
        return self.h ** self.dimension

    @property
    def boundary_weight(self) -> float:
        """Base boundary weight h^(d-1) (per adjacency pair)."""
        return self.h ** (self.dimension - 1)

    @property
    def neighbor_counts(self) -> np.ndarray:
        return np.array([len(a) for a in self.boundary_adjacency])

    @property
    def boundary_node_weights(self) -> np.ndarray:
        """Per-node boundary weights k_b * h^(d-1)."""
        return self.neighbor_counts * self.boundary_weight

    # -- weighted products -------------------------------------------------

    def interior_inner(self, u, v) -> complex:
        """(u, v) in the h^d-weighted interior product."""
        return self.interior_weight * np.vdot(v, u)

    def interior_norm(self, u) -> float:
        return float(np.sqrt(self.interior_weight) * np.linalg.norm(u))

    def boundary_inner(self, f, g) -> complex:
        w = self.boundary_node_weights
        return complex(np.sum(w * np.asarray(f) * np.conj(g)))

    def boundary_norm(self, f) -> float:
        w = self.boundary_node_weights
        return float(np.sqrt(np.sum(w * np.abs(np.asarray(f)) ** 2)))

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        if self.h <= 0:
            raise DomainError("mesh spacing h must be positive")
        sets = [self.interior_lattice, self.boundary_lattice, self.truncation_lattice]
        seen = set()
        for arr in sets:
            for row in map(tuple, arr):
                if row in seen:
                    raise DomainError(f"node {row} appears in more than one node set")
                seen.add(row)
        interior_index = {tuple(r): i for i, r in enumerate(self.interior_lattice)}
        for b, nbrs in enumerate(self.boundary_adjacency):
            if not nbrs:
                raise DomainError(f"boundary node {b} has no interior neighbor")
            bl = self.boundary_lattice[b]
            for i in nbrs:
                if int(np.abs(self.interior_lattice[i] - bl).sum()) != 1:
                    raise DomainError(
                        f"listed neighbor {i} of boundary node {b} is not at distance h"
                    )
        # interior adjacency graph must be connected
        n = self.n_interior
        if n == 0:
            raise DomainError("empty interior")
        rows, cols = [], []
        for i, r in enumerate(self.interior_lattice):
            for axis in range(self.dimension):
                nb = r.copy()
                nb[axis] += 1
                j = interior_index.get(tuple(nb))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ncomp, _ = connected_components(graph, directed=False)
        if ncomp != 1:
            raise DomainError("interior adjacency graph is not connected")


def build_domain(spec) -> DiscreteDomain:
    """Construct a validated DiscreteDomain from a HalfLine1D or Exterior2D spec."""
    if isinstance(spec, HalfLine1D):
        dom = _build_halfline(spec)
    elif isinstance(spec, Exterior2D):
        dom = _build_exterior2d(spec)
    else:
        raise DomainError(f"unknown domain spec {spec!r}")
    dom.validate()
    return dom


def _build_halfline(spec: HalfLine1D) -> DiscreteDomain:
    if spec.h <= 0:
        raise DomainError("mesh spacing h must be positive")
    n_cells = int(round(spec.L / spec.h))
    if abs(n_cells * spec.h - spec.L) > 1e-9 * spec.L:
        raise DomainError("L must be an integer multiple of h")
    if n_cells < 3:
        raise DomainError("half-line needs at least 2 interior nodes")
    interior = np.arange(1, n_cells, dtype=int)[:, None]
    boundary = np.array([[0]], dtype=int)
    trunc = np.array([[n_cells]], dtype=int)
    return DiscreteDomain(
        dimension=1,
        h=spec.h,
        interior_lattice=interior,
        boundary_lattice=boundary,
        truncation_lattice=trunc,
        boundary_adjacency=((0,),),
    )


def _build_exterior2d(spec: Exterior2D) -> DiscreteDomain:
    if spec.h <= 0:
        raise DomainError("mesh spacing h must be positive")
    if spec.a <= 0 or spec.a >= spec.L:
        raise DomainError("obstacle half-width must satisfy 0 < a < L")
    na = int(np.floor(spec.a / spec.h))     # obstacle extends to |i| <= na
    nL = int(np.floor(spec.L / spec.h))     # truncation ring at |i| = nL
    if na < 1:
        raise DomainError("obstacle contains no grid nodes")
    if nL < na + 2:
        raise DomainError("no interior nodes between obstacle and truncation box")

    interior, boundary, trunc = [], [], []
    for i in range(-nL, nL + 1):
        for j in range(-nL, nL + 1):
            m = max(abs(i), abs(j))
            if m == na:
                boundary.append((i, j))
            elif na < m < nL:
                interior.append((i, j))
            elif m == nL:
                trunc.append((i, j))
            # m < na: enclosed obstacle nodes, not part of the model
    interior = np.array(sorted(interior), dtype=int)
    boundary = np.array(sorted(boundary), dtype=int)
    trunc = np.array(sorted(trunc), dtype=int)

    interior_index = {tuple(r): k for k, r in enumerate(interior)}
    adjacency = []
    for i, j in boundary:
        nbrs = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            k = interior_index.get((i + di, j + dj))
            if k is not None:
                nbrs.append(k)
        adjacency.append(tuple(nbrs))
    return DiscreteDomain(
        dimension=2,
        h=spec.h,
        interior_lattice=interior,
        boundary_lattice=boundary,
        truncation_lattice=trunc,
        boundary_adjacency=tuple(adjacency),
    )


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialField:
    """Real bounded potential sampled on interior and boundary nodes."""

    interior_values: np.ndarray
    boundary_values: np.ndarray
    bound: float

    def validate(self, dom: DiscreteDomain) -> None:
        if self.interior_values.shape != (dom.n_interior,):
            raise DomainError("potential has wrong interior length")
        if self.boundary_values.shape != (dom.n_boundary,):
            raise DomainError("potential has wrong boundary length")
        if self.bound < 0:
            raise DomainError("potential bound must be nonnegative")
        vals = np.concatenate([self.interior_values, self.boundary_values])
        if vals.size and np.max(np.abs(vals)) > self.bound + 1e-12:
            raise DomainError("potential exceeds its declared bound")


def zero_potential(dom: DiscreteDomain) -> PotentialField:
    return PotentialField(
        interior_values=np.zeros(dom.n_interior),
        boundary_values=np.zeros(dom.n_boundary),
        bound=0.0,
    )


def well_potential(dom: DiscreteDomain, depth: float, width: float) -> PotentialField:
    """q = -depth on nodes with first coordinate < width, 0 elsewhere."""
    qi = np.where(dom.interior_coords[:, 0] < width, -depth, 0.0)
    qb = np.where(dom.boundary_coords[:, 0] < width, -depth, 0.0)
    return PotentialField(qi, qb, bound=abs(depth))


def tabulated_potential(dom: DiscreteDomain, interior_values, boundary_values) -> PotentialField:
    qi = np.asarray(interior_values, dtype=float)
    qb = np.asarray(boundary_values, dtype=float)
    bound = float(max(np.max(np.abs(qi), initial=0.0), np.max(np.abs(qb), initial=0.0)))
    q = PotentialField(qi, qb, bound=bound)
    q.validate(dom)
    return q


# ---------------------------------------------------------------------------
# Dirichlet operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletOperator:
    """Interior block of the discrete -Laplace + q plus the boundary injection.

    A_II is the 2d+1-point stencil with homogeneous Dirichlet data on both the
    discrete boundary and the truncation ring; B carries boundary data into
    the interior load with entries 1/h^2, one per adjacency pair.
    """

    domain: DiscreteDomain
    potential: PotentialField
    a_ii: sp.csr_matrix
    b: sp.csr_matrix

    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.domain.n_interior

    @property
    def a_norm(self) -> float:
        return self.cached("a1", lambda: spla.norm(self.a_ii, 1))

    @property
    def incidence(self) -> np.ndarray:
        """Dense adjacency incidence P (interior x boundary, entries 1); B = P / h^2."""
        return self.cached("P", lambda: (self.b * self.domain.h ** 2).toarray())

    def cached(self, key, build):
        """build() on the first request for key, stored (arrays read-only) unless it raises.

        No lock: concurrent misses may each build, and build() must then give
        equal values.
        """
        if key not in self._cache:
            value = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def factorize(self, z: complex) -> "ShiftedSolver":
        """Factor A_II - z, raising NearSpectrum if z is too close to an eigenvalue."""
        return ShiftedSolver(self, complex(z))

    def solve(self, z: complex, rhs: np.ndarray) -> np.ndarray:
        return self.factorize(z).solve(rhs)


def assemble_operator(dom: DiscreteDomain, q: PotentialField) -> DirichletOperator:
    """Assemble A_II and the boundary-injection matrix B."""
    q.validate(dom)
    n = dom.n_interior
    h2 = dom.h ** 2
    interior_index = {tuple(r): i for i, r in enumerate(dom.interior_lattice)}

    rows, cols, vals = [], [], []
    for i, r in enumerate(dom.interior_lattice):
        rows.append(i)
        cols.append(i)
        vals.append(2 * dom.dimension / h2 + q.interior_values[i])
        for axis in range(dom.dimension):
            for step in (1, -1):
                nb = r.copy()
                nb[axis] += step
                j = interior_index.get(tuple(nb))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(-1.0 / h2)
    a_ii = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    brows, bcols, bvals = [], [], []
    for b_idx, nbrs in enumerate(dom.boundary_adjacency):
        for i in nbrs:
            brows.append(i)
            bcols.append(b_idx)
            bvals.append(1.0 / h2)
    b = sp.csr_matrix((bvals, (brows, bcols)), shape=(n, dom.n_boundary))

    asym = abs(a_ii - a_ii.T)
    if asym.nnz and asym.max() > 0:
        raise DomainError("assembled operator is not exactly symmetric")
    return DirichletOperator(domain=dom, potential=q, a_ii=a_ii, b=b)


# ---------------------------------------------------------------------------
# shifted solver with solver-side conditioning check
# ---------------------------------------------------------------------------

_REL_DIST_THRESHOLD = 1e-10
_GTTRF, _GTTRS = get_lapack_funcs(("gttrf", "gttrs"), dtype=complex)


class ShiftedSolver:
    """A_II - z factored once, with a deterministic conditioning estimate.

    A tridiagonal A_II (the half-line) keeps LAPACK's gttrf factors and solves
    with gttrs; every other operator keeps a sparse LU (splu) of the CSC matrix,
    as does the two-node half-line, whose size SciPy's gttrf wrapper rejects.
    Plain and adjoint solves reuse the same factors.  Near-spectrum detection
    runs a few fixed-start power iterations on the inverse; no randomness, no
    oracle.
    """

    def __init__(self, op: DirichletOperator, z: complex):
        self.z = z
        self.op = op
        a = op.a_ii
        self._n = op.n
        self._lu = self._tri = None
        if op.domain.dimension == 1 and self._n > 2:
            *self._tri, info = _GTTRF(a.diagonal(-1).astype(complex), a.diagonal() - z,
                                      a.diagonal(1).astype(complex))
            if info > 0:
                raise NearSpectrum(z, 0.0)
        else:
            try:
                self._lu = spla.splu((a - z * sp.identity(self._n, format="csr")).tocsc())
            except RuntimeError:  # exactly singular
                raise NearSpectrum(z, 0.0) from None
        dist = self._distance_estimate()
        if not np.isfinite(dist) or dist < _REL_DIST_THRESHOLD * op.a_norm:
            raise NearSpectrum(z, dist)
        self.dist_estimate = dist

    def solve(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve (A_II - z) u = rhs (or the conjugate-transpose system)."""
        rhs = np.asarray(rhs, dtype=complex)
        if self._lu is not None:
            return self._lu.solve(rhs, trans="H" if adjoint else "N")
        return _GTTRS(*self._tri, rhs, trans="C" if adjoint else "N")[0]

    def _distance_estimate(self) -> float:
        """Estimate sigma_min(A - z) by power iteration on the inverse."""
        n = self._n
        v = np.cos(0.7 * np.arange(n)) + 1.1 + 0.0j
        v /= np.linalg.norm(v)
        est = np.inf
        for _ in range(4):
            w = self.solve(v)
            y = self.solve(w, adjoint=True)
            ny = np.linalg.norm(y)
            if not np.isfinite(ny):
                return 0.0
            if ny == 0:
                return np.inf
            # v is unit, so ||y|| estimates sigma_max(inv)^2
            est = 1.0 / np.sqrt(ny)
            v = y / ny
        return est


# ---------------------------------------------------------------------------
# eigendecomposition oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSystem:
    """Dense spectral data of A_II, w_I-orthonormal eigenvectors, grouped by degeneracy."""

    values: np.ndarray                 # ascending
    vectors: np.ndarray                # (n, n), columns w_I-orthonormal
    groups: tuple                      # tuple of tuples of column indices
    degeneracy_tol: float
    interior_weight: float

    def multiplicity(self, lam0: float, tol: float | None = None) -> int:
        tol = self.degeneracy_tol if tol is None else tol
        return int(np.sum(np.abs(self.values - lam0) <= tol))

    def eigenspace(self, lam0: float, tol: float | None = None) -> np.ndarray:
        tol = self.degeneracy_tol if tol is None else tol
        cols = np.abs(self.values - lam0) <= tol
        return self.vectors[:, cols]


def oracle_eigendecomposition(op: DirichletOperator) -> EigenSystem:
    """Dense symmetric eigendecomposition, the independent reference for all verdicts."""
    a = op.a_ii.toarray()
    a = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(a)
    w_i = op.domain.interior_weight
    vectors = vectors / np.sqrt(w_i)

    diameter = float(values[-1] - values[0]) if len(values) > 1 else 1.0
    tol = 1e-8 * max(diameter, 1.0)
    groups = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > tol:
            groups.append(tuple(range(start, k)))
            start = k
    return EigenSystem(
        values=values,
        vectors=vectors,
        groups=tuple(groups),
        degeneracy_tol=tol,
        interior_weight=w_i,
    )


def oracle_projector(eig: EigenSystem, a: float, b: float) -> np.ndarray:
    """w_I-orthogonal projector onto the span of eigenspaces with eigenvalue in (a, b)."""
    from .errors import EndpointOnEigenvalue

    if not a < b:
        raise ValueError("need a < b")
    for endpoint in (a, b):
        if np.min(np.abs(eig.values - endpoint)) <= eig.degeneracy_tol:
            raise EndpointOnEigenvalue(f"endpoint {endpoint} lies on an eigenvalue")
    cols = (eig.values > a) & (eig.values < b)
    v = eig.vectors[:, cols]
    return eig.interior_weight * (v @ v.T)
