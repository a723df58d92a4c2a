"""Discrete domains, Dirichlet operators and the eigendecomposition oracle.

The model is a uniform-grid finite-difference discretization of -Laplace + q
on a truncated unbounded domain: a half-line in 1D, the exterior of a
grid-aligned square obstacle in 2D.  A domain is its mesh spacing and three
disjoint integer lattices, from which the dimension, the stencil and the
boundary adjacency are all derived:

* interior nodes (the unknowns),
* Dirichlet boundary nodes (the discrete boundary carrying data g),
* truncation nodes (artificial far boundary, clamped to zero).

The potential q is a plain read-only float array of its interior values,
which enter only the diagonal of A_II.

Inner products are weighted so that discrete pairings mimic their continuum
counterparts: interior weight h^d, boundary weight h^(d-1) per adjacency pair
(a boundary node with k inward neighbors carries weight k*h^(d-1), which is
what makes the discrete Green identity exact, corners included).

The oracle, ``oracle_eigendecomposition``, is the reference that verdicts are
held against.  It gives every eigenpair of A_II, or, on an interval, only the
eigenvalues there and the boundary traces of their eigenvectors.  The residue
of M at an isolated eigenvalue has the rank of those traces, so the traces are
all that M can see of a level, and all that the sweep's cross-check reads.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DomainError, EndpointOnEigenvalue, NearSpectrum

__all__ = [
    "DiscreteDomain",
    "DirichletOperator",
    "MTable",
    "EigenSystem",
    "HalfLine1D",
    "Exterior2D",
    "build_domain",
    "zero_potential",
    "well_potential",
    "tabulated_potential",
    "assemble_operator",
    "halfline_root",
    "oracle_eigendecomposition",
    "oracle_projector",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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

    Node coordinates are stored as integer lattice multi-indices scaled by h,
    and the lattices are all the model keeps: the dimension is their column
    count, and the stencil is read off them once.  ``interior_neighbors`` is
    A_II's off-diagonal stencil and the graph of the connectivity check;
    ``boundary_neighbors``, the interior nodes at lattice distance one from
    each boundary node, gives the neighbor counts, B = P / h^2 and the trace
    part P^T u of the normal derivative, and the dense ``incidence`` P that
    the 2D reduction, ``visible_multiplicity`` and the oracle read.
    """

    h: float
    interior_lattice: np.ndarray          # (n_I, d) int
    boundary_lattice: np.ndarray          # (n_B, d) int
    truncation_lattice: np.ndarray        # (n_T, d) int

    @property
    def dimension(self) -> int:
        return self.interior_lattice.shape[1]

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
    def interior_weight(self) -> float:
        """Quadrature weight of one interior node: h^d."""
        return self.h ** self.dimension

    @property
    def boundary_weight(self) -> float:
        """Base boundary weight h^(d-1) (per adjacency pair)."""
        return self.h ** (self.dimension - 1)

    @cached_property
    def neighbor_counts(self) -> np.ndarray:
        """Inward neighbor count k_b per boundary node (read-only, built on first use)."""
        return _read_only((self.boundary_neighbors >= 0).sum(axis=1))

    @cached_property
    def boundary_node_weights(self) -> np.ndarray:
        """Per-node boundary weights k_b * h^(d-1) (read-only, built on first use)."""
        return _read_only(self.neighbor_counts * self.boundary_weight)

    # -- stencil -----------------------------------------------------------

    @cached_property
    def _index_box(self) -> tuple:
        """(flat, lo, shape): the index box with corner lo and shape that holds the
        three lattices with a node to spare on every side, and the raveled index
        flat of every node in it, the interior's, the boundary's and then the
        truncation's.  The box is raveled in C order, so flat indices rank nodes
        as their multi-indices rank lexicographically (built on first use)."""
        nodes = np.concatenate([self.interior_lattice, self.boundary_lattice,
                                self.truncation_lattice])
        lo = nodes.min(axis=0) - 1
        shape = nodes.max(axis=0) + 2 - lo
        return np.ravel_multi_index(tuple((nodes - lo).T), shape), lo, shape

    @cached_property
    def _neighbor_tables(self) -> tuple:
        """(interior_neighbors, boundary_neighbors), read off one array over the
        index box that holds each interior node's index at its cell and -1
        elsewhere, at the nodes' flat indices shifted by +e_0, -e_0, +e_1, ...;
        the spare node on every side keeps each shift inside the box."""
        flat, _, shape = self._index_box
        n_i, n_b = self.n_interior, self.n_boundary
        box = np.full(np.prod(shape), -1)
        box[flat[:n_i]] = np.arange(n_i)
        strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)   # e_k moves prod(shape[k+1:])
        steps = np.repeat(strides, 2) * np.tile([1, -1], len(strides))
        return (_read_only(box[flat[:n_i, None] + steps]),
                _read_only(box[flat[n_i:n_i + n_b, None] + steps]))

    @property
    def interior_neighbors(self) -> np.ndarray:
        """(n_I, 2d) interior index of each interior node's neighbor at +e_0, -e_0,
        +e_1, -e_1, ...; -1 where it is not interior (read-only, built on first use)."""
        return self._neighbor_tables[0]

    @property
    def boundary_neighbors(self) -> np.ndarray:
        """(n_B, 2d) interior index of each boundary node's neighbor in the same
        directions as ``interior_neighbors``; -1 where it is not interior
        (read-only, built on first use)."""
        return self._neighbor_tables[1]

    @cached_property
    def incidence(self) -> np.ndarray:
        """Dense adjacency incidence P (interior x boundary), one count per adjacency
        pair, for the readers that need P as a matrix: the 2D reduction,
        refine_pole, visible_multiplicity and the oracle's traces (read-only,
        built on first use)."""
        p = np.zeros((self.n_interior, self.n_boundary))
        b, k = np.nonzero(self.boundary_neighbors >= 0)
        p[self.boundary_neighbors[b, k], b] = 1.0
        return _read_only(p)

    # -- weighted products -------------------------------------------------

    def interior_inner(self, u, v) -> complex:
        """(u, v) in the h^d-weighted interior product."""
        return self.interior_weight * np.vdot(v, u)

    def interior_norm(self, u) -> float:
        return float(np.sqrt(self.interior_weight) * np.linalg.norm(u))

    def boundary_inner(self, f, g):
        """(f, g) over the last axis: a complex for two vectors, an array for stacks."""
        inner = np.sum(self.boundary_node_weights * np.asarray(f) * np.conj(g), axis=-1)
        return complex(inner) if inner.ndim == 0 else inner

    def boundary_norm(self, f):
        """Norm over the last axis: a float for a vector, an array for a stack."""
        norm = np.sqrt(np.sum(self.boundary_node_weights * np.abs(np.asarray(f)) ** 2, axis=-1))
        return float(norm) if norm.ndim == 0 else norm

    def boundary_singular_values(self, m):
        """Singular values of boundary matrices over the last two axes, as maps of
        the weighted boundary space (descending, one row per matrix of a stack)."""
        w = np.sqrt(self.boundary_node_weights)
        return np.linalg.svd(np.asarray(m) * w[:, None] / w, compute_uv=False)

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """DomainError unless h is finite and positive, the interior is not
        empty, the three node sets are disjoint, every boundary node has an
        interior neighbor and the interior adjacency graph is connected.  The
        graph is checked in numpy array passes over ``interior_neighbors``
        (``_is_connected``), with no sparse-matrix or graph package."""
        if not np.isfinite(self.h):
            raise DomainError("mesh spacing h must be finite")
        if self.h <= 0:
            raise DomainError("mesh spacing h must be positive")
        if self.n_interior == 0:
            raise DomainError("empty interior")
        # a node in two sets, or twice in one, is a box cell counted twice, and
        # the first such cell is the lexicographically smallest such node
        flat, lo, shape = self._index_box
        shared = np.bincount(flat) > 1
        if shared.any():
            row = tuple((lo + np.unravel_index(np.argmax(shared), shape)).tolist())
            raise DomainError(f"node {row} appears in more than one node set")
        if np.any(self.neighbor_counts == 0):
            b = int(np.argmin(self.neighbor_counts))
            raise DomainError(f"boundary node {b} has no interior neighbor")
        if not _is_connected(self.interior_neighbors):
            raise DomainError("interior adjacency graph is not connected")


def _is_connected(nbrs: np.ndarray) -> bool:
    """Whether the undirected graph whose node i has the neighbors nbrs[i] (-1:
    none) is connected, by min-label hooking with pointer jumping (Shiloach &
    Vishkin, J. Algorithms 3 (1982)).  Each node points at a parent of no
    larger index, and the pointers form stars: every parent is a root.  A
    round hooks each root onto the least root next to its star, if that is
    smaller, and then jumps the pointers, parent <- parent[parent], until
    they are stars again.  A round lowers a root whenever some star has a
    neighbor outside it, so the rounds end, and when none has, the stars are
    the components: the graph is connected when every node points at 0."""
    own = np.arange(len(nbrs))
    # one row per direction, a missing neighbor read as the node itself
    nbrs = np.where(nbrs >= 0, nbrs, own[:, None]).T.copy()
    parent = own
    while True:
        low = np.minimum(parent.take(nbrs).min(axis=0), parent)
        if np.array_equal(low, parent):
            return not parent.any()
        hooked = parent.copy()
        np.minimum.at(hooked, parent, low)
        parent, grand = hooked, hooked.take(hooked)
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand.take(grand)


def build_domain(spec) -> DiscreteDomain:
    """Construct a validated DiscreteDomain from a HalfLine1D or Exterior2D spec."""
    if not isinstance(spec, (HalfLine1D, Exterior2D)):
        raise DomainError(f"unknown domain spec {spec!r}")
    for name, value in vars(spec).items():
        if not np.isfinite(value):
            raise DomainError(f"domain {name} must be finite, not {value}")
    dom = _build_halfline(spec) if isinstance(spec, HalfLine1D) else _build_exterior2d(spec)
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
    return DiscreteDomain(h=spec.h, interior_lattice=interior, boundary_lattice=boundary,
                          truncation_lattice=trunc)


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

    ij = np.mgrid[-nL:nL + 1, -nL:nL + 1].reshape(2, -1).T   # lexicographic order
    ring = np.abs(ij).max(axis=1)
    # ring < na: enclosed obstacle nodes, not part of the model
    interior = ij[(na < ring) & (ring < nL)]
    boundary = ij[ring == na]
    trunc = ij[ring == nL]
    return DiscreteDomain(h=spec.h, interior_lattice=interior, boundary_lattice=boundary,
                          truncation_lattice=trunc)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def zero_potential(dom: DiscreteDomain) -> np.ndarray:
    return _read_only(np.zeros(dom.n_interior))


def well_potential(dom: DiscreteDomain, depth: float, width: float) -> np.ndarray:
    """q = -depth on nodes with first coordinate < width, 0 elsewhere."""
    return _read_only(np.where(dom.interior_coords[:, 0] < width, -depth, 0.0))


def tabulated_potential(dom: DiscreteDomain, interior_values) -> np.ndarray:
    """The values as a read-only float copy; DomainError unless one finite real
    value per interior node (the operator is selfadjoint)."""
    q = np.asarray(interior_values)
    if np.iscomplexobj(q) and np.any(q.imag):
        raise DomainError("potential has a nonzero imaginary part")
    q = np.array(q.real, dtype=float)
    if q.shape != (dom.n_interior,):
        raise DomainError("potential has wrong interior length")
    if not np.isfinite(q).all():
        raise DomainError("potential has a non-finite value")
    return _read_only(q)


# ---------------------------------------------------------------------------
# Dirichlet operator
# ---------------------------------------------------------------------------

def halfline_root(z, h: float):
    """The root r, |r| <= 1, of r + 1/r = 2 - h^2 z, elementwise: the ratio
    u_(k+1)/u_k of the solution of the free discrete half-line that decays
    off the band [0, 4/h^2] (Teschl, *Jacobi Operators and Completely
    Integrable Nonlinear Lattices*, ch. 1).

    With w = h^2 z / 2 the roots are 1 - w +- sqrt(w (w - 2)); the sign that
    adds the two terms without cancellation gives the root R with |R| >= 1,
    and r = 1/R.  The factored discriminant keeps w's relative accuracy at
    the band edges.
    """
    w = 0.5 * h * h * np.asarray(z, dtype=complex)
    s, a = np.sqrt(w * (w - 2)), 1 - w
    return 1 / np.where((a.conj() * s).real >= 0, a + s, a - s)


def _upper(zs) -> tuple:
    """(keys, lower): the z of zs, flattened, as a list with each z that has
    Im z < 0 replaced by conj z, and where that was done."""
    zs = np.asarray(zs, dtype=complex).ravel()
    lower = zs.imag < 0
    return np.where(lower, zs.conj(), zs).tolist(), lower


class MTable(Mapping):
    """The z -> M(z) table of one operator: read-only (n_B, n_B) entries, one
    per conjugate pair.

    A_II and P are real, so M(conj z) = conj M(z), and so in every entry on
    every path that forms M (the half-line continued fraction, the 2D
    pole-residue fill and the LU; a zero may differ in sign).  A z is entered
    and kept at its representative with Im z >= 0, and read at conj z as the
    conjugate; as a Mapping the table holds those representatives.  The
    entries are the rows of the blocks that fills built, each kept as it came,
    and a dict from z to its row, so gathering many z is one dict lookup per
    z and one fancy index per block.  Entering takes a lock and reading does
    not: a block is listed before any z points at it.

    A pair whose build raised NearSpectrum is no entry, but the table keeps
    the z and distance estimate of that exception, and a later fill that asks
    for the pair raises an equal one without building anything.
    """

    def __init__(self):
        self._blocks, self._starts = [], []   # fill blocks, the row each starts at
        self._rows = {}                       # z -> row
        self._failed = {}                     # z -> distance estimate of its NearSpectrum
        self._lock = threading.Lock()

    def __getitem__(self, z):
        row = self._rows[z]
        block = bisect_right(self._starts, row) - 1
        return self._blocks[block][row - self._starts[block]]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def cached_many(self, zs, build):
        """Enter M(z) for the z of zs whose pair the table lacks, all at once:
        build(keys) gives M at those z's representatives (Im z >= 0), in
        order, as one block, which is entered read-only unless build raises.
        A NearSpectrum that build raises at one of the keys is kept for that
        key's pair; a pair of zs that failed so raises its NearSpectrum again,
        before anything is built.

        Concurrent misses may each build; the first entry stays, so build
        must give equal values.
        """
        missing = [z for z in dict.fromkeys(_upper(zs)[0]) if z not in self._rows]
        for z in missing:
            if z in self._failed:
                raise NearSpectrum(z, self._failed[z])
        if missing:
            try:
                block = _read_only(np.asarray(build(missing)))
            except NearSpectrum as exc:
                if exc.z in missing:
                    with self._lock:
                        self._failed.setdefault(exc.z, exc.dist_estimate)
                raise
            with self._lock:
                start = self._starts[-1] + len(self._blocks[-1]) if self._blocks else 0
                self._blocks.append(block)
                self._starts.append(start)
                for row, z in enumerate(missing, start):
                    self._rows.setdefault(z, row)

    def gather(self, zs, out):
        """Copy M(z) into out[index] for every z = zs[index] the table holds, and
        return where it does, a boolean array of zs's shape; out has the shape
        zs.shape + (n_B, n_B), may be any view, and keeps its values elsewhere."""
        keys, lower = _upper(zs)
        rows = np.fromiter(map(self._rows.get, keys, repeat(-1)), dtype=np.intp,
                           count=len(keys))
        hit = rows >= 0
        blocks = self._blocks[:]
        starts = np.array(self._starts[:len(blocks)])
        which = np.searchsorted(starts, rows, side="right") - 1
        for b in set(which[hit].tolist()):
            at = hit & (which == b)
            m = blocks[b][rows[at] - starts[b]]
            np.conjugate(m, out=m, where=lower[at][:, None, None])
            out[at.reshape(np.shape(zs))] = m
        return hit.reshape(np.shape(zs))


@dataclass(frozen=True)
class DirichletOperator:
    """Interior block of the discrete -Laplace + q plus the boundary injection.

    A_II is the 2d+1-point stencil with homogeneous Dirichlet data on both the
    discrete boundary and the truncation ring, and is kept as that stencil:
    the diagonal 2d/h^2 + q, and the domain's ``interior_neighbors`` table,
    where every off-diagonal entry is -1/h^2.  Its CSR matrix ``a_ii`` is
    built on request, for the band ordering (2D and the two-node half-line)
    and the 2D reduction; every other half-line reads the stencil alone, so
    a run on it loads neither scipy.sparse nor its graph routines.
    B = P / h^2 carries boundary data into the interior load with entries
    1/h^2, one per adjacency pair, and is kept once, as the dense complex
    read-only (n_I, n_B) array that the solves read.  Data derived from A_II
    and B are read-only cached properties; ``m_table`` is the z -> M(z)
    table (MTable).
    """

    domain: DiscreteDomain
    potential: np.ndarray                 # (n_I,) float, read-only
    diagonal: np.ndarray                  # (n_I,) float, 2d/h^2 + q, read-only
    b: np.ndarray

    m_table: MTable = field(default_factory=MTable, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.domain.n_interior

    def _rows(self) -> tuple:
        """(cols, vals): A_II's rows as in canonical CSR, each row's columns, the
        node's own among them, ascending, and their entries; a missing neighbor
        (-1) is read as column n, so that it sorts last, with the entry 0."""
        n, nbrs = self.n, self.domain.interior_neighbors
        cols = np.sort(np.column_stack([np.where(nbrs >= 0, nbrs, n), np.arange(n)]), axis=1)
        vals = np.where(cols == np.arange(n)[:, None], self.diagonal[:, None],
                        np.where(cols < n, -1.0 / self.domain.h ** 2, 0.0))
        return cols, vals

    @cached_property
    def a_ii(self):
        """A_II as a canonical scipy.sparse CSR matrix (built on first use).  Only
        ``banded``, ``reduction`` and outside readers ask for it, so
        scipy.sparse is imported here, on the first request."""
        import scipy.sparse as sp

        cols, vals = self._rows()
        keep = cols < self.n
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(self.n, self.n))

    @cached_property
    def a_norm(self) -> float:
        """||A_II||_1, the maximum absolute column sum, computed on first use from
        the stencil.  A_II is symmetric, so a column's entries are its row's; they
        are summed in ascending row order, as CSR sums a column, so the norm is
        the CSR matrix's bit for bit."""
        _, vals = self._rows()
        total = np.zeros(self.n)
        for column in np.abs(vals).T:
            total += column
        return total.max()

    @cached_property
    def tridiagonal(self) -> tuple:
        """(diagonal, off-diagonal) of A_II, the entries (i, i) and (i, i + 1), read
        off the stencil; a tridiagonal A_II is these two (read-only, built on
        first use)."""
        nbrs = self.domain.interior_neighbors
        after = (nbrs[:-1] == np.arange(1, self.n)[:, None]).any(axis=1)
        return self.diagonal, _read_only(np.where(after, -1.0 / self.domain.h ** 2, 0.0))

    @cached_property
    def free_tail(self) -> tuple:
        """(k, q) for a tridiagonal A_II: its diagonal is constant from row k on,
        the free tail past the potential's support, and q = d_k - 2/h^2 there
        (built on first use)."""
        diag, off = self.tridiagonal
        same = diag[::-1] == diag[-1]
        tail = len(diag) if same.all() else int(np.argmin(same))
        return len(diag) - tail, float(diag[-1] + 2 * off[-1])

    @cached_property
    def reduction(self) -> tuple:
        """(diagonal, off-diagonal, Q^T P, reflectors, tau) of an orthogonal reduction
        Q^T A_II Q = T to tridiagonal form (read-only, built on first use; see
        _tridiagonalize and _apply_q)."""
        return tuple(_read_only(a)
                     for a in _tridiagonalize(self.a_ii.toarray(), self.domain.incidence))

    @cached_property
    def trace_poles(self) -> tuple:
        """(lam, u, uu): the eigenvalues lam of the reduction's T (LAPACK stevd),
        the real (n, n_B) array U = V^T Q^T P for T's eigenvectors V, whose row
        U_k = P^T (Q v_k) is the boundary part of A_II's unit eigenvector Q v_k,
        and the real (n_B^2, n) array uu[a n_B + b, k] = U_ka U_kb, so that
        P^T (A_II - z)^-1 P = sum_k U_k U_k^T / (lam_k - z).  The 2D fill reads
        lam and uu, the oracle on an interval lam and U.  V is dropped once U
        is formed; no n x n array is kept (read-only, built on first use)."""
        diag, off, c, *_ = self.reduction
        lam, v = _eigh_tridiagonal(diag, off)
        u = v.T @ c
        uu = (u[:, :, None] * u[:, None, :]).reshape(self.n, -1).T
        return _read_only(lam), _read_only(u), _read_only(np.ascontiguousarray(uu))

    @cached_property
    def banded(self) -> tuple:
        """(perm, k, ab): the reverse Cuthill-McKee ordering perm of A_II, the
        half-bandwidth k of A_II[perm][:, perm], and that matrix in LAPACK gbtrf
        band storage, complex and Fortran-ordered, with k rows above for the
        fill-in and the diagonal on row 2k (read-only, built on first use).  The
        ordering is SciPy's graph routine, imported here, on the first band."""
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        perm = reverse_cuthill_mckee(self.a_ii, symmetric_mode=True)
        a = self.a_ii[perm][:, perm].tocoo()
        k = int(np.max(np.abs(a.row - a.col)))
        ab = np.zeros((3 * k + 1, self.n), dtype=complex, order="F")
        ab[2 * k + a.row - a.col, a.col] = a.data
        return _read_only(perm), k, _read_only(ab)

    def trace_resolvent(self, zs) -> np.ndarray:
        """P^T (A_II - z)^-1 P for each z of zs, shape (len(zs), n_B, n_B); the
        boundary block from which M(z) is formed.

        On the half-line P^T (A_II - z)^-1 P = [(A_II - z)^-1]_11 = 1/t_1 for the
        backward continued fraction t_n = d_n - z, t_i = d_i - z - e_i^2 / t_(i+1)
        of the tridiagonal A_II (Golub & Meurant, *Matrices, Moments and
        Quadrature*, ch. 3), vectorized over zs.  Each pivot has
        Im t_i <= -Im z for Im z > 0 (>= for Im z < 0), so none vanishes off
        the real axis.  On the free tail (``free_tail``), the last N rows with
        one diagonal entry d = 2e + q, e = 1/h^2, the fraction has the closed
        form t = e r^-1 (1 - r^(2N+2)) / (1 - r^2N), r = halfline_root(z - q, h)
        (Teschl, *Jacobi Operators and Completely Integrable Nonlinear
        Lattices*, ch. 1), with 1 - r^2k = -expm1(2k log r); N = 1 gives d - z.
        The recurrence runs from there over the potential's support only.
        Every step is elementwise in z, so a z's value does not depend on the
        other z of the call.

        In 2D it is the pole-residue form sum_k U_k U_k^T / (lam_k - z) from the
        eigenpairs of the reduction Q^T A_II Q = T (``trace_poles``): the
        reciprocals 1/(lam - z), elementwise in real arithmetic for a block of
        zs at a time, then one matrix product per z against the products
        U_ka U_kb, so that an entry does not depend on the other z of the
        call.  The Householder reduction and the symmetric tridiagonal
        eigensolver are both backward stable (Golub & Van Loan, *Matrix
        Computations*, 8.3 and 8.4), so this differs from the banded LU's solve
        by rounding and, beside a pole, by the first-order term
        u*||A_II||_1*||(A_II - z)^-1 P||^2.  A reciprocal that is not finite (z
        on an eigenvalue to working precision) raises NearSpectrum, as in
        ShiftedSolver.
        """
        zs = np.asarray(zs, dtype=complex)
        if self.domain.dimension == 1:
            diag, off = self.tridiagonal
            k, q = self.free_tail
            tail, r = len(diag) - k, halfline_root(zs - q, self.domain.h)
            log_r = np.log(r)
            t = -off[-1] * np.expm1((2 * tail + 2) * log_r) / (r * np.expm1(2 * tail * log_r))
            for d, e2 in zip(diag[:k][::-1].tolist(), (off[:k][::-1] ** 2).tolist()):
                t = d - zs - e2 / t
            return (1.0 / t)[:, None, None]
        lam, _, uu = self.trace_poles
        out = np.empty((len(zs), len(uu), 2))
        for start in range(0, len(zs), _Z_BLOCK):
            block = zs[start:start + _Z_BLOCK]
            # 1/(lam - z) = (lam - x + iy) / ((lam - x)^2 + y^2) as (re, im) pairs
            shift, height = lam - block.real[:, None], block.imag[:, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                den = shift * shift + height * height
                r = np.stack([shift / den, height / den], axis=-1)
            bad = ~np.isfinite(r).all(axis=(1, 2))
            if bad.any():
                raise NearSpectrum(complex(block[np.argmax(bad)]), 0.0)
            for k, rk in enumerate(r, start):
                np.matmul(uu, rk, out=out[k])
        n_b = self.domain.n_boundary
        return out.view(complex).reshape(len(zs), n_b, n_b)

    def resolvent_sum(self, zs, weights):
        """Re sum_j weights[j] (A_II - zs[j])^-1 as a dense float64 (n, n) matrix.

        A_II is real, so (A_II - conj z)^-1 is the conjugate of (A_II - z)^-1,
        and the real part is half the sum over the conjugate pairs {z_j, conj z_j}
        with the weights w_j and conj w_j: a real matrix.  The imaginary part of
        a sum is the real part of the sum with the weights -i w_j.

        weights may also be a stack of rows, shape (k, len(zs)): the result is
        then the (k, n, n) array of the k sums, whose rows share one pivot pass
        and one factorization of each uncertified z.  A row sum equals that of
        a call with that row alone, bit for bit.

        On the half-line a certified z (``certified``) takes no factorization.
        With the backward pivots t+ of trace_resolvent and the forward pivots
        t-_1 = d_1 - z, t-_i = d_i - z - e_(i-1)^2 / t-_(i-1), both found in
        one pass for all certified z of the call, the inverse
        G = (A_II - z)^-1 of the tridiagonal is (Meurant, SIAM J. Matrix Anal.
        Appl. 13 (1992) 707-728)
            G_ii = 1 / (t-_i + t+_i - (d_i - z)),
            G_ji = G_ij = G_ii * rho_i * ... * rho_(j-1)  (j > i),
        rho_m = -e_m / t+_(m+1).  As for t+, Im t-_i <= -Im z for Im z > 0
        (>= for Im z < 0), and the denominator of G_ii is
        d_i - z - e_(i-1)^2 / t-_(i-1) - e_i^2 / t+_(i+1), whose imaginary part
        is bounded the same way: no pivot vanishes.  The diagonal is
        contracted with the weights over all z at once.  Below it G is
        semiseparable: rows are cut into blocks on which the partial products
        C_j of the rho stay within 2^+-256, so that G_ji = C_j * (G_ii / C_i)
        in a block, and G_ji = C_j * G_(s, i) for a later block that starts at
        row s; G_(s, i) is carried from block to block by the block's last
        product.  Each block pair is then one real matrix product over the z
        axis, Re(C K^T) = [Re C, Im C] [Re K, -Im K]^T.  Weights below 2^-256 in
        modulus enter scaled up by a power of two, and the sum is scaled back
        at the end, so that every product is formed in the normal range and the
        result is rounded once, as Re(w (A_II - z)^-1) is.

        Every other z (uncertified ones, and all z in 2D) is factorized once
        and solved against the identity, so NearSpectrum guards it as in
        ``factorize``, and Re w Re R - Im w Im R of its inverse R is added to
        each row that weights it.
        """
        zs = np.asarray(zs, dtype=complex)
        weights = np.asarray(weights, dtype=complex)
        if zs.ndim != 1 or weights.ndim not in (1, 2) or weights.shape[-1] != len(zs):
            raise ValueError(f"weights of shape {weights.shape} do not match zs of shape "
                             f"{zs.shape}: need 1-d zs, and weights of shape (len(zs),) "
                             "or (k, len(zs))")
        fast = self.certified(zs) & (self.domain.dimension == 1)
        g, ratio = _meurant_pivots(*self.tridiagonal, zs[fast]) if fast.any() else (None, None)
        rows = np.atleast_2d(weights)
        out = np.zeros((len(rows), self.n, self.n))
        for total, w in zip(out, rows):
            keep = np.flatnonzero(w[fast])
            if len(keep):
                total[...] = _meurant_sum(g[:, keep], ratio[:, keep], w[fast][keep])
        slow = np.flatnonzero(~fast)
        eye = np.eye(self.n, dtype=complex) if len(slow) else None
        for j in slow:
            inverse = self.factorize(zs[j]).solve(eye)
            for total, w in zip(out, rows[:, j]):
                if w:
                    total += w.real * inverse.real - w.imag * inverse.imag
        return out[0] if weights.ndim == 1 else out

    @property
    def certified_height(self) -> float:
        """The |Im z| from which z is certified off the spectrum (see ShiftedSolver)."""
        return _CERTIFIED_GAP * _REL_DIST_THRESHOLD * self.a_norm

    def certified(self, z):
        """Whether |Im z| alone proves z off the spectrum; elementwise."""
        return np.abs(np.imag(z)) >= self.certified_height

    def factorize(self, z: complex) -> "ShiftedSolver":
        """Factor A_II - z, raising NearSpectrum if z is too close to an eigenvalue."""
        return ShiftedSolver(self, complex(z))


def assemble_operator(dom: DiscreteDomain, q) -> DirichletOperator:
    """Assemble A_II, as its stencil (the diagonal 2d/h^2 + q beside the domain's
    neighbor table; see DirichletOperator), and the boundary-injection matrix B
    for the potential q, one real value per interior node (checked as
    tabulated_potential checks it).  No sparse matrix is formed."""
    q = tabulated_potential(dom, q)
    h2 = dom.h ** 2
    # B = P / h^2: 1/h^2 at each adjacency pair of the boundary table
    bnd, k = np.nonzero(dom.boundary_neighbors >= 0)
    b = np.zeros((dom.n_interior, dom.n_boundary), dtype=complex)
    b[dom.boundary_neighbors[bnd, k], bnd] = 1.0 / h2

    # every off-diagonal entry is -1/h^2, so A_II is symmetric when each neighbor
    # names the node back in the opposite direction (+e_k and -e_k are k ^ 1)
    nbrs = dom.interior_neighbors
    i, k = np.nonzero(nbrs >= 0)
    if np.any(nbrs[nbrs[i, k], k ^ 1] != i):
        raise DomainError("assembled operator is not exactly symmetric")
    return DirichletOperator(domain=dom, potential=q,
                             diagonal=_read_only(2 * dom.dimension / h2 + q), b=_read_only(b))


# ---------------------------------------------------------------------------
# shifted solver with solver-side conditioning check
# ---------------------------------------------------------------------------

_REL_DIST_THRESHOLD = 1e-10
# |Im z| >= _CERTIFIED_GAP * _REL_DIST_THRESHOLD * ||A_II||_1 skips the distance
# estimate; the factor 2 leaves room for the rounding of the estimate
_CERTIFIED_GAP = 2.0
# trace_resolvent forms the reciprocals 1/(lam - z) of this many z at a time
_Z_BLOCK = 32
_GTTRF, _GTTRS, _GBTRF, _GBTRS = get_lapack_funcs(("gttrf", "gttrs", "gbtrf", "gbtrs"),
                                                  dtype=complex)
_SYTRD, _SYTRD_LWORK, _ORMQR, _STEVD = get_lapack_funcs(
    ("sytrd", "sytrd_lwork", "ormqr", "stevd"), dtype=float)


def _tridiagonalize(a: np.ndarray, p: np.ndarray) -> tuple:
    """(d, e, Q^T p, reflectors, tau) for the Householder reduction Q^T a Q =
    tridiag(e, d, e) of a real symmetric a (LAPACK sytrd, lower triangle; Golub &
    Van Loan, *Matrix Computations*, 8.3.1): Q = diag(1, Q'), Q' the product of
    the QR-type reflectors in c[1:, :-1] and tau, which are kept as one
    Fortran-ordered array that ormqr reads without a copy."""
    lwork, _ = _SYTRD_LWORK(len(a), lower=1)    # the blocked algorithm's workspace
    c, d, e, tau, _ = _SYTRD(a, lower=1, lwork=int(lwork))
    reflectors = np.asfortranarray(c[1:, :-1])
    return d, e, _apply_q(reflectors, tau, p, "T"), reflectors, tau


def _eigh_tridiagonal(diag: np.ndarray, off: np.ndarray) -> tuple:
    """(values, vectors) of the symmetric tridiagonal (diag, off), LAPACK stevd."""
    values, vectors, info = _STEVD(diag, off, compute_v=1)
    if info:
        raise np.linalg.LinAlgError(f"stevd failed with info {info}")
    return values, vectors


def _apply_q(reflectors: np.ndarray, tau: np.ndarray, x: np.ndarray, trans: str) -> np.ndarray:
    """Q x or Q^T x (trans "N" or "T"), C-ordered as dense eigh's vectors are, for sytrd's
    Q = diag(1, Q'): LAPACK ormqr, its workspace queried, applies Q' to x[1:]."""
    lwork = _ORMQR("L", trans, reflectors, tau, x[1:], -1)[1][0]
    out = np.empty(x.shape)
    out[0], out[1:] = x[0], _ORMQR("L", trans, reflectors, tau, x[1:], int(lwork))[0]
    return out


# the partial products of a row block of resolvent_sum stay within 2^+-256
_BLOCK_RANGE = np.finfo(float).maxexp // 4


def _meurant_pivots(diag: np.ndarray, off: np.ndarray, zs: np.ndarray) -> tuple:
    """(G_ii, rho): the diagonal of G = (T - z)^-1, shape (n, len(zs)), and the
    ratios rho_i = -e_i / t+_(i+1) = G_(i+1, j) / G_(i, j) (j <= i), shape
    (n - 1, len(zs)), of the tridiagonal T = (diag, off) for each z of zs; the
    forward and backward continued fractions run in one loop (see
    DirichletOperator.resolvent_sum)."""
    n = len(diag)
    dz = diag[:, None] - zs
    # row i carries (t-_i, t+_(n-1-i)), the forward pivot and the backward one
    rows = np.stack([dz, dz[::-1]], axis=1)
    e2 = np.stack([off ** 2, off[::-1] ** 2], axis=1)[:, :, None]
    piv = np.empty_like(rows)
    piv[0] = rows[0]
    for i in range(n - 1):
        np.subtract(rows[i + 1], e2[i] / piv[i], out=piv[i + 1])
    fwd, back = piv[:, 0], piv[::-1, 1]
    return 1.0 / (fwd + back - dz), -off[:, None] / back[1:]


def _meurant_sum(g: np.ndarray, ratio: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_z w_z G(z) as a dense float64 (n, n) array from the pivots (g, ratio)
    of _meurant_pivots, by row blocks (see DirichletOperator.resolvent_sum)."""
    n, m = g.shape
    # weights below 2^-256 in modulus enter scaled up by a power of two, exactly
    exponent = int(np.frexp(np.max(np.abs(w)))[1])
    scale = exponent if exponent < -_BLOCK_RANGE else 0
    scaled = np.ldexp(w.view(float), -scale).view(complex)
    level = np.zeros((n, m))           # log2 |rho_0 ... rho_(j-1)| on row j
    np.cumsum(np.log2(np.abs(ratio)), axis=0, out=level[1:])
    starts = [0]
    while starts[-1] < n:
        s = starts[-1]
        over = np.flatnonzero((np.abs(level[s:] - level[s]) > _BLOCK_RANGE).any(axis=1))
        starts.append(s + int(over[0]) if len(over) else n)
    blocks = list(zip(starts[:-1], starts[1:]))
    prods = []                         # C_j = rho_s ... rho_(j-1) on the block [s, e)
    for s, e in blocks:
        c = np.ones((e - s, m), dtype=complex)
        np.cumprod(ratio[s:e - 1], axis=0, out=c[1:])
        prods.append(c)
    # Re(C K^T) = [Re C, Im C] [Re K, -Im K]^T, one real product
    re_im = [np.concatenate([c.real, c.imag], axis=1) for c in prods]
    total = np.zeros((n, n))
    for k, (s, e) in enumerate(blocks):
        carry = g[s:e] / prods[k] * scaled  # w G_ii / C_i
        _symmetric_fill(total[s:e, s:e], re_im[k],
                        np.concatenate([carry.real, -carry.imag], axis=1))
        for (s2, e2), c, before in zip(blocks[k + 1:], re_im[k + 1:], prods[k:]):
            carry = carry * before[-1] * ratio[s2 - 1]   # w G_(s2, i)
            if not carry.any():   # underflowed: the rest of these columns is zero
                break
            np.matmul(c, np.concatenate([carry.real, -carry.imag], axis=1).T,
                      out=total[s2:e2, s:e])
            total[s:e, s2:e2] = total[s2:e2, s:e].T
    if scale:
        np.ldexp(total, scale, out=total)
    total.reshape(-1)[::n + 1] = (g @ w).real
    return total


def _symmetric_fill(out: np.ndarray, c: np.ndarray, k: np.ndarray) -> None:
    """out[j, l] = out[l, j] = c[j] . k[l] for l < j (the diagonal is left to the
    caller): the lower left quarter is one matrix product and the upper right
    its transpose, and the two diagonal quarters recurse down to 32 rows."""
    b = len(c)
    if b <= 32:
        p = c @ k.T
        out[...] = np.where(np.tri(b, k=-1, dtype=bool), p, p.T)
        return
    mid = b // 2
    np.matmul(c[mid:], k[:mid].T, out=out[mid:, :mid])
    out[:mid, mid:] = out[mid:, :mid].T
    _symmetric_fill(out[:mid, :mid], c[:mid], k[:mid])
    _symmetric_fill(out[mid:, mid:], c[mid:], k[mid:])


class ShiftedSolver:
    """A_II - z factored once, with a deterministic conditioning estimate.

    A tridiagonal A_II (the half-line) keeps LAPACK's gttrf factors and solves
    with gttrs; every other operator keeps the gbtrf factors of its band
    (``DirichletOperator.banded``) with z subtracted on the diagonal row of a
    copy, as does the two-node half-line, whose size SciPy's gttrf wrapper
    rejects.  A_II - z is complex symmetric, so a plain solve is gbtrs's
    transposed one, on the right-hand side gathered by the band's ordering and
    scattered back; an adjoint solve is its conjugate-transposed one.

    Near-spectrum detection runs a few fixed-start power iterations on the
    inverse (no randomness, no oracle) and raises NearSpectrum when the
    estimate of sigma_min(A_II - z) falls below 1e-10 * ||A_II||_1.  It is
    skipped for a certified z, one with |Im z| at least twice that threshold
    (``DirichletOperator.certified``): A_II is real symmetric, so
    sigma_min(A_II - z) = min_j |lambda_j - z| >= |Im z|, and the power
    iteration never estimates sigma_min from below (||y|| <= sigma_min^-2 for
    a unit start), so the test could not fire; only at huge |z|, where the
    iterates underflow, did it raise, far from the spectrum.  ``dist_estimate``
    is then |Im z|, a lower bound on the distance; for every other z (real and
    near-real z: residue-contour crossings, Stone endpoints) it is the
    power-iteration estimate.
    """

    def __init__(self, op: DirichletOperator, z: complex):
        self.z = z
        self._n = op.n
        self._band = self._tri = None
        if op.domain.dimension == 1 and self._n > 2:
            diag, off = op.tridiagonal
            *self._tri, info = _GTTRF(off, diag - z, off)
        else:
            perm, k, ab = op.banded
            ab = ab.copy(order="F")
            ab[2 * k] -= z
            lu, piv, info = _GBTRF(ab, k, k, overwrite_ab=1)
            self._band = perm, k, lu, piv
        if info > 0:
            raise NearSpectrum(z, 0.0)
        if op.certified(z):
            self.dist_estimate = abs(z.imag)
            return
        dist = self._distance_estimate()
        if not np.isfinite(dist) or dist < _REL_DIST_THRESHOLD * op.a_norm:
            raise NearSpectrum(z, dist)
        self.dist_estimate = dist

    def solve(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve (A_II - z) u = rhs (or the conjugate-transpose system)."""
        rhs = np.asarray(rhs, dtype=complex)
        if self._band is None:
            return _GTTRS(*self._tri, rhs, trans="C" if adjoint else "N")[0]
        perm, k, lu, piv = self._band
        u = np.empty_like(rhs)
        u[perm] = _GBTRS(lu, k, k, rhs[perm], piv, trans=2 if adjoint else 1,
                         overwrite_b=1)[0]
        return u

    def _distance_estimate(self) -> float:
        """Estimate sigma_min(A - z) by power iteration on the inverse."""
        n = self._n
        v = np.cos(0.7 * np.arange(n)) + 1.1 + 0.0j
        v /= np.linalg.norm(v)
        est = np.inf
        # a norm that overflows is read as distance 0, without a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
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
    """Spectral data of A_II from the oracle, grouped by degeneracy: the
    eigenvalues, all of them or those of an interval, and the boundary traces
    tau(v) = -P^T v / (k_b h) of their w_I-orthonormal eigenvectors v, the
    normal derivatives of the fields with zero boundary data and interior
    values v, from which the residue of M at a level is formed.  Only the
    oracle of the whole spectrum keeps the eigenvectors themselves."""

    values: np.ndarray                 # ascending
    vectors: np.ndarray | None         # (n, n), columns w_I-orthonormal; None on an interval
    traces: np.ndarray                 # (n_B, len(values)), tau of each eigenvector
    groups: tuple                      # tuple of tuples of indices into values
    degeneracy_tol: float
    interior_weight: float

    def multiplicity(self, lam0: float) -> int:
        return int(np.sum(np.abs(self.values - lam0) <= self.degeneracy_tol))


def oracle_eigendecomposition(op: DirichletOperator, interval=None) -> EigenSystem:
    """Symmetric eigendecomposition, the independent reference for all verdicts.

    Without an interval it is every eigenpair: LAPACK stevd on the stored
    tridiagonal, A_II's on the half-line and the reduction's in 2D, whose
    eigenvectors Q V_T are formed as dense eigh (syevd) forms them.

    On an interval (a, b), a < b, it is the eigenvalues in (a, b] and their traces,
    with no eigenvector array of n columns.  On the half-line they come from
    bisection and inverse iteration on A_II (LAPACK stebz and stein through
    scipy's eigh_tridiagonal; Demmel, *Applied Numerical Linear Algebra*, 5.3),
    O(n) per eigenpair, bisecting to the tolerance 2 tiny so that a value does
    not depend on the interval; two index bisections at the default tolerance
    give the extreme eigenvalues that degeneracy_tol is set from.  In 2D they
    come from ``trace_poles``, which the 2D M(z) fill has built: its lam are
    the eigenvalues of the whole oracle bit for bit (stevd on the same
    (d, e)), and its rows U_k = P^T Q v_k are the traces up to the factor
    -1/(k_b h sqrt(w_I)).

    Levels are grouped where consecutive eigenvalues lie within
    degeneracy_tol = 1e-8 max(lambda_max - lambda_min, 1) of each other.
    """
    dom, w_i = op.domain, op.domain.interior_weight
    if interval is not None and not interval[0] < interval[1]:
        raise ValueError("need an interval (a, b) with a < b")
    vectors = None
    if interval is None:
        if dom.dimension == 1:
            (diag, off), q = op.tridiagonal, ()
        else:
            diag, off, _, *q = op.reduction
        values, unit = _eigh_tridiagonal(diag, off)
        if q:
            unit = _apply_q(*q, unit, "N")
        ends, boundary = values[[0, -1]], dom.incidence.T @ unit
        vectors = unit / np.sqrt(w_i)
    elif dom.dimension == 1:
        diag, off = op.tridiagonal
        values, unit = eigh_tridiagonal(diag, off, select="v", select_range=interval,
                                        tol=2 * np.finfo(float).tiny)
        ends = [eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                 select_range=(k, k))[0] for k in (0, op.n - 1)]
        boundary = dom.incidence.T @ unit
    else:
        lam, u, _ = op.trace_poles
        keep = (interval[0] < lam) & (lam <= interval[1])
        values, ends, boundary = lam[keep], lam[[0, -1]], u[keep].T
    traces = boundary / (-dom.h * np.sqrt(w_i) * dom.neighbor_counts[:, None])

    tol = 1e-8 * max(float(ends[-1] - ends[0]), 1.0)
    # a group ends where the next value lies more than tol above
    bounds = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    groups = tuple(tuple(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b)
    return EigenSystem(values=values, vectors=vectors, traces=traces, groups=groups,
                       degeneracy_tol=tol, interior_weight=w_i)


def oracle_projector(eig: EigenSystem, a: float, b: float) -> np.ndarray:
    """w_I-orthogonal projector onto the span of eigenspaces with eigenvalue in (a, b)."""
    if not a < b:
        raise ValueError("need a < b")
    if eig.vectors is None:
        raise ValueError("oracle_projector needs the eigenvectors of the whole-spectrum oracle")
    for endpoint in (a, b):
        if np.min(np.abs(eig.values - endpoint)) <= eig.degeneracy_tol:
            raise EndpointOnEigenvalue(f"endpoint {endpoint} lies on an eigenvalue")
    cols = (eig.values > a) & (eig.values < b)
    v = eig.vectors[:, cols]
    return eig.interior_weight * (v @ v.T)
