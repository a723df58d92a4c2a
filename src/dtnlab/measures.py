"""Oracle-side measure theory: spectral measures, Borel transforms, Stone's formula.

A finite model has a purely atomic spectral measure supported on the oracle
eigenvalues.  This module builds those measures, evaluates their Borel
transforms, recovers atoms and local densities from boundary behaviour, and
realizes spectral projections through Stone's formula, as a Riesz contour
integral plus two edge integrals, extrapolated in the regularization parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.special import roots_legendre

from .domain import DirichletOperator, EigenSystem
from .errors import AtomHit, EndpointOnEigenvalue
from .classify import GridSet, essential_closure
from .limits import (EtaSchedule, ac_flags, boundary_limit, ellipse,
                     richardson_extrapolate, richardson_weights)
from .dtn import poisson_matrix

__all__ = [
    "SpectralMeasure",
    "StoneResult",
    "SupportReport",
    "SimplicityReport",
    "spectral_measure",
    "borel_transform",
    "point_mass",
    "density",
    "stone_projection",
    "ac_sc_supports",
    "simplicity_rank",
]

_ATOM_TOL = 1e-12
_RANK_TOL = 1e-10           # relative singular value cut of simplicity_rank


@dataclass(frozen=True)
class SpectralMeasure:
    """Purely atomic positive measure sum_j weights[j] * delta(atoms[j]).

    Atoms are strictly increasing; zero weights are allowed (they carry no
    atom and are ignored by the atom logic).
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise ValueError("atoms and weights must be 1-d arrays of equal length")
        if np.any(np.diff(atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def spectral_measure(op: DirichletOperator, eig: EigenSystem, u: np.ndarray) -> SpectralMeasure:
    """Scalar spectral measure mu_u = (E(.)u, u): one atom per level with weight
    equal to the squared weighted projection of u onto the eigenspace; atoms
    whose weight vanishes (relative to the total mass) are dropped."""
    if eig.vectors is None:
        raise ValueError("spectral_measure needs the eigenvectors of the whole-spectrum oracle")
    dom = op.domain
    u = np.asarray(u, dtype=complex)
    if u.shape != (dom.n_interior,):
        raise ValueError("vector has wrong length")
    coeffs = dom.interior_weight * (eig.vectors.T @ u)  # (u, v_j), v_j real
    starts = [g[0] for g in eig.groups]                  # contiguous groups
    atoms = np.add.reduceat(eig.values, starts) / [len(g) for g in eig.groups]
    weights = np.add.reduceat(np.abs(coeffs) ** 2, starts)
    mass = dom.interior_norm(u) ** 2
    keep = weights > 1e-14 * max(mass, 1e-300)
    return SpectralMeasure(atoms[keep], weights[keep])


def borel_transform(measure: SpectralMeasure, z):
    """F(z) = int d mu(t) / (t - z), a complex for a z and an array for an array of
    z; raises AtomHit if a real z lies on an atom of the measure."""
    z = np.asarray(z, dtype=complex)
    carried = measure.weights > 0
    atoms, weights = measure.atoms[carried], measure.weights[carried]
    real = z[z.imag == 0].real
    hit = np.abs(atoms - real[:, None]) <= _ATOM_TOL * np.maximum(np.abs(atoms), 1.0)
    if np.any(hit):
        raise AtomHit(f"Borel transform evaluated at the atom {real[hit.any(axis=1)][0]}")
    f = np.sum(weights / (atoms - z[..., None]), axis=-1)
    return complex(f) if f.ndim == 0 else f


def point_mass(measure: SpectralMeasure, x: float,
               sched: EtaSchedule | None = None) -> float:
    """Recover mu({x}) as the extrapolated limit of -i * y * F(x + i*y).

    Exact relation: y * Im F(x + i y) = sum_j w_j y^2 / ((t_j - x)^2 + y^2),
    which tends to mu({x}); the deviation is analytic in y^2, so Richardson
    extrapolation against y^2 converges fast.
    """
    sched = EtaSchedule(1e-3, 0.5, 10) if sched is None else sched
    etas = sched.samples()
    vals = etas * borel_transform(measure, x + 1j * etas).imag
    return max(float(np.real(richardson_extrapolate(etas ** 2, vals))), 0.0)


def density(measure: SpectralMeasure, x: float, delta: float) -> float:
    """Smoothed density Im F(x + i*delta) / pi (the Poisson regularization)."""
    return borel_transform(measure, x + 1j * delta).imag / np.pi


# ---------------------------------------------------------------------------
# Stone's formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoneResult:
    interval: tuple
    projector: np.ndarray
    deltas: np.ndarray
    extrapolation_error: float
    panels: int


_FIRST_NODES, _MAX_NODES = 16, 4096   # the first trapezoid rule, in one call; the node cap
_EDGE_NODES = 4             # Gauss-Legendre nodes per piece [delta_(k+1), delta_k] of an edge
_DELTA0, _DELTA_RATIO, _DELTA_COUNT = 1e-2, 0.5, 6   # Stone's delta_k = delta0 * ratio^k


def _ellipse_nodes(a: float, b: float, ts) -> tuple:
    """The nodes z(t) of the contour ellipse through a and b, and z'(t)."""
    u, du = ellipse(np.asarray(ts))
    return 0.5 * (a + b + (b - a) * u), 0.5 * (b - a) * du


def _first_rule_and_edges(op: DirichletOperator, a: float, b: float, deltas) -> tuple:
    """(the contour sum of the _FIRST_NODES-node rule, the edge integral
    extrapolated to delta -> 0, its extrapolation error) of stone_projection,
    from one op.resolvent_sum call with a weight row for each.  The edge
    integral at delta_k sums the pieces below delta_k, so piece p (counted up
    from 0) enters the limit with the sum of the richardson_weights w_k over
    k < len(deltas) - p, and the error with the same sum of w_k less the
    weights of deltas[:-1]."""
    ts = np.pi * np.arange(_FIRST_NODES // 2 + 1) / (_FIRST_NODES // 2)
    rule, rule_weights = _ellipse_nodes(a, b, ts)
    rule_weights[1:-1] *= 2  # t = 0 and pi (the crossings b and a) once, the rest twice
    nodes, weights = roots_legendre(_EDGE_NODES)
    lo, hi = np.append(0.0, deltas[:0:-1]), deltas[::-1]   # the pieces, upwards
    half = 0.5 * (hi - lo)
    s = 1j * (lo[:, None] + half[:, None] * (nodes + 1.0))
    limit = richardson_weights(deltas)
    error = limit - np.append(richardson_weights(deltas[:-1]), 0.0)
    # (1/pi) int_0^delta Re[R(b + i s) - R(a + i s)] ds, piece by piece
    pieces = np.concatenate([weights, -weights]) * (half / np.pi)[:, None]
    edges = np.cumsum([limit, error], axis=1)[:, ::-1, None] * pieces
    sums = op.resolvent_sum(np.concatenate([rule, np.hstack([b + s, a + s]).ravel()]),
                            block_diag(rule_weights, edges.reshape(2, -1)))
    return sums[0].imag, sums[1].real, float(np.max(np.abs(sums[2].real)))


def stone_projection(op: DirichletOperator, a: float, b: float,
                     eig: EigenSystem | None = None,
                     quad_tol: float = 1e-10) -> StoneResult:
    """Spectral projector onto (a, b) via Stone's formula.

    For each delta of a geometric schedule, deforming the Stone segment into
    the rectangle around (a, b) (Kato, Perturbation Theory, III.6) gives
    (1/pi) int_a^b Im R(t + i delta) dt
        = P + (1/pi) int_0^delta Re[R(b + i s) - R(a + i s)] ds,
    with P = (-1/2 pi i) oint R(z) dz the Riesz projector: the trapezoid rule
    on the ellipse through a and b, from _FIRST_NODES nodes, its nodes doubled
    until two successive values agree to quad_tol (or the cap).  The edges,
    smooth as the endpoints stay off the spectrum, are Gauss-Legendre on the
    pieces between successive deltas.  The family is extrapolated to
    delta -> 0 (an odd analytic series); Richardson extrapolation is linear
    and keeps constants, so it runs on the edge integrals alone and P is
    added to their limit.  extrapolation_error is the distance to the limit
    without the last delta, or the last contour refinement step if larger
    (at the cap).  eig, the whole-spectrum oracle, guards the endpoints,
    refusing one within eig.degeneracy_tol of a level as oracle_projector
    does, and starts the schedule at no more than half their distance to the
    nearest level, so the edges resolve it.  An interval oracle is refused
    with ValueError: it lacks the levels at and just outside a and b.

    The first rule and the edges are one op.resolvent_sum call, with weight
    rows for the rule, the extrapolated edges and their error, so that their
    nodes share one pivot pass (in 1D, Meurant's tridiagonal inverse; see
    DirichletOperator.resolvent_sum); each doubling is one more call.  In 1D
    only the real crossings a and b, and edge nodes below the certified
    height, are factorized.  panels counts the resolvent evaluations.
    """
    if not b > a:
        raise ValueError("need a < b")
    delta0 = _DELTA0
    if eig is not None:
        if eig.vectors is None:
            raise ValueError("stone_projection needs the whole-spectrum oracle: an interval "
                             "oracle lacks the levels near the endpoints")
        clearance = float(np.min(np.abs(eig.values[:, None] - np.array([a, b])[None, :])))
        if clearance <= eig.degeneracy_tol:
            raise EndpointOnEigenvalue(
                f"interval endpoint of ({a}, {b}) lies on an eigenvalue")
        delta0 = min(delta0, clearance / 2)
    deltas = delta0 * _DELTA_RATIO ** np.arange(_DELTA_COUNT)

    total, edge_limit, err = _first_rule_and_edges(op, a, b, deltas)
    n, projector = _FIRST_NODES, -total / _FIRST_NODES  # -(1/2 pi i)(2 pi/n) sum_j R(z_j) z'(t_j)
    while n < _MAX_NODES:
        # the nodes z(t), z(-t) = conj z(t) add 2i Im(R(z) z') to the sum
        zs, dz = _ellipse_nodes(a, b, np.pi * (2 * np.arange(n // 2) + 1) / n)
        total += op.resolvent_sum(zs, 2 * dz).imag
        n *= 2
        previous, projector = projector, -total / n
        if (step := np.max(np.abs(projector - previous))) <= quad_tol:
            break
    return StoneResult(interval=(float(a), float(b)), projector=projector + edge_limit,
                       deltas=deltas, extrapolation_error=max(float(err), float(step)),
                       panels=n // 2 + 1 + 2 * _DELTA_COUNT * _EDGE_NODES)


# ---------------------------------------------------------------------------
# decomposition and simplicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportReport:
    """Grid sets entering the Lebesgue decomposition read off from F(x + i0)."""

    ac_set: GridSet                   # clac{0 < Im F(x+i0) < infinity}
    sc_set: GridSet                   # {Im F -> infinity, y F(x+iy) -> 0}
    im_values: np.ndarray             # Im F(x + i0): the extrapolant, or at the floor
    diverging: np.ndarray


def ac_sc_supports(measure: SpectralMeasure, sched: EtaSchedule, grid) -> SupportReport:
    """Candidate AC support (essentially closed) and SC support set of a measure.

    The Borel transform down the schedule is read by boundary_limit, as (M g, g)
    is: the AC set collects the points ac_flags accepts with density Im F(x + i0),
    the SC set those where Im F blows up while y*F still vanishes.  Purely atomic
    measures yield two empty sets: off the atoms Im F -> 0, and on an atom y*F
    tends to the (nonzero) weight.
    """
    grid = np.asarray(grid, dtype=float)
    etas = sched.samples()
    fs = borel_transform(measure, grid[:, None] + 1j * etas)
    bv = boundary_limit(etas, fs, sched.floored)
    im_values, diverging = bv["value"].imag, bv["diverging"]
    ac_set = essential_closure(GridSet.from_flags(grid, ac_flags(im_values, diverging)))
    sc_set = GridSet.from_flags(grid, diverging & bv["y_limit_zero"])
    return SupportReport(ac_set=ac_set, sc_set=sc_set, im_values=im_values,
                         diverging=diverging)


@dataclass(frozen=True)
class SimplicityReport:
    rank: int
    interior_dim: int

    @property
    def full(self) -> bool:
        return self.rank == self.interior_dim


def simplicity_rank(op: DirichletOperator, zetas) -> SimplicityReport:
    """Numerical rank of the stacked Poisson columns [gamma(zeta_1) ... gamma(zeta_k)].

    Rank equal to the interior dimension certifies that boundary data at the
    sample points generates the whole interior space, i.e. no interior
    subspace is invisible from the boundary.  The stack has at most
    k * n_boundary columns, which caps the attainable rank.
    """
    zetas = list(zetas)
    if not any(complex(z).imag != 0 for z in zetas):
        raise ValueError("need at least one non-real zeta sample")
    cols = np.hstack([poisson_matrix(op, z) for z in zetas])
    s = np.linalg.svd(cols, compute_uv=False)
    rank = 0 if s.size == 0 or s[0] == 0 else int(np.sum(s > _RANK_TOL * s[0]))
    return SimplicityReport(rank=rank, interior_dim=op.domain.n_interior)
