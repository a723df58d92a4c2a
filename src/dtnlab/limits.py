"""Boundary limits of the DtN matrix: eta -> 0 extrapolation, residues, analyticity.

For a finite model M(.) is meromorphic with simple real poles, so quantities
like eta*M(x + i*eta) are analytic in eta at 0 and polynomial (Richardson)
extrapolation on a geometric eta-schedule is exact up to roundoff.  Truncated
models of continuous spectrum are handled by flooring eta at a multiple of the
local level spacing; a floored schedule reports the value at the floor instead
of extrapolating past what the finite model can resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DirichletOperator
from .dtn import dtn_matrices, dtn_matrix  # noqa: F401 (perfbench/spans.py traces dtn_matrix here)
from .errors import ContourTouchesSpectrum

__all__ = [
    "EtaSchedule",
    "LimitEstimate",
    "BoundaryValue",
    "ResidueMatrix",
    "AnalyticityReport",
    "richardson_weights",
    "richardson_extrapolate",
    "extrapolate_tail",
    "decay_exponent",
    "vanishes",
    "slim_nonzero",
    "boundary_limit",
    "ac_flags",
    "slim_eta_M",
    "boundary_value_M",
    "dtn_profile",
    "profile_nodes",
    "window_points",
    "circle_nodes",
    "ellipse",
    "contour_sums",
    "residue_contour",
    "analyticity_test",
]

# Im -> -infinity is flagged when |Im| grows like a negative power of eta
# (log-log slope at most DIVERGENCE_SLOPE) and has actually grown by
# DIVERGENCE_GROWTH across the schedule.
DIVERGENCE_SLOPE = -0.5
DIVERGENCE_GROWTH = 10.0
DECAY_CUT = 0.5                   # y*F -> 0 when |y*F| decays at least like eta^DECAY_CUT
TAU_EIG = 1e-6                    # an eta*M limit is nonzero above TAU_EIG x ||M(x + i eta0) g||
TAU_AC = 1e-6                     # the AC band: a boundary density in (TAU_AC, 1/TAU_AC)
FIT_TOL = 1e-5                    # analyticity window: relative misfit of the polynomial fit
_N_WINDOW, _FIT_DEGREE = 17, 10   # analyticity window: sample points, polynomial degree
_ASPECT = 0.3                     # vertical over horizontal semi-axis of the contour ellipses
RESIDUE_TOL = 1e-8                # residue singular values that count, over the residue's bound
RESIDUE_NODES = 32                # trapezoid nodes of a residue circle


@dataclass(frozen=True)
class EtaSchedule:
    """Geometric schedule eta_k = eta0 * ratio^k, optionally floored."""

    eta0: float
    ratio: float = 0.5
    count: int = 8
    floor: float = 0.0

    def __post_init__(self):
        if not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        if not 0 < self.ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 3:
            raise ValueError("need at least 3 samples")
        if not 0 <= self.floor < self.eta0:
            raise ValueError("floor must lie in [0, eta0)")

    def samples(self) -> np.ndarray:
        """Strictly decreasing eta values (floored duplicates collapsed)."""
        etas = self.eta0 * self.ratio ** np.arange(self.count)
        if self.floor > 0:
            etas = np.maximum(etas, self.floor)
            etas = np.unique(etas)[::-1]
        return etas

    @property
    def floored(self) -> bool:
        return self.floor > 0


@dataclass(frozen=True)
class LimitEstimate:
    """eta -> 0 limit of eta * M(x + i*eta) g, one entry per probe and point.

    Every field has the shape g.shape[:-1] + shape(x), value one more axis
    of length n_B.
    """

    value: np.ndarray                # the extrapolated boundary vector
    relative: np.ndarray             # its norm over ||M(x + i*eta0) g||
    decay_exponent: np.ndarray       # log-log slope of ||eta * M g||, nan if it underflowed
    partial: np.ndarray              # the profile stopped at a NearSpectrum


@dataclass(frozen=True)
class BoundaryValue:
    """Boundary value (M(x + i0) g, g), one entry per probe and point.

    Every field has the shape g.shape[:-1] + shape(x).
    """

    value: np.ndarray                # extrapolant, or the sample at the floor
    last: np.ndarray                 # sample at the smallest eta reached
    diverging: np.ndarray            # Im -> -infinity
    y_limit_zero: np.ndarray         # eta * (M g, g) -> 0
    partial: np.ndarray              # the profile stopped at a NearSpectrum


@dataclass(frozen=True)
class ResidueMatrix:
    """Trapezoid contour integral (1/2 pi i) int M(z) dz around a real point."""

    lam0: float
    rho: float
    r: np.ndarray
    bound: float     # rho * the largest weighted norm of M on the nodes, a bound of ||r||
    rank: int        # weighted singular values of r above RESIDUE_TOL * bound
    pole: float      # lam0 + <R1, r> / <r, r>, R1 the first moment; lam0 where the rank is 0


@dataclass(frozen=True)
class AnalyticityReport:
    """analyticity_test's verdict and its three maxima: scalars for one window,
    arrays of the windows' shape for many."""

    ok: bool
    slim_max: float
    im_max: float
    fit_misfit: float


# ---------------------------------------------------------------------------
# extrapolation and the boundary-value rule
# ---------------------------------------------------------------------------

def richardson_weights(etas) -> np.ndarray:
    """Weights w_k = prod_{j != k} eta_j / (eta_j - eta_k): the polynomial through the
    samples (eta_k, v_k) takes the value sum_k w_k v_k at eta = 0 (Lagrange)."""
    etas = np.asarray(etas, dtype=float)
    gaps = etas[:, None] - etas
    np.fill_diagonal(gaps, etas)               # the factor j = k reads 1
    return np.prod(etas[:, None] / gaps, axis=0)


def richardson_extrapolate(etas, values):
    """Polynomial extrapolation of values(eta) to eta = 0, as sum_k w_k v_k with
    richardson_weights, one multiply-add per sample in sample order.  Works for
    scalars and arrays; real values stay real."""
    values = [np.asarray(v, dtype=np.result_type(v, float)) for v in values]
    if not values:
        raise ValueError("no samples")
    weights = richardson_weights(etas)
    limit = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        limit += w * v
    return limit


_TAIL = 5  # extrapolate from the smallest samples only, where f is analytic


def extrapolate_tail(etas, values, n):
    """Richardson extrapolation to eta = 0 from the _TAIL smallest samples each profile
    reached: values[k] holds the samples at etas[k] (decreasing, as EtaSchedule.samples()),
    n the count of each profile, of the shape of values[k]'s leading axes.  One
    richardson_extrapolate call per block, and one per length a profile stopped at."""
    limit = richardson_extrapolate(etas[-_TAIL:], values[-_TAIL:])
    for k in np.unique(n[n < etas.size]):
        tail, at = slice(max(k - _TAIL, 0), k), n == k
        limit[at] = richardson_extrapolate(etas[tail], values[tail][:, at])
    return limit


def decay_exponent(etas, norms):
    """Least-squares slope of log|f| against log(eta), over the last axis of norms.

    Only samples of |f| above 1e-290 enter.  Where fewer than two do (f has
    vanished) the slope is nan.  A float for a single profile, else an array.
    """
    norms = np.asarray(norms, dtype=float)
    keep = norms > 1e-290
    count = keep.sum(axis=-1)
    fit = count >= 2
    n = np.maximum(count, 1)[..., None]
    x = np.where(keep, np.log(np.asarray(etas, dtype=float)), 0.0)
    y = np.log(np.where(keep, norms, 1.0))
    dx = np.where(keep, x - x.sum(axis=-1, keepdims=True) / n, 0.0)
    dy = y - y.sum(axis=-1, keepdims=True) / n
    slope = np.where(fit, (dx * dy).sum(axis=-1) / np.where(fit, (dx * dx).sum(axis=-1), 1.0),
                     np.nan)
    return slope[()]


def vanishes(slope):
    """Whether a decay_exponent slope says y*F -> 0 (nan: |y*F| underflowed)."""
    return ~(np.asarray(slope) < DECAY_CUT)


def slim_nonzero(relative, slope):
    """Whether eta*M limits of these relative sizes and decay slopes are nonzero:
    above TAU_EIG; a nan slope does not veto it, so this is not `not vanishes(slope)`."""
    return (np.asarray(relative) > TAU_EIG) & ~(np.asarray(slope) >= DECAY_CUT)


def boundary_limit(etas, q, floored: bool, n=None) -> dict:
    """Fields "value" (extrapolant, or the last sample on a floored schedule), "last",
    "diverging" (|Im q| -> infinity), "y_limit_zero" (eta*q -> 0) and "partial" of scalar
    Herglotz profiles q(x + i*eta) at the decreasing etas over the last axis, each zero
    past the n samples it reached (default: all)."""
    n = np.full(q.shape[:-1], etas.size) if n is None else n
    value, last = _boundary_value(etas, q, floored, n)
    im, yq = np.abs(q.imag), etas * q
    im_last = np.abs(last.imag)
    return {"value": value, "last": last,
            "diverging": ((decay_exponent(etas, im) <= DIVERGENCE_SLOPE)
                          & (im_last > DIVERGENCE_GROWTH * np.maximum(im[..., 0], 1e-300))
                          & (im_last > 1e-10)),
            # hypot rounds as abs() of a Python complex does; np.abs may not
            "y_limit_zero": vanishes(decay_exponent(etas, np.hypot(yq.real, yq.imag))),
            "partial": n < etas.size}


def _boundary_value(etas, q, floored: bool, n):
    """boundary_limit's "value" and "last" alone."""
    last = np.take_along_axis(q, n[..., None] - 1, axis=-1)[..., 0]
    return (last if floored else extrapolate_tail(etas, np.moveaxis(q, -1, 0), n)), last


def ac_flags(density, diverging):
    """AC points: a boundary density in (TAU_AC, 1/TAU_AC) of a profile that is not diverging."""
    return (TAU_AC < density) & (density < 1.0 / TAU_AC) & ~diverging


# ---------------------------------------------------------------------------
# limits of M
# ---------------------------------------------------------------------------


def profile_nodes(x, sched: EtaSchedule) -> np.ndarray:
    """The z = x + i*eta of the schedule, one row per point of x flattened."""
    return np.reshape(x, (-1, 1)) + 1j * sched.samples()


def dtn_profile(op: DirichletOperator, x, g, sched: EtaSchedule):
    """M(x + i*eta) g along the schedule, for a point or an array of points and
    a probe or a stack of probes, as one block (etas, mg, n).

    etas is the profile, mg has the shape g.shape[:-1] + (x.size, len(etas), n_B)
    over the points of x flattened, and n, of the shape mg.shape[:-2], counts
    the samples each profile reached: a profile stops at its first NearSpectrum
    (dtn_matrices) and mg is zero past it.  The first point that fails at eta0
    re-raises its NearSpectrum.
    """
    m, lengths, failures = dtn_matrices(op, profile_nodes(x, sched))
    if not lengths.all():
        raise failures[int(np.argmin(lengths))]
    g = np.asarray(g, dtype=complex)[..., None, None, :, None]
    mg = (m @ g)[..., 0]                  # one matrix-vector product per probe, point and eta
    return sched.samples(), mg, np.broadcast_to(lengths, mg.shape[:-2])


def _slim_limit(dom, etas, mg, n):
    """The extrapolated eta*M g of a dtn_profile block and its norm over ||M(x + i*eta0) g||."""
    limit = extrapolate_tail(etas, np.moveaxis(etas[:, None] * mg, -2, 0), n)
    return limit, dom.boundary_norm(limit) / np.maximum(dom.boundary_norm(mg[..., 0, :]), 1e-300)


def _at_points(x, lead: int, **fields) -> dict:
    """Fields over the points of x flattened (the axis after lead probe axes), with
    that axis reshaped to x's shape."""
    return {key: val.reshape(val.shape[:lead] + np.shape(x) + val.shape[lead + 1:])[()]
            for key, val in fields.items()}


def slim_eta_M(op: DirichletOperator, x, g, sched: EtaSchedule) -> LimitEstimate:
    """Extrapolated limit of eta * M(x + i*eta) g (zero off the point spectrum),
    for a point or an array of points and a probe or a stack of probes."""
    etas, mg, n = dtn_profile(op, x, g, sched)
    value, relative = _slim_limit(op.domain, etas, mg, n)
    return LimitEstimate(**_at_points(
        x, n.ndim - 1, value=value, relative=relative, partial=n < etas.size,
        decay_exponent=decay_exponent(etas, op.domain.boundary_norm(etas[:, None] * mg))))


def boundary_value_M(op: DirichletOperator, x, g, sched: EtaSchedule) -> BoundaryValue:
    """Boundary value (M(x + i0) g, g) in the weighted boundary product, for a
    point or an array of points and a probe or a stack of probes.

    On a floored schedule the value at the floor is reported instead of an
    extrapolant (limiting absorption on a finite model is only meaningful
    above the level spacing).
    """
    etas, mg, n = dtn_profile(op, x, g, sched)
    q = op.domain.boundary_inner(mg, np.asarray(g, dtype=complex)[..., None, None, :])
    return BoundaryValue(**_at_points(x, n.ndim - 1,
                                      **boundary_limit(etas, q, sched.floored, n)))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def ellipse(t):
    """Point u(t) = cos t + i _ASPECT sin t of the ellipse through -1 and 1, and u'(t);
    the contour ellipse through the real points a < b is (a + b + (b - a) u) / 2."""
    return np.cos(t) + 1j * _ASPECT * np.sin(t), -np.sin(t) + 1j * _ASPECT * np.cos(t)


def contour_sums(op: DirichletOperator, nodes, weights):
    """(sum_n weights[k, n] M(nodes[n]) for each row k, max_n ||M(nodes[n])||) in
    the weighted boundary product; M at every node from one dtn_matrices call,
    and a node that raises NearSpectrum raises ContourTouchesSpectrum from it.
    The contours are symmetric about the real axis and ||M(conj z)|| = ||M(z)||,
    so the maximum is taken over the nodes with Im z >= 0."""
    nodes = np.asarray(nodes)
    m, lengths, failures = dtn_matrices(op, nodes[:, None])
    if not lengths.all():
        j = int(np.argmin(lengths))
        raise ContourTouchesSpectrum(
            f"contour node {nodes[j]} touches the spectrum") from failures[j]
    m = m[:, 0]
    return (np.einsum("kn,nij->kij", weights, m),
            float(op.domain.boundary_singular_values(m[nodes.imag >= 0])[:, 0].max()))


def circle_nodes(lam0: float, rho: float):
    """(nodes, nodes - lam0) of the RESIDUE_NODES-point trapezoid rule on
    |z - lam0| = rho: node RESIDUE_NODES - k is the exact conjugate of node k,
    and the crossings lam0 + rho and lam0 - rho are exactly real."""
    w = rho * np.exp(2j * np.pi * np.arange(RESIDUE_NODES // 2 + 1) / RESIDUE_NODES)
    w[-1] = -rho                      # rho exp(i pi) has Im 1.2e-16 rho
    w = np.concatenate([w, w[-2:0:-1].conj()])
    return lam0 + w, w


def residue_contour(op: DirichletOperator, lam0: float, rho: float) -> ResidueMatrix:
    """Residue of M at lam0 by the trapezoid rule on the circle |z - lam0| = rho.

    Spectrally accurate for meromorphic M; equals the sum of residues at all
    poles strictly inside the circle.  The nodes come from contour_sums, which
    also gives the first moment R1 = (1/2 pi i) oint (z - lam0) M(z) dz: it is
    (lam - lam0) r when the circle holds one pole lam, so pole = lam is exact.
    """
    if rho <= 0:
        raise ValueError("radius must be positive")
    nodes, w = circle_nodes(lam0, rho)
    (r, r1), m_max = contour_sums(op, nodes, np.stack([w, w * w]) / RESIDUE_NODES)
    bound = rho * m_max
    rank = int(np.sum(op.domain.boundary_singular_values(r) > RESIDUE_TOL * bound))
    pole = lam0 + (np.vdot(r, r1) / np.vdot(r, r)).real if rank else lam0
    return ResidueMatrix(lam0=float(lam0), rho=float(rho), r=r, bound=bound, rank=rank,
                         pole=float(pole))


# ---------------------------------------------------------------------------
# analytic continuation test
# ---------------------------------------------------------------------------

def window_points(x, half_width) -> np.ndarray:
    """The real points of analyticity_test's window (x - half_width, x + half_width),
    over the last axis, for a point or an array of points (broadcast with half_width)."""
    return np.linspace(x - half_width, x + half_width, _N_WINDOW, axis=-1)


_FIT_NODES = np.linspace(-1.0, 1.0, _N_WINDOW)   # window_points mapped onto [-1, 1]


def analyticity_test(op: DirichletOperator, x, half_width, probes,
                     sched: EtaSchedule) -> AnalyticityReport:
    """Decide whether M(.) continues analytically through the window around x,
    for a point or an array of points (broadcast with half_width); every field
    has their broadcast shape.

    True iff across (x - w, x + w): the eta*M limits vanish for all probes,
    the imaginary parts of the boundary values vanish, and the sampled values
    of (M g, g) just above the axis admit a low-degree polynomial fit in z.

    Every window is read from one dtn_profile block over every window point and
    probe, for the eta*M limits' relative sizes as slim_eta_M reads it and for
    the boundary values and their last samples as boundary_value_M does, so
    the result equals theirs point by point; the first window point that fails
    at eta0 re-raises its NearSpectrum.  The fit takes the last samples of
    each window and probe, as functions of the window's points mapped onto the
    shared nodes _FIT_NODES: one least-squares solve with a right-hand side
    per window and probe.
    """
    xs = window_points(x, half_width)
    probes = np.asarray(probes, dtype=complex)
    shape = probes.shape[:1] + xs.shape                        # (probes, ..., _N_WINDOW)
    etas, mg, n = dtn_profile(op, xs, probes, sched)
    _, slim_rel = _slim_limit(op.domain, etas, mg, n)
    value, last = _boundary_value(etas, op.domain.boundary_inner(mg, probes[:, None, None, :]),
                                  sched.floored, n)
    # hypot rounds as abs() of a Python complex does; np.abs may not
    im_rel = np.abs(value.imag) / np.maximum(np.hypot(value.real, value.imag), 1.0)

    poly = np.polynomial.polynomial
    last = last.reshape(-1, _N_WINDOW)
    fit = poly.polyval(_FIT_NODES, poly.polyfit(_FIT_NODES, last.T, _FIT_DEGREE))
    misfit = np.max(np.abs(last - fit), axis=-1) / np.maximum(np.max(np.abs(last), axis=-1),
                                                                1e-300)

    slim_max, im_max = (np.max(v.reshape(shape), axis=(0, -1)) for v in (slim_rel, im_rel))
    fit_misfit = np.max(misfit.reshape(shape[:-1]), axis=0)
    ok = (slim_max <= TAU_EIG) & (im_max <= TAU_AC) & (fit_misfit <= FIT_TOL)
    return AnalyticityReport(ok=ok[()], slim_max=slim_max[()], im_max=im_max[()],
                             fit_misfit=fit_misfit[()])
