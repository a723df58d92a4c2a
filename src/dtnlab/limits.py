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
    "richardson_extrapolate",
    "extrapolate_tail",
    "decay_exponent",
    "vanishes",
    "boundary_limit",
    "ac_flags",
    "slim_eta_M",
    "boundary_value_M",
    "dtn_profile",
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
_N_WINDOW, _FIT_DEGREE = 17, 10   # analyticity window: sample points, polynomial degree
_ASPECT = 0.3                     # vertical over horizontal semi-axis of the contour ellipses
RESIDUE_TOL = 1e-8                # residue singular values that count, over the residue's bound


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
    n_nodes: int
    bound: float     # rho * the largest weighted norm of M on the nodes, a bound of ||r||
    pole: float      # lam0 + <R1, r> / <r, r>, R1 the first moment; lam0 where r counts as 0


@dataclass(frozen=True)
class AnalyticityReport:
    ok: bool
    window: tuple
    slim_max: float
    im_max: float
    fit_misfit: float


# ---------------------------------------------------------------------------
# extrapolation and the boundary-value rule
# ---------------------------------------------------------------------------

def richardson_extrapolate(etas, values):
    """Neville polynomial extrapolation of values(eta) to eta = 0.

    Returns (limit, error_estimate); the error estimate is the distance
    between the last two diagonal extrapolants.  Works for scalars and arrays.
    """
    etas = np.asarray(etas, dtype=float)
    table = [np.asarray(v, dtype=complex) for v in values]
    n = len(table)
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return table[0], np.inf
    for m in range(1, n):
        new = []
        for i in range(n - m):
            xi, xj = etas[i], etas[i + m]
            new.append((xi * table[i + 1] - xj * table[i]) / (xi - xj))
        prev_top = table[0]
        table = new
    limit = table[0]
    return limit, float(np.max(np.abs(limit - prev_top)))


_TAIL = 5  # extrapolate from the smallest samples only, where f is analytic


def extrapolate_tail(etas, values):
    """Richardson extrapolation to eta = 0 from the _TAIL smallest samples.

    etas is decreasing, as EtaSchedule.samples() returns it.
    """
    return richardson_extrapolate(etas[-_TAIL:], values[-_TAIL:])


def decay_exponent(etas, norms):
    """Least-squares slope of log|f| against log(eta), over the last axis of norms.

    Only samples of |f| above 1e-290 enter.  Where fewer than two do (f has
    vanished) the slope is nan, or None when norms is a single profile.
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
    if norms.ndim == 1:
        return None if count < 2 else float(slope)
    return slope


def vanishes(slope):
    """Whether a decay_exponent slope says y*F -> 0 (None or nan: |y*F| underflowed)."""
    return slope is None or ~(np.asarray(slope) < DECAY_CUT)


def boundary_limit(etas, q, floored: bool, slopes: bool = True) -> dict:
    """Fields "value" (extrapolant, or the sample at the floor), "last", and with slopes
    "diverging" (|Im q| -> infinity) and "y_limit_zero" (eta*q -> 0) of scalar Herglotz
    profiles q(x + i*eta), sampled at the decreasing etas over the last axis."""
    out = {"value": q[..., -1] if floored else extrapolate_tail(etas, np.moveaxis(q, -1, 0))[0],
           "last": q[..., -1]}
    if slopes:
        im, yq = np.abs(q.imag), etas * q
        out["diverging"] = ((decay_exponent(etas, im) <= DIVERGENCE_SLOPE)
                            & (im[..., -1] > DIVERGENCE_GROWTH * np.maximum(im[..., 0], 1e-300))
                            & (im[..., -1] > 1e-10))
        # hypot rounds as abs() of a Python complex does; np.abs may not
        out["y_limit_zero"] = vanishes(decay_exponent(etas, np.hypot(yq.real, yq.imag)))
    return out


def ac_flags(density, diverging, tau: float):
    """AC points: a boundary density in (tau, 1/tau) of a profile that is not diverging."""
    return (tau < density) & (density < 1.0 / tau) & ~diverging


# ---------------------------------------------------------------------------
# limits of M
# ---------------------------------------------------------------------------


def dtn_profile(op: DirichletOperator, x, g, sched: EtaSchedule):
    """M(x + i*eta) g along the schedule, for a point or an array of points and
    a probe or a stack of probes.

    Yields (rows, etas, mg) per group of points whose profiles have equal
    length: rows indexes the points of x flattened, etas is the profile, and
    mg has the shape g.shape[:-1] + (len(rows), len(etas), n_B).  A profile
    stops at its first NearSpectrum (dtn_matrices); the first point that
    fails at eta0 re-raises it before anything is yielded.
    """
    etas = sched.samples()
    m, lengths, failures = dtn_matrices(op, np.reshape(x, (-1, 1)) + 1j * etas)
    if not lengths.all():
        raise failures[int(np.argmin(lengths))]
    g = np.asarray(g, dtype=complex)[..., None, None, :, None]
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        # one matrix-vector product per probe, point and eta
        yield rows, etas[:n], (m[rows, :n] @ g)[..., 0]


def _slim_fields(dom, etas, mg, g, floored, slopes):
    """LimitEstimate's fields of one dtn_profile group; decay_exponent with slopes."""
    samples = etas[:, None] * mg
    limit, _ = extrapolate_tail(etas, [samples[..., k, :] for k in range(etas.size)])
    scale = np.maximum(dom.boundary_norm(mg[..., 0, :]), 1e-300)
    out = {"value": limit, "relative": dom.boundary_norm(limit) / scale}
    if slopes:
        out["decay_exponent"] = decay_exponent(etas, dom.boundary_norm(samples))
    return out


def _bv_fields(dom, etas, mg, g, floored, slopes):
    """BoundaryValue's fields of one dtn_profile group; the flags with slopes."""
    return boundary_limit(etas, dom.boundary_inner(mg, g[..., None, None, :]), floored, slopes)


def _limits(op: DirichletOperator, x, g, sched: EtaSchedule, *kinds, slopes=True):
    """One pass over dtn_profile's groups.  Per kind (_slim_fields,
    _bv_fields) a dict of its fields and "partial" over all points, each of
    shape g.shape[:-1] + shape(x), a vector field with a trailing n_B axis;
    slopes=False leaves out the fields that need a decay_exponent."""
    x, g = np.asarray(x, dtype=float), np.asarray(g, dtype=complex)
    lead, full = g.ndim - 1, sched.samples().size
    outs = [{} for _ in kinds]
    for rows, etas, mg in dtn_profile(op, x, g, sched):
        at = (slice(None),) * lead + (rows,)
        for fields, out in zip(kinds, outs):
            group = fields(op.domain, etas, mg, g, sched.floored, slopes)
            group["partial"] = np.full(mg.shape[:-2], etas.size < full)
            for key, val in group.items():
                if key not in out:
                    out[key] = np.empty(val.shape[:lead] + (x.size,) + val.shape[lead + 1:],
                                        val.dtype)
                out[key][at] = val
    return [{key: val.reshape(val.shape[:lead] + x.shape + val.shape[lead + 1:])[()]
             for key, val in out.items()} for out in outs]


def slim_eta_M(op: DirichletOperator, x, g, sched: EtaSchedule) -> LimitEstimate:
    """Extrapolated limit of eta * M(x + i*eta) g (zero off the point spectrum),
    for a point or an array of points and a probe or a stack of probes."""
    return LimitEstimate(**_limits(op, x, g, sched, _slim_fields)[0])


def boundary_value_M(op: DirichletOperator, x, g, sched: EtaSchedule) -> BoundaryValue:
    """Boundary value (M(x + i0) g, g) in the weighted boundary product, for a
    point or an array of points and a probe or a stack of probes.

    On a floored schedule the value at the floor is reported instead of an
    extrapolant (limiting absorption on a finite model is only meaningful
    above the level spacing).
    """
    return BoundaryValue(**_limits(op, x, g, sched, _bv_fields)[0])


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
    and a node that raises NearSpectrum raises ContourTouchesSpectrum from it."""
    m, lengths, failures = dtn_matrices(op, np.asarray(nodes)[:, None])
    if not lengths.all():
        j = int(np.argmin(lengths))
        raise ContourTouchesSpectrum(
            f"contour node {nodes[j]} touches the spectrum") from failures[j]
    m = m[:, 0]
    return (np.einsum("kn,nij->kij", weights, m),
            float(op.domain.boundary_singular_values(m)[:, 0].max()))


def residue_contour(op: DirichletOperator, lam0: float, rho: float, n: int = 32) -> ResidueMatrix:
    """Residue of M at lam0 by the trapezoid rule on the circle |z - lam0| = rho.

    Spectrally accurate for meromorphic M; equals the sum of residues at all
    poles strictly inside the circle.  The nodes come from contour_sums, which
    also gives the first moment R1 = (1/2 pi i) oint (z - lam0) M(z) dz: it is
    (lam - lam0) r when the circle holds one pole lam, so pole = lam is exact.
    """
    if n < 16 or n % 2:
        raise ValueError("need an even number of nodes, at least 16")
    if rho <= 0:
        raise ValueError("radius must be positive")
    w = rho * np.exp(2j * np.pi * np.arange(n) / n)
    (r, r1), m_max = contour_sums(op, lam0 + w, np.stack([w, w * w]) / n)
    bound = rho * m_max
    zero = op.domain.boundary_singular_values(r)[0] <= RESIDUE_TOL * bound
    pole = lam0 if zero else lam0 + (np.vdot(r, r1) / np.vdot(r, r)).real
    return ResidueMatrix(lam0=float(lam0), rho=float(rho), r=r, n_nodes=n, bound=bound,
                         pole=float(pole))


# ---------------------------------------------------------------------------
# analytic continuation test
# ---------------------------------------------------------------------------

def analyticity_test(op: DirichletOperator, x: float, half_width: float,
                     probes, sched: EtaSchedule, slim_rel_tol: float = 1e-6,
                     im_rel_tol: float = 1e-6, fit_tol: float = 1e-5) -> AnalyticityReport:
    """Decide whether M(.) continues analytically through the window around x.

    True iff across (x - w, x + w): the eta*M limits vanish for all probes,
    the imaginary parts of the boundary values vanish, and the sampled values
    of (M g, g) just above the axis admit a low-degree polynomial fit in z.

    The window is one block: both limits come from one pass of _limits over
    every window point and probe, so the result equals slim_eta_M and
    boundary_value_M point by point; the fit takes boundary_value_M's last
    sample.
    """
    xs = np.linspace(x - half_width, x + half_width, _N_WINDOW)
    slim, bv = _limits(op, xs, probes, sched, _slim_fields, _bv_fields, slopes=False)
    value = bv["value"]
    # hypot rounds as abs() of a Python complex does; np.abs may not
    im_rel = np.abs(value.imag) / np.maximum(np.hypot(value.real, value.imag), 1.0)

    fit_misfit = 0.0
    for vals in bv["last"]:
        fit = np.polynomial.Polynomial.fit(xs, vals, _FIT_DEGREE)
        resid = np.max(np.abs(vals - fit(xs))) / max(np.max(np.abs(vals)), 1e-300)
        fit_misfit = max(fit_misfit, float(resid))

    slim_max, im_max = float(slim["relative"].max()), float(im_rel.max())
    ok = slim_max <= slim_rel_tol and im_max <= im_rel_tol and fit_misfit <= fit_tol
    return AnalyticityReport(
        ok=ok,
        window=(x - half_width, x + half_width),
        slim_max=slim_max,
        im_max=im_max,
        fit_misfit=fit_misfit,
    )
