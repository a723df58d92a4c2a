"""Boundary limits of the DtN matrix: eta -> 0 extrapolation, residues, analyticity.

For a finite model M(.) is meromorphic with simple real poles, so quantities
like eta*M(x + i*eta) are analytic in eta at 0 and polynomial (Richardson)
extrapolation on a geometric eta-schedule is exact up to roundoff.  Truncated
models of continuous spectrum are handled by flooring eta at a multiple of the
local level spacing; a floored schedule reports the value at the floor instead
of extrapolating past what the finite model can resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import DirichletOperator
from .dtn import dtn_matrices, dtn_matrix
from .errors import ContourTouchesSpectrum, NearSpectrum

__all__ = [
    "EtaSchedule",
    "LimitEstimate",
    "ResidueMatrix",
    "AnalyticityReport",
    "richardson_extrapolate",
    "extrapolate_tail",
    "decay_exponent",
    "vanishes",
    "slim_eta_M",
    "boundary_value_M",
    "dtn_profile",
    "residue_contour",
    "analyticity_test",
]

# Im -> -infinity is flagged when |Im| grows like a negative power of eta
# (log-log slope at most DIVERGENCE_SLOPE) and has actually grown by
# DIVERGENCE_GROWTH across the schedule.
DIVERGENCE_SLOPE = -0.5
DIVERGENCE_GROWTH = 10.0
DECAY_CUT = 0.5                   # y*F -> 0 when |y*F| decays at least like eta^DECAY_CUT
_LIMIT_TOL = 1e-8                 # relative extrapolation error of a converged limit
_N_WINDOW, _FIT_DEGREE = 17, 10   # analyticity window: sample points, polynomial degree


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
    """An extrapolated eta -> 0 limit with its evidence."""

    value: object                    # complex scalar or boundary vector
    error: float
    samples: tuple                   # ((eta, sample), ...) as computed
    converged: bool
    diverging: bool = False
    decay_exponent: float | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResidueMatrix:
    """Trapezoid contour integral (1/2 pi i) int M(z) dz around a real point."""

    lam0: float
    rho: float
    r: np.ndarray
    n_nodes: int


@dataclass(frozen=True)
class AnalyticityReport:
    ok: bool
    window: tuple
    slim_max: float
    im_max: float
    fit_misfit: float
    thresholds: dict


# ---------------------------------------------------------------------------
# extrapolation
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
    prev_top = table[0]
    for m in range(1, n):
        new = []
        for i in range(n - m):
            xi, xj = etas[i], etas[i + m]
            new.append((xi * table[i + 1] - xj * table[i]) / (xi - xj))
        prev_top = table[0]
        table = new
    limit = table[0]
    err = float(np.max(np.abs(limit - prev_top))) if n > 1 else np.inf
    return limit, err


_TAIL = 5  # extrapolate from the smallest samples only, where f is analytic


def extrapolate_tail(etas, values):
    """Richardson extrapolation to eta = 0 from the _TAIL smallest samples.

    etas is decreasing, as EtaSchedule.samples() returns it.
    """
    return richardson_extrapolate(etas[-_TAIL:], values[-_TAIL:])


def decay_exponent(etas, norms) -> float | None:
    """Least-squares slope of log|f| against log(eta).

    None when fewer than two samples of |f| exceed 1e-290, i.e. f has vanished.
    """
    mask = np.asarray(norms) > 1e-290
    if mask.sum() < 2:
        return None
    x = np.log(np.asarray(etas)[mask])
    y = np.log(np.asarray(norms)[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def vanishes(slope: float | None) -> bool:
    """Whether a decay_exponent slope says y*F -> 0 (None: |y*F| underflowed)."""
    return slope is None or slope >= DECAY_CUT


# ---------------------------------------------------------------------------
# limits of M
# ---------------------------------------------------------------------------


def dtn_profile(op: DirichletOperator, x: float, g: np.ndarray, sched: EtaSchedule):
    """(etas, M(x + i*eta) g, failure) along the schedule; partial on NearSpectrum."""
    etas = sched.samples()
    m, lengths, failures = dtn_matrices(op, x + 1j * etas)
    n = lengths[0]
    if n == 0:
        raise failures[0]
    return etas[:n].tolist(), [mk @ g for mk in m[0, :n]], failures[0]


def slim_eta_M(op: DirichletOperator, x: float, g: np.ndarray,
               sched: EtaSchedule) -> LimitEstimate:
    """Extrapolated limit of eta * M(x + i*eta) g (zero off the point spectrum).

    meta["relative"] is its norm over ||M(x + i*eta0) g||.
    """
    dom = op.domain
    g = np.asarray(g, dtype=complex)
    etas, applied, failure = dtn_profile(op, x, g, sched)
    samples = [eta * mg for eta, mg in zip(etas, applied)]

    norms = [dom.boundary_norm(s) for s in samples]
    exponent = decay_exponent(etas, norms)
    value, err = extrapolate_tail(etas, samples)
    scale = max(norms + [1e-300])
    converged = failure is None and err <= _LIMIT_TOL * max(scale, 1.0)
    return LimitEstimate(
        value=value,
        error=err,
        samples=tuple(zip(etas, samples)),
        converged=converged,
        decay_exponent=exponent,
        meta={"partial": failure is not None,
              "relative": dom.boundary_norm(value) / max(dom.boundary_norm(applied[0]), 1e-300)},
    )


def boundary_value_M(op: DirichletOperator, x: float, g: np.ndarray,
                     sched: EtaSchedule) -> LimitEstimate:
    """Boundary value (M(x + i0) g, g) in the weighted boundary product.

    On a floored schedule the value at the floor is reported instead of an
    extrapolant (limiting absorption on a finite model is only meaningful
    above the level spacing).  The diverging flag is the scale-free ratio
    test for Im -> -infinity.
    """
    dom = op.domain
    g = np.asarray(g, dtype=complex)
    etas, applied, failure = dtn_profile(op, x, g, sched)
    samples = [dom.boundary_inner(mg, g) for mg in applied]

    im0, im_last = abs(samples[0].imag), abs(samples[-1].imag)
    im_slope = decay_exponent(etas, [abs(s.imag) for s in samples])
    diverging = (
        im_slope is not None and im_slope <= DIVERGENCE_SLOPE
        and im_last > DIVERGENCE_GROWTH * max(im0, 1e-300) and im_last > 1e-10
    )

    if sched.floored:
        value = samples[-1]
        err = abs(samples[-1] - samples[-2]) if len(samples) > 1 else np.inf
        converged = failure is None
    else:
        value, err = extrapolate_tail(etas, samples)
        value = complex(value)
        scale = max(abs(value), max(abs(s) for s in samples), 1.0)
        converged = failure is None and err <= _LIMIT_TOL * scale and not diverging
    return LimitEstimate(
        value=value,
        error=float(err),
        samples=tuple(zip(etas, samples)),
        converged=converged,
        diverging=diverging,
        meta={"partial": failure is not None, "floored": sched.floored},
    )


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def residue_contour(op: DirichletOperator, lam0: float, rho: float, n: int = 32) -> ResidueMatrix:
    """Residue of M at lam0 by the trapezoid rule on the circle |z - lam0| = rho.

    Spectrally accurate for meromorphic M; equals the sum of residues at all
    poles strictly inside the circle.
    """
    if n < 16 or n % 2:
        raise ValueError("need an even number of nodes, at least 16")
    if rho <= 0:
        raise ValueError("radius must be positive")
    n_b = op.domain.n_boundary
    acc = np.zeros((n_b, n_b), dtype=complex)
    for j in range(n):
        w = np.exp(2j * np.pi * j / n)
        try:
            m = dtn_matrix(op, lam0 + rho * w).m
        except NearSpectrum as exc:
            raise ContourTouchesSpectrum(
                f"contour node {lam0 + rho * w} touches the spectrum"
            ) from exc
        acc += m * w
    return ResidueMatrix(lam0=float(lam0), rho=float(rho), r=acc * rho / n, n_nodes=n)


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

    The window is one block.  dtn_matrices gives M at every window point and
    eta; each point's profile stops at its first NearSpectrum, as in
    dtn_profile, and the first point that fails at eta0 re-raises it.  Points
    with equal profile lengths are then taken together, per probe, in array
    arithmetic: slim_eta_M's meta["relative"], boundary_value_M's value and
    its last sample, the one that enters the fit.  The result equals
    composing those two functions point by point.
    """
    xs = np.linspace(x - half_width, x + half_width, _N_WINDOW)
    etas = sched.samples()
    m, lengths, failures = dtn_matrices(op, xs[:, None] + 1j * etas)
    if not lengths.all():
        raise failures[int(np.argmin(lengths))]

    dom = op.domain
    relative = np.empty((len(probes), _N_WINDOW))
    im_rel = np.empty((len(probes), _N_WINDOW))
    fit_vals = np.empty((len(probes), _N_WINDOW), dtype=complex)
    for n in np.unique(lengths):
        rows = lengths == n
        eta = etas[:n]
        for p, g in enumerate(probes):
            g = np.asarray(g, dtype=complex)
            mg = m[rows, :n] @ g                                  # (points, eta, n_B)
            limit, _ = extrapolate_tail(eta, eta[:, None, None] * mg.swapaxes(0, 1))
            relative[p, rows] = dom.boundary_norm(limit) / np.maximum(
                dom.boundary_norm(mg[:, 0]), 1e-300)
            q = dom.boundary_inner(mg, g)                         # (points, eta)
            value = q[:, -1] if sched.floored else extrapolate_tail(eta, q.T)[0]
            # hypot rounds as abs() of a Python complex does; np.abs may not
            im_rel[p, rows] = np.abs(value.imag) / np.maximum(np.hypot(value.real, value.imag), 1.0)
            # sample just above the axis at the smallest admissible eta
            fit_vals[p, rows] = q[:, -1]

    fit_misfit = 0.0
    for vals in fit_vals:
        fit = np.polynomial.Polynomial.fit(xs, vals, _FIT_DEGREE)
        resid = np.max(np.abs(vals - fit(xs))) / max(np.max(np.abs(vals)), 1e-300)
        fit_misfit = max(fit_misfit, float(resid))

    slim_max, im_max = float(relative.max()), float(im_rel.max())
    ok = slim_max <= slim_rel_tol and im_max <= im_rel_tol and fit_misfit <= fit_tol
    return AnalyticityReport(
        ok=ok,
        window=(x - half_width, x + half_width),
        slim_max=slim_max,
        im_max=im_max,
        fit_misfit=fit_misfit,
        thresholds={"slim": slim_rel_tol, "im": im_rel_tol, "fit": fit_tol},
    )
