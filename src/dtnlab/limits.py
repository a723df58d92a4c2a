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
from .dtn import dtn_matrix
from .errors import ContourTouchesSpectrum, NearSpectrum

__all__ = [
    "EtaSchedule",
    "LimitEstimate",
    "ResidueMatrix",
    "AnalyticityReport",
    "richardson_extrapolate",
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


@dataclass(frozen=True)
class EtaSchedule:
    """Geometric schedule eta_k = eta0 * ratio^k, optionally floored."""

    eta0: float
    ratio: float = 0.5
    count: int = 8
    floor: float = 0.0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not 0 < self.ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 3:
            raise ValueError("need at least 3 samples")
        if self.floor < 0 or self.floor >= self.eta0:
            if self.floor != 0.0:
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


def _decay_exponent(etas, norms) -> float | None:
    """Least-squares slope of log|f| against log(eta); None if degenerate."""
    mask = np.asarray(norms) > 1e-290
    if mask.sum() < 2:
        return None
    x = np.log(np.asarray(etas)[mask])
    y = np.log(np.asarray(norms)[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# limits of M
# ---------------------------------------------------------------------------

_TAIL = 5  # extrapolate from the smallest samples only, where f is analytic


def dtn_profile(op: DirichletOperator, x: float, g: np.ndarray, sched: EtaSchedule):
    """(etas, M(x + i*eta) g, failure) along the schedule; partial on NearSpectrum."""
    etas, applied = [], []
    failure = None
    for eta in sched.samples():
        try:
            m = dtn_matrix(op, x + 1j * eta).m
        except NearSpectrum as exc:
            failure = exc
            break
        etas.append(float(eta))
        applied.append(m @ g)
    if not etas:
        raise failure if failure is not None else NearSpectrum(x)
    return etas, applied, failure


def slim_eta_M(op: DirichletOperator, x: float, g: np.ndarray,
               sched: EtaSchedule, tol: float = 1e-8) -> LimitEstimate:
    """Extrapolated limit of eta * M(x + i*eta) g (zero off the point spectrum).

    meta["relative"] is its norm over ||M(x + i*eta0) g||.
    """
    dom = op.domain
    g = np.asarray(g, dtype=complex)
    etas, applied, failure = dtn_profile(op, x, g, sched)
    samples = [eta * mg for eta, mg in zip(etas, applied)]

    norms = [dom.boundary_norm(s) for s in samples]
    exponent = _decay_exponent(etas, norms)
    tail = min(_TAIL, len(etas))
    value, err = richardson_extrapolate(etas[-tail:], samples[-tail:])
    scale = max(norms + [1e-300])
    converged = failure is None and err <= tol * max(scale, 1.0)
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
                     sched: EtaSchedule, tol: float = 1e-8) -> LimitEstimate:
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
    im_slope = _decay_exponent(etas, [abs(s.imag) for s in samples])
    diverging = (
        im_slope is not None and im_slope <= DIVERGENCE_SLOPE
        and im_last > DIVERGENCE_GROWTH * max(im0, 1e-300) and im_last > 1e-10
    )

    if sched.floored:
        value = samples[-1]
        err = abs(samples[-1] - samples[-2]) if len(samples) > 1 else np.inf
        converged = failure is None
    else:
        tail = min(_TAIL, len(etas))
        value, err = richardson_extrapolate(etas[-tail:], samples[-tail:])
        value = complex(value)
        scale = max(abs(value), max(abs(s) for s in samples), 1.0)
        converged = failure is None and err <= tol * scale and not diverging
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
                     probes, sched: EtaSchedule, n_window: int = 17,
                     fit_degree: int = 10, slim_rel_tol: float = 1e-6,
                     im_rel_tol: float = 1e-6, fit_tol: float = 1e-5) -> AnalyticityReport:
    """Decide whether M(.) continues analytically through the window around x.

    True iff across (x - w, x + w): the eta*M limits vanish for all probes,
    the imaginary parts of the boundary values vanish, and the sampled values
    of (M g, g) just above the axis admit a low-degree polynomial fit in z.
    """
    xs = np.linspace(x - half_width, x + half_width, n_window)

    slim_max = 0.0
    im_max = 0.0
    fit_misfit = 0.0
    for g in probes:
        g = np.asarray(g, dtype=complex)
        fit_vals = np.empty(n_window, dtype=complex)
        for j, xj in enumerate(xs):
            slim_max = max(slim_max, slim_eta_M(op, xj, g, sched).meta["relative"])
            bv = boundary_value_M(op, xj, g, sched)
            im_max = max(im_max, abs(complex(bv.value).imag) / max(abs(complex(bv.value)), 1.0))
            # sample just above the axis at the smallest admissible eta
            fit_vals[j] = bv.samples[-1][1]
        deg = min(fit_degree, n_window - 2)
        fit = np.polynomial.Polynomial.fit(xs, fit_vals, deg)
        resid = np.max(np.abs(fit_vals - fit(xs))) / max(np.max(np.abs(fit_vals)), 1e-300)
        fit_misfit = max(fit_misfit, float(resid))

    ok = slim_max <= slim_rel_tol and im_max <= im_rel_tol and fit_misfit <= fit_tol
    return AnalyticityReport(
        ok=ok,
        window=(x - half_width, x + half_width),
        slim_max=float(slim_max),
        im_max=float(im_max),
        fit_misfit=fit_misfit,
        thresholds={"slim": slim_rel_tol, "im": im_rel_tol, "fit": fit_tol},
    )
