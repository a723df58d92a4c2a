"""Spectral verdicts from boundary limits of M: point classification, eigenspace
recovery through the normal-derivative trace, AC support sets and the SC screen.

Grid sets are finite unions of closed intervals with endpoints on the sampling
grid; the essential (absolutely continuous) closure is computed exactly on
those unions.  All thresholds are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
import scipy.linalg as sla

from .domain import DirichletOperator, EigenSystem
from .dtn import normal_derivative
from .errors import DtnLabError, Inconclusive, NearSpectrum
from .limits import (
    DECAY_CUT,
    EtaSchedule,
    ResidueMatrix,
    analyticity_test,
    boundary_value_M,
    residue_contour,
    slim_eta_M,
)

__all__ = [
    "GridSet",
    "PointVerdict",
    "ACSupportSet",
    "SCReport",
    "TauReport",
    "PurityVerdict",
    "ClassifyConfig",
    "essential_closure",
    "window_grid",
    "classify_point",
    "refine_pole",
    "pole_scan",
    "eigenspace_via_tau",
    "ac_support",
    "sc_screen",
    "purity_filter",
    "make_probes",
]

RESOLVENT_SET = "resolvent"
EIGENVALUE = "eigenvalue"
CONTINUOUS = "continuous"

PURE_AC = "PureAC"
PURE_SC = "PureSC"
NO_SPECTRUM = "NoSpectrum"
MIXED_UNKNOWN = "Mixed/Unknown"

_NEWTON_TOL, _NEWTON_MAXITER = 1e-11, 60   # refine_pole: relative step that ends it, cap
_TAU_NODES = 64                            # trapezoid nodes of eigenspace_via_tau's contour


# ---------------------------------------------------------------------------
# grid sets and the essential closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSet:
    """Finite union of disjoint closed intervals; singletons allowed pre-closure."""

    intervals: tuple  # ((lo, hi), ...) sorted, lo <= hi

    def __post_init__(self):
        last = -np.inf
        for lo, hi in self.intervals:
            if hi < lo:
                raise ValueError("interval endpoints out of order")
            if lo <= last:
                raise ValueError("intervals must be disjoint and sorted")
            last = hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    @staticmethod
    def from_flags(xs, flags) -> "GridSet":
        """Runs of consecutive flagged grid points become closed intervals."""
        runs = (list(run) for flagged, run in groupby(range(len(xs)), key=lambda i: bool(flags[i]))
                if flagged)
        return GridSet(intervals=tuple((float(xs[run[0]]), float(xs[run[-1]])) for run in runs))

    @staticmethod
    def union(*sets: "GridSet") -> "GridSet":
        ivs = sorted(iv for s in sets for iv in s.intervals)
        merged = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return GridSet(intervals=tuple((lo, hi) for lo, hi in merged))


def essential_closure(s: GridSet) -> GridSet:
    """Drop zero-length components, then close the union merging touching intervals."""
    nondegenerate = [iv for iv in s.intervals if iv[1] > iv[0]]
    return GridSet.union(GridSet(intervals=tuple(nondegenerate)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyConfig:
    """Schedules, probes and thresholds driving the classifier."""

    eta0: float
    eta_ratio: float = 0.5
    eta_count: int = 8
    floor_mode: str = "none"          # none | halfline_auto
    floor_factor: float = 5.0         # multiples of the local level spacing
    halfline_length: float = 0.0      # L, needed for halfline_auto

    tau_eig_rel: float = 1e-6
    tau_ac: float = 1e-6
    null_fraction: float = 0.01

    window_half_width: float = 0.1
    fit_tol: float = 1e-5

    pole_match_radius: float = 0.1
    residue_rho: float = 0.25

    def __post_init__(self):
        if self.floor_mode not in ("none", "halfline_auto"):
            raise ValueError(f"unknown floor_mode {self.floor_mode!r}")

    def level_spacing(self, x: float) -> float:
        if self.floor_mode != "halfline_auto" or x <= 0 or self.halfline_length <= 0:
            return 0.0
        return 2 * np.pi * np.sqrt(x) / self.halfline_length

    def slim_nonzero(self, relative, slope):
        """Whether eta*M limits of these relative sizes and decay slopes are nonzero;
        a slope of None or nan does not veto it, so this is not `not vanishes(slope)`."""
        slope = np.nan if slope is None else np.asarray(slope)
        return (np.asarray(relative) > self.tau_eig_rel) & ~(slope >= DECAY_CUT)

    def schedule(self, x: float) -> EtaSchedule:
        floor = self.floor_factor * self.level_spacing(x)
        if floor >= self.eta0:
            floor = 0.9 * self.eta0
        return EtaSchedule(self.eta0, self.eta_ratio, self.eta_count, floor=floor)

    def schedule_runs(self, xs):
        """(schedule, indices) for each run of consecutive grid points that share
        an eta schedule; one run unless floor_mode is halfline_auto."""
        for sched, run in groupby(range(len(xs)), key=lambda j: self.schedule(xs[j])):
            yield sched, list(run)


def make_probes(dom, kind: str = "basis", count: int = 0, seed: int = 0):
    """Boundary probe vectors: the full basis, or seeded random unit vectors."""
    n_b = dom.n_boundary
    if kind == "basis":
        return [np.eye(n_b)[:, j].astype(complex) for j in range(n_b)]
    if kind == "random":
        rng = np.random.default_rng(seed)
        probes = []
        for _ in range(max(count, 1)):
            g = rng.standard_normal(n_b) + 0j
            probes.append(g / dom.boundary_norm(g))
        return probes
    raise ValueError(f"unknown probe kind {kind!r}")


# ---------------------------------------------------------------------------
# pole refinement
# ---------------------------------------------------------------------------

def refine_pole(op: DirichletOperator, x: float, g: np.ndarray, eta_start: float):
    """Newton iteration on 1/(M(z) g, g) from x + i*eta_start; None on failure.

    Near a simple real pole the reciprocal of the quadratic form is an analytic
    function with a simple zero, so the iteration converges quadratically.
    Every pole lies in [-||A_II||_1, ||A_II||_1], so an iterate farther than
    10 (||A_II||_1 + |x|) from x has diverged: None, without factorizing there.
    """
    dom = op.domain
    # (M(z) g, g)_B = const - scale * (v, (A_II - z)^-1 v)
    v = dom.incidence @ g
    const, scale = dom.boundary_inner(g, g) / dom.h, dom.h ** (dom.dimension - 4)
    z = complex(x, eta_start)
    ref = max(abs(x), 1.0)
    reach = 10 * (op.a_norm + abs(x))
    for _ in range(_NEWTON_MAXITER):
        try:
            solver = op.factorize(z)
        except NearSpectrum:
            # the iterate has collapsed onto the spectrum: that is the pole
            if abs(z.imag) <= 1e-6 * max(abs(z.real), 1.0):
                return float(z.real)
            return None
        y = solver.solve(v)
        q = const - scale * np.dot(np.conj(v), y)
        dq = -scale * np.dot(np.conj(v), solver.solve(y))
        if q == 0 or dq == 0 or not np.isfinite(q) or not np.isfinite(dq):
            return None
        step = q / dq
        z = z + step
        if abs(z - x) > reach:
            return None
        if abs(step) <= _NEWTON_TOL * max(abs(z), ref):
            if abs(z.imag) > 1e-6 * max(abs(z.real), 1.0):
                return None
            return float(z.real)
    return None


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointVerdict:
    x: float
    verdict: str
    refined_lambda: float | None = None
    multiplicity: int = 0
    residue: ResidueMatrix | None = None
    evidence: dict = field(default_factory=dict)   # slim_rel, decay_exponent: per probe
    half_width: float | None = None   # of the analyticity window a resolvent point passed


def _weighted_column_basis(dom, matrix: np.ndarray, rel_tol: float = 1e-8):
    """Numerical column-space basis and rank in the weighted boundary geometry."""
    w = np.sqrt(dom.boundary_node_weights)
    u, s, _ = np.linalg.svd(matrix * w[:, None], full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((matrix.shape[0], 0)), 0
    rank = int(np.sum(s > rel_tol * s[0]))
    return u[:, :rank] / w[:, None], rank


def classify_point(op: DirichletOperator, x: float, cfg: ClassifyConfig,
                   probes=None) -> PointVerdict:
    """Decision tree: nonzero eta*M limit -> Eigenvalue (with refined pole and
    residue); else analytic continuation through a window -> ResolventSet;
    else ContinuousSpectrum.  Raises Inconclusive instead of guessing."""
    dom = op.domain
    sched = cfg.schedule(x)
    probes = make_probes(dom, "basis") if probes is None else probes

    est = slim_eta_M(op, x, probes, sched)
    evidence = {"slim_rel": est.relative, "decay_exponent": est.decay_exponent}
    flagged = cfg.slim_nonzero(est.relative, est.decay_exponent)

    if flagged.any():
        # the probe with the largest flagged limit, the first of equals
        g = probes[int(np.argmax(np.where(flagged, est.relative, -1.0)))]
        lam0 = refine_pole(op, x, g, eta_start=sched.eta0 / 4)
        if lam0 is None:
            raise Inconclusive(f"eta*M limit nonzero at x={x} but pole refinement failed")
        if abs(lam0 - x) <= cfg.pole_match_radius:
            res = residue_contour(op, lam0, cfg.residue_rho)
            _, rank = _weighted_column_basis(dom, res.r)
            return PointVerdict(x=x, verdict=EIGENVALUE, refined_lambda=lam0,
                                multiplicity=rank, residue=res, evidence=evidence)
        # a pole exists nearby but not at this grid point; fall through

    if est.partial.any():
        raise Inconclusive(f"solver failures along the eta schedule at x={x}")

    # analytic continuation through *some* real neighborhood suffices, so the
    # window shrinks when a nearby pole or a sample on the spectrum spoils a try
    failure = None
    for shrink in (1.0, 4.0, 16.0):
        try:
            ana = analyticity_test(
                op, x, cfg.window_half_width / shrink, probes, sched,
                slim_rel_tol=cfg.tau_eig_rel, im_rel_tol=cfg.tau_ac, fit_tol=cfg.fit_tol,
            )
        except NearSpectrum as exc:
            failure = exc
            continue
        if ana.ok:
            return PointVerdict(x=x, verdict=RESOLVENT_SET, evidence=evidence,
                                half_width=cfg.window_half_width / shrink)
    if failure is not None:
        raise failure
    return PointVerdict(x=x, verdict=CONTINUOUS, evidence=evidence)


# ---------------------------------------------------------------------------
# eigenspace recovery through the trace map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauReport:
    lam0: float
    tau_basis: np.ndarray            # (n_B, m) traces of the oracle eigenvectors
    gram_singular_ratio: float
    principal_angles: np.ndarray
    residue: ResidueMatrix
    residue_rank: int


def eigenspace_via_tau(op: DirichletOperator, lam0: float, eig: EigenSystem) -> TauReport:
    """Compare traces of the oracle eigenvectors at lam0 with the residue range of M,
    on a contour of radius 0.45 x the gap to the nearest other level (or 0.45)."""
    dom = op.domain
    vecs = eig.eigenspace(lam0)
    if vecs.shape[1] == 0:
        raise ValueError(f"{lam0} is not an oracle eigenvalue")

    taus = np.column_stack([
        normal_derivative(dom, np.zeros(dom.n_boundary), vecs[:, j])
        for j in range(vecs.shape[1])
    ])
    gram = np.array([
        [dom.boundary_inner(taus[:, i], taus[:, j]) for j in range(taus.shape[1])]
        for i in range(taus.shape[1])
    ])
    sv = np.linalg.svd(gram, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0

    others = eig.values[np.abs(eig.values - lam0) > eig.degeneracy_tol]
    gap = float(np.min(np.abs(others - lam0))) if others.size else 1.0
    res = residue_contour(op, lam0, 0.45 * gap, _TAU_NODES)
    basis, rank = _weighted_column_basis(dom, res.r)

    w = np.sqrt(dom.boundary_node_weights)
    if rank and taus.shape[1]:
        angles = sla.subspace_angles(taus * w[:, None], basis * w[:, None])
    else:
        angles = np.array([np.pi / 2])
    return TauReport(
        lam0=float(lam0), tau_basis=taus, gram_singular_ratio=ratio,
        principal_angles=angles, residue=res, residue_rank=rank,
    )


# ---------------------------------------------------------------------------
# window stages: pole scan, AC support, SC screen
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACSupportSet:
    window: tuple
    grid: np.ndarray
    per_probe_closed: tuple           # GridSet per probe
    closed_union: GridSet
    ac_free: bool
    boundary_values: np.ndarray       # (n_probes, n_grid) complex


def window_grid(window, step):
    """Grid points lo + step*k from lo to hi inclusive, window = (lo, hi)."""
    a, b = window
    n = int(round((b - a) / step))
    return a + step * np.arange(n + 1)


def pole_scan(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
              grid_step: float) -> tuple:
    """Poles inside the window that refine_pole reaches from a grid point and
    probe, so a level is caught where no grid point lands on it; () on floored
    schedules, which emulate continuous spectrum."""
    xs = window_grid(window, grid_step)
    if cfg.schedule(xs[0]).floored:
        return ()
    lo, hi = window
    found = (refine_pole(op, x, g, eta_start=cfg.eta0 / 4) for x in xs for g in probes)
    return tuple(float(lam0) for lam0 in found if lam0 is not None and lo < lam0 < hi)


def ac_support(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
               grid_step: float) -> ACSupportSet:
    """Grid sets where 0 < -Im(M(x+i0)g, g) < infinity, essentially closed and unioned."""
    xs = window_grid(window, grid_step)
    bvals = np.empty((len(probes), len(xs)), dtype=complex)
    for sched, run in cfg.schedule_runs(xs):
        bvals[:, run] = boundary_value_M(op, xs[run], probes, sched).value
    flags = (cfg.tau_ac < -bvals.imag) & (-bvals.imag < 1.0 / cfg.tau_ac)
    per_probe_closed = [essential_closure(GridSet.from_flags(xs, f)) for f in flags]
    union = essential_closure(GridSet.union(*per_probe_closed))
    frac = float(np.mean(np.any(np.abs(bvals.imag) > cfg.tau_ac, axis=0)))
    return ACSupportSet(
        window=tuple(window), grid=xs, per_probe_closed=tuple(per_probe_closed),
        closed_union=union, ac_free=frac <= cfg.null_fraction, boundary_values=bvals,
    )


@dataclass(frozen=True)
class SCReport:
    window: tuple
    grid: np.ndarray
    diverging: np.ndarray             # (n_probes, n_grid) bool
    y_limit_zero: np.ndarray          # (n_probes, n_grid) bool
    flagged_set: GridSet
    excluded: bool
    caveat: str = (
        "singular continuous spectrum is excluded when the flagged set is at "
        "most countable; on a finite grid this is read as: no flagged run of "
        "positive length"
    )


def sc_screen(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
              grid_step: float) -> SCReport:
    """Flag points where Im(Mg,g) -> -infinity while y(Mg,g) -> 0."""
    xs = window_grid(window, grid_step)
    div = np.zeros((len(probes), len(xs)), dtype=bool)
    yzero = np.zeros((len(probes), len(xs)), dtype=bool)
    for sched, run in cfg.schedule_runs(xs):
        bv = boundary_value_M(op, xs[run], probes, sched)
        div[:, run], yzero[:, run] = bv.diverging, bv.y_limit_zero
    both = np.any(div & yzero, axis=0)
    flagged = GridSet.from_flags(xs, both)
    excluded = essential_closure(flagged).is_empty
    return SCReport(window=tuple(window), grid=xs, diverging=div,
                    y_limit_zero=yzero, flagged_set=flagged, excluded=excluded)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurityVerdict:
    window: tuple
    verdict: str
    offending_points: tuple = ()


def _result(stage):
    """A stage's result; the DtnLabError it failed with is raised again."""
    if isinstance(stage, DtnLabError):
        raise stage
    return stage


def purity_filter(window, points, poles, acs, scr, cfg: ClassifyConfig) -> PurityVerdict:
    """NoSpectrum / PureAC / PureSC / Mixed-Unknown from a window's stage results,
    without evaluating M: (x, classify_point's verdict) per grid point, then the
    results of pole_scan, ac_support and sc_screen.  A DtnLabError among them
    is raised again where the rule needs it: an inconclusive point with no pole
    within pole_match_radius makes the window inconclusive.  The poles, and the
    points away from them with a nonzero eta*M limit, give Mixed/Unknown (each
    level once); NoSpectrum needs every point resolvent at the full
    window_half_width, PureSC an AC-free window with a flagged SC run of
    positive length, PureAC no diverging run of positive length."""
    window, poles = tuple(window), _result(poles)
    offending = list(poles)
    for x, v in points:
        if not any(abs(lam0 - x) <= cfg.pole_match_radius for lam0 in poles):
            evidence = _result(v).evidence
            if cfg.slim_nonzero(evidence["slim_rel"], evidence["decay_exponent"]).any():
                offending.append(float(x))
    if offending:
        distinct = []
        for v in sorted(offending):
            if not distinct or abs(v - distinct[-1]) > 1e-6 * max(1.0, abs(v)):
                distinct.append(v)
        return PurityVerdict(window, MIXED_UNKNOWN, tuple(distinct))

    if all(v.verdict == RESOLVENT_SET and v.half_width == cfg.window_half_width
           for _, v in points):
        return PurityVerdict(window, NO_SPECTRUM)
    acs, scr = _result(acs), _result(scr)
    if acs.ac_free:
        # without AC spectrum, PureSC still needs a flagged run: an AC-free
        # window with none may hold a level the scan missed (finite models
        # have no SC spectrum)
        return PurityVerdict(window, MIXED_UNKNOWN if scr.excluded else PURE_SC)
    if essential_closure(GridSet.from_flags(scr.grid, np.any(scr.diverging, axis=0))).is_empty:
        return PurityVerdict(window, PURE_AC)
    return PurityVerdict(window, MIXED_UNKNOWN)
