"""Spectral verdicts from boundary limits of M: the levels of a window, point
classification, eigenspace recovery through the normal-derivative trace, AC
support sets and the SC screen.

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
    RESIDUE_TOL,
    EtaSchedule,
    ResidueMatrix,
    ac_flags,
    analyticity_test,
    boundary_value_M,
    contour_sums,
    ellipse,
    residue_contour,
    slim_eta_M,
)

__all__ = [
    "GridSet",
    "PointVerdict",
    "Level",
    "ACSupportSet",
    "SCReport",
    "TauReport",
    "PurityVerdict",
    "ClassifyConfig",
    "essential_closure",
    "window_grid",
    "classify_point",
    "refine_pole",
    "window_levels",
    "eigenspace_via_tau",
    "trace_invisible",
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
_GAP_FRACTION = 0.45                       # residue radius over the gap to the nearest other level
_LEVEL_NODES = 128                         # trapezoid nodes of window_levels' ellipse
_LEVEL_BLOCKS = (8, 16)                    # Hankel block counts tried: 16 moments, then 32
_PENCIL_TOL = 1e-12                        # kept singular values of H0, over max|moment| bound


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

    window_half_width: float = 0.1
    fit_tol: float = 1e-5

    pole_match_radius: float = 0.1

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

    A standalone polish of one probe's pole; the level stage does not call it.
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
# levels of a window: poles of M by contour moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level:
    """A confirmed pole of M: its value, the rank of its residue, the residue."""

    lam: float
    multiplicity: int
    residue: ResidueMatrix


def _residue_range(dom, res: ResidueMatrix):
    """Basis of a residue's range and its rank, in the weighted boundary geometry:
    its singular values above RESIDUE_TOL x res.bound count."""
    w = np.sqrt(dom.boundary_node_weights)
    u, s, _ = np.linalg.svd(res.r * w[:, None] / w, full_matrices=False)
    rank = int(np.sum(s > RESIDUE_TOL * res.bound))
    return u[:, :rank] / w[:, None], rank


def window_levels(op: DirichletOperator, window, probes, cfg: ClassifyConfig) -> tuple:
    """The levels of M around the window (lo, hi), ascending; () on floored schedules.

    M is meromorphic on a finite model, so the moments (1/2 pi i) oint T_k(u)
    (M g_l, g_j) dz, T_k Chebyshev in u = (z - c)/r on an ellipse through
    lo - 2w and hi + 2w (w = window_half_width), make a block Hankel-type
    pencil whose eigenvalues estimate the poles inside (Beyn, LAA 436 (2012);
    Sakurai & Sugiura, JCAM 159 (2003)).  Its rank must stay at most half its
    size, else the block count doubles, up to 32 moments, then Inconclusive.
    Estimates in (lo - w, hi + w) merge within the oracle's degeneracy rule;
    the residue_contour around each, of _GAP_FRACTION x the gap to the nearest
    other estimate, holds one pole and gives the level: its value (res.pole),
    and as multiplicity the count of weighted singular values above
    RESIDUE_TOL x rho max ||M||, the nonzero eta*M-limit test, as -i eta
    M(lam + i eta) tends to that residue.  M is evaluated only by contour_sums.
    """
    lo, hi = window
    if cfg.schedule(lo).floored:
        return ()
    dom, w, size = op.domain, cfg.window_half_width, 2 * _LEVEL_BLOCKS[-1]
    a, b = lo - 2 * w, hi + 2 * w
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    u, du = ellipse(2 * np.pi * (np.arange(_LEVEL_NODES) + 0.5) / _LEVEL_NODES)
    cheb = np.polynomial.chebyshev.chebvander(u, size - 1).T    # T_k(u) at the nodes
    m, m_max = contour_sums(op, centre + half * u, cheb * du * half / (1j * u.size))
    gs = np.array(probes).T                                     # (n_B, probes)
    moments = (gs.conj().T * dom.boundary_node_weights) @ m @ gs
    scale = half * m_max * np.abs(cheb).max() * np.max(dom.boundary_norm(gs.T)) ** 2

    p = gs.shape[1]
    for k in _LEVEL_BLOCKS:
        # T_i T_j = (T_(i+j) + T_|i-j|)/2 and u T_m = (T_(m+1) + T_|m-1|)/2
        i, j = np.indices((k, k))
        h0 = (moments[i + j] + moments[abs(i - j)]) / 2
        h1 = (moments[i + j + 1] + moments[abs(i + j - 1)] + moments[abs(i - j + 1)]
              + moments[abs(i - j - 1)]) / 4
        h0, h1 = (h.transpose(0, 2, 1, 3).reshape(k * p, k * p) for h in (h0, h1))
        left, sv, right = np.linalg.svd(h0)
        rank = int(np.sum(sv > _PENCIL_TOL * scale))
        if 2 * rank <= k * p:
            break
    else:
        raise Inconclusive(f"more levels around {tuple(window)} than {size} contour "
                           f"moments resolve")
    left, right = left[:, :rank], right[:rank].conj().T
    estimates = np.sort(centre + half * np.linalg.eigvals(left.conj().T @ h1 @ right
                                                          / sv[:rank]).real)
    near = (lo - w < estimates) & (estimates < hi + w)
    tol = 1e-8 * max(op.a_norm, 1.0)
    values = estimates[near][np.diff(estimates[near], prepend=-np.inf) > tol]
    poles = np.concatenate([values, estimates[~near], [a, b]])
    levels = []
    for lam in values:
        gap = np.min(np.abs(poles[np.abs(poles - lam) > tol] - lam))
        res = residue_contour(op, lam, _GAP_FRACTION * gap)
        mult = _residue_range(dom, res)[1]
        if mult:
            levels.append(Level(lam=res.pole, multiplicity=mult, residue=res))
    return tuple(levels)


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


def _result(stage):
    """A stage's result; the DtnLabError it failed with is raised again."""
    if isinstance(stage, DtnLabError):
        raise stage
    return stage


def classify_point(op: DirichletOperator, x: float, cfg: ClassifyConfig,
                   probes=None, levels=None) -> PointVerdict:
    """Decision tree on window_levels' levels (by default those of (x - w, x + w),
    w = window_half_width; none on floored schedules, and a DtnLabError for
    levels is raised again): within pole_match_radius of a level -> Eigenvalue,
    as the nearest level; else analytic continuation through the window of
    half-width min(w, d/4), d the distance to the nearest level -> ResolventSet;
    else ContinuousSpectrum.  The eta*M limits are taken first, as evidence."""
    dom = op.domain
    sched = cfg.schedule(x)
    probes = make_probes(dom, "basis") if probes is None else probes

    est = slim_eta_M(op, x, probes, sched)
    evidence = {"slim_rel": est.relative, "decay_exponent": est.decay_exponent}

    w = cfg.window_half_width
    if sched.floored:
        levels = ()
    elif levels is None:
        levels = window_levels(op, (x - w, x + w), probes, cfg)
    gaps = [abs(level.lam - x) for level in _result(levels)]
    d = min(gaps, default=np.inf)
    if d <= cfg.pole_match_radius:
        near = levels[int(np.argmin(gaps))]
        return PointVerdict(x=x, verdict=EIGENVALUE, refined_lambda=near.lam,
                            multiplicity=near.multiplicity, residue=near.residue,
                            evidence=evidence)

    if est.partial.any():
        raise Inconclusive(f"solver failures along the eta schedule at x={x}")
    ana = analyticity_test(op, x, min(w, d / 4), probes, sched, slim_rel_tol=cfg.tau_eig_rel,
                           im_rel_tol=cfg.tau_ac, fit_tol=cfg.fit_tol)
    return PointVerdict(x=x, verdict=RESOLVENT_SET if ana.ok else CONTINUOUS, evidence=evidence)


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


def trace_invisible(dom, eig: EigenSystem) -> list:
    """Per oracle level (eig.groups), whether the traces tau_j of its eigenvectors
    vanish: none above RESIDUE_TOL times the largest trace of any eigenvector.
    The residue of M there, g -> sum_j tau_j (g, tau_j), vanishes with them, so
    such a level is no pole of M and no verdict read off M can see it."""
    taus = normal_derivative(dom, np.zeros((dom.n_boundary, eig.values.size)), eig.vectors)
    norms = dom.boundary_norm(taus.T)
    return [bool(norms[list(g)].max() <= RESIDUE_TOL * norms.max()) for g in eig.groups]


def eigenspace_via_tau(op: DirichletOperator, lam0: float, eig: EigenSystem) -> TauReport:
    """Compare traces of the oracle eigenvectors at lam0 with the residue range of M,
    on a contour of radius 0.45 x the gap to the nearest other level (or 0.45)."""
    dom = op.domain
    vecs = eig.eigenspace(lam0)
    if vecs.shape[1] == 0:
        raise ValueError(f"{lam0} is not an oracle eigenvalue")

    taus = normal_derivative(dom, np.zeros((dom.n_boundary, vecs.shape[1])), vecs)
    gram = dom.boundary_inner(taus.T[:, None], taus.T[None])
    sv = np.linalg.svd(gram, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0

    others = eig.values[np.abs(eig.values - lam0) > eig.degeneracy_tol]
    gap = float(np.min(np.abs(others - lam0))) if others.size else 1.0
    res = residue_contour(op, lam0, _GAP_FRACTION * gap)
    basis, rank = _residue_range(dom, res)

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
# window stages: AC support, SC screen
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACSupportSet:
    window: tuple
    grid: np.ndarray
    per_probe_closed: tuple           # GridSet per probe
    closed_union: GridSet
    ac_free: bool
    boundary_values: np.ndarray       # (n_probes, n_grid) complex
    diverging: np.ndarray             # (n_probes, n_grid) bool: Im(M g, g) -> -infinity
    y_limit_zero: np.ndarray          # (n_probes, n_grid) bool: eta (M g, g) -> 0


def window_grid(window, step):
    """Grid points lo + step*k from lo to hi inclusive, window = (lo, hi)."""
    a, b = window
    n = int(round((b - a) / step))
    return a + step * np.arange(n + 1)


def ac_support(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
               grid_step: float) -> ACSupportSet:
    """Grid sets where ac_flags accepts -Im(M(x+i0)g, g), closed and unioned; AC-free if empty."""
    xs = window_grid(window, grid_step)
    bvals = np.empty((len(probes), len(xs)), dtype=complex)
    div, yzero = np.empty((2, len(probes), len(xs)), dtype=bool)
    for sched, run in cfg.schedule_runs(xs):
        bv = boundary_value_M(op, xs[run], probes, sched)
        bvals[:, run], div[:, run], yzero[:, run] = bv.value, bv.diverging, bv.y_limit_zero
    flags = ac_flags(-bvals.imag, div, cfg.tau_ac)
    per_probe_closed = [essential_closure(GridSet.from_flags(xs, f)) for f in flags]
    union = essential_closure(GridSet.union(*per_probe_closed))
    return ACSupportSet(
        window=tuple(window), grid=xs, per_probe_closed=tuple(per_probe_closed),
        closed_union=union, ac_free=union.is_empty, boundary_values=bvals,
        diverging=div, y_limit_zero=yzero,
    )


@dataclass(frozen=True)
class SCReport:
    window: tuple
    grid: np.ndarray
    flagged_set: GridSet              # ac_support's points diverging with y (M g, g) -> 0
    excluded: bool
    caveat: str = (
        "singular continuous spectrum is excluded when the flagged set is at "
        "most countable; on a finite grid this is read as: no flagged run of "
        "positive length"
    )


def sc_screen(acs) -> SCReport:
    """Flag points where Im(Mg,g) -> -infinity while y(Mg,g) -> 0, from ac_support's
    result without evaluating M; a DtnLabError in its place is raised again."""
    acs = _result(acs)
    flagged = GridSet.from_flags(acs.grid, np.any(acs.diverging & acs.y_limit_zero, axis=0))
    return SCReport(window=acs.window, grid=acs.grid, flagged_set=flagged,
                    excluded=essential_closure(flagged).is_empty)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurityVerdict:
    window: tuple
    verdict: str
    offending_points: tuple = ()


def purity_filter(window, points, levels, acs, scr, cfg: ClassifyConfig) -> PurityVerdict:
    """NoSpectrum / PureAC / PureSC / Mixed-Unknown from a window's stage results,
    without evaluating M: (x, classify_point's verdict) per grid point, then the
    results of window_levels, ac_support and sc_screen.  A DtnLabError among
    them is raised again where the rule needs it: an inconclusive point with
    no level within pole_match_radius makes the window inconclusive.  The
    levels inside the window, and the points away from every level with a
    nonzero eta*M limit, give Mixed/Unknown (each level once); NoSpectrum needs
    every point away from the levels resolvent, PureSC an AC-free window with a
    flagged SC run of positive length, PureAC no diverging run of positive
    length."""
    window, levels = tuple(window), [level.lam for level in _result(levels)]
    offending = [lam for lam in levels if window[0] < lam < window[1]]
    resolvent = True
    for x, v in points:
        if any(abs(lam - x) <= cfg.pole_match_radius for lam in levels):
            continue    # the level explains the point
        v = _result(v)
        if cfg.slim_nonzero(v.evidence["slim_rel"], v.evidence["decay_exponent"]).any():
            offending.append(float(x))
        resolvent &= v.verdict == RESOLVENT_SET
    if offending:
        distinct = []
        for v in sorted(offending):
            if not distinct or abs(v - distinct[-1]) > 1e-6 * max(1.0, abs(v)):
                distinct.append(v)
        return PurityVerdict(window, MIXED_UNKNOWN, tuple(distinct))

    if resolvent:
        return PurityVerdict(window, NO_SPECTRUM)
    acs, scr = _result(acs), _result(scr)
    if acs.ac_free:
        # without AC spectrum, PureSC still needs a flagged run (finite
        # models have no SC spectrum)
        return PurityVerdict(window, MIXED_UNKNOWN if scr.excluded else PURE_SC)
    if essential_closure(GridSet.from_flags(acs.grid, np.any(acs.diverging, axis=0))).is_empty:
        return PurityVerdict(window, PURE_AC)
    return PurityVerdict(window, MIXED_UNKNOWN)
