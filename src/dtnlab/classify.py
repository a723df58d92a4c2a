"""Spectral verdicts from boundary limits of M: the levels of a window, point
classification, eigenspace recovery through the normal-derivative trace, AC
support sets and the SC screen.

Grid sets are finite unions of closed intervals with endpoints on the sampling
grid; the essential (absolutely continuous) closure is computed exactly on
those unions.  The cuts of the verdicts are constants: those on limits of M
(TAU_EIG, TAU_AC, FIT_TOL, DECAY_CUT, RESIDUE_TOL) in limits, the rest below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import ClassVar

import numpy as np
import scipy.linalg as sla

from .domain import DirichletOperator, EigenSystem
from .dtn import fill_certified
from .errors import DtnLabError, Inconclusive, NearSpectrum, attempt
from .limits import (
    RESIDUE_TOL,
    EtaSchedule,
    ResidueMatrix,
    ac_flags,
    analyticity_test,
    boundary_value_M,
    circle_nodes,
    contour_sums,
    ellipse,
    profile_nodes,
    residue_contour,
    slim_eta_M,
    slim_nonzero,
    window_points,
)

__all__ = [
    "GridSet",
    "WindowLevels",
    "PointVerdict",
    "ACSupportSet",
    "SCReport",
    "TauReport",
    "PurityVerdict",
    "ClassifyConfig",
    "essential_closure",
    "grid_steps",
    "window_grid",
    "in_window",
    "window_slack",
    "level_tolerance",
    "classify_point",
    "refine_pole",
    "window_levels",
    "eigenspace_via_tau",
    "visible_multiplicity",
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
_LEVEL_SLACK = 1e-9                        # in_window's widening, relative: a level's accuracy
_FLOOR_FACTOR = 5.0                        # halfline_auto: eta floored at this x the level spacing


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
    """Drop zero-length components; the rest of s is left as it is (a GridSet's
    intervals never touch, so there is nothing to merge)."""
    return GridSet(intervals=tuple(iv for iv in s.intervals if iv[1] > iv[0]))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyConfig:
    """The eta schedule's start and floor, and the two widths of the classifier."""

    eta0: float
    floor_mode: str = "none"          # none | halfline_auto
    halfline_length: float = 0.0      # L, needed for halfline_auto
    window_half_width: float = 0.1
    pole_match_radius: float = 0.1

    def __post_init__(self):
        if self.floor_mode not in ("none", "halfline_auto"):
            raise ValueError(f"unknown floor_mode {self.floor_mode!r}")
        if self.floor_mode == "halfline_auto" and not self.halfline_length > 0:
            raise ValueError("floor_mode 'halfline_auto' needs a positive halfline_length")

    @property
    def level_edge(self) -> float:
        """Above this x (0 under halfline_auto) the schedule is floored: no levels known."""
        return 0.0 if self.floor_mode == "halfline_auto" else np.inf

    def schedule(self, x: float) -> EtaSchedule:
        floor = 0.0
        if x > self.level_edge:    # halfline_auto: the level spacing 2 pi sqrt(x) / L
            floor = _FLOOR_FACTOR * (2 * np.pi * np.sqrt(x) / self.halfline_length)
            floor = floor if floor < self.eta0 else 0.9 * self.eta0
        return EtaSchedule(self.eta0, floor=floor)

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

def _residue_range(dom, res: ResidueMatrix):
    """Basis of a residue's range, res.rank columns, in the weighted boundary geometry."""
    w = np.sqrt(dom.boundary_node_weights)
    u = np.linalg.svd(res.r * w[:, None] / w, full_matrices=False)[0]
    return u[:, :res.rank] / w[:, None]


class WindowLevels(tuple):
    """window_levels' result: the ResidueMatrix of each level, ascending, and
    ``reach``, the interval (lo - w, hi + w) around the window (lo, hi), below
    the level edge, in which they are all the levels of M; w = window_half_width."""

    def __new__(cls, levels, reach):
        self = super().__new__(cls, levels)
        self.reach = reach
        return self


def in_window(window, lam) -> bool:
    """Whether the level lam belongs to the window (lo, hi): whether it lies in
    [lo, hi] widened by _LEVEL_SLACK x max(1, |lo|, |hi|), so that two values of
    one level that agree to that, the level stage's and the oracle's, are both
    in or both out, on an endpoint too.  The one rule for the report's levels,
    purity's offending levels and the oracle levels of the cross-check."""
    lo, hi = window
    slack = window_slack(window)
    return lo - slack <= lam <= hi + slack


def window_slack(window) -> float:
    """How far in_window widens the window (lo, hi): _LEVEL_SLACK x max(1, |lo|, |hi|)."""
    return _LEVEL_SLACK * max(1.0, abs(window[0]), abs(window[1]))


def level_tolerance(op: DirichletOperator) -> float:
    """1e-8 max(||A_II||_1, 1), the accuracy of window_levels' levels: the
    distance within which it merges two estimates into one level, and within
    which the oracle cross-check credits a level to an oracle eigenvalue."""
    return 1e-8 * max(op.a_norm, 1.0)


def window_levels(op: DirichletOperator, window, probes, cfg: ClassifyConfig) -> WindowLevels:
    """The levels of M around the window (lo, hi) up to cfg.level_edge, ascending:
    the ResidueMatrix of each, of rank at least 1, with the reach (lo - w, hi + w)
    in which they are all the levels below the edge (WindowLevels).

    M is meromorphic on a finite model, so the moments (1/2 pi i) oint T_k(u)
    (M g_l, g_j) dz, T_k Chebyshev in u = (z - c)/r on an ellipse through
    lo - 2w and hi + 2w or the edge (w = window_half_width), make a block Hankel-type
    pencil whose eigenvalues estimate the poles inside (Beyn, LAA 436 (2012);
    Sakurai & Sugiura, JCAM 159 (2003)).  Its rank must stay at most half its
    size, else the block count doubles, up to 32 moments, then Inconclusive.
    Estimates in (lo - w, hi + w) below the edge merge within level_tolerance;
    the residue_contour around each, of _GAP_FRACTION x the gap to the nearest
    other estimate, holds one pole and gives the level: its value (res.pole),
    and as multiplicity res.rank, its weighted singular values above
    RESIDUE_TOL x rho max ||M||, the nonzero eta*M-limit test, as -i eta
    M(lam + i eta) tends to that residue.  M is evaluated only by contour_sums,
    and the certified nodes of every residue circle are entered at once.
    """
    lo, hi = window
    dom, w, size = op.domain, cfg.window_half_width, 2 * _LEVEL_BLOCKS[-1]
    reach = (lo - w, hi + w)
    if lo > cfg.level_edge:
        return WindowLevels((), reach)
    a, b = lo - 2 * w, min(hi + 2 * w, cfg.level_edge)
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    u, du = ellipse(2 * np.pi * (np.arange(_LEVEL_NODES // 2) + 0.5) / _LEVEL_NODES)
    # the lower half as exact conjugates: u(2 pi - t) = conj u(t), u'(2 pi - t) = -conj u'(t)
    u, du = np.concatenate([u, u[::-1].conj()]), np.concatenate([du, -du[::-1].conj()])
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
    near = (reach[0] < estimates) & (estimates < min(reach[1], cfg.level_edge))
    tol = level_tolerance(op)
    values = estimates[near][np.diff(estimates[near], prepend=-np.inf) > tol]
    poles = np.concatenate([values, estimates[~near], [a, b]])
    rhos = [_GAP_FRACTION * np.min(np.abs(poles[np.abs(poles - lam) > tol] - lam))
            for lam in values]
    fill_certified(op, [circle_nodes(lam, rho)[0] for lam, rho in zip(values, rhos)])
    levels = (residue_contour(op, lam, rho) for lam, rho in zip(values, rhos))
    return WindowLevels((res for res in levels if res.rank), reach)


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


def _per_point(block, run):
    """block(indices) over the points of the index list run at once, as one
    (result, k) per point, the point's fields at [..., k] of the result's; if
    that raises a DtnLabError, block([j]) for each point j alone, so that a
    point whose own block raises holds its error and the others are unaffected."""
    try:
        result = block(run)
    except DtnLabError:
        return [attempt(lambda j: (block([j]), 0), j) for j in run]
    return [(result, k) for k in range(len(run))]


def _nearest_level(x: float, cfg: ClassifyConfig, levels):
    """(the level nearest x, its distance to x), or (None, inf) without one.  Above
    cfg.level_edge levels count for nothing, else a DtnLabError held in levels
    is raised again."""
    levels = () if x > cfg.level_edge else _result(levels)
    near = min(levels, key=lambda level: abs(level.pole - x), default=None)
    return near, np.inf if near is None else abs(near.pole - x)


def _point_plan(x: float, cfg: ClassifyConfig, levels: WindowLevels):
    """(level, half_width) at x: (the nearest level, None) if it lies within
    pole_match_radius, as it explains x; else (None, half_width) for the
    analyticity window: window_half_width, capped at a quarter of the distance
    to the nearest level and, at or below cfg.level_edge, to either end of
    levels.reach, beyond which levels are unknown, and below the edge to the
    edge, where the box modes that emulate the continuum start."""
    near, d = _nearest_level(x, cfg, levels)
    if d <= cfg.pole_match_radius:
        return near, None
    if x > cfg.level_edge:    # no level is read there
        return None, cfg.window_half_width
    lo, hi = levels.reach
    edge = cfg.level_edge - x if x < cfg.level_edge else np.inf
    return None, min(cfg.window_half_width, d / 4, edge / 4, (x - lo) / 4, (hi - x) / 4)


def classify_point(op: DirichletOperator, x, cfg: ClassifyConfig, probes=None, levels=None):
    """Decision tree on window_levels' levels (by default those of (lo - w, hi + w)
    around the points' span [lo, hi], w = window_half_width, at or below
    cfg.level_edge) by _point_plan, at a point or at each point of an array: a
    level that explains x -> Eigenvalue, as that level; else analytic
    continuation through the plan's window -> ResolventSet; else
    ContinuousSpectrum.  The eta*M limits are taken first, as evidence.

    A scalar x gives its PointVerdict or raises; an array gives a tuple with
    each point's PointVerdict or the DtnLabError it failed with.  All points
    are classified in one pass: the certified z of every eta profile, and of
    the planned window of each point whose profile is certified (so that it
    cannot stop at a NearSpectrum before the window is reached), are entered
    in one fill_certified call; then each run of points that share an eta
    schedule (cfg.schedule_runs) takes one slim_eta_M block for its evidence
    and one analyticity_test call for its windows, and a block that raises is
    taken again point by point (_per_point), so a failure stays with its point.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    probes = make_probes(op.domain, "basis") if probes is None else probes
    if levels is None and xs.min() <= cfg.level_edge:
        w = cfg.window_half_width
        levels = attempt(window_levels, op, (xs.min() - w, xs.max() + w), probes, cfg)
    plans = [attempt(_point_plan, xj, cfg, levels) for xj in xs]
    half_widths = np.array([np.nan if isinstance(plan, DtnLabError) or plan[1] is None
                            else plan[1] for plan in plans])     # nan: no window
    runs = list(cfg.schedule_runs(xs))

    nodes = []
    for sched, run in runs:
        profiles = profile_nodes(xs[run], sched)
        windowed = [j for j, profile in zip(run, profiles)
                    if half_widths[j] > 0 and op.certified(profile).all()]
        nodes += [profiles.ravel(),
                  profile_nodes(window_points(xs[windowed], half_widths[windowed]), sched).ravel()]
    attempt(fill_certified, op, np.concatenate(nodes))   # a failed fill enters nothing

    verdicts = [None] * len(xs)
    for sched, run in runs:
        evidence = _per_point(lambda idx: slim_eta_M(op, xs[idx], probes, sched), run)
        for j, est in zip(run, evidence):
            verdicts[j] = attempt(_planned_verdict, xs[j], est, plans[j])
        tested = [j for j in run if isinstance(verdicts[j], dict)]
        if tested:
            windows = _per_point(lambda idx: analyticity_test(op, xs[idx], half_widths[idx],
                                                                probes, sched), tested)
            for j, ana in zip(tested, windows):
                if not isinstance(ana, DtnLabError):
                    ana, k = ana
                    ana = PointVerdict(x=xs[j], evidence=verdicts[j],
                                       verdict=RESOLVENT_SET if ana.ok[..., k] else CONTINUOUS)
                verdicts[j] = ana
    return _result(verdicts[0]) if np.ndim(x) == 0 else tuple(verdicts)


def _planned_verdict(x, est, plan):
    """The verdict at x before its analyticity window, from its evidence, a
    slim_eta_M block and the point's index k in it, and its _point_plan, each
    raised again if it is a DtnLabError, in that order: its level's
    Eigenvalue, an Inconclusive for a profile that stopped at a NearSpectrum,
    or else the evidence alone (a dict), for the window to decide."""
    (est, k), (near, _) = _result(est), _result(plan)
    evidence = {"slim_rel": est.relative[..., k], "decay_exponent": est.decay_exponent[..., k]}
    if near is not None:
        return PointVerdict(x=x, verdict=EIGENVALUE, refined_lambda=near.pole,
                            multiplicity=near.rank, residue=near, evidence=evidence)
    if est.partial[..., k].any():
        raise Inconclusive(f"solver failures along the eta schedule at x={x}")
    return evidence


# ---------------------------------------------------------------------------
# eigenspace recovery through the trace map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauReport:
    gram_singular_ratio: float
    principal_angles: np.ndarray
    residue: ResidueMatrix


def visible_multiplicity(dom, eig: EigenSystem) -> list:
    """Per oracle level (eig.groups), the weighted rank of its eigenvectors'
    traces tau_j (EigenSystem.traces): their singular values as a map into the
    weighted boundary space above RESIDUE_TOL times the norm of the trace map
    on w_I-unit vectors, h^(-3/2) ||K^(-1/2) P^T||_2 with K = diag(k_b)
    (h^(-3/2) on the half-line and the square annulus, where no interior node
    has two boundary neighbours), which bounds every trace as a
    ResidueMatrix's bound bounds its residue.  The residue of M there,
    g -> sum_j tau_j (g, tau_j), has that rank: it counts the dimensions of
    the level that M can see, and a level of rank 0 is no pole of M."""
    kp = dom.incidence / np.sqrt(dom.neighbor_counts)               # P K^(-1/2)
    cut = RESIDUE_TOL * dom.h ** -1.5 * np.sqrt(np.linalg.eigvalsh(kp.T @ kp)[-1])
    t = eig.traces * np.sqrt(dom.boundary_node_weights)[:, None]
    return [int(np.sum(np.linalg.svd(t[:, g[0]:g[-1] + 1], compute_uv=False) > cut))
            for g in eig.groups]                                    # contiguous groups


def eigenspace_via_tau(op: DirichletOperator, lam0: float, eig: EigenSystem) -> TauReport:
    """Compare traces of the oracle eigenvectors at lam0 with the residue range of M,
    on a contour of radius 0.45 x the gap to the nearest other level (or 0.45)."""
    dom = op.domain
    taus = eig.traces[:, np.abs(eig.values - lam0) <= eig.degeneracy_tol]
    if taus.shape[1] == 0:
        raise ValueError(f"{lam0} is not an oracle eigenvalue")

    gram = dom.boundary_inner(taus.T[:, None], taus.T[None])
    sv = np.linalg.svd(gram, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0

    others = eig.values[np.abs(eig.values - lam0) > eig.degeneracy_tol]
    gap = float(np.min(np.abs(others - lam0))) if others.size else 1.0
    res = residue_contour(op, lam0, _GAP_FRACTION * gap)

    w = np.sqrt(dom.boundary_node_weights)
    if res.rank and taus.shape[1]:
        angles = sla.subspace_angles(taus * w[:, None], _residue_range(dom, res) * w[:, None])
    else:
        angles = np.array([np.pi / 2])
    return TauReport(gram_singular_ratio=ratio, principal_angles=angles, residue=res)


# ---------------------------------------------------------------------------
# window stages: AC support, SC screen
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACSupportSet:
    grid: np.ndarray
    per_probe_closed: tuple           # GridSet per probe
    closed_union: GridSet             # AC-free if empty
    boundary_values: np.ndarray       # (n_probes, n_grid) complex
    diverging: np.ndarray             # (n_probes, n_grid) bool: Im(M g, g) -> -infinity
    y_limit_zero: np.ndarray          # (n_probes, n_grid) bool: eta (M g, g) -> 0


def grid_steps(window, step) -> float:
    """Whole steps that fit in the window (lo, hi): (hi - lo) / step floored, after a
    relative 1e-9 slack so that a rounding error in the quotient keeps the step to hi."""
    lo, hi = window
    return float(np.floor((hi - lo) / step * (1 + 1e-9)))


def window_grid(window, step):
    """Grid points lo + step*k from lo up to hi, k = 0 .. grid_steps(window, step)."""
    return window[0] + step * np.arange(int(grid_steps(window, step)) + 1)


def ac_support(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
               grid_step: float) -> ACSupportSet:
    """Grid sets where ac_flags accepts -Im(M(x+i0)g, g), closed and unioned; AC-free if empty."""
    xs = window_grid(window, grid_step)
    bvals = np.empty((len(probes), len(xs)), dtype=complex)
    div, yzero = np.empty((2, len(probes), len(xs)), dtype=bool)
    for sched, run in cfg.schedule_runs(xs):
        bv = boundary_value_M(op, xs[run], probes, sched)
        bvals[:, run], div[:, run], yzero[:, run] = bv.value, bv.diverging, bv.y_limit_zero
    flags = ac_flags(-bvals.imag, div)
    per_probe_closed = [essential_closure(GridSet.from_flags(xs, f)) for f in flags]
    union = GridSet.union(*per_probe_closed)   # of non-degenerate parts, so nothing to drop
    return ACSupportSet(
        grid=xs, per_probe_closed=tuple(per_probe_closed), closed_union=union,
        boundary_values=bvals, diverging=div, y_limit_zero=yzero,
    )


@dataclass(frozen=True)
class SCReport:
    flagged_set: GridSet              # ac_support's points diverging with y (M g, g) -> 0
    excluded: bool
    caveat: ClassVar[str] = (
        "singular continuous spectrum is excluded when the flagged set is at "
        "most countable; on a finite grid this is read as: no flagged run of "
        "positive length"
    )


def sc_screen(acs) -> SCReport:
    """Flag points where Im(Mg,g) -> -infinity while y(Mg,g) -> 0, from ac_support's
    result without evaluating M; a DtnLabError in its place is raised again."""
    acs = _result(acs)
    flagged = GridSet.from_flags(acs.grid, np.any(acs.diverging & acs.y_limit_zero, axis=0))
    return SCReport(flagged_set=flagged, excluded=essential_closure(flagged).is_empty)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurityVerdict:
    verdict: str
    offending_points: tuple = ()


def purity_filter(window, points, levels, acs, scr, cfg: ClassifyConfig) -> PurityVerdict:
    """NoSpectrum / PureAC / PureSC / Mixed-Unknown from a window's stage results,
    without evaluating M: (x, classify_point's verdict) per grid point, then the
    results of window_levels, ac_support and sc_screen.  A DtnLabError among
    them is raised again where the rule needs it: an inconclusive point that
    no level explains (none within pole_match_radius) makes the window
    inconclusive.  The levels in the window (in_window), and the points no
    level explains with a nonzero eta*M limit, give Mixed/Unknown (each level
    once); NoSpectrum needs every point no level explains resolvent, PureSC an
    AC-free window with a flagged SC run of positive length, PureAC no
    diverging run of positive length."""
    levels = _result(levels)
    offending = [level.pole for level in levels if in_window(window, level.pole)]
    resolvent = True
    for x, v in points:
        if _nearest_level(x, cfg, levels)[1] <= cfg.pole_match_radius:
            continue    # the level explains the point
        v = _result(v)
        if slim_nonzero(v.evidence["slim_rel"], v.evidence["decay_exponent"]).any():
            offending.append(float(x))
        resolvent &= v.verdict == RESOLVENT_SET
    if offending:
        distinct = []
        for v in sorted(offending):
            if not distinct or abs(v - distinct[-1]) > 1e-6 * max(1.0, abs(v)):
                distinct.append(v)
        return PurityVerdict(MIXED_UNKNOWN, tuple(distinct))

    if resolvent:
        return PurityVerdict(NO_SPECTRUM)
    acs, scr = _result(acs), _result(scr)
    if acs.closed_union.is_empty:
        # without AC spectrum, PureSC still needs a flagged run (finite
        # models have no SC spectrum)
        return PurityVerdict(MIXED_UNKNOWN if scr.excluded else PURE_SC)
    if essential_closure(GridSet.from_flags(acs.grid, np.any(acs.diverging, axis=0))).is_empty:
        return PurityVerdict(PURE_AC)
    return PurityVerdict(MIXED_UNKNOWN)
