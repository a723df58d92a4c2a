"""Spectral verdicts from boundary limits of M: point classification, eigenspace
recovery through the normal-derivative trace, AC support sets and the SC screen.

Grid sets are finite unions of closed intervals with endpoints on the sampling
grid; the essential (absolutely continuous) closure is computed exactly on
those unions.  All thresholds are scale-free and configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .domain import DirichletOperator, EigenSystem
from .dtn import normal_derivative
from .errors import Inconclusive, NearSpectrum
from .limits import (
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
    "classify_point",
    "refine_pole",
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
    def empty() -> "GridSet":
        return GridSet(intervals=())

    @staticmethod
    def from_flags(xs, flags) -> "GridSet":
        """Runs of consecutive flagged grid points become closed intervals."""
        xs = np.asarray(xs, dtype=float)
        flags = np.asarray(flags, dtype=bool)
        intervals = []
        i = 0
        while i < len(xs):
            if flags[i]:
                j = i
                while j + 1 < len(xs) and flags[j + 1]:
                    j += 1
                intervals.append((float(xs[i]), float(xs[j])))
                i = j + 1
            else:
                i += 1
        return GridSet(intervals=tuple(intervals))

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
    floor_mode: str = "none"          # none | constant | halfline_auto
    floor_const: float = 0.0
    floor_factor: float = 5.0         # multiples of the local level spacing
    halfline_length: float = 0.0      # L, needed for halfline_auto

    tau_eig_rel: float = 1e-6
    tau_ac: float = 1e-6
    null_fraction: float = 0.01
    slim_decay_cut: float = 0.5       # decay exponent below which the limit is nonzero

    window_half_width: float = 0.1
    n_window: int = 17
    fit_degree: int = 10
    fit_tol: float = 1e-5

    pole_match_radius: float = 0.1
    newton_tol: float = 1e-11
    newton_maxiter: int = 60
    residue_rho: float = 0.25
    residue_nodes: int = 32

    def level_spacing(self, x: float) -> float:
        if self.floor_mode == "halfline_auto":
            if x <= 0 or self.halfline_length <= 0:
                return 0.0
            return 2 * np.pi * np.sqrt(x) / self.halfline_length
        return 0.0

    def schedule(self, x: float) -> EtaSchedule:
        if self.floor_mode == "constant":
            floor = self.floor_const
        elif self.floor_mode == "halfline_auto":
            floor = self.floor_factor * self.level_spacing(x)
        else:
            floor = 0.0
        if floor >= self.eta0:
            floor = 0.9 * self.eta0
        return EtaSchedule(self.eta0, self.eta_ratio, self.eta_count, floor=floor)


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

def _quadratic_form_terms(op: DirichletOperator, g: np.ndarray):
    """Constant part and injected vector of z -> (M(z) g, g)_B."""
    dom = op.domain
    v = op.incidence @ g
    const = dom.boundary_inner(g, g) / dom.h
    scale = dom.h ** (dom.dimension - 4)
    return const, v, scale


def refine_pole(op: DirichletOperator, x: float, g: np.ndarray,
                eta_start: float, tol: float = 1e-11, maxiter: int = 60):
    """Newton iteration on 1/(M(z) g, g) from x + i*eta_start; None on failure.

    Near a simple real pole the reciprocal of the quadratic form is an analytic
    function with a simple zero, so the iteration converges quadratically.
    """
    const, v, scale = _quadratic_form_terms(op, g)
    z = complex(x, eta_start)
    ref = max(abs(x), 1.0)
    for _ in range(maxiter):
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
        if abs(step) <= tol * max(abs(z), ref):
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
    tau_range: np.ndarray | None = None
    evidence: dict = field(default_factory=dict)


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

    slim_rels, slopes, flagged = [], [], []
    best = (-1.0, None)
    partial = False
    for g in probes:
        est = slim_eta_M(op, x, g, sched)
        partial = partial or est.meta.get("partial", False)
        rel = est.meta["relative"]
        slim_rels.append(float(rel))
        slopes.append(est.decay_exponent)
        flag = rel > cfg.tau_eig_rel and (
            est.decay_exponent is None or est.decay_exponent < cfg.slim_decay_cut
        )
        flagged.append(flag)
        if flag and rel > best[0]:
            best = (rel, g)

    evidence = {
        "slim_rel": slim_rels,
        "decay_exponent": slopes,
        "tau_eig_rel": cfg.tau_eig_rel,
        "eta0": sched.eta0,
        "floored": sched.floored,
    }

    if any(flagged):
        g = best[1]
        lam0 = refine_pole(op, x, g, eta_start=sched.eta0 / 4,
                           tol=cfg.newton_tol, maxiter=cfg.newton_maxiter)
        if lam0 is None:
            raise Inconclusive(f"eta*M limit nonzero at x={x} but pole refinement failed")
        evidence["refined_lambda"] = lam0
        if abs(lam0 - x) <= cfg.pole_match_radius:
            res = residue_contour(op, lam0, cfg.residue_rho, cfg.residue_nodes)
            basis, rank = _weighted_column_basis(dom, res.r)
            return PointVerdict(
                x=x, verdict=EIGENVALUE, refined_lambda=lam0,
                multiplicity=rank, residue=res, tau_range=basis, evidence=evidence,
            )
        # a pole exists nearby but not at this grid point; fall through

    if partial:
        raise Inconclusive(f"solver failures along the eta schedule at x={x}")

    # analytic continuation through *some* real neighborhood suffices, so the
    # window shrinks when a nearby (but non-matching) pole spoils the first try
    for shrink in (1.0, 4.0, 16.0):
        ana = analyticity_test(
            op, x, cfg.window_half_width / shrink, probes, sched,
            n_window=cfg.n_window, fit_degree=cfg.fit_degree,
            slim_rel_tol=cfg.tau_eig_rel, im_rel_tol=cfg.tau_ac, fit_tol=cfg.fit_tol,
        )
        evidence["analyticity"] = ana
        if ana.ok:
            return PointVerdict(x=x, verdict=RESOLVENT_SET, evidence=evidence)
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


def eigenspace_via_tau(op: DirichletOperator, lam0: float, eig: EigenSystem,
                       rho: float | None = None, n_nodes: int = 64) -> TauReport:
    """Compare traces of the oracle eigenvectors at lam0 with the residue range of M."""
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

    if rho is None:
        others = eig.values[np.abs(eig.values - lam0) > eig.degeneracy_tol]
        gap = float(np.min(np.abs(others - lam0))) if others.size else 1.0
        rho = 0.45 * gap
    res = residue_contour(op, lam0, rho, n_nodes)
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
# AC support and SC screen
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACSupportSet:
    window: tuple
    grid: np.ndarray
    per_probe: tuple                  # GridSet per probe, before closure
    per_probe_closed: tuple
    closed_union: GridSet
    ac_free: bool
    boundary_values: np.ndarray       # (n_probes, n_grid) complex


def _window_grid(window, step):
    a, b = window
    n = int(round((b - a) / step))
    return a + step * np.arange(n + 1)


def ac_support(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
               grid_step: float) -> ACSupportSet:
    """Grid sets where 0 < -Im(M(x+i0)g, g) < infinity, essentially closed and unioned."""
    xs = _window_grid(window, grid_step)
    bvals = np.empty((len(probes), len(xs)), dtype=complex)
    per_probe, per_probe_closed = [], []
    for i, g in enumerate(probes):
        flags = np.zeros(len(xs), dtype=bool)
        for j, x in enumerate(xs):
            est = boundary_value_M(op, x, g, cfg.schedule(x))
            bvals[i, j] = complex(est.value)
            neg_im = -bvals[i, j].imag
            flags[j] = cfg.tau_ac < neg_im < 1.0 / cfg.tau_ac
        raw = GridSet.from_flags(xs, flags)
        per_probe.append(raw)
        per_probe_closed.append(essential_closure(raw))
    union = essential_closure(GridSet.union(*per_probe_closed)) if per_probe_closed \
        else GridSet.empty()
    nonzero_im = np.abs(bvals.imag) > cfg.tau_ac
    frac = float(np.mean(np.any(nonzero_im, axis=0))) if len(xs) else 0.0
    return ACSupportSet(
        window=tuple(window), grid=xs, per_probe=tuple(per_probe),
        per_probe_closed=tuple(per_probe_closed), closed_union=union,
        ac_free=frac <= cfg.null_fraction, boundary_values=bvals,
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
    xs = _window_grid(window, grid_step)
    div = np.zeros((len(probes), len(xs)), dtype=bool)
    yzero = np.zeros((len(probes), len(xs)), dtype=bool)
    for i, g in enumerate(probes):
        for j, x in enumerate(xs):
            sched = cfg.schedule(x)
            bv = boundary_value_M(op, x, g, sched)
            div[i, j] = bv.diverging
            etas = np.array([eta for eta, _ in bv.samples])
            yq = np.array([eta * q for eta, q in bv.samples])
            mask = np.abs(yq) > 1e-290
            if mask.sum() >= 2:
                slope = np.polyfit(np.log(etas[mask]), np.log(np.abs(yq[mask])), 1)[0]
                yzero[i, j] = slope >= cfg.slim_decay_cut
            else:
                yzero[i, j] = True
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
    evidence: dict = field(default_factory=dict)


def purity_filter(op: DirichletOperator, window, probes, cfg: ClassifyConfig,
                  grid_step: float) -> PurityVerdict:
    """Classify a window as NoSpectrum / PureAC / PureSC / Mixed-Unknown.

    The hypothesis that eta*M -> 0 across the window is checked first; points
    violating it force Mixed/Unknown.  On unfloored schedules (genuine finite
    models) a Newton pole scan from every grid point backs this up, so an
    eigenvalue strictly inside the window is caught even when no grid point
    lands on it.
    """
    xs = _window_grid(window, grid_step)
    lo, hi = float(window[0]), float(window[1])

    offending = []
    if not cfg.schedule(xs[0]).floored:
        for x in xs:
            for g in probes:
                lam0 = refine_pole(op, x, g, eta_start=cfg.eta0 / 4,
                                   tol=cfg.newton_tol, maxiter=cfg.newton_maxiter)
                if lam0 is not None and lo < lam0 < hi:
                    offending.append(float(lam0))
    im_nonzero = np.zeros(len(xs), dtype=bool)
    diverging = np.zeros(len(xs), dtype=bool)
    for j, x in enumerate(xs):
        sched = cfg.schedule(x)
        for g in probes:
            est = slim_eta_M(op, x, g, sched)
            rel = est.meta["relative"]
            nonzero = rel > cfg.tau_eig_rel and (
                est.decay_exponent is None or est.decay_exponent < cfg.slim_decay_cut
            )
            if nonzero:
                offending.append(float(x))
            bv = boundary_value_M(op, x, g, sched)
            if abs(complex(bv.value).imag) > cfg.tau_ac:
                im_nonzero[j] = True
            if bv.diverging:
                diverging[j] = True
    if offending:
        distinct = []
        for v in sorted(offending):
            if not distinct or abs(v - distinct[-1]) > 1e-6 * max(1.0, abs(v)):
                distinct.append(v)
        return PurityVerdict(window=tuple(window), verdict=MIXED_UNKNOWN,
                             offending_points=tuple(distinct))

    analytic_everywhere = True
    for x in xs:
        ana = analyticity_test(
            op, x, cfg.window_half_width, probes, cfg.schedule(x),
            n_window=cfg.n_window, fit_degree=cfg.fit_degree,
            slim_rel_tol=cfg.tau_eig_rel, im_rel_tol=cfg.tau_ac, fit_tol=cfg.fit_tol,
        )
        if not ana.ok:
            analytic_everywhere = False
            break
    evidence = {
        "im_nonzero_fraction": float(np.mean(im_nonzero)) if len(xs) else 0.0,
        "diverging_fraction": float(np.mean(diverging)) if len(xs) else 0.0,
    }
    if analytic_everywhere:
        return PurityVerdict(tuple(window), NO_SPECTRUM, evidence=evidence)
    if evidence["im_nonzero_fraction"] <= cfg.null_fraction:
        return PurityVerdict(tuple(window), PURE_SC, evidence=evidence)
    if essential_closure(GridSet.from_flags(xs, diverging)).is_empty:
        return PurityVerdict(tuple(window), PURE_AC, evidence=evidence)
    return PurityVerdict(tuple(window), MIXED_UNKNOWN, evidence=evidence)
