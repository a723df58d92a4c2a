"""Poisson operator, Dirichlet-to-Neumann matrix, and the exact boundary-triple identities.

Everything here is a pure function of a DirichletOperator and complex spectral
parameters.  The discrete model is an exact boundary triple: the resolvent and
Weyl-type identities checked by :func:`identity_suite` hold to machine
precision, not just up to discretization error.

Conventions.  The outward normal of the domain points away from the interior
(toward -x in 1D, into the obstacle in 2D).  The discrete normal derivative at
a boundary node b with inward interior neighbors n is the one-sided quotient
averaged over neighbors::

    (d_nu u)_b = (1/k_b) * sum_n (u_b - u_n) / h

Boundary inner products carry the per-node weight k_b * h^(d-1); with that
weight the trace map is the exact weighted adjoint of the boundary injection,
so all adjoints below (gamma*, M*) are taken in the weighted sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DirichletOperator, DiscreteDomain
from .errors import DegenerateParameters, NearSpectrum

__all__ = [
    "IdentityReport",
    "poisson_solve",
    "poisson_matrix",
    "normal_derivative",
    "dtn_matrix",
    "dtn_matrices",
    "fill_certified",
    "boundary_adjoint",
    "identity_suite",
]

_TINY = 1e-300


def _relative_residual(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(np.linalg.norm(x), np.linalg.norm(y), _TINY)
    return float(np.linalg.norm(x - y) / scale)


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the four boundary-triple identities."""

    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def poisson_solve(op: DirichletOperator, lam: complex, g: np.ndarray) -> np.ndarray:
    """Solve (A_II - lam) u = B g for boundary data g."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (op.domain.n_boundary,):
        raise ValueError("boundary data has wrong length")
    rhs = op.b @ g
    return op.factorize(lam).solve(rhs)


def poisson_matrix(op: DirichletOperator, lam: complex) -> np.ndarray:
    """gamma(lam) = R(lam) B, shape (n_I, n_B): column b is the solution of
    (A_II - lam) u = B e_b."""
    return op.factorize(lam).solve(op.b)


def normal_derivative(dom: DiscreteDomain, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Discrete outward normal derivative of the field with trace g and interior values u;
    for matrices g and u, of the field of each column pair."""
    g = np.asarray(g, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if g.shape[:1] != (dom.n_boundary,):
        raise ValueError("boundary data has wrong length")
    if u.shape[:1] != (dom.n_interior,) or u.shape[1:] != g.shape[1:]:
        raise ValueError("interior field has wrong length")
    return g / dom.h - _trace_part(dom, u.reshape(dom.n_interior, -1)).reshape(g.shape)


def _trace_part(dom: DiscreteDomain, u_cols: np.ndarray) -> np.ndarray:
    """Apply (1/(k_b h)) P^T to interior columns (the u-part of the normal derivative):
    row b of P^T u sums the rows of u at b's interior neighbors, which
    ``boundary_neighbors`` lists boundary node by boundary node; every boundary
    node has at least one, so no segment of the reduceat is empty."""
    nbrs, counts = dom.boundary_neighbors, dom.neighbor_counts
    pu = np.add.reduceat(u_cols[nbrs[nbrs >= 0]], np.cumsum(counts) - counts)
    return pu / (counts[:, None] * dom.h)


def _dtn_from_gamma(op: DirichletOperator, gamma: np.ndarray) -> np.ndarray:
    return np.eye(op.domain.n_boundary, dtype=complex) / op.domain.h - _trace_part(op.domain, gamma)


def dtn_matrix(op: DirichletOperator, lam: complex) -> np.ndarray:
    """M(lam), shape (n_B, n_B), as a read-only array read from the operator's
    z -> M(z) table (``DirichletOperator.m_table``), which it fills first if
    it lacks lam's conjugate pair: by fill_certified at a certified lam, and
    from the LU (poisson_matrix) at the pair's lam with Im lam >= 0 otherwise.
    So each lam has one recipe, whichever function reaches it first.  A
    NearSpectrum enters no M, but the table keeps it: a later call at the
    same pair raises it again without a second factorization.
    """
    fill_certified(op, [lam])
    op.m_table.cached_many(
        [lam], lambda keys: [_dtn_from_gamma(op, poisson_matrix(op, z)) for z in keys])
    m = np.empty((op.domain.n_boundary,) * 2, dtype=complex)
    op.m_table.gather(lam, m)
    m.setflags(write=False)
    return m


def fill_certified(op: DirichletOperator, zs) -> None:
    """Enter M(z) in the M(z) table for every certified z of zs
    (``DirichletOperator.certified``) whose conjugate pair it lacks, all in one
    call: M(z) = I/h - diag(1/(k_b h^3)) P^T (A_II - z)^-1 P with the boundary
    block from ``DirichletOperator.trace_resolvent``, which does not fail
    there, formed at the pair's z with Im z >= 0 only.  Other z are skipped.
    A stage enters all the z it will evaluate at once, so that each call
    pays its fixed cost once.
    """
    dom = op.domain
    scale = 1.0 / (dom.neighbor_counts[:, None] * dom.h ** 3)

    def dtn(fresh):
        return np.eye(dom.n_boundary) / dom.h - scale * op.trace_resolvent(fresh)

    zs = np.asarray(zs, dtype=complex).ravel()
    op.m_table.cached_many(zs[op.certified(zs)], dtn)


def dtn_matrices(op: DirichletOperator, zs):
    """M(z) over a (rows, k) array of z whose rows are profiles, e.g. x + i*etas.

    Returns (m, lengths, failures): m[r, :lengths[r]] holds M(z) along row r,
    which stops at its first z where dtn_matrix raises NearSpectrum, and is
    zero past it; failures[r] is that exception, or None for a complete row.

    Every entry comes from the M(z) table, which is gathered at once
    (MTable.gather); when it lacks some z, fill_certified enters the certified
    ones and the table is gathered again.  Only the z left, uncertified ones,
    go one at a time to dtn_matrix and its LU, in row order, so NearSpectrum
    is raised where dtn_matrix raises it and no z past a row's cut is
    evaluated.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    n_b = op.domain.n_boundary
    m = np.zeros(zs.shape + (n_b, n_b), dtype=complex)
    hit = op.m_table.gather(zs, m)
    if not hit.all():
        fill_certified(op, zs[~hit])
        hit = op.m_table.gather(zs, m)
    missed = np.argwhere(~hit)
    lengths = np.full(len(zs), zs.shape[1])
    failures = [None] * len(zs)
    for r, k in missed.tolist():
        if failures[r] is None:
            try:
                m[r, k] = dtn_matrix(op, zs[r, k])
            except NearSpectrum as exc:
                failures[r], lengths[r] = exc, k
                m[r, k:] = 0
    return m, lengths, failures


def _factor_at(op: DirichletOperator, z: complex):
    """Factor A_II - z once: (solver, gamma(z), M(z)), M formed from that gamma."""
    solver = op.factorize(z)
    gamma = solver.solve(op.b)
    return solver, gamma, _dtn_from_gamma(op, gamma)


def _adjoint_from_gamma(op: DirichletOperator, gamma_bar: np.ndarray) -> np.ndarray:
    """Weighted adjoint gamma(lam)*: u -> -d_nu((A - conj(lam))^(-1) u) as a dense (n_B, n_I)
    matrix from gamma_bar = gamma(conj lam), <gamma(lam) g, u>_I = <g, gamma(lam)* u>_B exactly.

    A - conj(lam) is complex symmetric, so P^T R(conj lam) = (R(conj lam) P)^T,
    and R(conj lam) P = h^2 gamma(conj lam) because B = P / h^2.
    """
    h = op.domain.h
    return gamma_bar.T * (h / op.domain.neighbor_counts[:, None])


def boundary_adjoint(dom: DiscreteDomain, m: np.ndarray) -> np.ndarray:
    """Adjoint of a boundary matrix in the weighted boundary product."""
    w = dom.boundary_node_weights
    return (m.conj().T * w[None, :]) / w[:, None]


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def identity_suite(op: DirichletOperator, lam: complex, zeta: complex, nu: complex) -> IdentityReport:
    """Evaluate the four boundary-triple identities as matrices and report residuals.

    Checked, with R(z) = (A_II - z)^(-1) and all adjoints weighted:

    * the Poisson update  gamma(lam) = (I + (lam - zeta) R(lam)) gamma(zeta),
    * the Weyl difference (conj(zeta) - lam) gamma(zeta)* gamma(lam) = M(lam) - M(zeta)*,
    * the three-point resolvent identity for gamma(zeta)* R(lam) gamma(nu),
    * the Weyl representation of M(lam) around the reference point zeta.
    """
    lam, zeta, nu = complex(lam), complex(zeta), complex(nu)
    scale = max(abs(lam), abs(zeta), abs(nu), 1.0)
    for x, y, what in (
        (nu, np.conj(zeta), "nu = conj(zeta)"),
        (lam, nu, "lam = nu"),
        (lam, np.conj(zeta), "lam = conj(zeta)"),
    ):
        if abs(x - y) <= 1e-12 * scale:
            raise DegenerateParameters(f"excluded parameter combination: {what}")

    # one factorization per distinct z, and none at conj(zeta): A_II and B are
    # real, so gamma(conj z) = conj gamma(z) and M(conj z) = conj M(z); only
    # the solver at lam is kept
    zbar = np.conj(zeta)
    solver_lam, gamma_lam, m_lam = _factor_at(op, lam)
    poisson = {lam: (gamma_lam, m_lam)}
    for z in (zeta, nu):
        if z not in poisson:
            poisson[z] = _factor_at(op, z)[1:]
    (gamma_zeta, m_zeta), (gamma_nu, m_nu) = poisson[zeta], poisson[nu]
    m_zeta_bar = m_zeta.conj()
    gz_star = _adjoint_from_gamma(op, gamma_zeta.conj())
    m_zeta_star = boundary_adjoint(op.domain, m_zeta)
    r_gamma_zeta = solver_lam.solve(gamma_zeta)

    residuals = {}

    # gamma(lam) = (I + (lam - zeta) R(lam)) gamma(zeta)
    rhs = gamma_zeta + (lam - zeta) * r_gamma_zeta
    residuals["poisson_update"] = _relative_residual(gamma_lam, rhs)

    # (conj(zeta) - lam) gamma(zeta)* gamma(lam) = M(lam) - M(zeta)*
    lhs = (zbar - lam) * (gz_star @ gamma_lam)
    residuals["weyl_difference"] = _relative_residual(lhs, m_lam - m_zeta_star)

    # three-point identity at z = lam
    lhs3 = gz_star @ solver_lam.solve(gamma_nu)
    rhs3 = (
        m_lam / ((lam - nu) * (zbar - lam))
        + m_zeta_bar / ((lam - zbar) * (zbar - nu))
        - m_nu / ((lam - nu) * (zbar - nu))
    )
    residuals["three_point"] = _relative_residual(lhs3, rhs3)

    # Weyl representation around zeta
    re_m_zeta = 0.5 * (m_zeta + m_zeta_star)
    inner = (lam - zeta.real) * gamma_zeta + (lam - zeta) * (lam - zbar) * r_gamma_zeta
    rhs_w = re_m_zeta - gz_star @ inner
    residuals["weyl_representation"] = _relative_residual(m_lam, rhs_w)

    return IdentityReport(residuals=residuals)
