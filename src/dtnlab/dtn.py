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
from .errors import DegenerateParameters, SingularRobinPencil

__all__ = [
    "PoissonMatrix",
    "DtnMatrix",
    "RobinMap",
    "IdentityReport",
    "poisson_solve",
    "poisson_matrix",
    "normal_derivative",
    "dtn_matrix",
    "gamma_adjoint",
    "boundary_adjoint",
    "identity_suite",
    "robin_to_dirichlet",
]

_TINY = 1e-300


def _relative_residual(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(np.linalg.norm(x), np.linalg.norm(y), _TINY)
    return float(np.linalg.norm(x - y) / scale)


@dataclass(frozen=True)
class PoissonMatrix:
    """Columns are the boundary-basis solutions of (A_II - lam) u = B g."""

    lam: complex
    gamma: np.ndarray  # (n_I, n_B)


@dataclass(frozen=True)
class DtnMatrix:
    """Dense boundary matrix realizing the DtN map at lam."""

    lam: complex
    m: np.ndarray      # (n_B, n_B)
    convention: str = "one-sided outward quotient, neighbor-averaged"


@dataclass(frozen=True)
class RobinMap:
    """Robin-to-Dirichlet map (Theta - M(lam))^(-1)."""

    lam: complex
    theta: np.ndarray
    m_theta: np.ndarray


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the four boundary-triple identities."""

    lam: complex
    zeta: complex
    nu: complex
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


def _poisson_columns(op: DirichletOperator, solver) -> np.ndarray:
    """gamma = R(z) B for the z that solver has factored."""
    return solver.solve(op.cached("B", lambda: op.b.toarray().astype(complex)))


def poisson_matrix(op: DirichletOperator, lam: complex) -> PoissonMatrix:
    return PoissonMatrix(lam=complex(lam), gamma=_poisson_columns(op, op.factorize(lam)))


def normal_derivative(dom: DiscreteDomain, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Discrete outward normal derivative of the field with trace g and interior values u."""
    g = np.asarray(g, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if g.shape != (dom.n_boundary,):
        raise ValueError("boundary data has wrong length")
    if u.shape != (dom.n_interior,):
        raise ValueError("interior field has wrong length")
    out = np.empty(dom.n_boundary, dtype=complex)
    for b, nbrs in enumerate(dom.boundary_adjacency):
        out[b] = (len(nbrs) * g[b] - sum(u[i] for i in nbrs)) / (len(nbrs) * dom.h)
    return out


def _trace_part(op: DirichletOperator, u_cols: np.ndarray) -> np.ndarray:
    """Apply (1/(k_b h)) P^T to interior columns (the u-part of the normal derivative)."""
    k = op.domain.neighbor_counts
    return (op.incidence.T @ u_cols) / (k[:, None] * op.domain.h)


def _dtn_from_gamma(op: DirichletOperator, gamma: np.ndarray) -> np.ndarray:
    return np.eye(op.domain.n_boundary, dtype=complex) / op.domain.h - _trace_part(op, gamma)


def dtn_matrix(op: DirichletOperator, lam: complex) -> DtnMatrix:
    """M(lam) columnwise from boundary-basis Poisson solutions.

    The operator keeps a z -> M(z) table: a repeated lam gets the stored,
    read-only array, and NearSpectrum is raised again on every call.
    """
    lam = complex(lam)
    m = op.cached(lam, lambda: _dtn_from_gamma(op, poisson_matrix(op, lam).gamma))
    return DtnMatrix(lam=lam, m=m)


def _factor_at(op: DirichletOperator, z: complex):
    """Factor A_II - z once: (solver, gamma(z), M(z)), filling the M(z) table at z."""
    solver = op.factorize(z)
    gamma = _poisson_columns(op, solver)
    return solver, gamma, op.cached(complex(z), lambda: _dtn_from_gamma(op, gamma))


def _adjoint_from_gamma(op: DirichletOperator, gamma_bar: np.ndarray) -> np.ndarray:
    """gamma_adjoint(lam) from gamma_bar = gamma(conj lam).

    A - conj(lam) is complex symmetric, so P^T R(conj lam) = (R(conj lam) P)^T,
    and R(conj lam) P = h^2 gamma(conj lam) because B = P / h^2.
    """
    h = op.domain.h
    return gamma_bar.T * (h / op.domain.neighbor_counts[:, None])


def gamma_adjoint(op: DirichletOperator, lam: complex) -> np.ndarray:
    """Weighted adjoint of the Poisson matrix: u -> -d_nu((A - conj(lam))^(-1) u).

    Returned as a dense (n_B, n_I) matrix satisfying
    <gamma(lam) g, u>_I = <g, gamma_adjoint(lam) u>_B exactly.
    """
    return _adjoint_from_gamma(op, poisson_matrix(op, np.conj(lam)).gamma)


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

    # one factorization per distinct z
    zbar = np.conj(zeta)
    solver_lam, gamma_lam, m_lam = _factor_at(op, lam)
    _, gamma_zeta, m_zeta = _factor_at(op, zeta)
    _, gamma_zeta_bar, m_zeta_bar = _factor_at(op, zbar)
    _, gamma_nu, m_nu = _factor_at(op, nu)
    gz_star = _adjoint_from_gamma(op, gamma_zeta_bar)
    m_zeta_star = boundary_adjoint(op.domain, m_zeta)

    residuals = {}

    # gamma(lam) = (I + (lam - zeta) R(lam)) gamma(zeta)
    rhs = gamma_zeta + (lam - zeta) * solver_lam.solve(gamma_zeta)
    residuals["poisson_update"] = _relative_residual(gamma_lam, rhs)

    # (conj(zeta) - lam) gamma(zeta)* gamma(lam) = M(lam) - M(zeta)*
    lhs = (np.conj(zeta) - lam) * (gz_star @ gamma_lam)
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
    inner = (lam - zeta.real) * gamma_zeta \
        + (lam - zeta) * (lam - np.conj(zeta)) * solver_lam.solve(gamma_zeta)
    rhs_w = re_m_zeta - gz_star @ inner
    residuals["weyl_representation"] = _relative_residual(m_lam, rhs_w)

    return IdentityReport(lam=lam, zeta=zeta, nu=nu, residuals=residuals)


# ---------------------------------------------------------------------------
# Robin-to-Dirichlet map
# ---------------------------------------------------------------------------

def robin_to_dirichlet(op: DirichletOperator, lam: complex, theta: np.ndarray) -> RobinMap:
    """Invert the Robin pencil Theta - M(lam)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    n_b = op.domain.n_boundary
    if theta.shape != (n_b, n_b):
        raise ValueError("Theta has wrong shape")
    if not np.allclose(theta, theta.T, atol=1e-12 * max(1.0, np.abs(theta).max())):
        raise ValueError("Theta must be real symmetric")
    m = dtn_matrix(op, lam).m
    pencil = theta - m
    sv = np.linalg.svd(pencil, compute_uv=False)
    scale = max(np.abs(theta).max(), np.abs(m).max(), _TINY)
    if sv[-1] <= 1e-12 * scale:
        raise SingularRobinPencil(f"Theta - M({lam}) is numerically singular")
    return RobinMap(lam=complex(lam), theta=theta, m_theta=np.linalg.inv(pencil))
