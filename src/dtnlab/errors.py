"""Exception types shared across the package, and attempt, which keeps a stage's
DtnLabError as its result."""

__all__ = ["DtnLabError", "ConfigError", "DomainError", "NearSpectrum", "DegenerateParameters",
           "ContourTouchesSpectrum", "AtomHit", "EndpointOnEigenvalue", "Inconclusive", "attempt"]


class DtnLabError(Exception):
    """Base class for all errors raised by dtnlab."""


class ConfigError(DtnLabError):
    """Invalid run configuration."""


class DomainError(ConfigError):
    """Invalid domain geometry or mismatched shapes; reported as a configuration error."""


class NearSpectrum(DtnLabError):
    """The shifted operator A - z is numerically singular.

    Raised by the solver layer when the estimated distance from z to the
    spectrum falls below the conditioning threshold.  Detection is purely
    solver-side; the eigendecomposition oracle is never consulted.
    """

    def __init__(self, z, dist_estimate=None):
        self.z = z
        self.dist_estimate = dist_estimate
        msg = f"spectral parameter {z} is too close to the spectrum"
        if dist_estimate is not None:
            msg += f" (estimated distance {dist_estimate:.3e})"
        super().__init__(msg)


class DegenerateParameters(DtnLabError):
    """Parameter combination excluded by the identity hypotheses."""


class ContourTouchesSpectrum(DtnLabError):
    """A quadrature node of a residue contour hit the spectrum."""


class AtomHit(DtnLabError):
    """Borel transform evaluated at an atom of the measure."""


class EndpointOnEigenvalue(DtnLabError):
    """A spectral-projection interval endpoint sits on an eigenvalue."""


class Inconclusive(DtnLabError):
    """A boundary limit did not converge at the configured schedule."""


def attempt(stage, *args):
    """stage(*args), or the DtnLabError it raised in its place."""
    try:
        return stage(*args)
    except DtnLabError as exc:
        return exc
