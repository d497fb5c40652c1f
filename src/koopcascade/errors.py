"""Exception hierarchy for cascade construction, decomposition, and analysis."""

from __future__ import annotations


class CascadeError(Exception):
    """Base class for all library-specific failures."""


class NotDiagonalizableError(CascadeError):
    """Eigenvector basis is too ill-conditioned to trust (or residuals fail)."""

    def __init__(self, message: str, condition_number: float = float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class SingularMatrixError(CascadeError):
    """A layer matrix has an eigenvalue below the singularity tolerance."""


class DegenerateDrawError(CascadeError):
    """Random matrix/vector draw produced only zeros, repeatedly."""


class GenerationFailedError(CascadeError):
    """Random cascade generation exhausted its retry budget."""


class ResonantPairError(CascadeError):
    """Two layer eigenvalues coincide (or nearly), so the geometric-sum
    denominator 1 - mu/lam is not safely invertible."""


class ConditionsNotMetError(CascadeError):
    """Operation requires a cascade that passed condition validation."""


class DimensionMismatchError(CascadeError, ValueError):
    """State/layer dimensions do not match the system."""


class OrbitOverflowError(CascadeError):
    """Orbit norm exceeded the overflow budget (layer norms > 1 misuse)."""


class NewtonDivergenceError(CascadeError):
    """Scalar Newton inversion failed to converge (coefficients outside the
    bijection regime)."""


class NotPeripheralError(CascadeError):
    """Laplace averaging requested at a non-peripheral eigenvalue without
    deflation enabled."""


class DeflationIncompleteError(CascadeError):
    """Deflated Laplace average still contains a growing component."""
