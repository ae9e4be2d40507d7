"""Exception types shared across the package, and its integer-count check."""

import numbers


class CollideqError(Exception):
    """Base class for all package-specific errors."""


class InvalidSubsystem(CollideqError):
    """A subsystem label is unknown or repeated for the given register."""


class DimensionMismatch(CollideqError):
    """Operator or state dimensions are incompatible."""


class NotHermitian(CollideqError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotDiagonal(CollideqError):
    """A state required to be diagonal in the energy basis is not."""


class InvalidParameter(CollideqError):
    """A physical parameter is outside its admissible range."""


def _is_integer(x) -> bool:
    """An integer of any kind (``np.int64`` too), but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_count(name: str, value) -> None:
    """``InvalidParameter`` unless ``value`` is an integer of at least 1."""
    if not _is_integer(value):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidParameter(f"{name} must be at least 1")


class NonUniqueSteadyState(CollideqError):
    """The one-step channel has a degenerate peripheral spectrum.

    Carries the number of eigenvalues found on (or numerically at) the
    unit circle in ``multiplicity``.
    """

    def __init__(self, multiplicity: int):
        self.multiplicity = multiplicity
        super().__init__(
            f"channel has {multiplicity} eigenvalues of unit modulus; "
            "fixed point is not unique"
        )


class FixedPointError(CollideqError):
    """A computed fixed point failed its accuracy checks.

    Raised when the steady state's fixed-point residual exceeds its bound,
    when the bordered solve and power iteration disagree beyond the
    gap-scaled tolerance, or when power iteration loses the trace of its
    iterate or diverges.
    """


class NumericalPositivityError(CollideqError, ValueError):
    """A probability or state lost positivity, unit trace or finiteness.

    Raised when Born probabilities fall outside [0, 1], and by the density
    check on every state, computed or given: a matrix with a non-finite
    entry, a trace off 1 or an eigenvalue below -1e-10. So a steady state,
    a readout's marginal of it or a system state from ``evolve`` that fails
    the check raises it. It is also a ``ValueError``, as a bad input state is.
    """
