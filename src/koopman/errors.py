"""Exception and warning types shared across the package.

Everything numerical raises a subclass of KoopmanError so the CLI can map
library failures to a single exit code while argument/config mistakes stay
distinguishable; every warning it issues is a KoopmanWarning, through `warn`.
"""

import warnings


class KoopmanError(Exception):
    """Base class for all package errors."""


class UsageError(KoopmanError):
    """Malformed arguments: wrong system kind, bad indices, empty input."""


class DivergenceError(KoopmanError):
    """Trajectory left the representable range (NaN/overflow) at a known step."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


class ObservableDomainError(KoopmanError):
    """An observable was evaluated outside its domain (e.g. r^-2 at r=0)."""

    def __init__(self, observable, step):
        self.observable = observable
        self.step = step
        super().__init__(f"observable {observable!r} undefined at sample {step}")


class DegenerateDictionaryError(KoopmanError):
    """Dictionary evaluations are (near) linearly dependent on the data."""

    def __init__(self, message, near_dependent=()):
        self.near_dependent = tuple(near_dependent)
        super().__init__(message)


class DefectiveMatrixError(KoopmanError):
    """Eigenmatrix too close to non-diagonalizable for eigenfunction extraction."""


class DegenerateFitError(KoopmanError):
    """Sparse regression eliminated every candidate term."""


class PreconditionError(KoopmanError):
    """A declared precondition failed (e.g. h o h_inv is not the identity)."""


class KoopmanWarning(RuntimeWarning):
    """A caveat on a result that exists: an ill-posed fit, an off-circle multiplier."""


def warn(message: str) -> None:
    """Issue message as a KoopmanWarning naming the line that called warn's caller."""
    warnings.warn(message, KoopmanWarning, stacklevel=3)
