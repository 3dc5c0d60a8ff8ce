"""Exception types shared across the library, and its one index check.

ValueError is reserved for violated preconditions (bad arguments); the
classes below mark genuine numerical failures so the CLI can map them to
a dedicated exit code.
"""


class NumericsError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class RootFindingError(NumericsError):
    """A bracketed Newton solve for a polynomial root did not converge."""


class QuasilinearDegeneracyError(NumericsError):
    """The gradient (Psi', lam Psi + z Psi') vanishes, so the tip equation
    does not determine Psi''."""

    def __init__(self, z):
        super().__init__(f"quasilinear degeneracy at z={z!r}: the gradient vanishes")
        self.z = z


class NoRealEigenvalueError(NumericsError):
    """Requested an eigenvalue past its fold, where no real one exists."""


def _check_index(value, least: int = 1, name: str = "l") -> None:
    """The one index rule: an int of at least ``least``, so that a float
    (2.0 included) or a numpy integer raises ValueError naming ``name``."""
    if not (isinstance(value, int) and value >= least):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
