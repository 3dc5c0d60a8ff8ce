"""Exception types shared across the library.

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


class NoFoldInBracketError(NumericsError):
    """The index has no fold: l = 1, where Lam = -1 is a root for every n."""


class NoRealEigenvalueError(NumericsError):
    """Requested an eigenvalue past its fold, where no real one exists."""
