"""Exception types shared across the library.

ValueError is reserved for violated preconditions (bad arguments); the
classes below mark genuine numerical failures so the CLI can map them to
a dedicated exit code.
"""


class NumericsError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class RootFindingError(NumericsError):
    """Polynomial root extraction did not converge to residual tolerance."""


class QuasilinearDegeneracyError(NumericsError):
    """The coefficient multiplying the second derivative approached zero;
    ``index`` locates it in an array evaluation, ``theta`` names the initial
    angle of its trajectory in a batched scan."""

    def __init__(self, z, coeff, index=0, theta=None):
        on = "" if theta is None else f" on the trajectory from theta={theta!r}"
        super().__init__(f"quasilinear degeneracy at z={z!r} (coefficient {coeff!r}){on}")
        self.z, self.coeff, self.index, self.theta = z, coeff, index, theta


class GradientDegeneracyError(NumericsError):
    """The gradient-squared denominator vanished at an evaluation point."""


class NoFoldInBracketError(NumericsError):
    """No change in the real-root count was detected inside the bracket."""


class DegenerateSeedError(NumericsError):
    """The seed eigenvalue is not a simple root, so no branch slope exists."""


class NoRealEigenvalueError(NumericsError):
    """Requested an eigenvalue past its fold, where no real one exists."""
