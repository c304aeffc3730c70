"""Exception types raised across the package."""


class ZrsError(Exception):
    """Base class for all package-specific errors."""


class NotRepresentable(ZrsError):
    """Coefficient quadruple admits no boundary matrix (normalization vanishes)."""


class AtPole(ZrsError):
    """S-matrix evaluation requested at (or too close to) a pole."""


class InternalInconsistency(ZrsError):
    """Two independent certificates that must agree do not."""


class DegenerateGamma(ZrsError):
    """Real and imaginary parts of the interaction vector are collinear."""


class NotApplicable(ZrsError):
    """Requested construction is outside its applicability conditions."""


class NonConvergent(ZrsError):
    """Numerical transform failed to converge on the truncated domain."""


class AtEigenvalue(ZrsError):
    """Resolvent evaluation requested at a point of the discrete spectrum."""
