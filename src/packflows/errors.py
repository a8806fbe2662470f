"""Exception types shared across the package."""


class PackflowsError(Exception):
    """Base class for all library errors."""


class InvalidComplexError(PackflowsError):
    """A complex failed structural validation.

    Carries the full violation report in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid complex: " + "; ".join(self.violations))


class DegenerateTriangleError(PackflowsError):
    """An inner-angle cosine left [-1, 1] by more than the roundoff margin.

    For weights in [0, pi/2] and positive radii this cannot happen for exact
    arithmetic, so it signals numeric corruption of the inputs.
    """


class DegenerateTetrahedronError(PackflowsError):
    """A tetrahedron cannot be realized in Euclidean space (Q factor <= 0)."""

    def __init__(self, message, tet_index=None):
        super().__init__(message)
        self.tet_index = tet_index


class NearDegenerateError(PackflowsError):
    """Metric too close to the admissibility boundary for the curvature
    Jacobian, whose entries grow like 1 / sqrt(Q r_min^2) toward it."""


class SpectralFailureError(PackflowsError):
    """The symmetric eigensolver failed or returned an inconsistent kernel."""


class QuadratureFailureError(PackflowsError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StepFailureError(PackflowsError):
    """The integrator could not take an acceptable step above the minimum size."""


class EnumerationTooLargeError(PackflowsError):
    """Subset enumeration past admissibility.SUBSET_ENUMERATION_CAP."""


class NoConvergenceError(PackflowsError):
    """A solver failed to reach the requested residual."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotApplicableError(PackflowsError):
    """No maximum-principle case applies to the given initial data."""
