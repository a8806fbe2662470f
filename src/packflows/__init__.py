"""Discrete curvature and curvature flows for circle and sphere packing
metrics on triangulated surfaces and 3-manifolds."""

from . import admissibility, data, flows2d, mesh, operators2d, packing2d, packing3d
from .errors import (DegenerateTetrahedronError, DegenerateTriangleError,
                     EnumerationTooLargeError, InvalidComplexError,
                     NearDegenerateError, NoConvergenceError,
                     NotApplicableError, PackflowsError,
                     SpectralFailureError, StepFailureError)
from .flows2d import FlowSpec, FlowTrace
from .mesh import Manifold3Complex, Surface2Complex

__version__ = "0.1.0"

__all__ = [
    "admissibility", "data", "flows2d", "mesh", "operators2d", "packing2d",
    "packing3d", "Surface2Complex", "Manifold3Complex", "FlowSpec",
    "FlowTrace", "PackflowsError", "InvalidComplexError",
    "DegenerateTriangleError", "DegenerateTetrahedronError",
    "NearDegenerateError", "SpectralFailureError", "StepFailureError",
    "EnumerationTooLargeError", "NoConvergenceError", "NotApplicableError",
]
