"""Geometry of circle packing metrics: lengths, angles, curvatures, measures.

A metric is a plain array of positive radii, one per vertex. Curvatures come
back as plain vectors; classical angle defects are in radians, the rescaled
families carry units of radians per length^alpha. Public functions check
their radii (check_metric); the flows, Newton and the operators call _angles
on checked radii, which raises DegenerateTriangleError for a NaN or
out-of-range cosine.

_angles is one vectorised pass per point: the squared sides L of every face,
then the law of cosines over all three corners at once. It returns L with
the angles, so the edge weights of operators2d share the squared sides
instead of forming them again.
"""

import numbers
from collections import namedtuple

import numpy as np

from .errors import DegenerateTriangleError
from .mesh import _check_complex

# Tolerated excursion of an inner-angle cosine beyond [-1, 1]. Thurston's
# lemma rules out genuine degeneracy for weights in [0, pi/2], so anything
# past this margin is numeric corruption, not geometry.
COS_MARGIN = 1e-9

# columns of the two other vertices of face column m, the ends of the side
# m opposite vertex m
_P = np.array([1, 2, 0])
_Q = np.array([2, 0, 1])


def check_metric(c, r, dim=2):
    """r, checked to be positive finite radii of c, a valid dim-complex."""
    _check_complex(c, dim)
    r = np.asarray(r, dtype=float)
    if r.shape != (c.vertex_count,):
        raise ValueError(f"metric has shape {r.shape}, expected ({c.vertex_count},)")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("radii must be positive and finite")
    return r


def _check_positive_int(name, value):
    """Raise ValueError unless value is an integer (not a bool) >= 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def edge_lengths(c, r):
    """l_ij = sqrt(r_i^2 + r_j^2 + 2 r_i r_j cos(phi_ij)) per edge."""
    return np.sqrt(_squared_lengths(c, check_metric(c, r)))


def _squared_lengths(c, r):
    """l_ij^2 per edge, of radii r that passed check_metric."""
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    return r[i] ** 2 + r[j] ** 2 + 2.0 * r[i] * r[j] * c.cos_weights


@np.errstate(all="ignore")
def _angles(c, r):
    """(theta, L) of radii r that passed check_metric: the inner angles as
    an (F, 3) array aligned with the columns of c.face_array, and the
    squared sides, L[:, m] the square of the side opposite column m."""
    L = _squared_lengths(c, r)[c.face_edge]
    return _angles_from_sides(np.sqrt(L)), L


def _angles_from_sides(s):
    """Law of cosines on all three corners of every face at once; s[:, m]
    is the side opposite vertex column m. A NaN or out-of-range cosine
    raises DegenerateTriangleError naming the first column with a bad row
    and that column's first bad row."""
    b, cc = s[:, _P], s[:, _Q]
    arg = (b * b + cc * cc - s ** 2) / (2.0 * b * cc)
    ok = np.abs(arg) <= 1.0 + COS_MARGIN  # False for NaN
    if not ok.all():
        col = int(np.argmin(ok.all(axis=0)))
        row = int(np.argmin(ok[:, col]))
        raise DegenerateTriangleError(
            f"cosine argument {arg[row, col]:.6g} outside [-1, 1] in face "
            f"row {row}")
    return np.arccos(np.clip(arg, -1.0, 1.0))


def inner_angles(c, r):
    """Inner angles as an (F, 3) array aligned with the columns of c.face_array."""
    return _angles(c, check_metric(c, r))[0]


def angle_defect(c, r):
    """Classical discrete curvature: 2 pi minus the sum of angles at each vertex."""
    return _defect_from_angles(c, inner_angles(c, r))


def _defect_from_angles(c, theta):
    """The angle defects from the inner angles of inner_angles(c, r)."""
    K = np.full(c.vertex_count, 2.0 * np.pi)
    np.subtract.at(K, c.face_array.ravel(), theta.ravel())
    return K


def curvature(c, r, alpha=2.0):
    """Angle defect divided by r^alpha.

    alpha=0 recovers the classical defect, alpha=2 the rescaled curvature
    that transforms like smooth Gauss curvature under scaling.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    r = check_metric(c, r)
    return _defect_from_angles(c, _angles(c, r)[0]) / r ** alpha


def total_measure(r, alpha=2.0):
    """Sum of r_i^alpha; by convention the vertex count when alpha = 0. A
    numpy float, so a sum that underflows to 0 divides to inf, not to a
    ZeroDivisionError."""
    r = np.asarray(r, dtype=float)
    if alpha == 0.0:
        return float(len(r))
    return np.sum(r ** alpha)


CurvatureAverages = namedtuple("CurvatureAverages",
                               ["defect_avg", "scalar_avg", "alpha_avg"])


def average_curvature(c, r, alpha=2.0):
    """2 pi chi(M) / ||r||_alpha^alpha."""
    return _average_curvature(c, check_metric(c, r), alpha)


def _average_curvature(c, r, alpha):
    """average_curvature of a checked surface complex."""
    return 2.0 * np.pi * c.chi / total_measure(r, alpha)


def curvature_averages(c, r, alpha=2.0):
    """The three average curvatures (classical, alpha=2, and given alpha)."""
    r = check_metric(c, r)
    gb = 2.0 * np.pi * c.chi
    return CurvatureAverages(gb / c.vertex_count,
                             gb / total_measure(r, 2.0),
                             gb / total_measure(r, alpha))
