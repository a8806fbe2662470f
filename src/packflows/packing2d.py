"""Geometry of circle packing metrics: lengths, angles, curvatures, measures.

A metric is a plain array of positive radii, one per vertex. Curvatures come
back as plain vectors; classical angle defects are in radians, the rescaled
families carry units of radians per length^alpha.
"""

from collections import namedtuple

import numpy as np

from .errors import DegenerateTriangleError
from .mesh import euler_characteristic

# Tolerated excursion of an inner-angle cosine beyond [-1, 1]. Thurston's
# lemma rules out genuine degeneracy for weights in [0, pi/2], so anything
# past this margin is numeric corruption, not geometry.
COS_MARGIN = 1e-9


def check_metric(c, r):
    r = np.asarray(r, dtype=float)
    if r.shape != (c.vertex_count,):
        raise ValueError(f"metric has shape {r.shape}, expected ({c.vertex_count},)")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("radii must be positive and finite")
    return r


def edge_lengths(c, r):
    """l_ij = sqrt(r_i^2 + r_j^2 + 2 r_i r_j cos(phi_ij)) per edge."""
    r = check_metric(c, r)
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    return np.sqrt(r[i] ** 2 + r[j] ** 2 + 2.0 * r[i] * r[j] * c.cos_weights)


def _face_side_lengths(c, r):
    """Per face, the side opposite each of its three vertex columns."""
    return edge_lengths(c, r)[c.face_edge]


def _angles_from_sides(s):
    """Law of cosines per face; s[:, m] is the side opposite vertex column m."""
    out = np.empty_like(s)
    for m in range(3):
        b = s[:, (m + 1) % 3]
        cc = s[:, (m + 2) % 3]
        arg = (b * b + cc * cc - s[:, m] ** 2) / (2.0 * b * cc)
        bad = np.abs(arg) > 1.0 + COS_MARGIN
        if np.any(bad):
            raise DegenerateTriangleError(
                f"cosine argument {arg[bad][0]:.6g} outside [-1, 1] in face "
                f"row {int(np.nonzero(bad)[0][0])}")
        out[:, m] = np.arccos(np.clip(arg, -1.0, 1.0))
    return out


def inner_angles(c, r):
    """Inner angles as an (F, 3) array aligned with the columns of c.face_array."""
    return _angles_from_sides(_face_side_lengths(c, r))


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
    r = check_metric(c, r)
    return angle_defect(c, r) / r ** alpha


def total_measure(r, alpha=2.0):
    """Sum of r_i^alpha; by convention the vertex count when alpha = 0."""
    r = np.asarray(r, dtype=float)
    if alpha == 0.0:
        return float(len(r))
    return float(np.sum(r ** alpha))


CurvatureAverages = namedtuple("CurvatureAverages",
                               ["defect_avg", "scalar_avg", "alpha_avg"])


def average_curvature(c, r, alpha=2.0):
    """2 pi chi(M) / ||r||_alpha^alpha."""
    return 2.0 * np.pi * euler_characteristic(c) / total_measure(r, alpha)


def curvature_averages(c, r, alpha=2.0):
    """The three average curvatures (classical, alpha=2, and given alpha)."""
    gb = 2.0 * np.pi * euler_characteristic(c)
    return CurvatureAverages(gb / c.vertex_count,
                             gb / total_measure(r, 2.0),
                             gb / total_measure(r, alpha))
