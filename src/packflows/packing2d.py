"""Geometry of circle packing metrics: lengths, angles, curvatures, measures.

A metric is a plain array of positive radii, one per vertex. Curvatures come
back as plain vectors; classical angle defects are in radians, the rescaled
families carry units of radians per length^alpha. Public functions check
their input once (_checked); the flows, Newton and the operators call
_point and _angles on checked radii, and _angles raises
DegenerateTriangleError for an incircle radius past the normal doubles or
a NaN or out-of-range cosine.

_angles takes one of two formulas, chosen by the complex: c.tangent, set
at construction when every edge weight is 0, so that adjacent circles
touch. On a tangent surface the three circles of a face, at its corners
i, j, k gathered through the (5, F) table face_corners, have an incircle
of radius rho = sqrt(r_i r_j r_k / (r_i + r_j + r_k)), and each inner
angle is theta_i = 2 atan(rho / r_i) (Chow and Luo, J. Differential Geom.
63 (2003)): no side is formed, no cosine saturates, and with rho formed
from the roots of the sorted radii of the face, whose factors stay normal
doubles, the angles are exact to rounding at any ratio of the radii
(_incircle_angles). On a weighted surface (any
weight > 0) _angles works at edge level: the squared length L of every
edge, from its ends gathered through the complex's (2, E) table
edge_ends, and one square root per edge; then one gather of the sides of
every face through the (5, F) table face_sides, and the law of cosines
over all three corners at once on its row slices 0:3, 1:4 and 2:5. Each
square of a side is the square of its edge, the same double in every face
that has it. Either way the angles come back face-ordered, (F, 3), so the
defect sums them in face order, together with the triangle sizes that
operators2d._edge_weights reads: the incircle radii rho (F,) of a tangent
surface, the squared edge lengths L (E,) of a weighted one.

A 2-d evaluated point is one record, _Point, formed once per evaluation by
_point: the radii with their angles, triangle sizes and angle defects K,
the measure r^alpha and its total, the average alpha-curvature (or the
target) Rbar, the alpha-curvatures R = K / r^alpha and the potential
gradient g = K - Rbar r^alpha. A flow stage, its sample, Newton's iterate
and the public functions read their quantities from it. The kernel and
_point raise nothing for an overflow or a NaN of their own: a flow stage or
Newton evaluates them under one np.errstate, and the public functions
through _evaluate, which holds it.
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
_TINY = np.finfo(float).tiny  # the least normal double


def check_metric(c, r, dim=2):
    """r, checked to be positive finite radii of c, a valid dim-complex: the
    first check of every public function that takes radii. The checks of
    the other inputs sit next to it, each kind in one helper, and _checked
    runs them."""
    _check_complex(c, dim)
    r = _vertex_function(c, "radii", r)
    if np.any(r <= 0):
        raise ValueError("radii must be positive and finite")
    return r


def _vertex_function(c, name, x):
    """x as an array, checked to hold one finite value per vertex of c."""
    x = np.asarray(x, dtype=float)
    if x.shape != (c.vertex_count,) or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be a finite vector of shape "
                         f"({c.vertex_count},), got shape {x.shape}")
    return x


def _check_measure(r, alpha):
    """The total of the measure r^alpha of radii r, whose terms must be
    finite normal doubles (K / r^alpha overflows on a subnormal one) and
    whose total must be finite."""
    with np.errstate(over="ignore", under="ignore"):
        ra = r ** alpha
        total = _measure(ra, alpha)
    if not (np.all((ra >= _TINY) & (ra < np.inf)) and total < np.inf):
        raise ValueError(f"the measure r ** {alpha:g} leaves the float range")
    return total


def _checked(c, r, alpha, target=None, dim=2):
    """(r, target), checked: the radii r of c, a valid dim-complex, the
    exponent alpha and the measure r^alpha the caller reads (r^3 on a
    3-manifold), and the target, None or one finite value per vertex."""
    r = check_metric(c, r, dim)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if target is not None:
        target = _vertex_function(c, "target", target)
    _check_measure(r, alpha)
    return r, target


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
    ri, rj = r[c.edge_ends]
    return ri ** 2 + rj ** 2 + 2.0 * ri * rj * c.cos_weights


def _angles(c, r):
    """(theta, sizes) of radii r that passed check_metric: the inner angles
    as an (F, 3) array aligned with the columns of c.face_array, and the
    triangle sizes operators2d._edge_weights reads, the incircle radius of
    each face of a tangent surface (_incircle_angles), else the squared
    length of each edge (_angles_from_sides)."""
    if c.tangent:
        return _incircle_angles(c, r)
    L = _squared_lengths(c, r)
    return _angles_from_sides(c, np.sqrt(L)), L


def _incircle_angles(c, r):
    """(theta, rho) of a tangent surface c: the incircle radius rho of each
    face, whose corners are the rows 0:3 of c.face_corners, and
    theta = 2 atan(rho / r) at each corner, written face-ordered. With the
    radii of a face sorted, r_lo <= r_mid <= r_hi, and s their sum,
    rho = sqrt(r_lo) sqrt(r_mid) sqrt(r_hi / s): every factor and the
    product of the first two is a normal double whenever rho is, as
    r_hi / s >= 1/3. A rho that is not (subnormal radii, or a sum s that
    overflows) raises DegenerateTriangleError naming its first face row."""
    cr = r[c.face_corners[0:3]]
    ri, rj, rk = cr
    lo, hi = np.minimum(ri, rj), np.maximum(ri, rj)
    mid = np.maximum(lo, np.minimum(hi, rk))
    lo, hi = np.minimum(lo, rk), np.maximum(hi, rk)
    rho = np.sqrt(lo) * np.sqrt(mid) * np.sqrt(hi / (ri + rj + rk))
    ok = rho >= _TINY
    if not ok.all():
        row = int(np.argmin(ok))
        raise DegenerateTriangleError(
            f"incircle radius {rho[row]:.6g} outside the normal doubles "
            f"in face row {row}")
    # 2 atan(rho / r) of the (3, F) corners into a face-ordered (F, 3) array
    theta = np.empty(cr.shape[::-1])
    np.arctan(np.divide(rho, cr, out=theta.T), out=theta.T)
    theta *= 2.0
    return theta, rho


def _angles_from_sides(c, s):
    """The law of cosines on all three corners of every face of c at once,
    from the length s[e] of each edge e, gathered once per face (the rows
    0:3, 1:4 and 2:5 of c.face_sides: the sides opposite each corner and
    its two neighbours) and squared. A NaN or out-of-range cosine raises
    DegenerateTriangleError naming the first column with a bad row and that
    column's first bad row."""
    sides = s[c.face_sides]
    sq = sides * sides
    arg = (sq[1:4] + sq[2:5] - sq[0:3]) / (2.0 * sides[1:4] * sides[2:5])
    if not np.maximum.reduce(np.abs(arg), axis=None) <= 1.0 + COS_MARGIN:
        ok = np.abs(arg) <= 1.0 + COS_MARGIN  # False for NaN
        col = int(np.argmin(ok.all(axis=1)))
        row = int(np.argmin(ok[col]))
        raise DegenerateTriangleError(
            f"cosine argument {arg[col, row]:.6g} outside [-1, 1] in face "
            f"row {row}")
    np.maximum(arg, -1.0, out=arg)
    np.minimum(arg, 1.0, out=arg)
    # arccos of the (3, F) cosines into a face-ordered (F, 3) array
    return np.arccos(arg, out=np.empty(arg.shape[::-1]).T).T


def _defect_from_angles(c, theta):
    """The angle defects from the inner angles of inner_angles(c, r)."""
    K = np.empty(c.vertex_count)
    K.fill(2.0 * np.pi)
    np.subtract.at(K, c.face_array.ravel(), theta.ravel())
    return K


# the evaluated point of a 2-d flow, Newton and the public functions (see
# the module docstring); rbar is the target array when one is given
_Point = namedtuple("_Point", "r theta sizes K ra total rbar R g")


def _point(c, r, alpha, target):
    """The _Point of radii r that passed check_metric, at the exponent alpha
    and the target (None: Rbar is the average alpha-curvature)."""
    theta, sizes = _angles(c, r)
    K = _defect_from_angles(c, theta)
    ra = r ** alpha
    total = _measure(ra, alpha)
    rbar = _average_curvature(c, total) if target is None else target
    return _Point(r, theta, sizes, K, ra, total, rbar, K / ra,
                  K - rbar * ra)


@np.errstate(all="ignore")
def _evaluate(c, r, alpha=2.0, target=None):
    """The _point of the radii r of the surface c, checked (_checked) and
    evaluated under np.errstate(all="ignore") as in a flow stage; a
    curvature R = K / r^alpha past the float range (a measure near the
    least normal double at a vertex of high degree) raises ValueError. The
    angle-only functions pass alpha = 0: r^0 = 1 is always in range."""
    r, target = _checked(c, r, alpha, target)
    return _finite_curvature(_point(c, r, alpha, target), alpha)


def _finite_curvature(p, alpha):
    """The evaluated point p, unless a curvature R = K / r^alpha of p is
    past the float range: then ValueError. The drivers test their start
    point with it (flows2d)."""
    if not np.isfinite(p.R).all():
        raise ValueError(
            f"the curvature K / r ** {alpha:g} leaves the float range")
    return p


def inner_angles(c, r):
    """Inner angles as an (F, 3) array aligned with the columns of c.face_array."""
    return _evaluate(c, r, 0.0).theta


def angle_defect(c, r):
    """Classical discrete curvature: 2 pi minus the sum of angles at each vertex."""
    return _evaluate(c, r, 0.0).K


def curvature(c, r, alpha=2.0):
    """Angle defect divided by r^alpha.

    alpha=0 recovers the classical defect, alpha=2 the rescaled curvature
    that transforms like smooth Gauss curvature under scaling.
    """
    return _evaluate(c, r, alpha).R


def total_measure(r, alpha=2.0):
    """Sum of r_i^alpha; by convention the vertex count when alpha = 0. A
    numpy float, so a sum that underflows to 0 divides to inf, not to a
    ZeroDivisionError."""
    r = np.asarray(r, dtype=float)
    return _measure(r ** alpha, alpha)


def _measure(ra, alpha):
    """total_measure from the measure ra = r^alpha."""
    return float(len(ra)) if alpha == 0.0 else np.add.reduce(ra)


CurvatureAverages = namedtuple("CurvatureAverages",
                               ["defect_avg", "scalar_avg", "alpha_avg"])


def average_curvature(c, r, alpha=2.0):
    """2 pi chi(M) / ||r||_alpha^alpha."""
    return _average_curvature(c, total_measure(_checked(c, r, alpha)[0],
                                              alpha))


def _average_curvature(c, total):
    """The average curvature 2 pi chi(M) / total of a checked surface
    complex c, for the total measure total = ||r||_alpha^alpha."""
    return 2.0 * np.pi * c.chi / total


def curvature_averages(c, r, alpha=2.0):
    """The three average curvatures (classical, alpha=2, and given alpha)."""
    r = _checked(c, r, alpha)[0]
    gb = 2.0 * np.pi * c.chi
    return CurvatureAverages(gb / c.vertex_count,
                             gb / _check_measure(r, 2.0),
                             gb / total_measure(r, alpha))
