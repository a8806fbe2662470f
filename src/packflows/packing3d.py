"""Sphere packing metrics on triangulated 3-manifolds.

A sphere packing metric assigns a positive radius per vertex and the length
r_i + r_j to each edge. A tetrahedron is realizable in Euclidean space iff
its Q factor (sum 1/r)^2 - 2 sum 1/r^2 is positive. Public functions check
their radii, and the measure r^3 where they read a point (_evaluate);
_point, on checked radii, raises DegenerateTetrahedronError unless every Q
is positive and every solid angle finite.

Solid angles are in closed form. With edge lengths r_i + r_j the volume of
a tetrahedron satisfies 9 V^2 = (r_1 r_2 r_3 r_4)^2 Q, and the face angle at
vertex p between the edges to a and b has cosine 1 - 2 t_a t_b, where
t_o = r_o / (r_p + r_o). The van Oosterom-Strackee triple-product formula
then gives the solid angle at p with one atan2:

    Omega_p = 2 atan2(r_p t_a t_b t_c sqrt(Q), 2 - (t_a t_b + t_a t_c + t_b t_c)).

r_p sqrt(Q) is scale free, so it is evaluated on the radii divided by the
tetrahedron's smallest. Their inverses lie in (0, 1], so at no scale of the
radii does Q overflow or lose its digits to underflow. The same triple
product on embedded coordinates is available through tet_geometry for
cross-checking.

One solid-angle pass (_solid_angle_pass, on _tet_terms) evaluates the
formula for one metric or for a stack of S metrics (radii of shape
(S, V)), each row's arithmetic that of its metric alone, on the radii
gathered through the complex's (4, T) table tet_columns. _point runs it on
one metric and raises on a degenerate tetrahedron by name; the multistart
quotient descent runs it on every live start at once and reads a
degenerate row as +inf; the Jacobian's edge weights run _tet_terms on one
metric. The pass raises nothing for an overflow or a NaN of its own: its
callers hold np.errstate(all="ignore"), a flow stage one for its whole
evaluation.

The Jacobian dK/dr is in closed form too: one symmetric weight per edge, as
in two dimensions, from the same variables (_edge_weights3).

The normalized Yamabe flow is flows2d's yamabe row: it drives _point, one
record per evaluation, with the sample and singularity classifier below
(this module never imports it). The classifier reads the volume and the
factors Q r_min^2 from the record of the accepted point, so an accepted
point is evaluated once; the public YamabeState adds the quotient to the
same record.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTetrahedronError, NearDegenerateError
from .mesh import _check_complex
from .operators2d import (JacobianMatrix, _dense_jacobian, _edge_apply,
                          _jacobian_diagonal)
from .packing2d import (_check_positive_int, _checked, _vertex_function,
                        check_metric)

# Q_SAFETY_MARGIN and SING_Q bound the scale-free factor Q r_min^2 of
# _tet_terms, which the kernel tests too: the Jacobian refuses a metric
# within the margin. Yamabe flow singularities: a volume-normalized radius
# below SING_RADIUS is essential, a factor below SING_Q removable
Q_SAFETY_MARGIN = 1e-6
SING_RADIUS = 1e-6
SING_Q = 1e-8
ROUNDING_FLOOR = 4.0 * np.finfo(float).eps  # of a descent start (_descend)

# _OTHERS[k, p] is the k-th of the three other columns of tet column p
_OTHERS = np.array([(1, 0, 0, 0), (2, 2, 1, 1), (3, 3, 3, 2)])
# the (k, p) of each pair p < o = _OTHERS[k, p], in tet_edge's column order
_PAIRS = ([0, 1, 2, 1, 2, 2], [0, 0, 0, 1, 1, 2])


def q_factor(radii):
    """Nondegeneracy factor of the tetrahedra of radii, an array whose last
    axis has length 4; a tetrahedron embeds in Euclidean space iff its
    factor is positive.
    """
    inv = 1.0 / np.asarray(radii, dtype=float)
    return inv.sum(axis=-1) ** 2 - 2.0 * (inv ** 2).sum(axis=-1)


def tet_q_factors(c, r):
    """Q factor of every tetrahedron for the given metric."""
    r = check_metric(c, r, 3)
    return q_factor(r[c.tet_array])


def _tet_terms(cr):
    """(1 / rho, q, t, N, D) of the radii cr of each tet column, unchecked:
    rho = cr / r_min, q = Q r_min^2, t[k, p] = t_o for o = _OTHERS[k, p],
    and Omega = 2 atan2(N, D). cr is r[c.tet_columns], shape (4, T), for
    one metric, and r.T[c.tet_columns], shape (4, T, S), for S metrics r of
    shape (S, V): the stack axis trails, so every array is contiguous; q
    has shape (T, ...), t (3, 4, T, ...), so t_a, t_b and t_c are too, the
    others that of cr."""
    rho = cr / np.minimum.reduce(cr)
    # q_factor over the column axis. Q r_min^2 <= 16: the inverse radii lie
    # in (0, 1]
    inv = 1.0 / rho
    q = np.add.reduce(inv) ** 2 - 2.0 * np.add.reduce(inv ** 2)
    ro = rho[_OTHERS]
    t = ro / (rho + ro)
    ta, tb, tc = t
    tab = ta * tb
    return (inv, q, t, rho * (tab * tc) * np.sqrt(q),
            2.0 - (tab + tc * (ta + tb)))


def _solid_angle_pass(cr):
    """(Omega, q) of the tet column radii cr of _tet_terms, unchecked: the
    solid angles, shape (T, 4) or (S, T, 4), and q = Q r_min^2, shape (T,)
    or (S, T)."""
    _, q, _, num, den = _tet_terms(cr)
    return (2.0 * np.arctan2(num, den)).T, q.T


def _solid_angles_from_radii(cr):
    """(Omega, q) of _solid_angle_pass for one metric's tet column radii
    cr = r[c.tet_columns]; raises DegenerateTetrahedronError unless every
    Q is positive, naming the row of least scale-free factor q = Q r_min^2
    (r_min the row's smallest radius), and when a solid angle is not
    finite."""
    ang, q = _solid_angle_pass(cr)
    if not np.minimum.reduce(q) > 0.0:  # NaN-safe
        bad = int(np.argmin(q))
        raise DegenerateTetrahedronError(
            f"tetrahedron {bad} is not realizable: Q r_min^2 = {q[bad]:.6g}",
            tet_index=bad)
    # a radius ratio past the float range
    if not math.isfinite(np.add.reduce(ang, axis=None)):
        raise DegenerateTetrahedronError("a solid angle is not finite")
    return ang, q


def _defect(c, ang):
    """4 pi minus the sum of the incident solid angles ang, shape (T, 4) or
    (S, T, 4), at each vertex: shape (V,) or (S, V). Each vertex sums its
    angles in tetrahedron order, in a stack as alone."""
    n, idx = c.vertex_count, c.tet_array.ravel()
    if ang.ndim == 2:
        return 4.0 * np.pi - np.bincount(idx, ang.ravel(), n)
    s = len(ang)  # one bin per vertex of each row
    idx = (idx + n * np.arange(s)[:, np.newaxis]).ravel()
    return 4.0 * np.pi - np.bincount(idx, ang.ravel(), s * n).reshape(s, n)


def solid_angles(c, r):
    """Solid angle at each vertex of each tetrahedron, aligned with
    c.tet_array columns."""
    r = check_metric(c, r, 3)
    with np.errstate(all="ignore"):
        return _solid_angles_from_radii(r[c.tet_columns])[0]


def solid_angle_defect(c, r):
    """4 pi minus the sum of incident solid angles, per vertex."""
    return _defect(c, solid_angles(c, r))


def curvature3(c, r):
    """Rescaled scalar curvature: solid angle defect over r^2."""
    return _evaluate(c, r).R


# -- single-tet geometry with the coordinate oracle ---------------------------


def _embed_lengths(l):
    """Place vertex 0 at the origin given the 6 lengths l[(i, j)], i < j."""
    p = np.zeros((4, 3))
    p[1, 0] = l[(0, 1)]
    x2 = (l[(0, 1)] ** 2 + l[(0, 2)] ** 2 - l[(1, 2)] ** 2) / (2.0 * l[(0, 1)])
    y2sq = l[(0, 2)] ** 2 - x2 ** 2
    if y2sq <= 0:
        raise DegenerateTetrahedronError("degenerate base triangle")
    p[2] = (x2, math.sqrt(y2sq), 0.0)
    x3 = (l[(0, 1)] ** 2 + l[(0, 3)] ** 2 - l[(1, 3)] ** 2) / (2.0 * l[(0, 1)])
    y3 = (l[(0, 3)] ** 2 - l[(2, 3)] ** 2 + p[2] @ p[2] - 2.0 * x3 * p[2, 0]) \
        / (2.0 * p[2, 1])
    z3sq = l[(0, 3)] ** 2 - x3 ** 2 - y3 ** 2
    if z3sq <= 0:
        raise DegenerateTetrahedronError("flat tetrahedron (embedding failed)")
    p[3] = (x3, y3, math.sqrt(z3sq))
    return p


def cayley_menger(l):
    """Cayley-Menger determinant (288 V^2) from the 6 lengths l[(i, j)]."""
    m = np.ones((5, 5))
    m[0, 0] = 0.0
    for i in range(4):
        m[i + 1, i + 1] = 0.0
        for j in range(i + 1, 4):
            m[i + 1, j + 1] = m[j + 1, i + 1] = l[(i, j)] ** 2
    return float(np.linalg.det(m))


def solid_angle_at_origin(a, b, c):
    """Triple-product (van Oosterom-Strackee) solid angle for direction
    vectors a, b, c. On embedded coordinates it is an independent oracle
    for the closed form from radii."""
    na, nb, nc = (np.linalg.norm(v) for v in (a, b, c))
    num = abs(np.dot(a, np.cross(b, c)))
    den = na * nb * nc + np.dot(a, b) * nc + np.dot(a, c) * nb + np.dot(b, c) * na
    return 2.0 * math.atan2(num, den)


@dataclass
class TetGeometry:
    """Full geometry of one conformal tetrahedron.

    Construction validates that the closed-form angles from the radii agree
    with the triple product on embedded coordinates to 1e-9.
    """

    radii: np.ndarray
    lengths: dict
    q: float
    coords: np.ndarray
    angles: np.ndarray

    CONSISTENCY_TOL = 1e-9

    @classmethod
    def from_radii(cls, radii):
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (4,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise ValueError("need four positive finite radii")
        q = q_factor(radii)
        if q <= 0:
            raise DegenerateTetrahedronError(f"Q = {q:.6g} <= 0")
        l = {(i, j): radii[i] + radii[j]
             for i in range(4) for j in range(i + 1, 4)}
        if cayley_menger(l) <= 0:
            raise DegenerateTetrahedronError("Cayley-Menger determinant <= 0")
        coords = _embed_lengths(l)
        with np.errstate(all="ignore"):
            angles = _solid_angles_from_radii(radii[:, np.newaxis])[0][0]
        for v in range(4):
            others = [coords[w] - coords[v] for w in range(4) if w != v]
            oracle = solid_angle_at_origin(*others)
            if abs(oracle - angles[v]) > cls.CONSISTENCY_TOL:
                raise DegenerateTetrahedronError(
                    f"solid angle mismatch at vertex {v}: "
                    f"{angles[v]!r} vs oracle {oracle!r}")
        return cls(radii, l, float(q), coords, angles)


def tet_geometry(radii):
    return TetGeometry.from_radii(radii)


# -- totals and the Yamabe functional -----------------------------------------


@dataclass
class YamabeState:
    """Curvatures and the scale-invariant functional of one metric."""

    radii: np.ndarray
    defect: np.ndarray        # solid angle deficits
    curvature: np.ndarray     # defect / r^2
    total: float              # sum K_i r_i
    volume: float             # sum r_i^3
    average: float            # total / volume
    quotient: float           # total / volume^(1/3)
    factors: np.ndarray       # Q r_min^2 per tetrahedron


def yamabe_state(c, r):
    p = _evaluate(c, r)
    return YamabeState(p.r, p.K, p.R, p.total, p.volume, p.average,
                       p.total / p.volume ** (1.0 / 3.0), p.factors)


@np.errstate(all="ignore")
def _evaluate(c, r):
    """The _point of the radii r of the 3-manifold c, checked with their
    measure r^3 (_checked) and evaluated as packing2d._evaluate does."""
    return _point(c, _checked(c, r, 3.0, dim=3)[0])


# the evaluated point of the Yamabe flow: the radii r, the solid angle
# defects K, the curvatures R = K / r^2, the total curvature K . r, the
# volume sum r^3, the average curvature total / volume, the deviation
# g = K - average r^2, which vanishes at a constant-curvature metric, and the
# factors Q r_min^2 per tetrahedron
_Point = namedtuple("_Point", "r K R total volume average g factors")


def _point(c, r):
    """The _Point of radii r that passed check_metric."""
    ang, q = _solid_angles_from_radii(r[c.tet_columns])
    K = _defect(c, ang)
    total = float(K @ r)
    r2 = r ** 2
    volume = np.add.reduce(r ** 3)  # numpy: 0 gives inf, not ZeroDivisionError
    average = total / volume
    return _Point(r, K, K / r2, total, volume, average, K - average * r2, q)


def curvature_norm_bound(c, r):
    """Hoelder bound ||K||_{3/2} dominating |Q(r)|."""
    K = solid_angle_defect(c, r)
    return float(np.sum(np.abs(K) ** 1.5) ** (2.0 / 3.0))


# -- Jacobian and Laplacian ----------------------------------------------------


@np.errstate(all="ignore")
def _edge_weights3(c, r):
    """g_ij = r_i r_j dK_i/dr_j = -sum_T r_p rho_o dOmega_p/drho_o per edge
    {i, j} = {p, o}, p < o, for checked radii r (Omega_p depends on
    rho = r / r_min alone); refuses metrics within the safety margin. With
    o', o'' the other two of p's columns,
        rho_o dOmega_p/drho_o = 2N (D x - y) / (N^2 + D^2),
        x = rho_o dlog N/drho_o = 1 - t_o + (2/rho_o - sum 1/rho) / (q rho_o),
        y = rho_o dD/drho_o = -(t_o' + t_o'') t_o (1 - t_o).
    """
    cr = r[c.tet_columns]
    inv, q, t, num, den = _tet_terms(cr)
    if q.min() <= Q_SAFETY_MARGIN:
        raise NearDegenerateError(
            f"min Q r_min^2 = {q.min():.6g} within safety margin "
            f"{Q_SAFETY_MARGIN}")
    inv_o = inv[_OTHERS]
    x = (1.0 - t) + inv_o * (2.0 * inv_o - inv.sum(axis=0)) / q
    y = -(t.sum(axis=0) - t) * t * (1.0 - t)
    d_ang = 2.0 * num * (den * x - y) / (num * num + den * den)
    terms = (cr * d_ang)[_PAIRS]
    g = -np.bincount(c.tet_edge.ravel(), terms.T.ravel(), len(c.edges))
    if not math.isfinite(g.sum()):  # a radius ratio past the float range
        raise DegenerateTetrahedronError("a solid angle derivative is not finite")
    return g


def defect_jacobian(c, r):
    """dK_i/dr_j = D^-1 G D^-1, D = diag(r), G the edge weights g off the
    diagonal and minus their row sums on it (K is scale free: kernel r).
    D^-1 scales the edge values, so the matrix is exactly symmetric. Refuses
    metrics whose Q r_min^2 is within the safety margin."""
    r = check_metric(c, r, 3)
    g = _edge_weights3(c, r)
    i, j = c.edge_ends
    gr = g / r[i] / r[j]
    return JacobianMatrix(_dense_jacobian(c, gr, gr,
                                          _jacobian_diagonal(c, g) / r / r), "r")


def laplacian3(c, r, f):
    """(1/r_i^2) sum_{j~i} (-dK_i/dr_j r_j)(f_j - f_i)
    = -(1/r_i^3) sum_j g_ij (f_j - f_i), as an O(E) matvec."""
    r = check_metric(c, r, 3)
    f = _vertex_function(c, "f", f)
    # divided in turn, since r^3 overflows for radii past 1e102
    return -_edge_apply(c, _edge_weights3(c, r), f) / r / r / r


# -- the normalized Yamabe flow -------------------------------------------------


def yamabe_residual(c, r):
    """max |K_i - R_av r_i^2| (scale invariant, radians)."""
    return float(np.max(np.abs(_evaluate(c, r).g)))


def _sample(t, p):
    """The flow's trace row at the evaluated point p: the potential column
    is the closed-form total curvature, the Calabi column the dissipation
    -2 dS/dt, and the residual max |K - R_av r^2|."""
    g = p.g
    return (t, p.r, p.R, p.volume, p.total,
            float(np.add.reduce(g ** 2 / p.r)),
            float(np.maximum.reduce(np.abs(g))))


def _classify(p, t_now, relax=1.0):
    """The flow's singularity at the evaluated point p, or None: essential
    when a volume-normalized radius collapses, removable when a factor
    Q r_min^2 (reported as q) collapses first; relax loosens both
    thresholds."""
    rhat = p.r / float(p.volume) ** (1.0 / 3.0)
    if np.min(rhat) < SING_RADIUS * relax:
        return {"type": "essential", "witness": int(np.argmin(rhat)),
                "time": float(t_now)}
    q = p.factors
    if np.min(q) < SING_Q * relax:
        return {"type": "removable", "witness": int(np.argmin(q)),
                "q": float(np.min(q)), "time": float(t_now)}
    return None


# -- Yamabe invariant upper bound -----------------------------------------------


@dataclass
class YamabeEstimate:
    value: float              # best Q found: an upper bound for the invariant
    metric: np.ndarray        # volume-normalized minimizer
    critical: bool            # gradient vanished to tolerance at the best point
    starts: int
    converged_starts: int


@np.errstate(all="ignore")
def _quotients(c, u):
    """(Q, g) at each row of the log radii u, shape (S, V): the Yamabe
    quotient and its gradient in log r, from one stacked solid-angle pass.
    Q is +inf on a row that is not realizable (a factor Q r_min^2 <= 0, or
    a solid angle that is not finite, which makes K . r NaN). K . r is a
    1-D product and the cube root of the volume a scalar power per row, as
    in _point and yamabe_state, so each row is bit for bit the quotient of
    its own metric."""
    r = np.exp(u)
    ang, q = _solid_angle_pass(r.T[c.tet_columns])
    K = _defect(c, ang)
    vol = np.sum(r ** 3, axis=1)
    total, cube = np.array([(k @ x, v ** (1.0 / 3.0))
                            for k, x, v in zip(K, r, vol)]).T
    g = r * (K - (total / vol)[:, np.newaxis] * r ** 2) / cube[:, np.newaxis]
    quotient = total / cube
    ok = (q.min(axis=1) > 0.0) & np.isfinite(quotient)
    return np.where(ok, quotient, np.inf), g


def _descend(c, r0, gtol, max_iter=500):
    """Gradient descent of the Yamabe quotient in log r from each row of r0,
    shape (S, V), all starts in lock step: (r, Q, converged) per start.

    An iteration stops a start when its gradient norm is below
    gtol max(|Q|, 1), or after max_iter accepted steps; otherwise it tries
    steps s along -g from s = 0.5 (the first iteration) or twice the last
    accepted step, at most 4, halving s until the Armijo test passes, or
    until the trial predicts a decrease s g.g of at most
    ROUNDING_FLOOR max(|Q|, 1), a few ulps of Q: rounding would decide the
    test, and the start stops unconverged. Each start keeps its own step
    and iteration count; a round evaluates the trial point of every live
    start in one stacked pass, so a start makes the trials, and ends at the
    point, it would reach alone."""
    u = np.log(r0)
    n = len(u)
    u_end, q_end, converged = np.empty_like(u), np.empty(n), np.zeros(n, bool)
    q, g = _quotients(c, u)
    start = np.arange(n)  # the start of each live row
    step = np.full(n, 0.5)
    iters = np.zeros(n, dtype=int)
    while True:
        # g . d = -g . g, bit for bit. g and Q change only with a step, so a
        # row passes the gradient test when it has just stepped or never
        gg = np.array([x @ x for x in g])
        scale = np.maximum(np.abs(q), 1.0)
        small = (np.sqrt(gg) < gtol * scale) & (iters < max_iter)
        done = (small | (iters == max_iter)  # a NaN g.g is at the floor too
                | ~(step * gg > ROUNDING_FLOOR * scale))
        if done.any():
            at = start[done]
            u_end[at], q_end[at], converged[at] = u[done], q[done], small[done]
            keep = ~done
            if not keep.any():
                return np.exp(u_end), q_end, converged
            start, u, q, g, gg, step, iters = (
                a[keep] for a in (start, u, q, g, gg, step, iters))
        trial = u - step[:, np.newaxis] * g
        q_try, g_try = _quotients(c, trial)
        took = q_try <= q - 1e-4 * step * gg
        np.copyto(u, trial, where=took[:, np.newaxis])
        np.copyto(q, q_try, where=took)
        np.copyto(g, g_try, where=took[:, np.newaxis])
        step = np.where(took, np.minimum(2.0 * step, 4.0), 0.5 * step)
        iters += took


def yamabe_invariant_estimate(c, n_starts=20, seed=0, gtol=1e-8):
    """Heuristic upper bound for the Yamabe invariant of the triangulation.

    Runs multistart descent of the Yamabe quotient (_descend, every start in
    one stacked pass a round) and reports the lowest value found. This is
    an upper bound for the infimum, never a certification of it.
    """
    _check_complex(c, 3)
    _check_positive_int("n_starts", n_starts)
    rng = np.random.default_rng(seed)
    n = c.vertex_count

    starts = [np.ones(n)]
    while len(starts) < n_starts:
        cand = rng.uniform(0.4, 1.8, n)
        if np.all(q_factor(cand[c.tet_array]) > 0.0):
            starts.append(cand)

    r, q, converged = _descend(c, np.array(starts), gtol)
    best = int(np.argmin(q))  # the first start of least value
    r_best = r[best] / np.sum(r[best] ** 3) ** (1.0 / 3.0)
    return YamabeEstimate(float(q[best]), r_best, bool(converged[best]),
                          len(starts), int(converged.sum()))
