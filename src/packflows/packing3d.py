"""Sphere packing metrics on triangulated 3-manifolds.

A sphere packing metric assigns a positive radius per vertex and the length
r_i + r_j to each edge. A tetrahedron is realizable in Euclidean space iff
its Q factor (sum 1/r)^2 - 2 sum 1/r^2 is positive. Public functions check
their radii; _state, on checked radii, raises DegenerateTetrahedronError
unless every Q is positive and every solid angle finite.

Solid angles take one pass over a constant face-angle table: the 12 face
angles of every tetrahedron by the law of cosines, from them the dihedral
angles by the spherical law of cosines, and at each vertex the sum of its
three dihedral angles minus pi. An independent triple-product formula on
embedded coordinates is available through tet_geometry for cross-checking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTetrahedronError, NearDegenerateError
from .flows2d import FlowSpec, _Flow, _integrate
from .operators2d import JacobianMatrix
from .packing2d import check_metric

Q_SAFETY_MARGIN = 1e-6
# Yamabe flow singularities: a volume-normalized radius below SING_RADIUS is
# essential, a Q factor below SING_Q removable
SING_RADIUS = 1e-6
SING_Q = 1e-8

# face angle [p, m] lies at tet column p between the edges to columns
# _FACE_A[p, m] and _FACE_B[p, m], the pairs (1, 2), (0, 2), (0, 1) of _OTHERS[p]
_OTHERS = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
_FACE_A = _OTHERS[:, [1, 0, 0]]
_FACE_B = _OTHERS[:, [2, 2, 1]]
# the other two face angles at the same column, in cyclic order
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def q_factor(r_i, r_j=None, r_k=None, r_l=None):
    """Nondegeneracy factor of a tetrahedron's four radii.

    Accepts four scalars or an array whose last axis has length 4; the
    tetrahedron embeds in Euclidean space iff the result is positive.
    """
    if r_j is not None:
        rr = np.array([r_i, r_j, r_k, r_l], dtype=float)
        inv = 1.0 / rr
        return float(inv.sum() ** 2 - 2.0 * (inv ** 2).sum())
    inv = 1.0 / np.asarray(r_i, dtype=float)
    return inv.sum(axis=-1) ** 2 - 2.0 * (inv ** 2).sum(axis=-1)


def tet_q_factors(c, r):
    """Q factor of every tetrahedron for the given metric."""
    r = check_metric(c, r)
    return q_factor(r[c.tet_array])


@np.errstate(all="ignore")
def _solid_angles_from_radii(rt):
    """Solid angles, shape (T, 4), for per-tet radii rt of shape (T, 4);
    raises DegenerateTetrahedronError at the row of least Q unless all Q > 0,
    and when a solid angle is NaN."""
    q = q_factor(rt)
    if not np.all(q > 0.0):
        bad = int(np.argmin(q))
        raise DegenerateTetrahedronError(
            f"tetrahedron {bad} has Q = {q[bad]:.6g} <= 0", tet_index=bad)
    cols = rt.T
    rp, ra, rb = cols[:, np.newaxis], cols[_FACE_A], cols[_FACE_B]
    lpa, lpb, lab = rp + ra, rp + rb, ra + rb
    arg = (lpa ** 2 + lpb ** 2 - lab ** 2) / (2.0 * lpa * lpb)
    gam = np.arccos(np.clip(arg, -1.0, 1.0))
    cos, sin = np.cos(gam), np.sin(gam)
    # dihedral angle along the edge opposite each face angle
    arg = (cos - cos[:, _NEXT] * cos[:, _LAST]) / (sin[:, _NEXT] * sin[:, _LAST])
    dih = np.arccos(np.clip(arg, -1.0, 1.0))
    ang = (-np.pi + dih[:, 0] + dih[:, 1] + dih[:, 2]).T
    if not np.all(np.isfinite(ang)):
        raise DegenerateTetrahedronError("a solid angle is NaN")
    return ang


def solid_angles(c, r):
    """Solid angle at each vertex of each tetrahedron, aligned with
    c.tet_array columns."""
    r = check_metric(c, r)
    return _solid_angles_from_radii(r[c.tet_array])


def solid_angle_defect(c, r):
    """4 pi minus the sum of incident solid angles, per vertex."""
    return _state(c, check_metric(c, r)).defect


def curvature3(c, r):
    """Rescaled scalar curvature: solid angle defect over r^2."""
    return _state(c, check_metric(c, r)).curvature


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
    vectors a, b, c. Independent oracle for the spherical-excess path."""
    na, nb, nc = (np.linalg.norm(v) for v in (a, b, c))
    num = abs(np.dot(a, np.cross(b, c)))
    den = na * nb * nc + np.dot(a, b) * nc + np.dot(a, c) * nb + np.dot(b, c) * na
    return 2.0 * math.atan2(num, den)


@dataclass
class TetGeometry:
    """Full geometry of one conformal tetrahedron.

    Construction validates that the spherical-excess angles agree with the
    coordinate-based oracle to 1e-9.
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
        angles = _solid_angles_from_radii(radii[np.newaxis, :])[0]
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


def yamabe_state(c, r):
    c.require_valid()
    return _state(c, check_metric(c, r))


def _state(c, r):
    """The YamabeState of radii r that passed check_metric."""
    ang = _solid_angles_from_radii(r[c.tet_array])
    K = np.full(c.vertex_count, 4.0 * np.pi)
    np.subtract.at(K, c.tet_array.ravel(), ang.ravel())
    R = K / r ** 2
    total = float(K @ r)
    vol = np.sum(r ** 3)  # numpy: 0 gives inf, not ZeroDivisionError
    return YamabeState(r, K, R, total, vol, total / vol,
                       total / vol ** (1.0 / 3.0))


def curvature_norm_bound(c, r):
    """Hoelder bound ||K||_{3/2} dominating |Q(r)|."""
    K = solid_angle_defect(c, r)
    return float(np.sum(np.abs(K) ** 1.5) ** (2.0 / 3.0))


# -- Jacobian and Laplacian ----------------------------------------------------


def defect_jacobian(c, r, rel_step=1e-5):
    """dK_i/dr_j by central differences with one Richardson level.

    No closed form is available for the solid-angle derivatives; the result
    is validated by its structure (symmetry, positive semi-definiteness,
    kernel along r). Refuses metrics within the safety margin of the
    admissibility boundary.
    """
    c.require_valid()
    r = check_metric(c, r)
    if np.min(q_factor(r[c.tet_array])) <= Q_SAFETY_MARGIN:
        raise NearDegenerateError(
            f"min Q factor within safety margin {Q_SAFETY_MARGIN}")
    n = c.vertex_count

    def column(j, h):
        rp = r.copy()
        rp[j] = r[j] + h
        kp = _state(c, rp).defect
        rp[j] = r[j] - h
        km = _state(c, rp).defect
        return (kp - km) / (2.0 * h)

    mat = np.empty((n, n))
    for j in range(n):
        h = rel_step * r[j]
        d_h = column(j, h)
        d_h2 = column(j, 0.5 * h)
        mat[:, j] = (4.0 * d_h2 - d_h) / 3.0
    return JacobianMatrix(mat, "r")


def laplacian3(c, r, f):
    """(1/r_i^2) sum_{j~i} (-dK_i/dr_j r_j)(f_j - f_i).

    Written in difference form so constants are annihilated exactly even
    though the Jacobian is a finite-difference approximation.
    """
    r = check_metric(c, r)
    f = np.asarray(f, dtype=float)
    lam = defect_jacobian(c, r).matrix
    W = -lam * r[np.newaxis, :]
    np.fill_diagonal(W, 0.0)
    return np.sum(W * (f[np.newaxis, :] - f[:, np.newaxis]), axis=1) / r ** 2


# -- the normalized Yamabe flow -------------------------------------------------


def _residual(st):
    return float(np.max(np.abs(st.defect - st.average * st.radii ** 2)))


def yamabe_residual(c, r):
    """max |K_i - R_av r_i^2| (scale invariant, radians)."""
    return _residual(yamabe_state(c, r))


def _dissipation(st):
    """Closed form of -2 dS/dt along the flow."""
    return float(np.sum((st.defect - st.average * st.radii ** 2) ** 2 / st.radii))


def default_yamabe_spec(**kw):
    kw.setdefault("family", "yamabe")
    kw.setdefault("t_max", 20.0)
    return FlowSpec(**kw)


def yamabe_flow(c, r0, spec=None):
    """Integrate d(log r_i)/dt = (R_av - R_i)/2 with singularity watch.

    The volume sum r_i^3 is conserved (projected after each step) and the
    total curvature is nonincreasing. Termination is encoded in the trace:
    converged, max_time, max_steps, or a singularity classified as essential
    (a normalized radius collapsing) or removable (a Q factor collapsing with
    radii bounded away from zero).
    """
    if spec is None:
        spec = default_yamabe_spec()
    if spec.family != "yamabe":
        raise ValueError("spec.family must be 'yamabe'")
    c.require_valid()
    r0 = check_metric(c, r0)

    def field(r):
        st = _state(c, r)
        return st.average - st.curvature, 0.0

    def sample(t, u, _):
        # the potential column is the closed-form total curvature
        r = np.exp(u)
        st = _state(c, r)
        return (t, r, st.curvature, st.volume, st.total, _dissipation(st),
                _residual(st))

    def classify(r, t_now, relax=1.0):
        scale = float(np.sum(r ** 3)) ** (1.0 / 3.0)
        rhat = r / scale
        if np.min(rhat) < SING_RADIUS * relax:
            return {"type": "essential", "witness": int(np.argmin(rhat)),
                    "time": float(t_now)}
        q = q_factor(r[c.tet_array])
        if np.min(q) < SING_Q * relax:
            return {"type": "removable", "witness": int(np.argmin(q)),
                    "q": float(np.min(q)), "time": float(t_now)}
        return None

    return _integrate(spec, c, r0, _Flow(field, sample, False, classify))


# -- Yamabe invariant upper bound -----------------------------------------------


@dataclass
class YamabeEstimate:
    value: float              # best Q found: an upper bound for the invariant
    metric: np.ndarray        # volume-normalized minimizer
    critical: bool            # gradient vanished to tolerance at the best point
    starts: int
    converged_starts: int


def _quotient_and_grad(c, u):
    r = np.exp(u)
    st = _state(c, r)
    g = r * (st.defect - st.average * r ** 2) / st.volume ** (1.0 / 3.0)
    return st.quotient, g


def _descend_quotient(c, r0, gtol, max_iter=500):
    u = np.log(r0)
    q, g = _quotient_and_grad(c, u)
    lr = 0.5
    for _ in range(max_iter):
        scale = max(abs(q), 1.0)
        if np.linalg.norm(g) < gtol * scale:
            return np.exp(u), q, True
        d = -g
        s = lr
        for _ in range(40):
            u_try = u + s * d
            try:
                q_try, g_try = _quotient_and_grad(c, u_try)
            except DegenerateTetrahedronError:
                q_try = math.inf  # an unrealizable trial is no decrease
            if q_try <= q + 1e-4 * s * (g @ d):
                u, q, g = u_try, q_try, g_try
                lr = min(2.0 * s, 4.0)
                break
            s *= 0.5
        else:
            return np.exp(u), q, False
    return np.exp(u), q, False


def yamabe_invariant_estimate(c, n_starts=20, seed=0, gtol=1e-8):
    """Heuristic upper bound for the Yamabe invariant of the triangulation.

    Runs multistart descent of the Yamabe quotient on the volume slice and
    reports the lowest value found. This is an upper bound for the infimum,
    never a certification of it.
    """
    c.require_valid()
    rng = np.random.default_rng(seed)
    n = c.vertex_count

    best = None
    n_conv = 0
    starts = [np.ones(n)]
    while len(starts) < max(1, n_starts):
        cand = rng.uniform(0.4, 1.8, n)
        if np.all(q_factor(cand[c.tet_array]) > 0.0):
            starts.append(cand)

    for r0 in starts:
        r_min, q_min, converged = _descend_quotient(c, r0, gtol)
        n_conv += bool(converged)
        if best is None or q_min < best[1]:
            best = (r_min, q_min, converged)

    r_best, q_best, crit = best
    r_best = r_best / np.sum(r_best ** 3) ** (1.0 / 3.0)
    return YamabeEstimate(float(q_best), r_best, bool(crit),
                          len(starts), n_conv)
