import itertools
import os
import sys

import numpy as np
import pytest

from packflows import data
from packflows.flows2d import FAMILIES, FlowSpec, run
from packflows.mesh import Surface2Complex, mesh_from_dict
from packflows.operators2d import potential_gradient, potential_hessian
from packflows.packing2d import edge_lengths, inner_angles
from packflows.errors import DegenerateTetrahedronError
from packflows.packing3d import _evaluate, solid_angle_defect

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import gen_meshes  # noqa: E402


@pytest.fixture(scope="session")
def tetra():
    return data.load("tetrahedron")


@pytest.fixture(scope="session")
def octa():
    return data.load("octahedron")


@pytest.fixture(scope="session")
def icosa():
    return data.load("icosahedron")


@pytest.fixture(scope="session")
def torus7():
    return data.load("torus_7")


@pytest.fixture(scope="session")
def genus2():
    return data.load("genus2_11")


@pytest.fixture(scope="session")
def cell5():
    return data.load("cell5")


@pytest.fixture(scope="session")
def cell16():
    return data.load("cell16")


@pytest.fixture(scope="session")
def torus3():
    return data.load("torus3_27")


@pytest.fixture(scope="session")
def surfaces(tetra, octa, icosa, torus7, genus2):
    return {"tetrahedron": tetra, "octahedron": octa, "icosahedron": icosa,
            "torus_7": torus7, "genus2_11": genus2}


def random_metric(rng, n, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi, n)


def assert_time_scaled_runs(c, r0, fam_a, fam_c, factor, t_max=1.0):
    """The alpha = 2 run of fam_a and the run of its classic family fam_c
    with every time setting multiplied by factor (2 for Ricci, 4 for
    Calabi) are one DOP853 run: the classic field is the alpha field over
    the power of two factor, so every stage, error norm and step agrees bit
    for bit, rejections included, and only the times carry the factor.
    Returns the alpha run."""
    sa = FlowSpec(fam_a, alpha=2.0, t_max=t_max)
    sc = FlowSpec(fam_c, initial_step=factor * sa.initial_step,
                  min_step=factor * sa.min_step,
                  max_step=factor * sa.resolved_max_step(),
                  t_max=factor * t_max)
    ta, tc = run(sa, c, r0), run(sc, c, r0)
    assert ta.termination == tc.termination
    assert (ta.n_steps, ta.n_rejected) == (tc.n_steps, tc.n_rejected)
    assert np.array_equal(ta.radii, tc.radii)
    assert np.array_equal(ta.potential, tc.potential)
    assert np.array_equal(tc.times, factor * ta.times)
    return ta


def grid_torus(n, m):
    """Standard diagonal triangulation of an n x m torus grid (degree 6)."""
    return mesh_from_dict(gen_meshes.grid_torus(n, m))


def index_oracle(dim, top, edges=None):
    """The edge list, and the triangles, face_edge or tet_edge, by dict
    lookups over sorted vertex tuples: the construction the key-based
    incidence of mesh replaced, kept as its reference. edges are listed
    (i, j) or (i, j, phi) rows, or None to infer them."""
    top = [tuple(sorted(s)) for s in top]
    if edges is None:
        edges = sorted({e for s in top for e in itertools.combinations(s, 2)})
    else:
        edges = [tuple(sorted(e[:2])) for e in edges]
    edge_index = {e: k for k, e in enumerate(edges)}
    if dim == 2:
        face_edge = [[edge_index[tuple(v for k, v in enumerate(f) if k != m)]
                      for m in range(3)] for f in top]
        return {"edges": edges,
                "face_edge": np.array(face_edge, dtype=int).reshape(-1, 3)}
    tet_edge = [[edge_index[e] for e in itertools.combinations(tet, 2)]
                for tet in top]
    return {"edges": edges,
            "triangles": sorted({t for tet in top
                                 for t in itertools.combinations(tet, 3)}),
            "tet_edge": np.array(tet_edge, dtype=int).reshape(-1, 6)}


def two_copies(simplices, n):
    """The simplices on range(n) and a disjoint copy on range(n, 2n)."""
    return list(simplices) + [tuple(v + n for v in s) for s in simplices]


def calabi_families():
    """(family, alpha) for every Calabi family, free alphas at 0, 1 and 2."""
    return [(family, alpha) for family, row in sorted(FAMILIES.items())
            if row.field in ("calabi", "calabi_modified")
            for alpha in ([row.alpha] if row.alpha is not None
                          else [0.0, 1.0, 2.0])]


def reweighted(c, weights):
    """The same surface with the given weight on each edge (in edge order)."""
    edges = [(i, j, w) for (i, j), w in zip(c.edges, weights)]
    return Surface2Complex(c.vertex_count, c.faces, edges=edges)


def subset_rhs_oracle(c, subset):
    """Second route to the link-boundary sum: direct scans, no link helper."""
    I = set(subset)
    total = 0.0
    for fi, f in enumerate(c.faces):
        inside = [v for v in f if v in I]
        if len(inside) == 1:
            e = tuple(sorted(w for w in f if w != inside[0]))
            total += np.pi - c.weights[c.edge_index(*e)]
    nv = len(I)
    ne = sum(1 for e in c.edges if set(e) <= I)
    nf = sum(1 for f in c.faces if set(f) <= I)
    return -total + 2.0 * np.pi * (nv - ne + nf)


def all_subsets(n):
    verts = range(n)
    for size in range(1, n):
        yield from (frozenset(s) for s in itertools.combinations(verts, size))


def defect_jacobian_r_oracle(c, r):
    """dK_i/dr_j assembled densely per face from the angle derivatives: the
    per-face (F, 3, 3) route the edge weights replaced, kept as an oracle.

    For a triangle with sides s_m opposite its vertices and area A,
    d(theta_m)/d(s_m) = s_m / 2A and d(theta_m)/d(s_k) = -s_m cos(theta_l) / 2A
    for {k, l} the other two sides; chaining through the edge-length formula
    gives the radius derivatives.
    """
    lengths = edge_lengths(c, r)
    s = lengths[c.face_edge]
    theta = inner_angles(c, r)
    area = 0.5 * s[:, 1] * s[:, 2] * np.sin(theta[:, 0])

    nf = len(c.faces)
    dth_ds = np.empty((nf, 3, 3))
    for m in range(3):
        for k in range(3):
            if k == m:
                dth_ds[:, m, k] = s[:, m] / (2.0 * area)
            else:
                other = 3 - m - k
                dth_ds[:, m, k] = -s[:, m] * np.cos(theta[:, other]) / (2.0 * area)

    ds_dr = np.zeros((nf, 3, 3))
    pairs = ((1, 2), (0, 2), (0, 1))
    for k, (p, q) in enumerate(pairs):
        vp = c.face_array[:, p]
        vq = c.face_array[:, q]
        cph = np.cos(c.weights[c.face_edge[:, k]])
        ds_dr[:, k, p] = (r[vp] + r[vq] * cph) / s[:, k]
        ds_dr[:, k, q] = (r[vq] + r[vp] * cph) / s[:, k]

    dth_dr = np.einsum("fmk,fkw->fmw", dth_ds, ds_dr)
    J = np.zeros((c.vertex_count, c.vertex_count))
    for m in range(3):
        for w in range(3):
            np.add.at(J, (c.face_array[:, m], c.face_array[:, w]),
                      -dth_dr[:, m, w])
    return J


def defect_jacobian_fd_oracle(c, r, rel_step=1e-5):
    """dK_i/dr_j of a 3-manifold metric by central differences with one
    Richardson level: the route the closed form replaced, kept as an oracle.
    Its error is of order rel_step^4 relative, plus the rounding of the
    differences."""
    n = c.vertex_count

    def column(j, h):
        rp = r.copy()
        rp[j] = r[j] + h
        kp = solid_angle_defect(c, rp)
        rp[j] = r[j] - h
        km = solid_angle_defect(c, rp)
        return (kp - km) / (2.0 * h)

    mat = np.empty((n, n))
    for j in range(n):
        h = rel_step * r[j]
        d_h = column(j, h)
        d_h2 = column(j, 0.5 * h)
        mat[:, j] = (4.0 * d_h2 - d_h) / 3.0
    return mat


def newton_direction_oracle(c, r, alpha):
    """The Newton step on the slice sum log r = const through a dense
    orthonormal basis B of the slice: B y with (B^T H B) y = -B^T g for the
    dense potential Hessian H and gradient g, the solve the conjugate
    gradients replaced, kept as an oracle."""
    n = c.vertex_count
    B, _ = np.linalg.qr(np.eye(n)[:, 1:] - 1.0 / n)
    H = potential_hessian(c, r, alpha).matrix
    g = potential_gradient(c, r, alpha)
    return B @ np.linalg.solve(B.T @ H @ B, -(B.T @ g))


def descend_quotient_oracle(c, r0, gtol, max_iter=500):
    """Gradient descent of the Yamabe quotient in log r from one start, one
    evaluation by the 3-d entry packing3d._evaluate at a time: the
    sequential route the lock-step multistart replaced, kept as its
    reference. Returns (r, Q, converged, trials), trials the evaluated log
    radii in order (the start first)."""
    trials = []

    def quotient_and_grad(u):
        trials.append(u)
        r = np.exp(u)
        p = _evaluate(c, r)
        cube = p.volume ** (1.0 / 3.0)
        return p.total / cube, r * (p.K - p.average * r ** 2) / cube

    u = np.log(r0)
    q, g = quotient_and_grad(u)
    lr = 0.5
    for _ in range(max_iter):
        scale = max(abs(q), 1.0)
        if np.linalg.norm(g) < gtol * scale:
            return np.exp(u), q, True, trials
        d = -g
        s = lr
        for _ in range(40):
            u_try = u + s * d
            try:
                q_try, g_try = quotient_and_grad(u_try)
            except DegenerateTetrahedronError:
                q_try = np.inf  # an unrealizable trial is no decrease
            if q_try <= q + 1e-4 * s * (g @ d):
                u, q, g = u_try, q_try, g_try
                lr = min(2.0 * s, 4.0)
                break
            s *= 0.5
        else:
            return np.exp(u), q, False, trials
    return np.exp(u), q, False, trials


# -- the gather-table kernels against their references -------------------------


def face_loop_point(c, r, alpha, target):
    """packing2d._point one corner column at a time over the (F, 3) face
    arrays c.face_edge and c.face_array, and the angle sums one face at a
    time: the reference of the gather tables, with the arithmetic of the
    kernel in its order. Returns the fields of packing2d._Point as a dict."""
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    L = r[i] ** 2 + r[j] ** 2 + 2.0 * r[i] * r[j] * c.cos_weights
    s = np.sqrt(L)[c.face_edge]
    theta = np.empty_like(s)
    for m in range(3):
        b, cc = s[:, (m + 1) % 3], s[:, (m + 2) % 3]
        arg = (b * b + cc * cc - s[:, m] * s[:, m]) / (2.0 * b * cc)
        theta[:, m] = np.arccos(np.clip(arg, -1.0, 1.0))
    K = np.full(c.vertex_count, 2.0 * np.pi)
    for f, corners in enumerate(c.face_array.tolist()):
        for m, v in enumerate(corners):
            K[v] -= theta[f, m]
    ra = r ** alpha
    total = float(len(r)) if alpha == 0.0 else np.add.reduce(ra)
    rbar = 2.0 * np.pi * c.chi / total if target is None else target
    return {"r": r, "theta": theta, "L": L, "K": K, "ra": ra, "total": total,
            "rbar": rbar, "R": K / ra, "g": K - rbar * ra}


def face_loop_edge_weights(c, r, theta, L):
    """operators2d._edge_weights one side column k of the (F, 3) face arrays
    at a time, each face's terms added to its sides in face order."""
    rho, Ls = (r * r)[c.face_array], L[c.face_edge]
    four_area = 2.0 * np.sqrt(Ls[:, 1] * Ls[:, 2]) * np.sin(theta[:, 0])
    dth = np.empty_like(Ls)
    for k in range(3):
        p, q = (k + 1) % 3, (k + 2) % 3
        dth[:, k] = ((Ls[:, p] + rho[:, q] - rho[:, k])
                     - (Ls[:, p] + Ls[:, k] - Ls[:, q])
                     * (Ls[:, k] + rho[:, q] - rho[:, p]) / (2.0 * Ls[:, k])
                     ) / four_area
    w = np.zeros(len(c.edges))
    np.add.at(w, c.face_edge.ravel(), dth.ravel())
    return -w


def edge_loop_apply(c, w, f):
    """operators2d._edge_apply through the columns of c.edge_array, each
    vertex summing its edges in edge order."""
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    flux = w * (f[j] - f[i])
    into, out = np.zeros(c.vertex_count), np.zeros(c.vertex_count)
    np.add.at(into, i, flux)
    np.add.at(out, j, flux)
    return into - out


# the 3-d kernels in the layout the (4, T) column table replaced: t in
# (4, 3, T[, S]) order, the tet columns gathered through c.tet_array.T.
# _OTHERS_43[p, k] is the k-th of the three other columns of tet column p
_OTHERS_43 = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
_PAIRS_43 = _OTHERS_43 > np.arange(4)[:, np.newaxis]


def tet_terms_oracle(cr):
    """(1 / rho, q, t, N, D) of packing3d._tet_terms with t[p, k] = t_o for
    o = _OTHERS_43[p, k], from cr = r[c.tet_array.T] or r.T[c.tet_array.T]."""
    rho = cr / np.minimum.reduce(cr)
    inv = 1.0 / rho
    q = np.add.reduce(inv) ** 2 - 2.0 * np.add.reduce(inv ** 2)
    ro = rho[_OTHERS_43]
    t = ro / (rho[:, np.newaxis] + ro)
    ta, tb, tc = t[:, 0], t[:, 1], t[:, 2]
    tab = ta * tb
    return (inv, q, t, rho * (tab * tc) * np.sqrt(q),
            2.0 - (tab + tc * (ta + tb)))


def solid_angle_pass_oracle(cr):
    """(Omega, q) of packing3d._solid_angle_pass from tet_terms_oracle."""
    _, q, _, num, den = tet_terms_oracle(cr)
    return (2.0 * np.arctan2(num, den)).T, q.T


def point3_oracle(c, r):
    """The fields of packing3d._point of checked radii r as a dict, or the
    message of its DegenerateTetrahedronError, from solid_angle_pass_oracle;
    each vertex sums its solid angles in tetrahedron order."""
    with np.errstate(all="ignore"):
        ang, q = solid_angle_pass_oracle(r[c.tet_array.T])
        if not np.minimum.reduce(q) > 0.0:
            bad = int(np.argmin(q))
            return (f"tetrahedron {bad} is not realizable: "
                    f"Q r_min^2 = {q[bad]:.6g}")
        if not np.isfinite(np.add.reduce(ang, axis=None)):
            return "a solid angle is not finite"
        K = 4.0 * np.pi - np.bincount(c.tet_array.ravel(), ang.ravel(),
                                      c.vertex_count)
        total = float(K @ r)
        volume = np.add.reduce(r ** 3)
        average = total / volume
        return {"r": r, "K": K, "R": K / r ** 2, "total": total,
                "volume": volume, "average": average,
                "g": K - average * r ** 2, "factors": q}


def edge_weights3_oracle(c, r):
    """The edge weights of packing3d._edge_weights3 from tet_terms_oracle,
    with no safety-margin or finiteness test; each edge sums its terms in
    tetrahedron order."""
    with np.errstate(all="ignore"):
        cr = r[c.tet_array.T]
        inv, q, t, num, den = tet_terms_oracle(cr)
        inv_o = inv[_OTHERS_43]
        x = (1.0 - t) + inv_o * (2.0 * inv_o - inv.sum(axis=0)) / q
        y = -(t.sum(axis=1, keepdims=True) - t) * t * (1.0 - t)
        num, den = num[:, np.newaxis], den[:, np.newaxis]
        d_ang = 2.0 * num * (den * x - y) / (num * num + den * den)
        terms = (cr[:, np.newaxis] * d_ang)[_PAIRS_43]
        return -np.bincount(c.tet_edge.ravel(), terms.T.ravel(),
                            len(c.edges))
