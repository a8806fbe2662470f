"""Curvature Jacobians, discrete Laplacians, potentials and energies.

Coordinate conventions: the canonical log coordinate used internally is
u = log r ("log_r"). The alpha = 2 operators of the scalar-curvature theory
are usually written in u = log r^2 ("log_r2"); the two differ by a factor 2,
d/d(log r) = 2 d/d(log r^2). Every matrix-valued function takes an explicit
``coord`` argument and records it on the result.

The curvature Jacobian dK_i/d(log r_j) is symmetric, its rows sum to zero
and it vanishes off the edges, so the edge weights w_ij = dK_i/d(log r_j)
are the Jacobian: J f = sum_j w_ij (f_j - f_i). _edge_weights reads them
off the evaluated point of packing2d._point, whose angle kernel chose the
formula by the complex: on a tangent surface (c.tangent, every edge weight
0) a face with incircle radius rho adds -rho / (r_p + r_q) to the weight
of its side pq, and the law of cosines is not differentiated; on a
weighted surface the derivative of the law of cosines is formed from the
point's squared edge lengths, so a point's squared sides are formed once.
Either way the terms are gathered once per face through the complex's
(5, F) tables face_sides and face_corners. The Laplacians, the Calabi
energy gradient, the Calabi flow fields and Newton's conjugate-gradient
solve apply it as that O(E) matvec, on the (2, E) table edge_ends; the
dense matrices of curvature_jacobian, laplacian_spectrum and
potential_hessian are only assembled from the weights (for the spectrum
and tests). The weights are scale free, and the first two form them on
radii rescaled by a power of two, so they stay in the float range at any
scale (_scale_free_weights).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailureError, SpectralFailureError
from .packing2d import _checked, _evaluate, _point, _vertex_function

KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class JacobianMatrix:
    """Dense symmetric matrix tagged with its differentiation coordinate."""

    matrix: np.ndarray
    coord: str  # "log_r", "log_r2" or "r"

    @property
    def shape(self):
        return self.matrix.shape


def _edge_weights(c, point):
    """The curvature Jacobian as one weight per edge: w_e = dK_i/d(log r_j)
    = dK_j/d(log r_i) for the edge e = {i, j}, from the radii r, the inner
    angles theta and the triangle sizes of the evaluated point
    (packing2d._point). The side k of a face joins its vertices p and q,
    the columns k + 1 and k + 2 mod 3: the rows 1:4 and 2:5 of
    c.face_sides and c.face_corners, whose rows 0:3 are the column k
    itself. Each face adds -r_q dtheta_p/dr_q to the weight of each of its
    sides.

    On a tangent surface the sizes are the incircle radii rho of the faces,
    and r_q dtheta_p/dr_q = rho / (r_p + r_q) (Chow and Luo, J.
    Differential Geom. 63 (2003)).

    On a weighted one they are the squared edge lengths L. In a face with
    sides s_m opposite its vertices and area A, r_q moves the sides s_p and
    s_k:
        dtheta_p/dr_q = dtheta_p/ds_p ds_p/dr_q + dtheta_p/ds_k ds_k/dr_q
    with dtheta_p/ds_p = s_p / 2A, dtheta_p/ds_k = -s_p cos(theta_q) / 2A,
    ds_p/dr_q = (r_q + r_k cos phi_p) / s_p, ds_k/dr_q = (r_q + r_p cos phi_k) / s_k.
    With r_q (r_q + r_k cos phi_p) = (s_p^2 + r_q^2 - r_k^2) / 2 and the law
    of cosines this is, in the squared sides L_m = s_m^2,
        4A r_q dtheta_p/dr_q = (L_p + r_q^2 - r_k^2)
                               - (L_p + L_k - L_q) (L_k + r_q^2 - r_p^2) / 2 L_k.
    """
    r = point.r
    if c.tangent:
        cr = r[c.face_corners]
        dth = point.sizes / (cr[1:4] + cr[2:5])
    else:
        rr, L = (r * r)[c.face_corners], point.sizes[c.face_sides]
        Lk, Lp, Lq = L[0:3], L[1:4], L[2:5]
        four_area = 2.0 * np.sqrt(L[1] * L[2]) * np.sin(point.theta[:, 0])
        dth = ((Lp + rr[2:5] - rr[0:3])
               - (Lp + Lk - Lq) * (Lk + rr[2:5] - rr[1:4]) / (2.0 * Lk))
        dth /= four_area
    # each edge lies in two faces, so the order of its two terms is free
    return -np.bincount(c.face_sides[0:3].ravel(), dth.ravel(), len(c.edges))


def _edge_apply(c, w, f):
    """The Jacobian with edge weights w applied to f:
    (J f)_i = sum_j w_ij (f_j - f_i); exactly zero on constants."""
    i, j = c.edge_ends
    flux = w * (f[j] - f[i])
    return (np.bincount(i, flux, c.vertex_count)
            - np.bincount(j, flux, c.vertex_count))


def _jacobian_diagonal(c, w):
    """The diagonal of the Jacobian with edge weights w: minus its row
    sums."""
    i, j = c.edge_ends
    n = c.vertex_count
    return -(np.bincount(i, w, n) + np.bincount(j, w, n))


def _dense_jacobian(c, w_ij, w_ji, diag):
    """The dense matrix with the value w_ij at (i, j) and w_ji at (j, i) of
    each edge {i, j} = c.edge_ends[:, e], and diag on the diagonal (the
    edges are unique and loop-free: each entry is set once)."""
    n = c.vertex_count
    i, j = c.edge_ends
    mat = np.zeros((n, n))
    mat[i, j] = w_ij
    mat[j, i] = w_ji
    mat[np.arange(n), np.arange(n)] = diag
    return mat


def _scale_free_weights(c, r):
    """(r, w): the radii r of the surface c, checked, and their edge weights
    w, formed on r times 2^-k, k the binary exponent of max r (np.frexp)
    rounded up to even. The weights are scale free and the rescale exact,
    also through the roots of the radii in an incircle radius (an even k
    scales each by 2^-k/2), so w is that of r itself bit for bit wherever
    that is finite, and in range at any scale: the weights multiply squared
    sides by squared radii."""
    r = _checked(c, r, 0.0)[0]
    k = np.frexp(r.max())[1]
    with np.errstate(all="ignore"):
        p = _point(c, np.ldexp(r, -(k + k % 2)), 0.0, None)
    return r, _edge_weights(c, p)


def _coord_factor(coord):
    """d/d(log r) = 2 d/d(log r^2): the factor from log r to coord."""
    if coord == "log_r":
        return 1.0
    if coord == "log_r2":
        return 0.5
    raise ValueError(f"unknown coord {coord!r}")


def curvature_jacobian(c, r, coord="log_r"):
    """Jacobian of the angle defects with respect to log radii.

    coord="log_r" gives dK_i/d(log r_j); coord="log_r2" gives half of it.
    Symmetric, positive semi-definite, zero row sums, kernel the constant
    vector. Assembled from the scale-free edge weights
    (_scale_free_weights): w off the diagonal, minus the row sums on it.
    """
    factor = _coord_factor(coord)
    w = _scale_free_weights(c, r)[1]
    wf = w * factor
    return JacobianMatrix(_dense_jacobian(
        c, wf, wf, _jacobian_diagonal(c, w) * factor), coord)


def laplacian(c, r, f):
    """Discrete Laplacian with measure r^2: (1/r_i^2) sum_j w_ij (f_j - f_i),
    weights w_ij = -dK_i/d(log r_j^2). Matrix form -Sigma^{-1} L; half the
    alpha = 2 Laplacian in log r coordinates."""
    return 0.5 * alpha_laplacian(c, r, 2.0, f)


def alpha_laplacian(c, r, alpha, f):
    """Laplacian with measure r^alpha and log r coordinates."""
    p = _evaluate(c, r, alpha)
    f = _vertex_function(c, "f", f)
    w = _edge_weights(c, p)
    return -_edge_apply(c, w, f) / p.ra


def laplacian_spectrum(c, r):
    """Eigenvalues of Sigma^{-1/2} L Sigma^{-1/2} (similar to -Laplacian).

    Returns (eigenvalues ascending, kernel_residual); the smallest eigenvalue
    is the kernel and its magnitude must be tiny relative to the spectral
    radius. The matrix is assembled from its edge values: with w the
    scale-free edge weights, d their diagonal and s = 1 / r, the entry
    (i, j) is ((w / 2) s_i) s_j and the diagonal ((d / 2) s_i) s_i, the
    products of scaling the log r^2 Jacobian by its rows and then its
    columns.
    """
    r, w = _scale_free_weights(c, r)
    s = 1.0 / r
    i, j = c.edge_ends
    h = w * 0.5
    d = _jacobian_diagonal(c, w) * 0.5
    return spectrum(_dense_jacobian(c, h * s[i] * s[j], h * s[j] * s[i],
                                    d * s * s))


def spectrum(mat):
    """(eigenvalues ascending, |smallest| / spectral radius) of the symmetric
    matrix mat; an eigensolver failure raises SpectralFailureError."""
    try:
        w = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError(f"eigensolver failed: {exc}") from exc
    radius = max(abs(w[0]), abs(w[-1]), 1e-300)
    return w, abs(w[0]) / radius


def first_positive_eigenvalue(c, r):
    """Smallest nonzero eigenvalue of -Laplacian (one-dimensional kernel)."""
    w, kernel_residual = laplacian_spectrum(c, r)
    if kernel_residual > KERNEL_TOL:
        raise SpectralFailureError(
            f"kernel eigenvalue not negligible: relative size {kernel_residual:.3g}")
    return float(w[1])


# -- potentials --------------------------------------------------------------


def potential_gradient(c, r, alpha=2.0, target=None):
    """Gradient of the (modified) Ricci potential in log r: K - Rbar r^alpha.

    With no target, Rbar is the average alpha-curvature of r, which makes the
    gradient the residual of the constant-curvature problem.
    """
    return _evaluate(c, r, alpha, target).g


@functools.cache
def _gauss_legendre():
    """The 16-point Gauss-Legendre rule (nodes, weights), built on first use
    so that importing the package does not import numpy.polynomial."""
    return np.polynomial.legendre.leggauss(16)


def _gl_panel(g, a, b):
    nodes, weights = _gauss_legendre()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(weights * g(mid + half * nodes))


def _adaptive_gl(g, a, b, whole, tol, depth=0):
    """The integral of g over [a, b] from its one-panel value whole."""
    mid = 0.5 * (a + b)
    left = _gl_panel(g, a, mid)
    right = _gl_panel(g, mid, b)
    if abs(left + right - whole) < tol:
        return left + right
    if depth >= 30:
        raise QuadratureFailureError(
            f"no convergence on [{a}, {b}] after {depth} refinements")
    return (_adaptive_gl(g, a, mid, left, 0.5 * tol, depth + 1)
            + _adaptive_gl(g, mid, b, right, 0.5 * tol, depth + 1))


def ricci_potential(c, u0, u1, alpha=2.0, target=None, tol=1e-10):
    """Line integral of the potential gradient from u0 to u1 (u = log r).

    The integrand's Jacobian is symmetric, so the value does not depend on
    the path; the straight segment is integrated by adaptive 16-point
    Gauss-Legendre panels. Flow runs integrate the potential with their
    stepper instead; this quadrature is the independent check. Both end
    points are checked with alpha and the target, as radii e^u of the
    surface c, before anything else; that bounds each r^alpha, and their
    convex sum, between them.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    with np.errstate(over="ignore"):  # e^u = inf fails the check by name
        _checked(c, np.exp(u0), alpha)
        target = _checked(c, np.exp(u1), alpha, target)[1]
    d = u1 - u0
    if not np.any(d):
        return 0.0

    @np.errstate(all="ignore")
    def integrand(ts):
        vals = np.empty_like(ts)
        for k, t in enumerate(ts):
            vals[k] = _point(c, np.exp(u0 + t * d), alpha, target).g @ d
        return vals

    # tol is relative to the size of the integral (at least 1): a leg of
    # |F| ~ 1e8 cannot be resolved to an absolute 1e-10 in double precision
    whole = _gl_panel(integrand, 0.0, 1.0)
    return float(_adaptive_gl(integrand, 0.0, 1.0, whole,
                              tol * max(1.0, abs(whole))))


def potential_hessian(c, r, alpha=2.0, target=None, coord="log_r"):
    """Hessian of the Ricci potential, the dense form of _hessian_apply.

    Normalized form in log r:
        Ltilde - alpha R_av (diag(r^a) - r^a (r^a)^T / ||r||_a^a).
    With a prescribed target the correction is the diagonal
    alpha * target_i r_i^alpha. For alpha chi(M) <= 0 the matrix is
    positive semi-definite with kernel spanned by the constant vector.
    """
    factor = _coord_factor(coord)
    p = _evaluate(c, r, alpha, target)
    w = _edge_weights(c, p)
    hess = _dense_jacobian(c, w, w, _jacobian_diagonal(c, w)
                           - alpha * p.rbar * p.ra)
    if target is None:
        hess += alpha * p.rbar * np.outer(p.ra, p.ra) / p.total
    hess *= factor
    return JacobianMatrix(hess, coord)


def _hessian_apply(c, p, w, alpha, target, v):
    """The potential Hessian in log r applied to v at the evaluated point p
    (packing2d._point) of the target, from the edge weights w; the rank-one
    term of the normalized form is applied as a vector."""
    ra = p.ra
    if target is not None:
        return _edge_apply(c, w, v) - alpha * p.rbar * ra * v
    return _edge_apply(c, w, v) - alpha * p.rbar * (
        ra * v - ra * (ra @ v) / p.total)


# -- Calabi energy ------------------------------------------------------------


def calabi_energy(c, r, alpha=2.0, target=None):
    """Sum of squared curvature residuals; zero iff constant (or prescribed)
    alpha-curvature."""
    phi = potential_gradient(c, r, alpha, target)
    return float(phi @ phi)


def calabi_energy_gradient(c, r, alpha=2.0, target=None, coord="log_r"):
    """Gradient of the Calabi energy in log coordinates: 2 A phi with
    A the potential Hessian in the same coordinate."""
    factor = _coord_factor(coord)
    p = _evaluate(c, r, alpha, target)
    w = _edge_weights(c, p)
    return 2.0 * factor * _hessian_apply(c, p, w, alpha, target, p.g)
