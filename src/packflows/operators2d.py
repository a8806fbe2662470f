"""Curvature Jacobians, discrete Laplacians, potentials and energies.

Coordinate conventions: the canonical log coordinate used internally is
u = log r ("log_r"). The alpha = 2 operators of the scalar-curvature theory
are usually written in u = log r^2 ("log_r2"); the two differ by a factor 2,
d/d(log r) = 2 d/d(log r^2). Every matrix-valued function takes an explicit
``coord`` argument and records it on the result.

The curvature Jacobian dK_i/d(log r_j) is symmetric, its rows sum to zero
and it vanishes off the edges, so the edge weights w_ij = dK_i/d(log r_j)
are the Jacobian: J f = sum_j w_ij (f_j - f_i). The Laplacians, the Calabi
energy gradient, the Calabi flow fields and Newton's conjugate-gradient
solve apply it as that O(E) matvec; the dense matrices of
curvature_jacobian and potential_hessian are only assembled from the
weights (for the spectrum and tests).
"""

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailureError, SpectralFailureError
from .packing2d import (_angles, _defect_from_angles, average_curvature,
                        check_metric, total_measure)

KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class JacobianMatrix:
    """Dense symmetric matrix tagged with its differentiation coordinate."""

    matrix: np.ndarray
    coord: str  # "log_r", "log_r2" or "r"

    @property
    def shape(self):
        return self.matrix.shape

    def write_csv(self, path):
        with open(path, "w") as fp:
            fp.write(f"# coord={self.coord}\n")
            for row in self.matrix:
                fp.write(",".join(f"{x:.17g}" for x in row) + "\n")


# columns of the two other vertices p, q of face column k (the ends of the
# side k opposite vertex k)
_P = [1, 2, 0]
_Q = [2, 0, 1]


def _edge_weights(c, r, theta):
    """The curvature Jacobian as one weight per edge: w_e = dK_i/d(log r_j)
    = dK_j/d(log r_i) for the edge e = {i, j}, from the inner angles theta of
    the radii r.

    In a face with sides s_m opposite its vertices and area A, the side k
    joins the vertices p and q, and r_q moves the sides s_p and s_k:
        dtheta_p/dr_q = dtheta_p/ds_p ds_p/dr_q + dtheta_p/ds_k ds_k/dr_q
    with dtheta_p/ds_p = s_p / 2A, dtheta_p/ds_k = -s_p cos(theta_q) / 2A,
    ds_p/dr_q = (r_q + r_k cos phi_p) / s_p, ds_k/dr_q = (r_q + r_p cos phi_k) / s_k.
    With r_q (r_q + r_k cos phi_p) = (s_p^2 + r_q^2 - r_k^2) / 2 and the law
    of cosines this is, in the squared sides L_m = s_m^2,
        4A r_q dtheta_p/dr_q = (L_p + r_q^2 - r_k^2)
                               - (L_p + L_k - L_q) (L_k + r_q^2 - r_p^2) / 2 L_k.
    Each face adds -r_q dtheta_p/dr_q to the weight of each of its sides.
    """
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    rho = r * r
    L = (rho[i] + rho[j] + 2.0 * r[i] * r[j] * c.cos_weights)[c.face_edge]
    rho_f = rho[c.face_array]
    Lp, rho_q = L[:, _P], rho_f[:, _Q]
    four_area = 2.0 * np.sqrt(L[:, 1] * L[:, 2]) * np.sin(theta[:, 0])
    dth = ((Lp + rho_q - rho_f)
           - (Lp + L - L[:, _Q]) * (L + rho_q - rho_f[:, _P]) / (2.0 * L))
    dth /= four_area[:, np.newaxis]
    return -np.bincount(c.face_edge.ravel(), dth.ravel(), len(c.edges))


def _edge_apply(c, w, f):
    """The Jacobian with edge weights w applied to f:
    (J f)_i = sum_j w_ij (f_j - f_i); exactly zero on constants."""
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    flux = w * (f[j] - f[i])
    return (np.bincount(i, flux, c.vertex_count)
            - np.bincount(j, flux, c.vertex_count))


def _jacobian_diagonal(c, w):
    """The diagonal of the Jacobian with edge weights w: minus its row
    sums."""
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    n = c.vertex_count
    return -(np.bincount(i, w, n) + np.bincount(j, w, n))


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
    vector. Assembled from the edge weights: w off the diagonal, minus the
    row sums on it (the edges are unique and have no loops, so each entry is
    set once).
    """
    r = check_metric(c, r)
    factor = _coord_factor(coord)
    w = _edge_weights(c, r, _angles(c, r))
    n = c.vertex_count
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    diag = np.arange(n)
    mat = np.zeros((n, n))
    mat[i, j] = w
    mat[j, i] = w
    mat[diag, diag] = _jacobian_diagonal(c, w)
    mat *= factor
    return JacobianMatrix(mat, coord)


def laplacian(c, r, f):
    """Discrete Laplacian with measure r^2: (1/r_i^2) sum_j w_ij (f_j - f_i),
    weights w_ij = -dK_i/d(log r_j^2). Matrix form -Sigma^{-1} L; half the
    alpha = 2 Laplacian in log r coordinates."""
    return 0.5 * alpha_laplacian(c, r, 2.0, f)


def alpha_laplacian(c, r, alpha, f):
    """Laplacian with measure r^alpha and log r coordinates."""
    r = check_metric(c, r)
    w = _edge_weights(c, r, _angles(c, r))
    return -_edge_apply(c, w, np.asarray(f, dtype=float)) / r ** alpha


def laplacian_spectrum(c, r):
    """Eigenvalues of Sigma^{-1/2} L Sigma^{-1/2} (similar to -Laplacian).

    Returns (eigenvalues ascending, kernel_residual); the smallest eigenvalue
    is the kernel and its magnitude must be tiny relative to the spectral
    radius.
    """
    r = check_metric(c, r)
    L = curvature_jacobian(c, r, coord="log_r2").matrix
    scale = 1.0 / r
    L *= scale[:, None]
    L *= scale[None, :]
    try:
        w = np.linalg.eigvalsh(L)
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
    r = check_metric(c, r)
    return _potential_gradient(c, r, _defect_from_angles(c, _angles(c, r)),
                               alpha, target)


def _potential_gradient(c, r, K, alpha, target):
    """K - Rbar r^alpha from the angle defects K of the radii r."""
    rb = average_curvature(c, r, alpha) if target is None else np.asarray(target)
    return K - rb * r ** alpha


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panel(g, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(_GL_WEIGHTS * g(mid + half * _GL_NODES))


def _adaptive_gl(g, a, b, tol, depth=0):
    whole = _gl_panel(g, a, b)
    mid = 0.5 * (a + b)
    left = _gl_panel(g, a, mid)
    right = _gl_panel(g, mid, b)
    if abs(left + right - whole) < tol:
        return left + right
    if depth >= 30:
        raise QuadratureFailureError(
            f"no convergence on [{a}, {b}] after {depth} refinements")
    return (_adaptive_gl(g, a, mid, 0.5 * tol, depth + 1)
            + _adaptive_gl(g, mid, b, 0.5 * tol, depth + 1))


def ricci_potential(c, u0, u1, alpha=2.0, target=None, tol=1e-10):
    """Line integral of the potential gradient from u0 to u1 (u = log r).

    The integrand's Jacobian is symmetric, so the value does not depend on
    the path; the straight segment is integrated by adaptive 16-point
    Gauss-Legendre panels. Flow runs integrate the potential with their
    stepper instead; this quadrature is the independent check.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    d = u1 - u0
    if not np.any(d):
        return 0.0

    def integrand(ts):
        vals = np.empty_like(ts)
        for k, t in enumerate(ts):
            g = potential_gradient(c, np.exp(u0 + t * d), alpha, target)
            vals[k] = g @ d
        return vals

    return float(_adaptive_gl(integrand, 0.0, 1.0, tol))


def potential_hessian(c, r, alpha=2.0, target=None, coord="log_r"):
    """Hessian of the Ricci potential.

    Normalized form in log r:
        Ltilde - alpha R_av D (I - s s^T / ||r||_a^a) D,  D = diag(r^{a/2}),
    with s = r^{alpha/2}. With a prescribed target the correction is the
    diagonal alpha * target_i r_i^alpha. For alpha chi(M) <= 0 the matrix is
    positive semi-definite with kernel spanned by the constant vector.
    """
    r = check_metric(c, r)
    factor = _coord_factor(coord)
    Lt = curvature_jacobian(c, r, coord="log_r").matrix
    if target is None:
        rav = average_curvature(c, r, alpha)
        s = r ** (alpha / 2.0)
        nrm = total_measure(r, alpha)
        # D (I - s s^T / nrm) D with D = diag(s)
        proj = np.diag(s ** 2) - np.outer(s * s, s * s) / nrm
        hess = Lt - alpha * rav * proj
    else:
        hess = Lt - np.diag(alpha * np.asarray(target) * r ** alpha)
    hess *= factor
    return JacobianMatrix(hess, coord)


def _hessian_apply(c, r, w, alpha, target, v):
    """The potential Hessian in log r applied to v, from the edge weights w;
    the rank-one term of the normalized form is applied as a vector."""
    ra = r ** alpha
    if target is not None:
        return _edge_apply(c, w, v) - alpha * np.asarray(target) * ra * v
    rav = average_curvature(c, r, alpha)
    return _edge_apply(c, w, v) - alpha * rav * (
        ra * v - ra * (ra @ v) / total_measure(r, alpha))


# -- Calabi energy ------------------------------------------------------------


def calabi_energy(c, r, alpha=2.0, target=None):
    """Sum of squared curvature residuals; zero iff constant (or prescribed)
    alpha-curvature."""
    phi = potential_gradient(c, r, alpha, target)
    return float(phi @ phi)


def calabi_energy_gradient(c, r, alpha=2.0, target=None, coord="log_r"):
    """Gradient of the Calabi energy in log coordinates: 2 A phi with
    A the potential Hessian in the same coordinate."""
    r = check_metric(c, r)
    factor = _coord_factor(coord)
    theta = _angles(c, r)
    phi = _potential_gradient(c, r, _defect_from_angles(c, theta), alpha, target)
    w = _edge_weights(c, r, theta)
    return 2.0 * factor * _hessian_apply(c, r, w, alpha, target, phi)
