"""Curvature Jacobians, discrete Laplacians, potentials and energies.

Coordinate conventions: the canonical log coordinate used internally is
u = log r ("log_r"). The alpha = 2 operators of the scalar-curvature theory
are usually written in u = log r^2 ("log_r2"); the two differ by a factor 2,
d/d(log r) = 2 d/d(log r^2). Every matrix-valued function takes an explicit
``coord`` argument and records it on the result.
"""

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailureError, SpectralFailureError
from .packing2d import (angle_defect, average_curvature, check_metric,
                        edge_lengths, inner_angles, total_measure)

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


def _defect_jacobian_r(c, r):
    """dK_i/dr_j assembled per face from analytic angle derivatives.

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


def curvature_jacobian(c, r, coord="log_r"):
    """Jacobian of the angle defects with respect to log radii.

    coord="log_r" gives dK_i/d(log r_j); coord="log_r2" gives half of it.
    Symmetric, positive semi-definite, zero row sums, kernel the constant
    vector.
    """
    r = check_metric(c, r)
    mat = _defect_jacobian_r(c, r) * r[np.newaxis, :]
    if coord == "log_r2":
        mat = 0.5 * mat
    elif coord != "log_r":
        raise ValueError(f"unknown coord {coord!r}")
    return JacobianMatrix(mat, coord)


def laplacian(c, r, f):
    """Discrete Laplacian with measure r^2: (1/r_i^2) sum_j w_ij (f_j - f_i),
    weights w_ij = -dK_i/d(log r_j^2). Matrix form -Sigma^{-1} L; half the
    alpha = 2 Laplacian in log r coordinates."""
    return 0.5 * alpha_laplacian(c, r, 2.0, f)


def alpha_laplacian(c, r, alpha, f):
    """Laplacian with measure r^alpha and log r coordinates."""
    r = check_metric(c, r)
    Lt = curvature_jacobian(c, r, coord="log_r").matrix
    return -(Lt @ np.asarray(f, dtype=float)) / r ** alpha


def laplacian_spectrum(c, r):
    """Eigenvalues of Sigma^{-1/2} L Sigma^{-1/2} (similar to -Laplacian).

    Returns (eigenvalues ascending, kernel_residual); the smallest eigenvalue
    is the kernel and its magnitude must be tiny relative to the spectral
    radius.
    """
    r = check_metric(c, r)
    L = curvature_jacobian(c, r, coord="log_r2").matrix
    scale = 1.0 / r
    lam = scale[:, None] * L * scale[None, :]
    try:
        w = np.linalg.eigvalsh(lam)
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
    return _potential_gradient(c, r, angle_defect(c, r), alpha, target)


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
    if coord == "log_r2":
        hess = 0.5 * hess
    elif coord != "log_r":
        raise ValueError(f"unknown coord {coord!r}")
    return JacobianMatrix(hess, coord)


# -- Calabi energy ------------------------------------------------------------


def calabi_energy(c, r, alpha=2.0, target=None):
    """Sum of squared curvature residuals; zero iff constant (or prescribed)
    alpha-curvature."""
    phi = potential_gradient(c, r, alpha, target)
    return float(phi @ phi)


def calabi_energy_gradient(c, r, alpha=2.0, target=None, coord="log_r"):
    """Gradient of the Calabi energy in log coordinates: 2 A phi with
    A the potential Hessian in the same coordinate."""
    phi = potential_gradient(c, r, alpha, target)
    A = potential_hessian(c, r, alpha, target, coord).matrix
    return 2.0 * (A @ phi)
