import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (calabi_families, defect_jacobian_r_oracle,
                      edge_loop_apply, face_loop_edge_weights,
                      face_loop_point, grid_torus, random_metric, reweighted)
from packflows import data, operators2d, packing2d
from packflows.flows2d import FAMILIES, FlowSpec, vector_field
from packflows.mesh import euler_characteristic
from packflows.operators2d import (alpha_laplacian, calabi_energy,
                                   calabi_energy_gradient, curvature_jacobian,
                                   first_positive_eigenvalue, laplacian,
                                   laplacian_spectrum, potential_gradient,
                                   potential_hessian, ricci_potential)
from packflows.packing2d import angle_defect, average_curvature, total_measure


def fd_jacobian_logr(c, r, rel=1e-6):
    """Central finite differences of the angle defects, an independent oracle."""
    n = c.vertex_count
    out = np.empty((n, n))
    for j in range(n):
        h = rel * r[j]
        rp = r.copy()
        rp[j] = r[j] + h
        km = r.copy()
        km[j] = r[j] - h
        out[:, j] = (angle_defect(c, rp) - angle_defect(c, km)) / (2 * h) * r[j]
    return out


def adjacency(c):
    adj = np.zeros((c.vertex_count, c.vertex_count), dtype=bool)
    for i, j in c.edges:
        adj[i, j] = adj[j, i] = True
    return adj


def test_jacobian_structure(surfaces):
    rng = np.random.default_rng(2)
    for c in surfaces.values():
        n = c.vertex_count
        adj = adjacency(c)
        for _ in range(5):
            r = random_metric(rng, n)
            Lt = curvature_jacobian(c, r).matrix
            scale = np.abs(Lt).max()
            # symmetric, zero row sums
            assert np.abs(Lt - Lt.T).max() <= 1e-9 * max(1.0, scale)
            assert np.abs(Lt.sum(axis=1)).max() <= 1e-9 * max(1.0, scale)
            # PSD with rank N-1 and kernel spanned by the constant vector
            w, v = np.linalg.eigh(Lt)
            assert w[0] > -1e-9 * scale
            assert abs(w[0]) <= 1e-9 * scale
            assert w[1] > 1e-9 * scale
            kern = v[:, 0]
            assert np.abs(kern - kern.mean()).max() < 1e-8
            # negative off-diagonals exactly on neighbors
            off = Lt[adj]
            assert np.all(off < 0)
            far = Lt[~adj & ~np.eye(n, dtype=bool)]
            if far.size:
                assert np.abs(far).max() == 0.0


def test_jacobian_matches_finite_differences(surfaces):
    rng = np.random.default_rng(4)
    for c in surfaces.values():
        for _ in range(5):
            r = random_metric(rng, c.vertex_count)
            Lt = curvature_jacobian(c, r).matrix
            fd = fd_jacobian_logr(c, r)
            assert np.abs(Lt - fd).max() <= 1e-6 * np.abs(Lt).max()


def test_jacobian_coordinate_factor(icosa):
    rng = np.random.default_rng(5)
    r = random_metric(rng, 12)
    Lt = curvature_jacobian(icosa, r, coord="log_r").matrix
    L = curvature_jacobian(icosa, r, coord="log_r2").matrix
    assert np.allclose(L, 0.5 * Lt, rtol=0, atol=0)
    with pytest.raises(ValueError):
        curvature_jacobian(icosa, r, coord="r2")


def test_laplacian_annihilates_constants(torus7):
    rng = np.random.default_rng(6)
    r = random_metric(rng, 7)
    out = laplacian(torus7, r, np.full(7, 3.7))
    assert np.abs(out).max() < 1e-12


def test_laplacian_self_adjoint(surfaces):
    rng = np.random.default_rng(7)
    for c in surfaces.values():
        n = c.vertex_count
        r = random_metric(rng, n)
        f = rng.standard_normal(n)
        h = rng.standard_normal(n)
        mu = r ** 2
        lhs = np.sum(laplacian(c, r, f) * h * mu)
        rhs = np.sum(f * laplacian(c, r, h) * mu)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_summation_by_parts(genus2):
    # <|grad f|^2, 1> = f^T L f = -<f, Laplacian f>
    rng = np.random.default_rng(8)
    r = random_metric(rng, 11)
    f = rng.standard_normal(11)
    L = curvature_jacobian(genus2, r, coord="log_r2").matrix
    grad_sq = np.zeros(11)
    for ei, (i, j) in enumerate(genus2.edges):
        w = -L[i, j]
        grad_sq[i] += w * (f[j] - f[i]) ** 2 / (2 * r[i] ** 2)
        grad_sq[j] += w * (f[i] - f[j]) ** 2 / (2 * r[j] ** 2)
    total = np.sum(grad_sq * r ** 2)
    assert abs(total - f @ L @ f) < 1e-10 * max(1.0, total)
    assert abs(total + np.sum(f * laplacian(genus2, r, f) * r ** 2)) \
        < 1e-10 * max(1.0, total)


def test_alpha_laplacian(octa):
    rng = np.random.default_rng(9)
    r = random_metric(rng, 6)
    f = rng.standard_normal(6)
    # alpha = 2 equals twice the measure-r^2 Laplacian (log r vs log r^2)
    assert np.allclose(alpha_laplacian(octa, r, 2.0, f),
                       2.0 * laplacian(octa, r, f), rtol=1e-12, atol=1e-14)
    assert np.abs(alpha_laplacian(octa, r, 1.3, np.ones(6))).max() < 1e-12
    for alpha in (-1.0, 0.0, 1.5):
        out = alpha_laplacian(octa, r, alpha, f)
        assert abs(np.sum(r ** alpha * out)) < 1e-10


def test_spectrum_kernel_is_radius_direction(surfaces):
    rng = np.random.default_rng(10)
    for c in surfaces.values():
        n = c.vertex_count
        r = random_metric(rng, n)
        lam1 = first_positive_eigenvalue(c, r)
        assert lam1 > 0
        w, kres = laplacian_spectrum(c, r)
        assert kres < 1e-9
        # kernel eigenvector proportional to r
        L = curvature_jacobian(c, r, coord="log_r2").matrix
        lam_mat = L / np.outer(r, r)
        ww, vv = np.linalg.eigh(lam_mat)
        kern = vv[:, 0]
        kern = kern / np.linalg.norm(kern) * np.sign(kern[0])
        rn = r / np.linalg.norm(r)
        assert np.abs(kern - rn).max() < 1e-8


def test_first_eigenvalue_against_fd_spectrum(tetra):
    r = np.ones(4)
    lam1 = first_positive_eigenvalue(tetra, r)
    fd = 0.5 * fd_jacobian_logr(tetra, r)
    lam_fd = np.linalg.eigvalsh(fd / np.outer(r, r))
    assert abs(lam1 - lam_fd[1]) < 1e-6


def test_potential_zero_at_base(torus7):
    rng = np.random.default_rng(11)
    u0 = np.log(random_metric(rng, 7))
    assert ricci_potential(torus7, u0, u0) == 0.0


def test_potential_translation_invariance(genus2):
    rng = np.random.default_rng(12)
    u0 = np.log(random_metric(rng, 11))
    u1 = np.log(random_metric(rng, 11))
    base = ricci_potential(genus2, u0, u1, alpha=2.0)
    for t in (-0.7, 0.4):
        shifted = ricci_potential(genus2, u0, u1 + t, alpha=2.0)
        # F(u + t 1) = F(u): value from the shifted endpoint matches after
        # discounting the path leg along the constant direction, which
        # contributes nothing for the alpha = 2 normalized integrand
        assert abs(shifted - base) < 1e-8


def test_potential_path_independence(icosa):
    rng = np.random.default_rng(13)
    u0 = np.log(random_metric(rng, 12))
    u1 = np.log(random_metric(rng, 12))
    w = np.log(random_metric(rng, 12))
    for alpha, target in ((2.0, None), (0.0, None),
                          (1.0, np.full(12, 0.1))):
        direct = ricci_potential(icosa, u0, u1, alpha, target)
        two_leg = (ricci_potential(icosa, u0, w, alpha, target)
                   + ricci_potential(icosa, w, u1, alpha, target))
        assert abs(direct - two_leg) < 1e-8


def test_hessian_tetrahedron_example(tetra):
    H = potential_hessian(tetra, np.ones(4), alpha=2.0, coord="log_r2").matrix
    expect = (np.sqrt(3) / 6 - np.pi / 4) * (4 * np.eye(4) - np.ones((4, 4)))
    assert np.abs(H - expect).max() < 1e-9
    # negative semi-definite with three negative eigenvalues
    w = np.linalg.eigvalsh(H)
    assert np.sum(w < -1e-9) == 3
    assert abs(w[-1]) < 1e-12


def test_hessian_flat_euler_characteristic_reduces_to_jacobian(torus7):
    rng = np.random.default_rng(15)
    r = random_metric(rng, 7)
    H = potential_hessian(torus7, r, alpha=2.0, coord="log_r2").matrix
    L = curvature_jacobian(torus7, r, coord="log_r2").matrix
    assert np.abs(H - L).max() == 0.0


def test_hessian_matches_fd_of_gradient(surfaces):
    rng = np.random.default_rng(16)
    for name, c in surfaces.items():
        n = c.vertex_count
        r = random_metric(rng, n)
        for alpha in (2.0, 0.0, -1.0):
            H = potential_hessian(c, r, alpha).matrix
            fd = np.empty((n, n))
            u = np.log(r)
            for j in range(n):
                h = 1e-6
                up = u.copy()
                up[j] += h
                um = u.copy()
                um[j] -= h
                fd[:, j] = (potential_gradient(c, np.exp(up), alpha)
                            - potential_gradient(c, np.exp(um), alpha)) / (2 * h)
            assert np.abs(H - fd).max() <= 1e-6 * max(1.0, np.abs(H).max())


def test_hessian_psd_when_alpha_chi_nonpositive(tetra, torus7, genus2):
    rng = np.random.default_rng(17)
    combos = [(genus2, 2.0), (genus2, 1.0), (torus7, 2.0), (torus7, -3.0),
              (tetra, -1.0), (genus2, 0.0)]
    for c, alpha in combos:
        assert alpha * euler_characteristic(c) <= 0
        r = random_metric(rng, c.vertex_count)
        H = potential_hessian(c, r, alpha).matrix
        w, v = np.linalg.eigh(H)
        scale = max(np.abs(w).max(), 1.0)
        assert w[0] >= -1e-9 * scale
        kern = v[:, 0]
        assert np.abs(kern - kern.mean()).max() < 1e-7


def test_calabi_energy(tetra, genus2):
    assert calabi_energy(tetra, np.ones(4)) < 1e-28
    rng = np.random.default_rng(18)
    for _ in range(20):
        r = random_metric(rng, 11)
        assert calabi_energy(genus2, r) >= 0.0


def test_calabi_gradient_matches_fd(genus2):
    rng = np.random.default_rng(19)
    r = random_metric(rng, 11)
    for alpha, coord in ((2.0, "log_r"), (2.0, "log_r2"), (0.0, "log_r")):
        g = calabi_energy_gradient(genus2, r, alpha, coord=coord)
        u = np.log(r)
        # a step h in log r^2 is a step h/2 in log r
        du = 1e-6 if coord == "log_r" else 0.5e-6
        fd = np.empty(11)
        for j in range(11):
            up = u.copy()
            up[j] += du
            um = u.copy()
            um[j] -= du
            fd[j] = (calabi_energy(genus2, np.exp(up), alpha)
                     - calabi_energy(genus2, np.exp(um), alpha)) / 2e-6
        assert np.abs(g - fd).max() <= 1e-6 * max(1.0, np.abs(g).max())


def test_prescribed_potential_hessian(torus7):
    rng = np.random.default_rng(20)
    r = random_metric(rng, 7)
    target = -np.abs(rng.standard_normal(7))
    H = potential_hessian(torus7, r, alpha=2.0, target=target).matrix
    fd = np.empty((7, 7))
    u = np.log(r)
    for j in range(7):
        h = 1e-6
        up = u.copy()
        up[j] += h
        um = u.copy()
        um[j] -= h
        fd[:, j] = (potential_gradient(torus7, np.exp(up), 2.0, target)
                    - potential_gradient(torus7, np.exp(um), 2.0, target)) / (2 * h)
    assert np.abs(H - fd).max() <= 1e-6 * max(1.0, np.abs(H).max())
    # nonpositive target, not identically zero: positive definite
    assert np.linalg.eigvalsh(H)[0] > 0


PROPERTY_MESHES = {name: data.load(name) for name in
                   ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                    "genus2_11")}
PROPERTY_MESHES["grid_12x12"] = grid_torus(12, 12)


def dense_calabi_field(c, r, family, alpha, J):
    """The Calabi family's field through the dense Jacobian J (log r), with
    the size of its summands (|J| |f| elementwise) as the rounding scale."""
    K = angle_defect(c, r)
    if FAMILIES[family].field == "calabi":
        f = K / r ** alpha
        v = -(J @ f) / r ** alpha
        size = (np.abs(J) @ np.abs(f)) / r ** alpha
    else:
        rav = average_curvature(c, r, alpha)
        ra = r ** alpha
        H = J - alpha * rav * (np.diag(ra) - np.outer(ra, ra)
                               / total_measure(r, alpha))
        g = K - rav * ra
        v = -(H @ g)
        size = np.abs(H) @ np.abs(g)
    scale = FAMILIES[family].scale
    return scale * v, scale * size


@settings(max_examples=30, deadline=None, database=None)
@given(mesh_name=st.sampled_from(sorted(PROPERTY_MESHES)), draw=st.data())
def test_edge_weight_jacobian_matches_dense_oracle(mesh_name, draw):
    base = PROPERTY_MESHES[mesh_name]
    c = reweighted(base, draw.draw(st.lists(
        st.floats(0.0, np.pi / 2), min_size=len(base.edges),
        max_size=len(base.edges))))
    r = np.array(draw.draw(st.lists(st.floats(0.3, 3.0),
                                    min_size=c.vertex_count,
                                    max_size=c.vertex_count)))
    oracle = defect_jacobian_r_oracle(c, r) * r[np.newaxis, :]
    J = curvature_jacobian(c, r).matrix
    size = np.abs(oracle).max()
    assert np.abs(J - oracle).max() <= 1e-12 * size
    assert np.array_equal(J, J.T)
    assert np.abs(J.sum(axis=1)).max() <= 1e-12 * np.abs(J).max()
    assert np.abs(J - fd_jacobian_logr(c, r)).max() <= 1e-6 * size
    for family, alpha in calabi_families():
        v = vector_field(FlowSpec(family, alpha=alpha), c, r)
        expect, scale = dense_calabi_field(c, r, family, alpha, oracle)
        assert np.all(np.abs(v - expect) <= 1e-12 * scale.max()), (family, alpha)


# -- the gather-table kernels against the face-level loops ---------------------

GATHER_SURFACES = ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                   "genus2_11")


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(GATHER_SURFACES + ("grid",)),
       n=st.integers(3, 60), m=st.integers(3, 60),
       alpha=st.sampled_from([0.0, 1.0, 2.0, -1.5]),
       prescribed=st.booleans(), weighted=st.booleans(),
       decades=st.floats(-50.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_gather_kernels_are_the_face_level_loops_bit_for_bit(
        name, n, m, alpha, prescribed, weighted, decades, seed):
    """Weights 0 (a tangent surface: the incircle kernels) or in
    (0, pi/2) (the law of cosines) and radii over one order of magnitude at
    scales 1e+-50: _point, _edge_weights and _edge_apply, which gather
    through the (5, F) and (2, E) tables, equal the loops over the faces
    and the (F, 3) face arrays bit for bit."""
    rng = np.random.default_rng(seed)
    base = grid_torus(n, m) if name == "grid" else data.load(name)
    c = reweighted(base, rng.uniform(0.0, np.pi / 2, len(base.edges))
                   * weighted)
    r = 10.0 ** decades * rng.uniform(0.3, 3.0, c.vertex_count)
    target = rng.uniform(-1.0, 1.0, c.vertex_count) if prescribed else None
    with np.errstate(all="ignore"):
        p = packing2d._point(c, r, alpha, target)
        want = face_loop_point(c, r, alpha, target)
        for field in p._fields:
            assert np.array_equal(getattr(p, field), want[field]), field
        assert c.tangent == (not weighted)
        w = operators2d._edge_weights(c, p)
        assert np.array_equal(w, face_loop_edge_weights(c, r, p.theta,
                                                        p.sizes))
        f = rng.normal(size=c.vertex_count)
        assert np.array_equal(operators2d._edge_apply(c, w, f),
                              edge_loop_apply(c, w, f))
