import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import grid_torus, incircle_loop_angles, random_metric
from packflows import data, operators2d, packing2d
from packflows.errors import DegenerateTriangleError
from packflows.mesh import Surface2Complex, euler_characteristic
from packflows.packing2d import (COS_MARGIN, angle_defect, average_curvature,
                                 curvature, curvature_averages, edge_lengths,
                                 inner_angles, total_measure)

# second constant-curvature ratio on the tetrahedron sphere, from the
# one-variable equation (5pi/3 - 2 theta) = x^2 (6 theta - pi),
# cos theta = x / (1 + x); solved to machine precision in test_flows2d
X_SECOND_ROOT = 5.948714905528109


def two_vertex_complex(phi):
    # smallest closed complex exercising a single weighted edge value is the
    # tetrahedron with one decorated edge
    edges = [(i, j, phi if (i, j) == (0, 1) else 0.0)
             for i, j in itertools.combinations(range(4), 2)]
    return Surface2Complex(4, itertools.combinations(range(4), 3), edges=edges)


def test_edge_lengths_tangential(tetra):
    l = edge_lengths(tetra, np.ones(4))
    assert np.allclose(l, 2.0, atol=1e-15)


def test_edge_length_orthogonal_is_pythagoras():
    c = two_vertex_complex(np.pi / 2)
    r = np.array([3.0, 4.0, 1.0, 1.0])
    l = edge_lengths(c, r)
    assert abs(l[c.edge_index(0, 1)] - 5.0) < 1e-14


def test_edge_length_half_angle_chord(tetra):
    # tangential circles of radius sin(x/2) give chord length 2 sin(x/2)
    for x in (0.3, 0.8, 1.4):
        r = np.full(4, np.sin(x / 2))
        l = edge_lengths(tetra, r)
        assert np.allclose(l, 2 * np.sin(x / 2), rtol=1e-15)


def test_inner_angles_equilateral(tetra):
    th = inner_angles(tetra, np.ones(4))
    assert np.allclose(th, np.pi / 3, atol=1e-14)


def test_inner_angle_isoceles_formula(tetra):
    # radii (1, x, x, x): the base angle at an x-vertex is arccos(x/(1+x))
    for x in (0.5, 2.0, 5.0):
        r = np.array([1.0, x, x, x])
        th = inner_angles(tetra, r)
        expect = np.arccos(x / (1 + x))
        # faces containing vertex 0: base angles at the two x-vertices
        for fi, f in enumerate(tetra.faces):
            if 0 in f:
                for m, v in enumerate(f):
                    if v != 0:
                        assert abs(th[fi, m] - expect) < 1e-14


def test_angle_sums_are_pi(surfaces):
    rng = np.random.default_rng(3)
    for c in surfaces.values():
        for _ in range(20):
            th = inner_angles(c, random_metric(rng, c.vertex_count))
            assert np.max(np.abs(th.sum(axis=1) - np.pi)) < 1e-12


def test_angle_defect_tetrahedron_constant(tetra):
    K = angle_defect(tetra, np.ones(4))
    assert np.max(np.abs(K - np.pi)) < 1e-14


def test_angle_defect_second_family(tetra):
    # radii (1, x, x, x): K_1 = 6 theta - pi, K_i = 5 pi/3 - 2 theta
    for x in (0.5, 2.0, 7.0):
        r = np.array([1.0, x, x, x])
        th = np.arccos(x / (1 + x))
        K = angle_defect(tetra, r)
        assert abs(K[0] - (6 * th - np.pi)) < 1e-13
        assert np.max(np.abs(K[1:] - (5 * np.pi / 3 - 2 * th))) < 1e-13


def test_gauss_bonnet(surfaces):
    rng = np.random.default_rng(11)
    for c in surfaces.values():
        gb = 2 * np.pi * euler_characteristic(c)
        for _ in range(30):
            K = angle_defect(c, random_metric(rng, c.vertex_count, 0.2, 5.0))
            assert abs(K.sum() - gb) < 1e-10


def test_defect_scale_invariance(icosa):
    rng = np.random.default_rng(5)
    r = random_metric(rng, 12)
    K = angle_defect(icosa, r)
    for lam in (0.25, 3.0, 1e3):
        assert np.max(np.abs(angle_defect(icosa, lam * r) - K)) < 1e-10


def test_curvature_scaling_law(genus2):
    rng = np.random.default_rng(6)
    r = random_metric(rng, 11)
    R = curvature(genus2, r, 2.0)
    for lam in (0.5, 4.0):
        # R(sqrt(lam) r) = R(r) / lam
        R2 = curvature(genus2, np.sqrt(lam) * r, 2.0)
        assert np.max(np.abs(R2 - R / lam)) < 1e-10 * np.max(np.abs(R))


def test_alpha_curvature_scaling(torus7):
    rng = np.random.default_rng(8)
    r = random_metric(rng, 7)
    for alpha in (-1.0, 0.0, 1.0, 2.0, 3.5):
        Ra = curvature(torus7, r, alpha)
        R2 = curvature(torus7, 2.0 * r, alpha)
        assert np.max(np.abs(R2 - Ra / 2.0 ** alpha)) <= \
            1e-10 * max(1.0, np.max(np.abs(Ra)))


def test_curvature_special_alphas(octa):
    rng = np.random.default_rng(9)
    r = random_metric(rng, 6)
    assert np.array_equal(curvature(octa, r, 0.0), angle_defect(octa, r))
    assert np.allclose(curvature(octa, r, 2.0),
                       angle_defect(octa, r) / r ** 2, rtol=0, atol=0)


def test_curvature_alpha_one_scaled(tetra):
    # doubling constant radii halves the alpha = 1 curvature of the defect
    R1 = curvature(tetra, 2.0 * np.ones(4), 1.0)
    assert np.allclose(R1, np.pi / 2, atol=1e-14)


def test_second_root_metric_has_constant_R(tetra):
    r = np.array([1.0, X_SECOND_ROOT, X_SECOND_ROOT, X_SECOND_ROOT])
    R = curvature(tetra, r, 2.0)
    assert np.max(np.abs(R - R.mean())) < 1e-12
    # the 4-decimal rounding of the ratio still gives near-constant values
    r_round = np.array([1.0, 5.9487, 5.9487, 5.9487])
    R_round = curvature(tetra, r_round, 2.0)
    assert np.max(np.abs(R_round - R_round.mean())) < 1e-3


def test_total_measure():
    assert total_measure(np.ones(4), 2.0) == 4.0
    assert total_measure(np.array([1.0, 2.0]), 3.0) == 9.0
    rng = np.random.default_rng(0)
    assert total_measure(rng.uniform(0.1, 9, 13), 0.0) == 13.0


def test_averages(tetra, torus7):
    av = curvature_averages(tetra, np.ones(4), alpha=2.0)
    assert abs(av.scalar_avg - np.pi) < 1e-15
    assert abs(av.defect_avg - np.pi) < 1e-15
    rng = np.random.default_rng(1)
    r = random_metric(rng, 7)
    av0 = curvature_averages(torus7, r, alpha=0.0)
    assert av0 == (0.0, 0.0, 0.0)
    # alpha = 0 average equals the defect average by the ||r||_0^0 = N rule
    av_ic = curvature_averages(tetra, r[:4], alpha=0.0)
    assert abs(av_ic.alpha_avg - av_ic.defect_avg) < 1e-15
    assert abs(average_curvature(tetra, r[:4], 0.0) - av_ic.defect_avg) < 1e-15


def test_no_degenerate_triangles_on_random_metrics(surfaces):
    # Thurston's lemma: triangle inequalities always hold for weights in
    # [0, pi/2]; 10^4 random metrics across the shipped complexes
    rng = np.random.default_rng(123)
    names = list(surfaces)
    for k in range(10000):
        c = surfaces[names[k % len(names)]]
        r = random_metric(rng, c.vertex_count, 1e-3, 1e3)
        inner_angles(c, r)  # must not raise


def test_random_weights_no_degeneracy(tetra):
    rng = np.random.default_rng(17)
    for _ in range(200):
        edges = [(i, j, rng.uniform(0, np.pi / 2))
                 for i, j in itertools.combinations(range(4), 2)]
        c = Surface2Complex(4, itertools.combinations(range(4), 3), edges=edges)
        r = random_metric(rng, 4, 0.05, 20.0)
        th = inner_angles(c, r)
        assert np.max(np.abs(th.sum(axis=1) - np.pi)) < 1e-12


def test_degenerate_triangle_error(tetra):
    # corrupt lengths are only reachable through corrupt weights; force the
    # guard directly with an impossible cosine: the edge (0, 1) of length 10
    # in faces whose other sides are 1, first bad at the corner of vertex 0
    s = np.ones(len(tetra.edges))
    s[tetra.edge_index(0, 1)] = 10.0
    with pytest.raises(DegenerateTriangleError,
                       match=r"cosine argument 5 outside \[-1, 1\] in "
                             r"face row 0"):
        packing2d._angles_from_sides(tetra, s)


def test_metric_validation(tetra):
    with pytest.raises(ValueError):
        edge_lengths(tetra, np.ones(5))
    with pytest.raises(ValueError):
        edge_lengths(tetra, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        edge_lengths(tetra, np.array([1.0, np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="alpha"):
        curvature(tetra, np.ones(4), np.nan)


# -- the vectorised angle kernel against the per-corner loop ------------------


def loop_angles_from_sides(s):
    """The law of cosines one corner column at a time: the oracle of the
    vectorised kernel, with its error naming the first bad row of the first
    bad column."""
    out = np.empty_like(s)
    for m in range(3):
        b = s[:, (m + 1) % 3]
        cc = s[:, (m + 2) % 3]
        arg = (b * b + cc * cc - s[:, m] ** 2) / (2.0 * b * cc)
        bad = ~(np.abs(arg) <= 1.0 + COS_MARGIN)
        if np.any(bad):
            raise DegenerateTriangleError(
                f"cosine argument {arg[bad][0]:.6g} outside [-1, 1] in face "
                f"row {int(np.nonzero(bad)[0][0])}")
        out[:, m] = np.arccos(np.clip(arg, -1.0, 1.0))
    return out


ORACLE_SURFACES = {name: data.load(name) for name in
                   ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                    "genus2_11")}
ORACLE_SURFACES["grid_20x20"] = grid_torus(20, 20)


def reweighted(c, weights):
    """c with the edge weights replaced."""
    edges = [(i, j, w) for (i, j), w in zip(c.edges, weights)]
    return Surface2Complex(c.vertex_count, c.faces, edges=edges)


def kernel_outcome(kernel, s):
    """The angles, or the message of the DegenerateTriangleError."""
    with np.errstate(all="ignore"):
        try:
            return kernel(s)
        except DegenerateTriangleError as exc:
            return str(exc)


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(sorted(ORACLE_SURFACES)), draw=st.data())
def test_angle_kernel_is_the_per_corner_loop_bit_for_bit(name, draw):
    """Radii over ten orders of magnitude and weights in [0, pi/2], not all
    0 (that is a tangent surface, the next test's): the angles of the
    edge-level kernel equal the face-level loop's bit for bit on the
    gathered face sides, and the squared edge lengths returned with them
    are the law of cosines of the radii, whose roots are the edge
    lengths."""
    c = ORACLE_SURFACES[name]
    u = draw.draw(arrays(float, c.vertex_count,
                         elements=st.floats(-11.5, 11.5)))
    w = draw.draw(arrays(float, len(c.edges),
                         elements=st.floats(0.0, np.pi / 2)))
    assume(w.any())
    c = reweighted(c, w)
    r = np.exp(u)
    theta, L = packing2d._angles(c, r)
    lengths = edge_lengths(c, r)
    assert np.array_equal(np.sqrt(L), lengths)
    i, j = c.edge_array[:, 0], c.edge_array[:, 1]
    rho = r * r
    assert np.array_equal(L, rho[i] + rho[j] + 2.0 * r[i] * r[j] * c.cos_weights)
    assert np.array_equal(
        theta, kernel_outcome(loop_angles_from_sides, lengths[c.face_edge]))


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(sorted(ORACLE_SURFACES)), draw=st.data())
def test_incircle_kernel_is_the_per_face_loop_bit_for_bit(name, draw):
    """Log-radii anywhere in [-700, 700] on a tangent surface (every weight
    0): the angles and incircle radii of the kernel equal the loop over
    the faces and their corners bit for bit."""
    c = ORACLE_SURFACES[name]
    assert c.tangent
    u = draw.draw(arrays(float, c.vertex_count,
                         elements=st.floats(-700.0, 700.0)))
    r = np.exp(u)
    theta, rho = packing2d._angles(c, r)
    want_theta, want_rho = incircle_loop_angles(c, r)
    assert np.array_equal(rho, want_rho)
    assert np.array_equal(theta, want_theta)


TANGENT_SURFACES = ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                    "genus2_11")


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(TANGENT_SURFACES),
       bound=st.sampled_from([16.0, 700.0]), draw=st.data())
def test_tangent_kernels_are_exact_to_a_few_ulps(name, bound, draw):
    """Log-radii anywhere in [-16, 16] or in [-700, 700] on a tangent
    surface: every inner angle is within 10 ulps of 2 atan(rho / r_i) and
    every edge weight within 10 ulps of -rho / (r_i + r_j) summed over the
    two faces of its edge, both to 40 digits. A rounding errs by at most
    2^-53 relative, a unit, and k units are less than k ulps: rho errs by
    6.5 units (the sum s and r_hi / s, then its root, the two other roots
    and the two products), an angle by 9.5 (the quotient, then atan, whose
    condition number is below 1 and whose own error is one ulp), a weight
    by 9.5 (each term's sum and quotient, then the sum of the two terms).
    Where a result is subnormal its ulp is the least subnormal."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    c = ORACLE_SURFACES[name]
    u = draw.draw(arrays(float, c.vertex_count,
                         elements=st.floats(-bound, bound)))
    r = np.exp(u)
    p = packing2d._point(c, r, 0.0, None)
    w = operators2d._edge_weights(c, p)
    rm = [mpmath.mpf(x) for x in r.tolist()]
    want_w = [mpmath.mpf(0)] * len(c.edges)
    for f, (corners, sides) in enumerate(zip(c.face_array.tolist(),
                                             c.face_edge.tolist())):
        ri, rj, rk = (rm[v] for v in corners)
        rho = mpmath.sqrt(ri * rj * rk / (ri + rj + rk))
        for m, v in enumerate(corners):
            want = 2 * mpmath.atan(rho / rm[v])
            assert abs(p.theta[f, m] - want) <= 10 * np.spacing(float(want))
        for k in range(3):
            want_w[sides[k]] -= rho / (rm[corners[(k + 1) % 3]]
                                       + rm[corners[(k + 2) % 3]])
    for got, want in zip(w.tolist(), want_w):
        assert abs(got - want) <= 10 * np.spacing(abs(float(want)))


@pytest.mark.parametrize("r", [
    [1e-160, 1e-160, 1.0, 1.0],     # r_i r_j r_k / s ~ 1e-320 is subnormal
    [1e-300, 1e-30, 1.0, 1.0],      # r_i r_j r_k / s ~ 1e-330 underflows
    [1e-20, 1.0, 1.0, 1.0],         # the cosines of the law saturate
    [1e300, 1e300, 2e300, 1e300],   # r_i r_j r_k / s ~ 1e600 overflows
    [1e-305, 1e-305, 1e305, 1e305],
    [1e300, 1e-5, 1e-10, 1.0],      # r_k / s ~ 1e-310 is subnormal
])
def test_tangent_defects_are_exact_at_any_radius_ratio(r):
    """The tetrahedron's defects are within 4 ulps of 2 pi of 2 pi less
    the vertex's 2 atan(rho / r) to 40 digits, also where the square of an
    incircle radius, or a partial product of it, leaves the normal
    doubles. The law of cosines gave K = 0, 0, 2 pi, 2 pi for the second
    (the truth is about -pi, pi, 2 pi, 2 pi), -pi for the tiny circle of
    the third (8.5e-10 off) and refused the last three as degenerate."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    c = ORACLE_SURFACES["tetrahedron"]
    rm = [mpmath.mpf(x) for x in r]
    want = [2 * mpmath.pi] * 4
    for corners in c.face_array.tolist():
        ri, rj, rk = (rm[v] for v in corners)
        rho = mpmath.sqrt(ri * rj * rk / (ri + rj + rk))
        for v in corners:
            want[v] -= 2 * mpmath.atan(rho / rm[v])
    got = angle_defect(c, r)
    for k, w in zip(got.tolist(), want):
        assert abs(k - w) <= 4 * np.spacing(2 * np.pi)


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(ORACLE_SURFACES)), draw=st.data())
def test_angle_kernel_names_the_loops_corrupt_corner(name, draw):
    """Edge sides corrupted to NaN, inf, 0, an overflowing 1e300 or past
    the triangle inequality of a face, far ("long") or just enough to put
    only their own corner of that face past the margin when its other two
    sides are equal ("tight"): the edge-level kernel and the face-level
    loop on the gathered face sides both raise, and name the same row and
    value. The last corruption always stands, so the sides are corrupt."""
    c = ORACLE_SURFACES[name]
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1)))
    s = edge_lengths(c, random_metric(rng, c.vertex_count))
    cells = draw.draw(st.lists(
        st.tuples(st.integers(0, len(c.faces) - 1), st.integers(0, 2),
                  st.sampled_from(["nan", "inf", "zero", "huge", "long",
                                   "tight"])),
        min_size=1, max_size=6))
    for row, col, kind in cells:
        edge, b, cc = c.face_edge[row, [col, (col + 1) % 3, (col + 2) % 3]]
        if kind == "tight":
            s[cc] = s[b]
        others = s[b] + s[cc]
        s[edge] = {"nan": np.nan, "inf": np.inf, "zero": 0.0,
                   "huge": 1e300, "long": 1.5 * others,
                   "tight": (1.0 + 5e-10) * others}[kind]
    want = kernel_outcome(loop_angles_from_sides, s[c.face_edge])
    assert isinstance(want, str)
    assert kernel_outcome(lambda s: packing2d._angles_from_sides(c, s),
                          s) == want
