import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (defect_jacobian_fd_oracle, descend_quotient_oracle,
                      edge_weights3_oracle, point3_oracle,
                      solid_angle_pass_oracle)
from packflows import data, flows2d, packing3d
from packflows.errors import (DegenerateTetrahedronError, NearDegenerateError)
from packflows.flows2d import FlowSpec, run
from packflows.packing3d import (_embed_lengths, curvature3,
                                 curvature_norm_bound, defect_jacobian,
                                 laplacian3, q_factor, solid_angle_at_origin,
                                 solid_angle_defect, solid_angles,
                                 tet_geometry, tet_q_factors,
                                 yamabe_invariant_estimate, yamabe_residual,
                                 yamabe_state)

REGULAR_SOLID_ANGLE = 3 * np.arccos(1.0 / 3.0) - np.pi


def random_admissible(c, rng, lo=0.6, hi=1.6, tries=100):
    for _ in range(tries):
        r = rng.uniform(lo, hi, c.vertex_count)
        if np.min(tet_q_factors(c, r)) > 1e-3:
            return r
    raise AssertionError("could not sample an admissible metric")


def test_q_factor_values():
    assert q_factor([1.0, 1.0, 1.0, 1.0]) == 8.0
    assert abs(q_factor([1.0, 1.0, 1.0, 0.1]) - (-37.0)) < 1e-12
    eps = (2 * np.sqrt(3) - 3) / 3
    assert abs(q_factor([1.0, 1.0, 1.0, eps])) < 1e-12
    arr = q_factor(np.array([[1.0, 1, 1, 1], [1.0, 1, 1, 0.1]]))
    assert arr.shape == (2,)
    assert abs(arr[0] - 8.0) < 1e-14


def test_regular_solid_angle_and_oracle():
    geom = tet_geometry([1.0, 1.0, 1.0, 1.0])
    assert np.abs(geom.angles - REGULAR_SOLID_ANGLE).max() < 1e-12
    assert geom.q == 8.0


def test_solid_angles_match_coordinate_oracle():
    # TetGeometry cross-checks the closed form from radii against the
    # triple-product formula on coordinates at every vertex; exercise it on
    # random radii
    rng = np.random.default_rng(1)
    count = 0
    while count < 200:
        radii = rng.uniform(0.2, 3.0, 4)
        if q_factor(radii) <= 1e-6:
            continue
        geom = tet_geometry(radii)  # raises if the two routes disagree
        count += 1
        assert np.all(geom.angles > 0)
        assert geom.angles.sum() < 4 * np.pi  # strict


def test_solid_angle_scale_invariance():
    rng = np.random.default_rng(2)
    radii = np.array([0.7, 1.1, 0.9, 1.4])
    base = tet_geometry(radii).angles
    for lam in (0.1, 7.0):
        assert np.abs(tet_geometry(lam * radii).angles - base).max() < 1e-11


def loop_solid_angles(rt):
    """Per-vertex loop over the face angles and the spherical excess of the
    dihedral angles: an independent reference for the closed form."""
    others = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    out = np.empty_like(rt)
    for p, o in enumerate(others):
        sides = []
        for a, b in ((o[1], o[2]), (o[0], o[2]), (o[0], o[1])):
            lpa, lpb = rt[:, p] + rt[:, a], rt[:, p] + rt[:, b]
            lab = rt[:, a] + rt[:, b]
            arg = (lpa ** 2 + lpb ** 2 - lab ** 2) / (2.0 * lpa * lpb)
            sides.append(np.arccos(np.clip(arg, -1.0, 1.0)))
        total = -np.pi
        for m in range(3):
            sa, sb, sc = sides[m], sides[(m + 1) % 3], sides[(m + 2) % 3]
            arg = (np.cos(sa) - np.cos(sb) * np.cos(sc)) / (np.sin(sb) * np.sin(sc))
            total = total + np.arccos(np.clip(arg, -1.0, 1.0))
        out[:, p] = total
    return out


@settings(max_examples=30, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["cell5", "cell16", "torus3_27"]),
       draw=st.data())
def test_solid_angles_match_oracle_on_complexes(mesh_name, draw):
    # every row of the closed-form kernel against the triple-product formula
    # on embedded coordinates and against the per-vertex spherical-excess
    # loop; the defect against the per-vertex sums
    c = data.load(mesh_name)
    n = c.vertex_count
    r = np.array(draw.draw(st.lists(st.floats(0.3, 3.0), min_size=n,
                                    max_size=n)))
    assume(np.min(tet_q_factors(c, r)) > 1e-3)
    ang = solid_angles(c, r)
    assert np.abs(ang - loop_solid_angles(r[c.tet_array])).max() <= 1e-12
    sums = np.zeros(n)
    for t, tet in enumerate(c.tet_array):
        rt = r[tet]
        coords = _embed_lengths({(i, j): rt[i] + rt[j]
                                 for i in range(4) for j in range(i + 1, 4)})
        for v in range(4):
            others = [coords[w] - coords[v] for w in range(4) if w != v]
            assert abs(ang[t, v] - solid_angle_at_origin(*others)) <= 1e-9
            sums[tet[v]] += ang[t, v]
    assert np.abs(solid_angle_defect(c, r) - (4 * np.pi - sums)).max() <= 1e-12


def test_degenerate_tetrahedron_raises(cell5, cell16):
    with pytest.raises(DegenerateTetrahedronError):
        tet_geometry([1.0, 1.0, 1.0, 0.1])
    r = np.array([1.0, 1.0, 1.0, 1.0, 0.1])
    with pytest.raises(DegenerateTetrahedronError) as info:
        solid_angles(cell5, r)
    assert info.value.tet_index == np.argmin(tet_q_factors(cell5, r))
    # the error names the row of least scale-free factor Q r_min^2, which is
    # not the row of least Q when the bad rows differ in scale
    r = np.array([0.1, 3.0, 0.3, 0.3, 3.0, 3.0, 10.0, 0.3])
    scaled = tet_q_factors(cell16, r) * r[cell16.tet_array].min(axis=1) ** 2
    assert np.argmin(tet_q_factors(cell16, r)) != np.argmin(scaled)
    with pytest.raises(DegenerateTetrahedronError,
                       match=f"Q r_min\\^2 = {scaled.min():.6g}") as info:
        solid_angles(cell16, r)
    assert info.value.tet_index == np.argmin(scaled)
    # NaN compares False with everything: a NaN radius, a Q whose unscaled
    # value is NaN, and a radius ratio past the float range within one
    # tetrahedron (Q > 0, but the solid angles are NaN) must fail by name
    with pytest.raises(ValueError):
        tet_geometry([np.nan, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateTetrahedronError, match="Q r_min\\^2 = -1"):
        solid_angles(cell5, [1e-200, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateTetrahedronError, match="not finite"):
        solid_angles(cell5, [1e300, 1e-10, 1e-10, 1e-10, 1e-10])
    with pytest.raises(DegenerateTetrahedronError, match="not finite"):
        defect_jacobian(cell5, [1e300, 1e-10, 1e-10, 1e-10, 1e-10])


def test_solid_angles_in_the_limit_of_one_huge_sphere(cell5):
    # a vertex of radius 1e200 sees the three unit spheres at angle 0, and
    # each of them sees a plane and two unit spheres at pi / 3
    r = np.array([1e200, 1.0, 1.0, 1.0, 1.0])
    ang = solid_angles(cell5, r)
    rows = np.nonzero(cell5.tet_array == 0)
    assert len(rows[0]) == 4
    for t, col in zip(*rows):
        expect = np.full(4, np.pi / 3)
        expect[col] = 0.0
        assert np.abs(ang[t] - expect).max() <= 1e-15


@settings(max_examples=60, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["cell5", "cell16", "torus3_27"]),
       k=st.floats(-300.0, 300.0), seed=st.integers(0, 2 ** 32 - 1))
# at these scales the unscaled Q of seed 0's cell5 radii overflows to +inf
# in some tetrahedra, and is computed from subnormal terms
@example(mesh_name="cell5", k=-153.36, seed=0)
@example(mesh_name="cell5", k=160.0, seed=0)
def test_solid_angles_are_scale_invariant(mesh_name, k, seed):
    c = data.load(mesh_name)
    r = np.random.default_rng(seed).uniform(0.3, 3.0, c.vertex_count)
    assume(np.min(tet_q_factors(c, r)) > 1e-3)
    unit = solid_angles(c, r)
    try:
        scaled = solid_angles(c, 10.0 ** k * r)
    except DegenerateTetrahedronError:
        return
    assert np.abs(scaled - unit).max() <= 1e-12


def test_cell5_defect(cell5):
    K = solid_angle_defect(cell5, np.ones(5))
    expect = 4 * np.pi - 4 * REGULAR_SOLID_ANGLE
    assert np.abs(K - expect).max() < 1e-12
    assert abs(expect - 10.361) < 1e-3


def test_cell16_defect(cell16):
    K = solid_angle_defect(cell16, np.ones(8))
    expect = 4 * np.pi - 8 * REGULAR_SOLID_ANGLE
    assert np.abs(K - expect).max() < 1e-12


def test_defect_bounds(cell5, cell16):
    rng = np.random.default_rng(3)
    for c in (cell5, cell16):
        d = c.degrees().max()
        for _ in range(50):
            r = random_admissible(c, rng)
            K = solid_angle_defect(c, r)
            assert np.all(K < 4 * np.pi)
            assert np.all(K >= (4 - 2 * d) * np.pi)


def test_defect_scale_invariance(cell16):
    rng = np.random.default_rng(4)
    r = random_admissible(cell16, rng)
    K = solid_angle_defect(cell16, r)
    assert np.abs(solid_angle_defect(cell16, 5.0 * r) - K).max() < 1e-11


def test_curvature3(cell5):
    rng = np.random.default_rng(5)
    R = curvature3(cell5, np.ones(5))
    assert np.abs(R - R[0]).max() < 1e-12
    r = random_admissible(cell5, rng)
    K = solid_angle_defect(cell5, r)
    assert np.abs(curvature3(cell5, r) * r ** 2 - K).max() < 1e-14
    # R(sqrt(lam) r) = R(r) / lam
    lam = 2.7
    assert np.abs(curvature3(cell5, np.sqrt(lam) * r)
                  - curvature3(cell5, r) / lam).max() < 1e-11


def test_yamabe_state(cell5):
    st = yamabe_state(cell5, np.ones(5))
    K1 = 4 * np.pi - 4 * REGULAR_SOLID_ANGLE
    assert abs(st.total - 5 * K1) < 1e-12
    assert abs(st.volume - 5.0) < 1e-15
    assert abs(st.quotient - 5 * K1 / 5 ** (1.0 / 3.0)) < 1e-12
    # both expressions for the total agree
    assert abs(np.sum(st.curvature * st.radii ** 3) - st.total) < 1e-12


def test_quotient_scale_invariance_and_bound(cell5, cell16):
    rng = np.random.default_rng(6)
    for c in (cell5, cell16):
        for _ in range(30):
            r = random_admissible(c, rng)
            st = yamabe_state(c, r)
            st2 = yamabe_state(c, 3.3 * r)
            assert abs(st2.quotient - st.quotient) < 1e-12 * max(1, abs(st.quotient))
            assert abs(st.quotient) <= curvature_norm_bound(c, r) + 1e-12


def test_defect_jacobian_structure(cell5, cell16, torus3):
    # assembled from one weight per edge: exactly symmetric, and with the
    # diagonal from the scale invariance of K, r is in the kernel to rounding
    rng = np.random.default_rng(7)
    for c in (cell5, cell16, torus3):
        r = random_admissible(c, rng)
        lam = defect_jacobian(c, r).matrix
        scale = np.abs(lam).max()
        assert np.array_equal(lam, lam.T)
        # kernel along r, PSD, rank N-1
        assert np.linalg.norm(lam @ r) <= 1e-12 * scale * np.linalg.norm(r)
        w = np.linalg.eigvalsh(lam)
        assert w[0] >= -1e-12 * scale
        assert w[1] > 1e-6 * scale


@settings(max_examples=120, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["cell5", "cell16", "torus3_27"]),
       seed=st.integers(0, 2 ** 32 - 1), lo=st.floats(0.3, 0.9),
       k=st.floats(-20.0, 20.0))
def test_defect_jacobian_matches_finite_differences(mesh_name, seed, lo, k):
    # the closed form against central differences with one Richardson
    # level, on admissible metrics of any scale (dK/dr scales like 1/r)
    c = data.load(mesh_name)
    r = 10.0 ** k * random_admissible(c, np.random.default_rng(seed), lo=lo,
                                      tries=1000)
    lam = defect_jacobian(c, r).matrix
    oracle = defect_jacobian_fd_oracle(c, r)
    assert np.abs(lam - oracle).max() <= 1e-6 * np.abs(oracle).max()


def test_gradient_of_total_curvature_is_defect(cell5, cell16):
    # Schlaefli-type identity: finite differences of the total curvature in
    # each radius reproduce the defect vector
    rng = np.random.default_rng(8)
    for c in (cell5, cell16):
        for _ in range(25):
            r = random_admissible(c, rng)
            K = solid_angle_defect(c, r)
            for j in range(c.vertex_count):
                h = 1e-6 * r[j]
                rp = r.copy()
                rp[j] += h
                rm = r.copy()
                rm[j] -= h
                fd = (yamabe_state(c, rp).total
                      - yamabe_state(c, rm).total) / (2 * h)
                assert abs(fd - K[j]) <= 1e-6 * max(1.0, abs(K[j]))


def test_defect_jacobian_refuses_near_degenerate(cell5):
    eps_boundary = (2 * np.sqrt(3) - 3) / 3
    r = np.array([1.0, 1.0, 1.0, 1.0, eps_boundary + 1e-9])
    assert 0 < np.min(tet_q_factors(cell5, r)) < 1e-6
    with pytest.raises(NearDegenerateError):
        defect_jacobian(cell5, r)


def test_laplacian3_constants_and_measure(cell16):
    rng = np.random.default_rng(9)
    r = random_admissible(cell16, rng)
    assert np.abs(laplacian3(cell16, r, np.full(8, 2.2))).max() == 0.0
    f = rng.standard_normal(8)
    out = laplacian3(cell16, r, f)
    # integral against the volume measure vanishes
    assert abs(np.sum(out * r ** 3)) <= 1e-12 * np.abs(out).max()
    # the matvec of the dense Jacobian's off-diagonal part
    lam = defect_jacobian(cell16, r).matrix
    W = -lam * r[np.newaxis, :]
    np.fill_diagonal(W, 0.0)
    dense = np.sum(W * (f[np.newaxis, :] - f[:, np.newaxis]), axis=1) / r ** 2
    assert np.abs(out - dense).max() <= 1e-12 * np.abs(out).max()


def test_curvature_evolution_identity_3d(cell16):
    # dR/dt = Laplacian R / 2 + R (R - R_av) along the flow, via a centered
    # difference along the field: log r +- delta v
    rng = np.random.default_rng(10)
    r = 1.0 + 0.05 * rng.standard_normal(8)
    st = yamabe_state(cell16, r)
    v = 0.5 * (st.average - st.curvature)
    delta = 1e-4
    dR = (curvature3(cell16, r * np.exp(delta * v))
          - curvature3(cell16, r * np.exp(-delta * v))) / (2 * delta)
    rhs = 0.5 * laplacian3(cell16, r, st.curvature) \
        + st.curvature * (st.curvature - st.average)
    assert np.abs(dR - rhs).max() < 1e-5 * max(1.0, np.abs(rhs).max())


def test_flow_fixed_point(cell5):
    tr = run(FlowSpec("yamabe", t_max=20.0), cell5, np.ones(5))
    assert tr.converged
    assert tr.residuals[0] < 1e-12


def test_vector_field_is_the_yamabe_field(cell16):
    r = 1.0 + 0.02 * np.random.default_rng(16).standard_normal(8)
    st = yamabe_state(cell16, r)
    v = flows2d.vector_field(FlowSpec("yamabe"), cell16, r)
    assert np.array_equal(v, 0.5 * (st.average - st.curvature))


def test_step_is_the_first_step_of_run(cell16):
    r0 = 1.0 + 0.02 * np.random.default_rng(17).standard_normal(8)
    spec = FlowSpec("yamabe", t_max=20.0, renormalize=False)
    tr = run(spec, cell16, r0)
    state = flows2d.step(spec, cell16, flows2d.FlowState(0.0, r0,
                                                         spec.initial_step))
    assert state.t == tr.times[1]
    assert np.array_equal(state.r, tr.radii[1])


def test_flow_monitors_on_perturbation(cell5):
    rng = np.random.default_rng(11)
    r0 = 1.0 + 0.01 * rng.standard_normal(5)
    tr = run(FlowSpec("yamabe", t_max=5.0), cell5, r0)
    # volume conserved, total curvature nonincreasing up to termination
    assert np.abs(tr.conserved / tr.conserved[0] - 1.0).max() < 1e-7
    assert np.all(np.diff(tr.potential) <= 1e-9)


def test_flow_total_curvature_derivative_matches_closed_form(torus3):
    # dS/dt = -1/2 sum (K_i - R_av r_i^2)^2 / r_i, checked differentially at
    # states along a run (centered difference along the field: log r +-
    # delta v)
    rng = np.random.default_rng(12)
    r0 = 1.0 + 0.02 * rng.standard_normal(27)
    tr = run(FlowSpec("yamabe", t_max=1.0, eps=1e-14), torus3, r0)

    for k in np.linspace(0, len(tr.times) - 1, 5).astype(int):
        r = tr.radii[k]
        st = yamabe_state(torus3, r)
        v = 0.5 * (st.average - st.curvature)
        delta = 1e-5
        ds_dt = (yamabe_state(torus3, r * np.exp(delta * v)).total
                 - yamabe_state(torus3, r * np.exp(-delta * v)).total) \
            / (2 * delta)
        assert abs(ds_dt + 0.5 * tr.calabi[k]) < 1e-6 * max(1.0, tr.calabi[k])


def test_flow_removable_singularity(cell5):
    r0 = np.array([1.383, 0.759, 0.37, 0.328, 1.683])
    tr = run(FlowSpec("yamabe", t_max=20.0), cell5, r0)
    assert tr.termination == "singularity_removable"
    assert tr.singularity["type"] == "removable"
    assert "witness" in tr.singularity
    assert tr.singularity["q"] < 1e-6
    # radii stayed away from zero: genuinely removable, not essential
    scale = np.sum(tr.radii[-1] ** 3) ** (1.0 / 3.0)
    assert tr.radii[-1].min() / scale > 1e-3


def singularity_watch(c):
    """The classify of the flow run hands to the driver for yamabe, as a
    verdict on radii: the driver classifies the point it evaluated."""
    _, flow = flows2d._flow(FlowSpec("yamabe"), c, np.ones(c.vertex_count))
    return lambda r, t, relax=1.0: flow.classify(flow.evaluate(r), t, relax)


@pytest.mark.parametrize("k", [-8, -3, 1, 4, 8])
def test_singularity_watch_is_scale_free(cell5, k):
    """The watch compares the scale-free Q r_min^2 and the volume-normalized
    radii, so a metric and its multiple by 10^k get the same verdict: none,
    removable (with the same reported factor) or essential. Every metric is
    realizable, as every point the flow accepts is: one sphere of radius
    1e-8 among unit ones is not (Q < 0), four of them with one unit sphere
    are."""
    classify = singularity_watch(cell5)
    eps_boundary = (2 * np.sqrt(3) - 3) / 3
    metrics = [np.array([1.0, 1.1, 0.9, 1.0, 1.05]),
               np.array([1.0, 1.0, 1.0, 1.0, eps_boundary * (1 + 1e-9)]),
               np.array([1.0, 1e-8, 1e-8, 1e-8, 1e-8])]
    verdicts = [classify(r, 0.5) for r in metrics]
    assert [v and v["type"] for v in verdicts] == [None, "removable",
                                                   "essential"]
    assert 0 < verdicts[1]["q"] < packing3d.SING_Q
    for r, verdict in zip(metrics, verdicts):
        assert classify(10.0 ** k * r, 0.5) == verdict
        assert classify(10.0 ** k * r, 0.5, relax=1e3) == classify(
            r, 0.5, relax=1e3)


def test_flow_essential_classification_threshold(cell5, monkeypatch):
    # with an inflated radius threshold the same shrinking run is classified
    # as essential first, exercising the other branch
    r0 = np.array([1.383, 0.759, 0.37, 0.328, 1.683])
    monkeypatch.setattr(packing3d, "SING_RADIUS", 0.12)
    tr = run(FlowSpec("yamabe", t_max=20.0), cell5, r0)
    assert tr.termination == "singularity_essential"
    assert tr.singularity["witness"] in (2, 3)


def test_torus3_constant_metric_is_attracting(torus3):
    # equal radii give constant negative curvature; perturbations flow back
    assert yamabe_residual(torus3, np.ones(27)) < 1e-12
    rng = np.random.default_rng(13)
    r0 = 1.0 + 0.01 * rng.standard_normal(27)
    tr = run(FlowSpec("yamabe", t_max=20.0, eps=1e-10), torus3, r0)
    assert tr.converged
    slope, _, r2 = tr.fit_rate()
    assert slope < 0
    assert r2 > 0.99
    # limit is the constant metric up to the conserved volume normalization
    expect = (tr.conserved[0] / 27.0) ** (1.0 / 3.0)
    assert np.abs(tr.radii[-1] - expect).max() < 1e-5


def test_yamabe_invariant_estimate(torus3, cell5):
    est = yamabe_invariant_estimate(torus3, n_starts=3, seed=0)
    q_ones = yamabe_state(torus3, np.ones(27)).quotient
    assert est.value <= q_ones + 1e-12
    assert est.critical
    # critical point satisfies the constant-curvature equations
    st = yamabe_state(torus3, est.metric)
    assert np.abs(st.defect - st.average * st.radii ** 2).max() < 1e-6
    assert abs(est.value) <= curvature_norm_bound(torus3, est.metric) + 1e-9

    est5 = yamabe_invariant_estimate(cell5, n_starts=6, seed=1)
    assert est5.value <= yamabe_state(cell5, np.ones(5)).quotient + 1e-12
    assert abs(est5.value) <= curvature_norm_bound(cell5, est5.metric) + 1e-9


def lock_step_matches_oracle(c, starts, monkeypatch, max_iter, gtol=1e-8):
    """Run the lock-step descent and the sequential oracle from the same
    starts; assert that round k evaluates, bit for bit and in start order,
    the k-th trial point of every start the oracle evaluates k times or
    more (so each start makes as many evaluations), and that every start
    ends at the oracle's point, value and verdict. Returns the oracle's
    (r, Q, converged, trials) per start."""
    ref = [descend_quotient_oracle(c, r0, gtol, max_iter) for r0 in starts]
    rounds = []
    quotients = packing3d._quotients

    def recorded(c, u):
        rounds.append(u.copy())
        return quotients(c, u)
    monkeypatch.setattr(packing3d, "_quotients", recorded)
    r, q, converged = packing3d._descend(c, np.array(starts), gtol, max_iter)
    trials = [t for *_, t in ref]
    assert len(rounds) == max(map(len, trials))
    for k, rows in enumerate(rounds):
        assert np.array_equal(rows, [t[k] for t in trials if k < len(t)])
    for i, (r_i, q_i, conv_i, _) in enumerate(ref):
        assert np.array_equal(r[i], r_i)
        assert q[i] == q_i
        assert converged[i] == conv_i
    return ref


def realizable_starts(c, rng, n, lo=0.2, hi=3.0):
    starts = []
    for _ in range(100 * n):
        r0 = rng.uniform(lo, hi, c.vertex_count)
        if np.min(tet_q_factors(c, r0)) > 0.0:
            starts.append(r0)
            if len(starts) == n:
                return starts
    raise AssertionError("could not sample realizable starts")


@settings(max_examples=30, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["cell5", "cell16", "torus3_27"]),
       n_starts=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_lock_step_descent_is_the_sequential_descent(mesh_name, n_starts,
                                                      seed):
    c = data.load(mesh_name)
    starts = realizable_starts(c, np.random.default_rng(seed), n_starts)
    with pytest.MonkeyPatch.context() as mp:
        lock_step_matches_oracle(c, starts, mp, max_iter=20)


@pytest.mark.parametrize("mesh_name, seed", [("cell5", 1), ("cell16", 0),
                                             ("torus3_27", 0)])
def test_lock_step_descent_through_degenerate_trials(mesh_name, seed,
                                                     monkeypatch):
    """Wide starts whose line search tries an unrealizable metric: the trial
    reads +inf, is refused, and the start halves on as it would alone."""
    c = data.load(mesh_name)
    starts = realizable_starts(c, np.random.default_rng(seed), 4)
    ref = lock_step_matches_oracle(c, starts, monkeypatch, max_iter=20)
    assert any(np.min(tet_q_factors(c, np.exp(u))) <= 0.0
               for *_, t in ref for u in t)


def test_lock_step_descent_through_a_failed_line_search(torus3, monkeypatch):
    """With gtol 0 the descent from the uniform metric, a critical point up
    to rounding, finds no decrease within 40 halvings and stops unconverged
    before max_iter, beside a start that runs on, as it would alone."""
    r0 = np.random.default_rng(7).uniform(0.9, 1.1, 27)
    ref = lock_step_matches_oracle(torus3, [np.ones(27), r0], monkeypatch,
                                   max_iter=200, gtol=0.0)
    *_, converged, trials = ref[0]
    assert not converged and 41 <= len(trials) < 200


def test_yamabe_invariant_estimate_is_the_sequential_multistart(
        cell16, monkeypatch):
    """The estimate at the CLI's solve settings: the best start (the first
    of least value), its metric, verdict and the converged count are the
    sequential oracle's, with 1 evaluation from the uniform start (a
    critical point) and 501-502 from each other."""
    rng = np.random.default_rng(1)
    starts = [np.ones(8)]
    while len(starts) < 6:
        cand = rng.uniform(0.4, 1.8, 8)
        if np.all(q_factor(cand[cell16.tet_array]) > 0.0):
            starts.append(cand)
    ref = lock_step_matches_oracle(cell16, starts, monkeypatch, max_iter=500)
    counts = [len(t) for *_, t in ref]
    assert counts[0] == 1 and all(501 <= k <= 502 for k in counts[1:])
    est = yamabe_invariant_estimate(cell16, n_starts=6, seed=1)
    best = min(range(6), key=lambda i: (ref[i][1], i))
    r_best = ref[best][0]
    assert est.value == ref[best][1]
    assert np.array_equal(est.metric, r_best / np.sum(r_best ** 3) ** (1 / 3))
    assert est.critical == ref[best][2]
    assert est.converged_starts == sum(conv for _, _, conv, _ in ref)


@pytest.mark.parametrize("n_starts", [0, -3, 2.5, True, None])
def test_yamabe_invariant_estimate_rejects_bad_n_starts(cell5, n_starts):
    # 0 and -3 were once run as one start
    with pytest.raises(ValueError, match="n_starts must be a positive integer"):
        yamabe_invariant_estimate(cell5, n_starts=n_starts)


def test_flow_max_steps(cell5):
    rng = np.random.default_rng(14)
    r0 = 1.0 + 0.05 * rng.standard_normal(5)
    tr = run(FlowSpec("yamabe", t_max=20.0, max_steps=3), cell5, r0)
    assert tr.termination == "max_steps"
    assert tr.n_steps == 3
    assert tr.singularity is None


def test_flow_stepped_out_of_domain(cell5):
    # no step at or above min_step is possible, and no singularity is near
    rng = np.random.default_rng(15)
    r0 = 1.0 + 0.05 * rng.standard_normal(5)
    tr = run(FlowSpec("yamabe", t_max=20.0, min_step=0.5), cell5, r0)
    assert tr.termination == "stepped_out_of_domain"
    assert tr.singularity is None


def test_flow_rejects_alpha_and_target(cell5):
    with pytest.raises(ValueError, match="alpha"):
        run(FlowSpec("yamabe", t_max=20.0, alpha=0.5), cell5, np.ones(5))
    with pytest.raises(ValueError, match="target"):
        run(FlowSpec("yamabe", t_max=20.0, target=np.ones(5)), cell5,
            np.ones(5))


@settings(max_examples=40, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["cell5", "cell16", "torus3_27"]),
       lo=st.floats(0.2, 1.0), decades=st.floats(-50.0, 50.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tet_column_table_kernels_are_the_strided_formulas_bit_for_bit(
        mesh_name, lo, decades, seed):
    """Radii in [lo, 1.2] at scales 1e+-50, degenerate tetrahedra included:
    the solid-angle pass on one metric and on stacks of 1 and 6, _point and
    the Jacobian's edge weights, which gather through the (4, T) column
    table with t in (3, 4, T) order, equal the formulas on the strided
    columns with t in (4, 3, T) order (tests/conftest.py) bit for bit."""
    c = data.load(mesh_name)
    rng = np.random.default_rng(seed)
    r = 10.0 ** decades * rng.uniform(lo, 1.2, (6, c.vertex_count))
    with np.errstate(all="ignore"):
        for got, want in (
                (packing3d._solid_angle_pass(r[0][c.tet_columns]),
                 solid_angle_pass_oracle(r[0][c.tet_array.T])),
                (packing3d._solid_angle_pass(r[:1].T[c.tet_columns]),
                 solid_angle_pass_oracle(r[:1].T[c.tet_array.T])),
                (packing3d._solid_angle_pass(r.T[c.tet_columns]),
                 solid_angle_pass_oracle(r.T[c.tet_array.T]))):
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1], equal_nan=True)
    want = point3_oracle(c, r[0])
    try:
        p = packing3d._point(c, r[0])
    except DegenerateTetrahedronError as exc:
        assert str(exc) == want
    else:
        for field in p._fields:
            assert np.array_equal(getattr(p, field), want[field]), field
    want = edge_weights3_oracle(c, r[0])
    with np.errstate(invalid="ignore"):
        refused = (solid_angle_pass_oracle(r[0][c.tet_array.T])[1].min()
                   <= packing3d.Q_SAFETY_MARGIN
                   or not np.isfinite(want.sum()))
    try:
        g = packing3d._edge_weights3(c, r[0])
    except (NearDegenerateError, DegenerateTetrahedronError):
        assert refused
    else:
        assert not refused and np.array_equal(g, want)
