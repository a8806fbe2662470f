import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from packflows import data, packing3d
from packflows.errors import (DegenerateTetrahedronError, NearDegenerateError)
from packflows.packing3d import (_embed_lengths, curvature3,
                                 curvature_norm_bound, default_yamabe_spec,
                                 defect_jacobian, laplacian3, q_factor,
                                 solid_angle_at_origin, solid_angle_defect,
                                 solid_angles, tet_geometry, tet_q_factors,
                                 yamabe_flow, yamabe_invariant_estimate,
                                 yamabe_residual, yamabe_state)

REGULAR_SOLID_ANGLE = 3 * np.arccos(1.0 / 3.0) - np.pi


def random_admissible(c, rng, lo=0.6, hi=1.6, tries=100):
    for _ in range(tries):
        r = rng.uniform(lo, hi, c.vertex_count)
        if np.min(tet_q_factors(c, r)) > 1e-3:
            return r
    raise AssertionError("could not sample an admissible metric")


def test_q_factor_values():
    assert q_factor(1.0, 1.0, 1.0, 1.0) == 8.0
    assert abs(q_factor(1.0, 1.0, 1.0, 0.1) - (-37.0)) < 1e-12
    eps = (2 * np.sqrt(3) - 3) / 3
    assert abs(q_factor(1.0, 1.0, 1.0, eps)) < 1e-12
    arr = q_factor(np.array([[1.0, 1, 1, 1], [1.0, 1, 1, 0.1]]))
    assert arr.shape == (2,)
    assert abs(arr[0] - 8.0) < 1e-14


def test_regular_solid_angle_and_oracle():
    geom = tet_geometry([1.0, 1.0, 1.0, 1.0])
    assert np.abs(geom.angles - REGULAR_SOLID_ANGLE).max() < 1e-12
    assert geom.q == 8.0


def test_solid_angles_match_coordinate_oracle():
    # TetGeometry cross-checks the spherical-excess value against the
    # triple-product formula at every vertex; exercise it on random radii
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
    """Per-vertex loop over the face angles: the reference for the
    face-angle table, with the same arithmetic in the same order."""
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
    # every row of the face-angle kernel against the triple-product formula
    # on embedded coordinates and, bit for bit, against the per-vertex loop;
    # the defect against the per-vertex sums
    c = data.load(mesh_name)
    n = c.vertex_count
    r = np.array(draw.draw(st.lists(st.floats(0.3, 3.0), min_size=n,
                                    max_size=n)))
    assume(np.min(tet_q_factors(c, r)) > 1e-3)
    ang = solid_angles(c, r)
    assert np.array_equal(ang, loop_solid_angles(r[c.tet_array]))
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


def test_degenerate_tetrahedron_raises(cell5):
    with pytest.raises(DegenerateTetrahedronError):
        tet_geometry([1.0, 1.0, 1.0, 0.1])
    r = np.array([1.0, 1.0, 1.0, 1.0, 0.1])
    with pytest.raises(DegenerateTetrahedronError) as info:
        solid_angles(cell5, r)
    assert info.value.tet_index == np.argmin(tet_q_factors(cell5, r))
    # NaN compares False with everything: a NaN radius and a solid angle
    # that overflows to NaN (Q > 0 here) must still fail by name
    with pytest.raises(ValueError):
        tet_geometry([np.nan, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateTetrahedronError):
        solid_angles(cell5, [1e200, 1.0, 1.0, 1.0, 1.0])


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


def test_defect_jacobian_structure(cell5, cell16):
    rng = np.random.default_rng(7)
    for c in (cell5, cell16):
        r = random_admissible(c, rng)
        lam = defect_jacobian(c, r).matrix
        scale = np.abs(lam).max()
        assert np.abs(lam - lam.T).max() < 1e-6 * scale
        # kernel along r, PSD, rank N-1
        assert np.linalg.norm(lam @ r) <= 1e-6 * scale * np.linalg.norm(r)
        w = np.linalg.eigvalsh(0.5 * (lam + lam.T))
        assert w[0] >= -1e-6 * scale
        assert w[1] > 1e-6 * scale


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
    assert abs(np.sum(out * r ** 3)) < 1e-5 * np.abs(out).max()


def test_curvature_evolution_identity_3d(cell16):
    # dR/dt = Laplacian R / 2 + R (R - R_av) along the flow, via a centered
    # difference of two short high-order steps
    from packflows._rk import rk4_step
    rng = np.random.default_rng(10)
    r = 1.0 + 0.05 * rng.standard_normal(8)

    def fld(t, u):
        st = yamabe_state(cell16, np.exp(u))
        return 0.5 * (st.average - st.curvature)

    delta = 1e-4
    _, up = rk4_step(fld, 0.0, np.log(r), delta)
    _, um = rk4_step(fld, 0.0, np.log(r), -delta)
    dR = (curvature3(cell16, np.exp(up)) - curvature3(cell16, np.exp(um))) \
        / (2 * delta)
    st = yamabe_state(cell16, r)
    rhs = 0.5 * laplacian3(cell16, r, st.curvature) \
        + st.curvature * (st.curvature - st.average)
    assert np.abs(dR - rhs).max() < 1e-5 * max(1.0, np.abs(rhs).max())


def test_flow_fixed_point(cell5):
    tr = yamabe_flow(cell5, np.ones(5))
    assert tr.converged
    assert tr.residuals[0] < 1e-12


def test_flow_monitors_on_perturbation(cell5):
    rng = np.random.default_rng(11)
    r0 = 1.0 + 0.01 * rng.standard_normal(5)
    spec = default_yamabe_spec(t_max=5.0)
    tr = yamabe_flow(cell5, r0, spec)
    # volume conserved, total curvature nonincreasing up to termination
    assert np.abs(tr.conserved / tr.conserved[0] - 1.0).max() < 1e-7
    assert np.all(np.diff(tr.potential) <= 1e-9)


def test_flow_total_curvature_derivative_matches_closed_form(torus3):
    # dS/dt = -1/2 sum (K_i - R_av r_i^2)^2 / r_i, checked differentially at
    # states along a run (centered difference of two short accurate steps)
    from packflows._rk import rk4_step
    rng = np.random.default_rng(12)
    r0 = 1.0 + 0.02 * rng.standard_normal(27)
    spec = default_yamabe_spec(t_max=1.0, eps=1e-14)
    tr = yamabe_flow(torus3, r0, spec)

    def fld(t, u):
        st = yamabe_state(torus3, np.exp(u))
        return 0.5 * (st.average - st.curvature)

    for k in np.linspace(0, len(tr.times) - 1, 5).astype(int):
        r = tr.radii[k]
        delta = 1e-5
        _, up = rk4_step(fld, 0.0, np.log(r), delta)
        _, um = rk4_step(fld, 0.0, np.log(r), -delta)
        ds_dt = (yamabe_state(torus3, np.exp(up)).total
                 - yamabe_state(torus3, np.exp(um)).total) / (2 * delta)
        assert abs(ds_dt + 0.5 * tr.calabi[k]) < 1e-6 * max(1.0, tr.calabi[k])


def test_flow_removable_singularity(cell5):
    r0 = np.array([1.383, 0.759, 0.37, 0.328, 1.683])
    tr = yamabe_flow(cell5, r0)
    assert tr.termination == "singularity_removable"
    assert tr.singularity["type"] == "removable"
    assert "witness" in tr.singularity
    assert tr.singularity["q"] < 1e-6
    # radii stayed away from zero: genuinely removable, not essential
    scale = np.sum(tr.radii[-1] ** 3) ** (1.0 / 3.0)
    assert tr.radii[-1].min() / scale > 1e-3


def test_flow_essential_classification_threshold(cell5, monkeypatch):
    # with an inflated radius threshold the same shrinking run is classified
    # as essential first, exercising the other branch
    r0 = np.array([1.383, 0.759, 0.37, 0.328, 1.683])
    monkeypatch.setattr(packing3d, "SING_RADIUS", 0.12)
    tr = yamabe_flow(cell5, r0)
    assert tr.termination == "singularity_essential"
    assert tr.singularity["witness"] in (2, 3)


def test_torus3_constant_metric_is_attracting(torus3):
    # equal radii give constant negative curvature; perturbations flow back
    assert yamabe_residual(torus3, np.ones(27)) < 1e-12
    rng = np.random.default_rng(13)
    r0 = 1.0 + 0.01 * rng.standard_normal(27)
    spec = default_yamabe_spec(eps=1e-10)
    tr = yamabe_flow(torus3, r0, spec)
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


def test_flow_max_steps(cell5):
    rng = np.random.default_rng(14)
    r0 = 1.0 + 0.05 * rng.standard_normal(5)
    tr = yamabe_flow(cell5, r0, default_yamabe_spec(max_steps=3))
    assert tr.termination == "max_steps"
    assert tr.n_steps == 3
    assert tr.singularity is None


def test_flow_stepped_out_of_domain(cell5):
    # no step at or above min_step is possible, and no singularity is near
    rng = np.random.default_rng(15)
    r0 = 1.0 + 0.05 * rng.standard_normal(5)
    tr = yamabe_flow(cell5, r0, default_yamabe_spec(min_step=0.5))
    assert tr.termination == "stepped_out_of_domain"
    assert tr.singularity is None


def test_flow_rejects_alpha_and_target(cell5):
    with pytest.raises(ValueError, match="alpha"):
        yamabe_flow(cell5, np.ones(5), default_yamabe_spec(alpha=0.5))
    with pytest.raises(ValueError, match="target"):
        yamabe_flow(cell5, np.ones(5), default_yamabe_spec(target=np.ones(5)))
