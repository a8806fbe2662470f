import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import (calabi_families, grid_torus, newton_direction_oracle,
                      random_metric)
from packflows import data, flows2d, operators2d
from packflows.cli import main
from packflows.errors import (DegenerateTriangleError, NoConvergenceError,
                              NotApplicableError)
from packflows.flows2d import (FlowSpec, FlowState, constant_curvature_residual,
                               find_constant_curvature, max_principle_bounds,
                               prescribed_residual, run, step, vector_field)
from packflows.mesh import euler_characteristic
from packflows.operators2d import curvature_jacobian, laplacian, potential_gradient
from packflows.packing2d import (angle_defect, average_curvature, curvature,
                                 inner_angles)


def second_root():
    """Independent one-variable oracle for the tetrahedron's second constant
    curvature metric: (5 pi/3 - 2 th) = x^2 (6 th - pi), cos th = x/(1+x)."""
    def f(x):
        th = np.arccos(x / (1.0 + x))
        return (5 * np.pi / 3 - 2 * th) - x * x * (6 * th - np.pi)
    return brentq(f, 2.0, 20.0, xtol=1e-14)


def test_fixed_point_fields_vanish(tetra):
    r = np.ones(4)
    for family, alpha in (("ricci_normalized", 2.0), ("calabi", 2.0),
                          ("calabi_modified", 2.0),
                          ("alpha_ricci_normalized", 0.0),
                          ("alpha_ricci_normalized", -1.0),
                          ("alpha_calabi", 1.5),
                          ("alpha_calabi_modified", 0.5)):
        v = vector_field(FlowSpec(family=family, alpha=alpha), tetra, r)
        assert np.abs(v).max() < 1e-13, family


def test_alpha_zero_field_is_classical_flow(surfaces):
    rng = np.random.default_rng(0)
    spec = FlowSpec(family="alpha_ricci_normalized", alpha=0.0)
    for c in surfaces.values():
        r = random_metric(rng, c.vertex_count)
        v = vector_field(spec, c, r)
        K = angle_defect(c, r)
        k_av = 2 * np.pi * euler_characteristic(c) / c.vertex_count
        assert np.abs(v - (k_av - K)).max() < 1e-14


def test_calabi_field_two_routes(genus2):
    rng = np.random.default_rng(1)
    r = random_metric(rng, 11)
    v = vector_field(FlowSpec(family="calabi"), genus2, r)
    # independent route: matrix product instead of the Laplacian helper
    L = curvature_jacobian(genus2, r, coord="log_r2").matrix
    R = curvature(genus2, r, 2.0)
    v2 = 0.5 * (-(L @ R) / r ** 2)
    assert np.abs(v - v2).max() < 1e-12
    v3 = 0.5 * laplacian(genus2, r, R)
    assert np.abs(v - v3).max() < 1e-12


def test_alpha_two_field_correspondence(genus2, torus7):
    # the alpha = 2 alpha-families run the classical trajectories at twice
    # (Ricci) or four times (Calabi) the speed
    rng = np.random.default_rng(2)
    for c in (genus2, torus7):
        r = random_metric(rng, c.vertex_count)
        pairs = [("alpha_ricci_normalized", "ricci_normalized", 2.0),
                 ("alpha_ricci", "ricci", 2.0),
                 ("alpha_calabi", "calabi", 4.0),
                 ("alpha_calabi_modified", "calabi_modified", 4.0)]
        for fam_a, fam_c, factor in pairs:
            va = vector_field(FlowSpec(family=fam_a, alpha=2.0), c, r)
            vc = vector_field(FlowSpec(family=fam_c), c, r)
            scale = max(np.abs(va).max(), 1e-30)
            assert np.abs(va - factor * vc).max() <= 1e-12 * max(1.0, scale), fam_a


def test_prescribed_field_correspondence(genus2):
    rng = np.random.default_rng(3)
    r = random_metric(rng, 11)
    target = -np.abs(rng.uniform(0.2, 1.0, 11))
    va = vector_field(FlowSpec(family="alpha_prescribed", alpha=2.0,
                               target=target), genus2, r)
    vc = vector_field(FlowSpec(family="ricci_prescribed", target=target),
                      genus2, r)
    assert np.abs(va - 2.0 * vc).max() < 1e-12


def test_step_fixed_point(tetra):
    spec = FlowSpec(family="ricci_normalized")
    state = FlowState(0.0, np.ones(4), 0.1)
    out = step(spec, tetra, state)
    assert np.abs(out.r - 1.0).max() < 1e-12
    assert out.t > 0


def test_step_euler_richardson(genus2):
    # one Euler step of size h has error O(h^2): two half steps versus one
    # full step differ by ~ c h^2 / 2
    rng = np.random.default_rng(4)
    r = random_metric(rng, 11)
    spec = FlowSpec(family="ricci_normalized", method="euler")
    errs = []
    for h in (0.1, 0.05, 0.025):
        full = step(spec, genus2, FlowState(0.0, r, h))
        half = step(spec, genus2, step(spec, genus2, FlowState(0.0, r, h / 2)))
        errs.append(np.abs(np.log(full.r) - np.log(half.r)).max())
    # halving h divides the defect by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_step_conserves_measure_to_tolerance(genus2):
    rng = np.random.default_rng(5)
    r = random_metric(rng, 11)
    spec = FlowSpec(family="ricci_normalized", rtol=1e-9, atol=1e-12)
    out = step(spec, genus2, FlowState(0.0, r, 0.05))
    before = np.sum(r ** 2)
    after = np.sum(out.r ** 2)
    assert abs(after / before - 1.0) < 1e-9


def test_rk4_step_time_scaling_equivalence(genus2):
    # a fixed-step RK4 step of the alpha = 2 Ricci flow with step h equals a
    # step of the classical flow with step 2h, stage for stage
    rng = np.random.default_rng(6)
    r = random_metric(rng, 11)
    h = 0.02
    sa = FlowSpec(family="alpha_ricci_normalized", alpha=2.0, method="rk4")
    sc = FlowSpec(family="ricci_normalized", method="rk4")
    cur_a, cur_c = r, r
    for _ in range(20):
        cur_a = step(sa, genus2, FlowState(0.0, cur_a, h)).r
        cur_c = step(sc, genus2, FlowState(0.0, cur_c, 2 * h)).r
        assert np.abs(np.log(cur_a) - np.log(cur_c)).max() < 1e-12


def test_run_immediate_convergence_at_fixed_point(tetra):
    tr = run(FlowSpec(family="ricci_normalized"), tetra, np.ones(4))
    assert tr.converged
    assert tr.times[-1] == 0.0
    assert tr.residuals[0] < 1e-13


def test_run_tetrahedron_source_behavior(tetra):
    # constant-curvature point is a source: a 1e-3 perturbation on the
    # measure sphere moves away and the residual grows
    v = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    r0 = 1.0 + 1e-3 * v
    r0 *= 2.0 / np.linalg.norm(r0)
    spec = FlowSpec(family="ricci_normalized", t_max=1.0, eps=1e-16)
    tr = run(spec, tetra, r0)
    assert tr.termination == "max_time"
    assert tr.residuals[-1] > 2.0 * tr.residuals[0]
    assert tr.residuals[-1] > tr.residuals[0] * np.e  # roughly e^{2t} growth


def test_run_genus2_converges_exponentially(genus2):
    tr = run(FlowSpec(family="ricci_normalized"), genus2, np.ones(11))
    assert tr.converged
    assert tr.residuals[-1] < 1e-9
    slope, _, r2 = tr.fit_rate()
    assert slope < 0
    assert r2 > 0.99


CONSERVED_RUNS = [
    ("ricci_normalized", 2.0),
    ("calabi", 2.0),
    ("calabi_modified", 2.0),
    ("alpha_ricci_normalized", 0.0),
    ("alpha_ricci_normalized", 1.5),
    ("alpha_ricci_normalized", -1.0),
    ("alpha_calabi", 0.0),
    ("alpha_calabi", 1.5),
    ("alpha_calabi_modified", 1.5),
]


@pytest.mark.parametrize("family,alpha", CONSERVED_RUNS)
def test_conserved_quantity_without_projection(genus2, family, alpha):
    # the flow itself conserves its invariant; relative drift over a unit of
    # time stays below 1e-7 even with projection disabled
    rng = np.random.default_rng(7)
    r0 = random_metric(rng, 11, 0.8, 1.25)
    spec = FlowSpec(family=family, alpha=alpha, t_max=1.0, eps=1e-16,
                    renormalize=False, record_energies=False)
    tr = run(spec, genus2, r0)
    assert tr.times[-1] >= 1.0 - 1e-9
    drift = np.abs(tr.conserved / tr.conserved[0] - 1.0).max()
    assert drift < 1e-7, (family, alpha, drift)


@pytest.mark.parametrize("family,alpha", CONSERVED_RUNS)
def test_conserved_quantity_with_projection(genus2, family, alpha):
    rng = np.random.default_rng(8)
    r0 = random_metric(rng, 11, 0.8, 1.25)
    spec = FlowSpec(family=family, alpha=alpha, t_max=2.0, eps=1e-16,
                    record_energies=False)
    tr = run(spec, genus2, r0)
    assert np.abs(tr.conserved / tr.conserved[0] - 1.0).max() < 1e-12


def test_unnormalized_product_invariant_alpha0(torus7):
    # Chow-Luo normalization conserves the product of the radii
    rng = np.random.default_rng(9)
    r0 = random_metric(rng, 7)
    spec = FlowSpec(family="alpha_ricci_normalized", alpha=0.0, t_max=1.0,
                    eps=1e-16, renormalize=False, record_energies=False)
    tr = run(spec, torus7, r0)
    prods = np.exp(np.sum(np.log(tr.radii), axis=1))
    assert np.abs(prods / prods[0] - 1.0).max() < 1e-7


MONOTONE_RUNS = [
    ("ricci_normalized", 2.0, "torus_7"),
    ("ricci_normalized", 2.0, "genus2_11"),
    ("calabi", 2.0, "genus2_11"),
    ("calabi_modified", 2.0, "genus2_11"),
    ("alpha_ricci_normalized", 1.0, "genus2_11"),
    ("alpha_calabi", 1.0, "genus2_11"),
    ("alpha_calabi_modified", 1.0, "genus2_11"),
    ("alpha_ricci_normalized", -2.0, "tetrahedron"),
]


@pytest.mark.parametrize("family,alpha,mesh_name", MONOTONE_RUNS)
def test_energy_monotonicity(surfaces, family, alpha, mesh_name):
    # potential and Calabi energy are nonincreasing when alpha chi <= 0
    c = surfaces[mesh_name]
    assert alpha * euler_characteristic(c) <= 0
    rng = np.random.default_rng(10)
    r0 = random_metric(rng, c.vertex_count, 0.7, 1.4)
    spec = FlowSpec(family=family, alpha=alpha, t_max=3.0)
    tr = run(spec, c, r0)
    assert np.all(np.diff(tr.potential) <= 1e-9)
    if "calabi_modified" in family:
        assert np.all(np.diff(tr.calabi) <= 1e-9)


def test_calabi_energy_monotone_any_chi(tetra):
    # the gradient-flow structure makes the Calabi energy decrease along the
    # modified flow regardless of the sign of chi
    rng = np.random.default_rng(11)
    r0 = random_metric(rng, 4, 0.9, 1.1)
    spec = FlowSpec(family="calabi_modified", t_max=1.0, eps=1e-14)
    tr = run(spec, tetra, r0)
    assert np.all(np.diff(tr.calabi) <= 1e-9)


def test_normalized_unnormalized_correspondence(genus2):
    # integrating the unnormalized flow and rescaling to the measure sphere
    # matches the normalized trajectory at reparametrized times
    rng = np.random.default_rng(12)
    r0 = random_metric(rng, 11)
    r0 = r0 / np.linalg.norm(r0)
    spec_u = FlowSpec(family="ricci", t_max=0.2, eps=1e-16, max_step=0.002,
                      record_energies=False)
    tr = run(spec_u, genus2, r0)
    norms = np.sum(tr.radii ** 2, axis=1)
    phi = 1.0 / norms
    # reparametrized time by trapezoid on the dense samples
    ttil = np.concatenate([[0.0], np.cumsum(
        0.5 * (phi[1:] + phi[:-1]) * np.diff(tr.times))])
    for k in (len(ttil) // 2, len(ttil) - 1):
        spec_n = FlowSpec(family="ricci_normalized", t_max=ttil[k], eps=1e-16,
                          record_energies=False)
        tr_n = run(spec_n, genus2, r0)
        rescaled = tr.radii[k] / np.sqrt(norms[k])
        assert np.abs(rescaled - tr_n.radii[-1]).max() < 1e-5


def test_curvature_evolution_identity(genus2):
    # dR/dt = Laplacian R + R (R - R_av) along the normalized flow, checked
    # against a centered difference of the trajectory itself
    rng = np.random.default_rng(13)
    r = random_metric(rng, 11, 0.9, 1.2)
    spec = FlowSpec(family="ricci_normalized", method="rk4")
    delta = 1e-4
    fwd = step(spec, genus2, FlowState(0.0, r, delta)).r
    bwd = step(spec, genus2, FlowState(0.0, r, -delta)).r
    dR_dt = (curvature(genus2, fwd, 2.0) - curvature(genus2, bwd, 2.0)) / (2 * delta)
    R = curvature(genus2, r, 2.0)
    rav = average_curvature(genus2, r, 2.0)
    rhs = laplacian(genus2, r, R) + R * (R - rav)
    assert np.abs(dR_dt - rhs).max() < 1e-6 * max(1.0, np.abs(rhs).max())


def test_run_against_scipy_integrator(genus2):
    rng = np.random.default_rng(14)
    r0 = random_metric(rng, 11)
    spec = FlowSpec(family="ricci_normalized", t_max=2.0, eps=1e-16,
                    renormalize=False, record_energies=False,
                    rtol=1e-10, atol=1e-13)
    tr = run(spec, genus2, r0)

    def f(t, u):
        return vector_field(spec, genus2, np.exp(u))

    sol = solve_ivp(f, (0.0, 2.0), np.log(r0), method="RK45",
                    rtol=1e-10, atol=1e-13)
    assert np.abs(np.exp(sol.y[:, -1]) - tr.radii[-1]).max() < 1e-6


def test_run_divergence_guard(monkeypatch, genus2):
    rng = np.random.default_rng(15)
    r0 = random_metric(rng, 11)
    monkeypatch.setattr(flows2d, "R_MAX_GUARD", 1.0001 * r0.max())
    spec = FlowSpec(family="ricci_normalized", t_max=100.0,
                    record_energies=False)
    tr = run(spec, genus2, r0)
    assert tr.termination in ("diverged", "converged")


def test_max_principle_negative_chi(genus2):
    rng = np.random.default_rng(16)
    r0 = random_metric(rng, 11, 0.8, 1.3)
    tr = run(FlowSpec(family="ricci_normalized", t_max=5.0), genus2, r0)
    rep = max_principle_bounds(genus2, tr)
    assert rep.ok
    names = [case.name for case in rep.cases]
    assert "lower_chi_neg" in names


def test_max_principle_zero_chi(torus7):
    rng = np.random.default_rng(17)
    r0 = random_metric(rng, 7, 0.7, 1.5)
    tr = run(FlowSpec(family="ricci_normalized", t_max=5.0), torus7, r0)
    rep = max_principle_bounds(torus7, tr)
    assert rep.ok
    assert any(case.name == "lower_chi_zero" for case in rep.cases)


def test_max_principle_all_negative_upper_bound(genus2):
    tr = run(FlowSpec(family="ricci_normalized", t_max=8.0), genus2, np.ones(11))
    rep = max_principle_bounds(genus2, tr)
    assert rep.ok
    names = [case.name for case in rep.cases]
    assert "upper_all_negative" in names
    assert "nonpositive_preserved" in names


def test_max_principle_positive_chi_negative_min(tetra):
    r0 = np.array([1.0, 10.0, 10.0, 10.0])
    assert curvature(tetra, r0, 2.0).min() < 0
    tr = run(FlowSpec(family="ricci_normalized", t_max=2.0, eps=1e-12),
             tetra, r0)
    rep = max_principle_bounds(tetra, tr)
    assert any(case.name == "lower_chi_pos" for case in rep.cases)
    assert rep.ok


def test_max_principle_alpha_cases(genus2, tetra):
    # alpha > 0 with all curvatures negative
    tr = run(FlowSpec(family="alpha_ricci_normalized", alpha=1.0, t_max=4.0),
             genus2, np.ones(11))
    rep = max_principle_bounds(genus2, tr)
    assert rep.ok
    assert {"alpha_pos_lower", "alpha_pos_upper"} <= {c.name for c in rep.cases}
    # alpha < 0 with all curvatures positive
    tr2 = run(FlowSpec(family="alpha_ricci_normalized", alpha=-1.0, t_max=4.0),
              tetra, np.array([1.0, 1.2, 0.9, 1.05]))
    rep2 = max_principle_bounds(tetra, tr2)
    assert rep2.ok
    assert {"alpha_neg_lower", "alpha_neg_upper"} <= {c.name for c in rep2.cases}
    # alpha = 0: plain heat bounds
    tr3 = run(FlowSpec(family="alpha_ricci_normalized", alpha=0.0, t_max=4.0),
              genus2, np.ones(11))
    rep3 = max_principle_bounds(genus2, tr3)
    assert rep3.ok


def test_max_principle_not_applicable(genus2):
    r0 = np.ones(11)
    r0[0] = 0.05
    Ra = curvature(genus2, r0, -1.0)
    assert Ra.min() < 0 < Ra.max()  # mixed signs
    spec = FlowSpec(family="alpha_ricci_normalized", alpha=-1.0, t_max=0.5,
                    eps=1e-16)
    tr = run(spec, genus2, r0)
    with pytest.raises(NotApplicableError):
        max_principle_bounds(genus2, tr)
    tr_cal = run(FlowSpec(family="calabi", t_max=0.2, eps=1e-16), genus2,
                 np.ones(11))
    with pytest.raises(NotApplicableError):
        max_principle_bounds(genus2, tr_cal)


def test_sign_preservation(genus2, tetra):
    # nonpositive curvature stays nonpositive; nonnegative stays nonnegative
    tr = run(FlowSpec(family="ricci_normalized", t_max=6.0), genus2, np.ones(11))
    assert tr.curvatures.max() <= 1e-9
    tr2 = run(FlowSpec(family="ricci_normalized", t_max=1.0, eps=1e-14),
              tetra, np.array([1.0, 1.1, 0.95, 1.02]))
    assert tr2.curvatures.min() >= -1e-9


def test_find_constant_curvature_newton_second_root(tetra):
    x_star = second_root()
    r = find_constant_curvature(tetra, 2.0, np.array([1.0, 6.0, 6.0, 6.0]))
    ratio = r[1] / r[0]
    assert abs(ratio - x_star) < 1e-9
    assert abs(ratio - 5.9487) < 5e-5
    assert constant_curvature_residual(tetra, r, 2.0) < 1e-9
    assert np.abs(r[1:] / r[1] - 1.0).max() < 1e-12


def test_find_constant_curvature_first_root(tetra):
    r = find_constant_curvature(tetra, 2.0, np.array([1.0, 1.05, 0.96, 1.01]))
    assert np.abs(r / r[0] - 1.0).max() < 1e-9


def test_flow_and_newton_agree(genus2, torus7):
    rng = np.random.default_rng(18)
    for c in (genus2, torus7):
        r0 = random_metric(rng, c.vertex_count, 0.8, 1.2)
        m_flow = find_constant_curvature(c, 2.0, r0, method="flow")
        m_newton = find_constant_curvature(c, 2.0, r0, method="newton")
        a = m_flow / np.linalg.norm(m_flow)
        b = m_newton / np.linalg.norm(m_newton)
        assert np.abs(a - b).max() < 1e-7


def test_flat_torus_solution_is_flat(torus7):
    rng = np.random.default_rng(19)
    r = find_constant_curvature(torus7, 2.0, random_metric(rng, 7, 0.9, 1.1))
    assert np.abs(angle_defect(torus7, r)).max() < 1e-9


def test_find_constant_curvature_no_convergence(genus2):
    rng = np.random.default_rng(20)
    r0 = random_metric(rng, 11)
    with pytest.raises(NoConvergenceError) as exc_info:
        spec_probe = find_constant_curvature(genus2, 2.0, r0, method="flow",
                                             eps=1e-18)
    assert exc_info.value.diagnostics


NEWTON_MESHES = {name: data.load(name) for name in
                 ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                  "genus2_11")}
NEWTON_MESHES["grid_12x12"] = grid_torus(12, 12)


@settings(max_examples=40, deadline=None, database=None)
@given(mesh_name=st.sampled_from(sorted(NEWTON_MESHES)),
       alpha=st.sampled_from([-1.0, 0.0, 1.0, 2.0]), draw=st.data())
def test_cg_newton_direction_matches_dense_oracle(mesh_name, alpha, draw):
    """The conjugate-gradient step equals the dense projected solve, also
    where the projected Hessian is indefinite (the spheres)."""
    c = NEWTON_MESHES[mesh_name]
    r = np.array(draw.draw(st.lists(st.floats(0.5, 2.0),
                                    min_size=c.vertex_count,
                                    max_size=c.vertex_count)))
    if mesh_name == "grid_12x12":
        # a jittered flat torus: radii within 5% of a common value
        r = np.exp(0.05 * (2.0 * (r - 0.5) / 1.5 - 1.0))
    oracle = newton_direction_oracle(c, r, alpha)
    d = flows2d._newton_direction(c, r, inner_angles(c, r), alpha,
                                  potential_gradient(c, r, alpha))
    assert abs(d.sum()) <= 1e-12 * np.abs(d).sum()
    # the floor covers equal radii, where g is constant up to rounding and
    # both steps are zero up to rounding
    assert np.linalg.norm(d - oracle) <= 1e-10 * np.linalg.norm(oracle) + 1e-20


def test_newton_forms_no_dense_matrix(monkeypatch, torus7):
    """Newton's step is a conjugate-gradient solve on the edge-weight
    matvec: it runs with the dense Jacobian, Hessian and solvers
    unavailable."""
    def dense(*args, **kwargs):
        raise AssertionError("Newton formed a dense V x V matrix")
    for module in (operators2d, flows2d):
        for name in ("curvature_jacobian", "potential_hessian"):
            monkeypatch.setattr(module, name, dense, raising=False)
    monkeypatch.setattr(np.linalg, "solve", dense)
    monkeypatch.setattr(np.linalg, "qr", dense)
    rng = np.random.default_rng(22)
    for c in (torus7, grid_torus(20, 20)):
        r = find_constant_curvature(c, 2.0, random_metric(rng, c.vertex_count))
        assert constant_curvature_residual(c, r, 2.0) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_newton_on_grid_torus_400(seed):
    c = grid_torus(20, 20)
    r0 = random_metric(np.random.default_rng([seed, 400]), 400)
    r = find_constant_curvature(c, 2.0, r0)
    assert constant_curvature_residual(c, r, 2.0) < 1e-9


@pytest.mark.parametrize("kwargs", [
    {"alpha": np.nan}, {"alpha": np.inf}, {"alpha": -np.inf},
    {"eps": np.nan}, {"eps": -1.0}, {"eps": 0.0}, {"eps": np.inf},
    {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}, {"max_iter": True},
])
@pytest.mark.parametrize("method", ["newton", "flow"])
def test_find_constant_curvature_rejects_bad_settings(genus2, kwargs, method):
    kw = {"alpha": 2.0, **kwargs}
    alpha = kw.pop("alpha")
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
        find_constant_curvature(genus2, alpha, np.ones(11), method=method, **kw)


def test_solve_nan_alpha_exit2(tmp_path):
    code = main(["solve", "--mesh", "genus2_11", "--alpha", "nan",
                 "--out", str(tmp_path)])
    assert code == 2


def test_line_search_stall_reports_gradient_norm(monkeypatch, genus2):
    """Every trial point is degenerate, so the line search stalls; the
    diagnostics name the gradient norm and the true residual."""
    point = flows2d._newton_point
    calls = []

    def degenerate_trials(c, u, alpha):
        calls.append(u)
        if len(calls) > 1:
            raise DegenerateTriangleError("degenerate trial")
        return point(c, u, alpha)
    monkeypatch.setattr(flows2d, "_newton_point", degenerate_trials)
    r0 = random_metric(np.random.default_rng(23), 11)
    with pytest.raises(NoConvergenceError, match="line search stalled") as info:
        find_constant_curvature(genus2, 2.0, r0)
    r = np.exp(np.log(r0))
    assert info.value.diagnostics == {
        "gradient_norm": np.linalg.norm(potential_gradient(genus2, r, 2.0)),
        "constant_curvature_residual": constant_curvature_residual(genus2, r, 2.0)}
    assert len(calls) == 31


def test_projected_cg_failures_are_named():
    """A singular direction and the iteration cap both end in
    NoConvergenceError, the failure the CLI maps to exit 4."""
    b = np.array([1.0, -2.0, 0.5, 0.5])
    m_inv = np.ones(4)
    with pytest.raises(NoConvergenceError, match="breakdown"):
        flows2d._projected_cg(np.zeros_like, b, m_inv, 40)
    A = np.diag([1.0, 10.0, 100.0, 1000.0])
    with pytest.raises(NoConvergenceError, match="did not converge in 1 "):
        flows2d._projected_cg(lambda v: A @ v, b, m_inv, 1)
    x = flows2d._projected_cg(lambda v: A @ v, b, m_inv, 40)
    P = np.eye(4) - 0.25
    assert abs(x.sum()) < 1e-14
    assert np.linalg.norm(P @ A @ x - P @ b) <= 1e-12 * np.linalg.norm(P @ b)


def test_prescribed_flow_converges_to_target(genus2):
    # prescribe a uniform negative curvature; the modified flow's limit is
    # the unique metric realizing it
    rng = np.random.default_rng(21)
    target = np.full(11, -0.5)
    spec = FlowSpec(family="ricci_prescribed", target=target, t_max=60.0)
    tr = run(spec, genus2, random_metric(rng, 11, 0.8, 1.2))
    assert tr.converged
    r_end = tr.radii[-1]
    assert np.abs(curvature(genus2, r_end, 2.0) - target).max() < 1e-8
    assert prescribed_residual(genus2, r_end, 2.0, target) < 1e-8


def test_prescribed_alpha_flow(genus2):
    rng = np.random.default_rng(22)
    target = np.full(11, -0.4)
    # integrator tolerance well below eps: the growing metric scale otherwise
    # leaves a per-step noise floor right at the convergence threshold
    spec = FlowSpec(family="alpha_prescribed", alpha=1.0, target=target,
                    t_max=150.0, rtol=1e-11)
    tr = run(spec, genus2, random_metric(rng, 11, 0.9, 1.1))
    assert tr.converged
    assert np.abs(curvature(genus2, tr.radii[-1], 1.0) - target).max() < 1e-7


def test_converged_runs_end_at_fixed_points(genus2, torus7):
    rng = np.random.default_rng(24)
    for c, family, alpha in ((genus2, "ricci_normalized", 2.0),
                             (torus7, "alpha_ricci_normalized", 0.0),
                             (genus2, "calabi", 2.0)):
        spec = FlowSpec(family=family, alpha=alpha, t_max=200.0)
        tr = run(spec, c, random_metric(rng, c.vertex_count, 0.8, 1.2))
        assert tr.converged
        v = vector_field(spec, c, tr.radii[-1])
        assert np.abs(v).max() < 100 * spec.eps


def test_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(family="nope")
    with pytest.raises(ValueError):
        FlowSpec(family="ricci", alpha=1.0)
    with pytest.raises(ValueError):
        FlowSpec(family="ricci_prescribed")  # needs a target
    with pytest.raises(ValueError):
        FlowSpec(family="ricci_normalized", target=np.ones(4))
    with pytest.raises(ValueError):
        FlowSpec(family="ricci_normalized", eps=-1.0)


def test_trace_invariants_and_csv(tmp_path, genus2):
    rng = np.random.default_rng(23)
    tr = run(FlowSpec(family="ricci_normalized", t_max=2.0),
             genus2, random_metric(rng, 11))
    assert np.all(np.diff(tr.times) > 0)
    assert np.all(tr.radii > 0)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 1 + 11 + 11 + 4
    assert len(lines) == 1 + len(tr.times)
    s = tr.summary()
    assert s["termination"] in ("converged", "max_time")
    assert "conserved_drift" in s


FLOAT_SETTINGS = ["alpha", "initial_step", "min_step", "max_step", "rtol",
                  "atol", "t_max", "eps"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FLOAT_SETTINGS)
def test_spec_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=name):
        FlowSpec(family="alpha_ricci_normalized", **{name: value})


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_spec_rejects_non_positive_max_step(value):
    # a zero or negative bound would end every run as stepped_out_of_domain
    with pytest.raises(ValueError, match="max_step"):
        FlowSpec(family="ricci_normalized", max_step=value)


def test_spec_rejects_non_finite_target():
    with pytest.raises(ValueError, match="target"):
        FlowSpec(family="alpha_prescribed", target=[1.0, np.nan, 0.0, 0.0])


def test_run_rejects_target_of_wrong_shape(tetra):
    # a one-entry target would broadcast against the four radii
    spec = FlowSpec(family="alpha_prescribed", alpha=0.0, target=[np.pi])
    with pytest.raises(ValueError, match="shape"):
        run(spec, tetra, np.ones(4))


def test_run_rejects_the_3d_family(tetra):
    with pytest.raises(ValueError, match="2-d"):
        run(FlowSpec(family="yamabe"), tetra, np.ones(4))


def test_run_max_steps(genus2):
    rng = np.random.default_rng(25)
    spec = FlowSpec(family="ricci_normalized", max_steps=3)
    tr = run(spec, genus2, random_metric(rng, 11))
    assert tr.termination == "max_steps"
    assert tr.n_steps == 3
    assert len(tr.times) == 4


def test_run_stepped_out_of_domain(genus2):
    # no step at or above min_step is possible from the initial step size
    rng = np.random.default_rng(26)
    spec = FlowSpec(family="ricci_normalized", min_step=0.5)
    tr = run(spec, genus2, random_metric(rng, 11))
    assert tr.termination == "stepped_out_of_domain"
    assert tr.n_steps == 0


def test_run_diverged(tetra):
    # alpha = 1 on the sphere: a radius leaves [R_MIN_GUARD, R_MAX_GUARD]
    spec = FlowSpec(family="alpha_ricci_normalized", alpha=1.0,
                    record_energies=False)
    tr = run(spec, tetra, np.array([1.0, 1.2, 0.9, 1.05]))
    assert tr.termination == "diverged"
    r = tr.radii[-1]
    assert r.min() < flows2d.R_MIN_GUARD or r.max() > flows2d.R_MAX_GUARD
    assert np.all(tr.radii[:-1].min(axis=1) >= flows2d.R_MIN_GUARD)


def test_calabi_runs_form_no_dense_matrix(monkeypatch, torus7):
    """Every Calabi stage is an edge-weight matvec: the flows run with the
    dense Jacobian and Hessian unavailable."""
    def dense(*args, **kwargs):
        raise AssertionError("a flow stage formed a dense V x V matrix")
    for module in (operators2d, flows2d):
        for name in ("curvature_jacobian", "potential_hessian"):
            monkeypatch.setattr(module, name, dense, raising=False)
    rng = np.random.default_rng(21)
    for c in (torus7, grid_torus(20, 20)):
        r0 = random_metric(rng, c.vertex_count, 0.8, 1.25)
        for family, alpha in calabi_families():
            trace = run(FlowSpec(family, alpha=alpha, max_steps=3), c, r0)
            assert trace.n_steps == 3, (family, alpha, trace.termination)
