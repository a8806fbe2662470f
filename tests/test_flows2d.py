import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import (assert_time_scaled_runs, calabi_families, grid_torus,
                      newton_direction_oracle, random_metric, reweighted)
from packflows import data, flows2d, operators2d, packing2d, packing3d
from packflows.cli import main
from packflows.errors import (DegenerateTetrahedronError,
                              DegenerateTriangleError, NoConvergenceError,
                              NotApplicableError, StepFailureError)
from packflows.flows2d import (FAMILIES, FlowSpec, FlowState,
                               constant_curvature_residual,
                               find_constant_curvature, max_principle_bounds,
                               prescribed_residual, run, step, vector_field)
from packflows.mesh import euler_characteristic
from packflows.operators2d import (alpha_laplacian, calabi_energy,
                                   calabi_energy_gradient, curvature_jacobian,
                                   laplacian, potential_gradient,
                                   ricci_potential)
from packflows.packing2d import (angle_defect, average_curvature, curvature,
                                 total_measure)


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


RECORD_SURFACES = {name: data.load(name) for name in
                   ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                    "genus2_11")}
RECORD_SURFACES.update(grid_5x6=grid_torus(5, 6),
                       grid_12x12=grid_torus(12, 12))


def public_field(family, c, r, alpha, target):
    """The base field of a family from the public functions alone."""
    field, R = FAMILIES[family].field, curvature(c, r, alpha)
    if field == "ricci":
        return -R
    if field == "normalized":
        return (average_curvature(c, r, alpha) if target is None
                else target) - R
    if field == "calabi":
        return alpha_laplacian(c, r, alpha, R)
    return -0.5 * calabi_energy_gradient(c, r, alpha, target)


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(RECORD_SURFACES)),
       family=st.sampled_from(sorted(f for f, row in FAMILIES.items()
                                     if row.field)),
       alpha=st.sampled_from([2.0, 1.0, 0.0, -1.0]), draw=st.data())
def test_the_evaluated_point_is_the_public_functions_bit_for_bit(
        name, family, alpha, draw):
    """Every 2-d row reads its field and its sample row from one evaluated
    point. On weights in [0, pi/2], with a target for the prescribed rows
    and none for the others, each equals the public functions bit for bit:
    the field vector_field and the composition of curvature,
    average_curvature, alpha_laplacian and calabi_energy_gradient; and the
    sample's R, conserved quantity, C and residual curvature,
    total_measure, calabi_energy and constant_curvature_residual or
    prescribed_residual. The potential column is 0 at the first sample and
    ricci_potential from it at the next, to rounding."""
    row = FAMILIES[family]
    alpha = alpha if row.alpha is None else row.alpha
    c = RECORD_SURFACES[name]
    n = c.vertex_count
    c = reweighted(c, draw.draw(arrays(float, len(c.edges),
                                       elements=st.floats(0.0, np.pi / 2))))
    r = np.exp(draw.draw(arrays(float, n, elements=st.floats(-1.5, 1.5))))
    target = (draw.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
              if row.prescribed else None)
    spec = FlowSpec(family, alpha=alpha, target=target)
    _, flow = flows2d._flow(spec, c, r)
    point = flow.evaluate(r)
    v = flow.field(point)
    assert np.array_equal(v, public_field(family, c, r, alpha, target))
    assert np.array_equal(row.scale * v, vector_field(spec, c, r))
    t, radii, R, conserved, F, C, residual = flow.sample(0.5, point)
    assert t == 0.5 and F == 0.0
    assert np.array_equal(radii, r)
    assert np.array_equal(R, curvature(c, r, alpha))
    if row.conserved is None:
        assert math.isnan(conserved)
    elif row.conserved == "alpha" and alpha != 0.0:
        assert conserved == total_measure(r, alpha)
    else:
        assert conserved == float(np.exp(np.sum(np.log(r))))
    assert C == calabi_energy(c, r, alpha, target)
    assert residual == (constant_curvature_residual(c, r, alpha)
                        if target is None
                        else prescribed_residual(c, r, alpha, target))
    r2 = r * np.exp(draw.draw(arrays(float, n, elements=st.floats(-0.5, 0.5))))
    F2 = flow.sample(1.0, flow.evaluate(r2))[4]
    F_ref = ricci_potential(c, np.log(r), np.log(r2), alpha, target)
    assert abs(F2 - F_ref) <= 1e-12 * max(1.0, abs(F_ref))


def test_step_fixed_point(tetra):
    spec = FlowSpec(family="ricci_normalized")
    state = FlowState(0.0, np.ones(4), 0.1)
    out = step(spec, tetra, state)
    assert np.abs(out.r - 1.0).max() < 1e-12
    assert out.t > 0


def test_step_fails_at_once_from_a_start_outside_the_domain(tetra):
    # |log r| > 700 at the start: no step of any size leaves the point, so
    # step raises at once and names it, with no halving down to min_step.
    # At alpha = 0 the measure r^0 = 1 passes the boundary, and
    # log 1e-310 = -713.8
    state = FlowState(0.0, np.array([1e-310, 1.0, 1.0, 1.0]), 0.01)
    with pytest.raises(StepFailureError,
                       match="log radius out of range at an accepted point"):
        step(FlowSpec(family="alpha_ricci_normalized", alpha=0.0), tetra,
             state)


def test_run_refuses_a_start_outside_the_domain(tetra, tmp_path, capsys):
    # the start passes the same |log r| <= 700 guard as every stage: once
    # it was evaluated past it, warned "divide by zero" and ended
    # stepped_out_of_domain with residual inf. At alpha = 0 the measure
    # r^0 = 1 passes the boundary
    r0 = np.array([1e-310, 1.0, 1.0, 1.0])
    with pytest.raises(StepFailureError,
                       match="log radius out of range at the start point"):
        run(FlowSpec(family="alpha_ricci_normalized", alpha=0.0), tetra, r0)
    code = main(["flow", "--mesh", "tetrahedron", "--family",
                 "alpha-ricci-normalized", "--alpha", "0", "--radii",
                 "1e-310,1,1,1", "--out", str(tmp_path)])
    assert code == 4
    assert "at the start point" in capsys.readouterr().err


def test_run_names_a_degenerate_start(cell5, tmp_path):
    # the guard does not rename the geometry error of a degenerate start
    with pytest.raises(DegenerateTetrahedronError, match="not realizable"):
        run(FlowSpec(family="yamabe"), cell5, np.array([1, 1, 1, 1, 1e-3]))
    code = main(["flow", "--mesh", "cell5", "--radii", "1,1,1,1,1e-3",
                 "--out", str(tmp_path)])
    assert code == 3


def test_step_conserves_measure_to_tolerance(genus2):
    rng = np.random.default_rng(5)
    r = random_metric(rng, 11)
    spec = FlowSpec(family="ricci_normalized", rtol=1e-9, atol=1e-12)
    out = step(spec, genus2, FlowState(0.0, r, 0.05))
    before = np.sum(r ** 2)
    after = np.sum(out.r ** 2)
    assert abs(after / before - 1.0) < 1e-9


@pytest.mark.parametrize("mesh_name", ["genus2_11", "torus_7"])
@pytest.mark.parametrize("fam_a, fam_c, factor", [
    ("alpha_ricci_normalized", "ricci_normalized", 2.0),
    ("alpha_ricci", "ricci", 2.0),
    ("alpha_calabi", "calabi", 4.0),
    ("alpha_calabi_modified", "calabi_modified", 4.0)])
def test_time_scaling_equivalence(surfaces, mesh_name, fam_a, fam_c, factor):
    # the alpha = 2 flows are the classic ones at twice (Ricci) or four
    # times (Calabi) the speed: with the time settings scaled by the same
    # factor, the two DOP853 runs take the same steps bit for bit
    c = surfaces[mesh_name]
    r = random_metric(np.random.default_rng(6), c.vertex_count)
    tr = assert_time_scaled_runs(c, r, fam_a, fam_c, factor)
    assert tr.n_steps > 10


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
    # against a centered difference along the field: log r +- delta v
    rng = np.random.default_rng(13)
    r = random_metric(rng, 11, 0.9, 1.2)
    v = vector_field(FlowSpec(family="ricci_normalized"), genus2, r)
    delta = 1e-4
    fwd, bwd = r * np.exp(delta * v), r * np.exp(-delta * v)
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
    diagnostics = exc_info.value.diagnostics
    assert diagnostics["termination"] == "max_time"
    # the flow records no energies, so it has no monotonicity verdicts
    assert diagnostics["potential_nonincreasing"] is None
    assert diagnostics["calabi_nonincreasing"] is None


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
    point = packing2d._point(c, r, alpha, None)
    assert np.array_equal(point.g, potential_gradient(c, r, alpha))
    d = flows2d._newton_direction(c, point, alpha)
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


def test_csv_is_the_row_by_row_format(tmp_path):
    """The trace CSV, written one format per row, is byte for byte the
    value-by-value %.17g rows, at the floats whose text is special: nan,
    +-inf, -0.0, 1e-300 and a value that needs all 17 digits."""
    special = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2, 3.0]
    radii = np.array([special[k:] + special[:k] for k in range(3)])
    tr = flows2d.FlowTrace("ricci", 2.0, np.array([0.0, 1e-300, 2.5]),
                           radii, -radii, np.array([math.nan, 1.0, -0.0]),
                           np.array([math.inf, -1e-300, 0.0]),
                           np.array([-0.0, math.nan, 7.0]),
                           np.array([1e-300, 2.0, math.inf]), "max_time", 2)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    n = radii.shape[1]
    rows = [",".join(["t"] + [f"r_{i+1}" for i in range(n)]
                     + [f"R_{i+1}" for i in range(n)]
                     + ["conserved", "F", "C", "residual"])]
    for k in range(len(tr.times)):
        row = ([tr.times[k]] + list(tr.radii[k]) + list(tr.curvatures[k])
               + [tr.conserved[k], tr.potential[k], tr.calabi[k],
                  tr.residuals[k]])
        rows.append(",".join(f"{x:.17g}" for x in row))
    assert path.read_text() == "\n".join(rows) + "\n"
    row0 = "0,nan,inf,-inf,-0,1e-300,0.30000000000000004,3,"
    assert row0 in path.read_text()


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


@pytest.mark.parametrize("value", ["5", True, 2.0, 0, -1])
def test_spec_rejects_a_max_steps_that_is_not_a_positive_integer(value):
    # "5" once failed in run with a bare TypeError, and True ran as 1
    with pytest.raises(ValueError, match="max_steps"):
        FlowSpec(family="ricci_normalized", max_steps=value)


def test_spec_rejects_non_finite_target():
    with pytest.raises(ValueError, match="target"):
        FlowSpec(family="alpha_prescribed", target=[1.0, np.nan, 0.0, 0.0])


def test_spec_takes_no_method():
    # DOP853 is the one stepping method
    with pytest.raises(TypeError, match="method"):
        FlowSpec(family="ricci_normalized", method="dop853")


def test_run_rejects_target_of_wrong_shape(tetra):
    # a one-entry target would broadcast against the four radii; step and
    # vector_field once let it through
    spec = FlowSpec(family="alpha_prescribed", alpha=0.0, target=[np.pi])
    with pytest.raises(ValueError, match="shape"):
        run(spec, tetra, np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        step(spec, tetra, FlowState(0.0, np.ones(4), 0.01))
    with pytest.raises(ValueError, match="shape"):
        vector_field(spec, tetra, np.ones(4))


def test_run_rejects_the_3d_family(tetra):
    with pytest.raises(ValueError, match="stated for 3-manifolds"):
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


def test_each_accepted_point_is_evaluated_once(monkeypatch, torus7, torus3):
    """The sample of an accepted point and the first stage of the next step
    share one evaluation, and every trial from that point reuses it. A
    DOP853 trial evaluates no stage at its new point, so a run makes
    1 + 12 accepted + 11 rejected angle or solid-angle evaluations: for
    every 2-d family with energies recorded, whose fields, potential rates
    and samples all read the one evaluated point (the free alphas at 1), and
    for the 3-d flow. Every run rejects a trial and none leaves the domain:
    alpha = 2 alpha_calabi on its own, the others from a first step too long
    for the tolerance."""
    calls = Counter()
    point3, angles = packing3d._point, packing2d._angles

    def counted_point3(c, r):
        calls["evaluations"] += 1
        return point3(c, r)

    def counted_angles(c, r):
        calls["evaluations"] += 1
        return angles(c, r)
    monkeypatch.setattr(packing3d, "_point", counted_point3)
    monkeypatch.setattr(packing2d, "_angles", counted_angles)

    rng = np.random.default_rng(0)
    r2 = rng.uniform(0.8, 1.3, torus7.vertex_count)
    r3 = rng.uniform(0.9, 1.1, torus3.vertex_count)
    specs = [(FlowSpec(family, alpha=1.0 if row.alpha is None else row.alpha,
                       target=np.zeros(7) if row.prescribed else None,
                       t_max=5.0, initial_step=0.2), torus7, r2)
             for family, row in sorted(FAMILIES.items()) if row.field]
    specs += [(FlowSpec("alpha_calabi", alpha=2.0, t_max=5.0), torus7, r2),
              (FlowSpec("yamabe", t_max=20.0, initial_step=0.5), torus3, r3)]
    assert len(specs) == 12
    for spec, c, r0 in specs:
        calls.clear()
        trace = run(spec, c, r0)
        assert spec.record_energies
        assert trace.termination in ("max_time", "converged"), spec.family
        assert trace.n_rejected > 0, spec.family
        assert calls["evaluations"] == (1 + 12 * trace.n_steps
                                        + 11 * trace.n_rejected), spec.family


def test_a_field_that_is_not_finite_ends_the_run_or_the_trial(tetra):
    """A non-finite field at an accepted point ends the run
    stepped_out_of_domain: it is the first stage of every step, so no step
    leaves the point. In a later stage it is a failed trial, retried smaller
    until the step falls below min_step."""
    r0 = np.ones(4)

    def integrate(finite_at_start):
        def field(point):
            ok = finite_at_start and np.array_equal(point[0], r0)
            return np.full(4, 1.0 if ok else np.nan)

        def sample(t, point):
            return t, point[0], 0.0, 0.0, 0.0, 0.0, 1.0
        flow = flows2d._Flow(lambda r: packing2d._point(tetra, r, 2.0, None),
                             field, sample, True, None)
        return flows2d._integrate(FlowSpec("ricci", t_max=1.0), tetra, r0, flow)

    for finite_at_start in (False, True):
        trace = integrate(finite_at_start)
        assert (trace.termination, trace.n_steps) == ("stepped_out_of_domain", 0)


@pytest.mark.parametrize("error", [DegenerateTriangleError,
                                   DegenerateTetrahedronError])
def test_an_accepted_point_outside_the_domain_ends_the_run(tetra, error):
    """No stage of a DOP853 trial sits at the point it accepts: when the
    evaluation of that point fails by name, the run ends
    stepped_out_of_domain at the last point inside, as when no step leaves
    it. The first accepted point is the 13th evaluation: the start and 11
    stages come before it."""
    calls = Counter()

    def evaluate(r):
        calls["evaluations"] += 1
        if calls["evaluations"] == 13:
            raise error("degenerate")
        return packing2d._point(tetra, r, 2.0, None)

    def sample(t, point):
        return t, point[0], 0.0, 0.0, 0.0, 0.0, 1.0
    r0 = np.array([0.7, 0.9, 1.1, 1.3])
    flow = flows2d._Flow(evaluate, lambda point: -point[3], sample, True,
                         None)
    trace = flows2d._integrate(FlowSpec("ricci"), tetra, r0, flow)
    assert (trace.termination, trace.n_steps) == ("stepped_out_of_domain", 0)
    assert calls["evaluations"] == 13
    assert np.array_equal(trace.radii, [r0])
