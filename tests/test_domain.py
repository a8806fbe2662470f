"""The admissible domain is checked once, at the public boundary.

Public functions validate radii with check_metric; the private evaluators
(packing2d._angles, packing3d._point) and the stages built on them either
return finite values or fail by name: a named degeneracy from the kernels,
DomainError from a stage. Warnings are errors in this suite, so a kernel
that lets NaN or an overflow through fails here too.
"""

import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from packflows import (admissibility, cli, data, flows2d, mesh, operators2d,
                       packing2d, packing3d)
from packflows._rk import DomainError
from packflows.errors import (DegenerateTetrahedronError,
                              DegenerateTriangleError, InvalidComplexError,
                              NearDegenerateError)
from packflows.flows2d import FAMILIES, FlowSpec

COMPLEXES = {name: data.load(name) for name in data.available()}
FAMILIES_2D = sorted(name for name, row in FAMILIES.items() if row.field)


@st.composite
def log_radii(draw, n):
    """Finite u with |u| <= 700: a common shift plus a spread from none to
    the whole range, so both realizable and degenerate metrics come up."""
    shift = draw(st.floats(-700.0, 700.0))
    spread = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0, 100.0, 1400.0]))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return np.clip(shift + spread * z, -700.0, 700.0)


def _stage(c, family, alpha):
    """The stepper's field of a family on c (of yamabe on a 3-manifold)."""
    family = "yamabe" if c.dim == 3 else family
    row = FAMILIES[family]
    spec = FlowSpec(family, alpha=alpha if row.alpha is None else row.alpha,
                    target=(np.linspace(-1.0, 1.0, c.vertex_count)
                            if row.prescribed else None))
    _, flow = flows2d._flow(spec, c, np.ones(c.vertex_count))
    return flows2d._stage(spec, flow.evaluate, flow.field)[0]


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(COMPLEXES)),
       family=st.sampled_from(FAMILIES_2D),
       alpha=st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]), draw=st.data())
def test_stages_are_finite_or_leave_the_domain(name, family, alpha, draw):
    c = COMPLEXES[name]
    u = draw.draw(log_radii(c.vertex_count))
    try:
        v, q = _stage(c, family, alpha)(0.0, u)
    except DomainError:
        return
    assert np.all(np.isfinite(v)) and np.isfinite(q)


def test_stage_with_an_underflowing_measure_leaves_the_domain():
    # r^3 underflows to 0 in every vertex: the average curvature 2 pi chi / 0
    # once raised ZeroDivisionError from the stage instead of DomainError
    stage = _stage(COMPLEXES["tetrahedron"], "alpha_calabi", 3.0)
    with pytest.raises(DomainError):
        stage(0.0, np.full(4, -249.0))


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(COMPLEXES)), draw=st.data())
def test_kernels_are_finite_or_name_the_degeneracy(name, draw):
    c = COMPLEXES[name]
    r = np.exp(draw.draw(log_radii(c.vertex_count)))
    kernel, named = ((packing2d.inner_angles, DegenerateTriangleError)
                     if c.dim == 2 else
                     (packing3d.solid_angles, DegenerateTetrahedronError))
    try:
        out = kernel(c, r)
    except named:
        return
    assert np.all(np.isfinite(out))


@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(["cell5", "cell16", "torus3_27"]), draw=st.data())
def test_jacobian_3d_is_finite_or_refuses_by_name(name, draw):
    c = COMPLEXES[name]
    r = np.exp(draw.draw(log_radii(c.vertex_count)))
    try:
        lam = packing3d.defect_jacobian(c, r).matrix
    except (NearDegenerateError, DegenerateTetrahedronError):
        return
    assert np.all(np.isfinite(lam))


def test_drivers_validate_only_at_entry(monkeypatch):
    """check_metric and require_valid run in the public function the caller
    enters, never again in a stage, sample, trial point or descent step."""
    calls = Counter()
    check, require_valid = packing2d.check_metric, mesh._Complex.require_valid

    def counted_check(c, r, dim=2):
        calls["check_metric"] += 1
        return check(c, r, dim)

    def counted_require_valid(self):
        calls["require_valid"] += 1
        return require_valid(self)
    # the modules that bind it: every other reaches it through their checks
    for module in (packing2d, packing3d):
        monkeypatch.setattr(module, "check_metric", counted_check)
    monkeypatch.setattr(mesh._Complex, "require_valid", counted_require_valid)

    genus2, cell16 = COMPLEXES["genus2_11"], COMPLEXES["cell16"]
    rng = np.random.default_rng(31)
    r2 = random_metric(rng, genus2.vertex_count, 0.8, 1.25)
    r3 = random_metric(rng, cell16.vertex_count, 0.95, 1.05)
    drivers = [
        ("run", lambda: flows2d.run(FlowSpec("ricci_normalized", t_max=5.0),
                                    genus2, r2), 1),
        ("newton", lambda: flows2d.find_constant_curvature(
            genus2, 2.0, r2), 1),
        ("flow", lambda: flows2d.find_constant_curvature(
            genus2, 2.0, r2, method="flow"), 1),
        ("yamabe", lambda: flows2d.run(FlowSpec("yamabe", t_max=20.0),
                                       cell16, r3), 1),
        ("estimate", lambda: packing3d.yamabe_invariant_estimate(
            cell16, n_starts=3), 0),
    ]
    for name, driver, checks in drivers:
        calls.clear()
        result = driver()
        if hasattr(result, "n_steps"):
            assert result.n_steps > 10, name
        assert calls == Counter(check_metric=checks, require_valid=1), name


# every public function of a dimension that takes a complex, as
# (name, dim, call(c, r)); run, step and vector_field once per family
_SURFACE_TRACE = flows2d.run(FlowSpec("ricci_normalized", t_max=0.1),
                             COMPLEXES["tetrahedron"], np.ones(4))


def _spec(family, n):
    row = FAMILIES[family]
    return FlowSpec(family, target=np.zeros(n) if row.prescribed else None)


BOUNDARY = [
    ("mesh.euler_characteristic", 2, lambda c, r: mesh.euler_characteristic(c)),
    ("packing2d.check_metric", 2, packing2d.check_metric),
    ("packing2d.edge_lengths", 2, packing2d.edge_lengths),
    ("packing2d.inner_angles", 2, packing2d.inner_angles),
    ("packing2d.angle_defect", 2, packing2d.angle_defect),
    ("packing2d.curvature", 2, packing2d.curvature),
    ("packing2d.average_curvature", 2, packing2d.average_curvature),
    ("packing2d.curvature_averages", 2, packing2d.curvature_averages),
    ("operators2d.curvature_jacobian", 2, operators2d.curvature_jacobian),
    ("operators2d.laplacian", 2, lambda c, r: operators2d.laplacian(c, r, r)),
    ("operators2d.alpha_laplacian", 2,
     lambda c, r: operators2d.alpha_laplacian(c, r, 1.0, r)),
    ("operators2d.laplacian_spectrum", 2, operators2d.laplacian_spectrum),
    ("operators2d.first_positive_eigenvalue", 2,
     operators2d.first_positive_eigenvalue),
    ("operators2d.potential_gradient", 2, operators2d.potential_gradient),
    ("operators2d.ricci_potential", 2,
     lambda c, r: operators2d.ricci_potential(c, np.log(r), np.log(r) + 0.1)),
    ("operators2d.ricci_potential(u0 == u1)", 2,
     lambda c, r: operators2d.ricci_potential(c, np.log(r), np.log(r))),
    ("operators2d.potential_hessian", 2, operators2d.potential_hessian),
    ("operators2d.calabi_energy", 2, operators2d.calabi_energy),
    ("operators2d.calabi_energy_gradient", 2,
     operators2d.calabi_energy_gradient),
    ("flows2d.constant_curvature_residual", 2,
     flows2d.constant_curvature_residual),
    ("flows2d.prescribed_residual", 2,
     lambda c, r: flows2d.prescribed_residual(c, r, 2.0, np.zeros(len(r)))),
    ("flows2d.max_principle_bounds", 2,
     lambda c, r: flows2d.max_principle_bounds(c, _SURFACE_TRACE)),
    ("flows2d.find_constant_curvature", 2,
     lambda c, r: flows2d.find_constant_curvature(c, 2.0, r)),
    ("flows2d.find_constant_curvature(flow)", 2,
     lambda c, r: flows2d.find_constant_curvature(c, 2.0, r, method="flow")),
    ("packing3d.tet_q_factors", 3, packing3d.tet_q_factors),
    ("packing3d.solid_angles", 3, packing3d.solid_angles),
    ("packing3d.solid_angle_defect", 3, packing3d.solid_angle_defect),
    ("packing3d.curvature3", 3, packing3d.curvature3),
    ("packing3d.yamabe_state", 3, packing3d.yamabe_state),
    ("packing3d.curvature_norm_bound", 3, packing3d.curvature_norm_bound),
    ("packing3d.defect_jacobian", 3, packing3d.defect_jacobian),
    ("packing3d.laplacian3", 3, lambda c, r: packing3d.laplacian3(c, r, r)),
    ("packing3d.yamabe_residual", 3, packing3d.yamabe_residual),
    ("packing3d.yamabe_invariant_estimate", 3,
     lambda c, r: packing3d.yamabe_invariant_estimate(c, n_starts=1)),
] + [
    (f"flows2d.{name}({family})", 3 if row.field is None else 2, call)
    for family, row in sorted(FAMILIES.items())
    for name, call in [
        ("run", lambda c, r, f=family: flows2d.run(_spec(f, len(r)), c, r)),
        ("step", lambda c, r, f=family: flows2d.step(
            _spec(f, len(r)), c, flows2d.FlowState(0.0, r, 0.01))),
        ("vector_field", lambda c, r, f=family: flows2d.vector_field(
            _spec(f, len(r)), c, r))]
]
# valid complexes of each dimension, and invalid ones: a face or a
# tetrahedron short of closed
OTHER = {2: COMPLEXES["cell5"], 3: COMPLEXES["torus_7"]}
INVALID = {2: mesh.Surface2Complex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
           3: mesh.Manifold3Complex(5, COMPLEXES["cell5"].tetrahedra[:4])}


def test_boundary_table_covers_every_public_function():
    def takes_a_complex(fn):
        params = list(inspect.signature(fn).parameters)
        return params[:1] == ["c"] or params[:2] == ["spec", "c"]
    public = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
              for module in (packing2d, operators2d, flows2d, packing3d)
              for name, fn in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == module.__name__ and takes_a_complex(fn)}
    covered = {name.split("(")[0] for name, _, _ in BOUNDARY}
    assert public | {"mesh.euler_characteristic"} == covered


@pytest.mark.parametrize("name, dim, call", BOUNDARY,
                         ids=[name for name, _, _ in BOUNDARY])
def test_boundary_refuses_the_other_dimension_by_name(name, dim, call):
    # 34 of these once died with a bare AttributeError
    c = OTHER[dim]
    with pytest.raises(ValueError, match="stated for"):
        call(c, np.ones(c.vertex_count))


@pytest.mark.parametrize("name, dim, call", BOUNDARY,
                         ids=[name for name, _, _ in BOUNDARY])
def test_boundary_refuses_an_invalid_complex_by_name(name, dim, call):
    c = INVALID[dim]
    assert not c.is_valid
    with pytest.raises(InvalidComplexError):
        call(c, np.ones(c.vertex_count))


# radii of the tetrahedron that are not a metric of it: NaN, a shape of one
# vertex (which once gave the average of a one-vertex measure, 4 pi), a
# non-positive radius
BAD_RADII = [[np.nan, 1.0, 1.0, 1.0], [1.0], [1.0, 1.0, 0.0, 1.0],
             [1.0, 1.0, 1.0, np.inf]]


@pytest.mark.parametrize("radii", BAD_RADII, ids=["nan", "one", "zero", "inf"])
@pytest.mark.parametrize("call", [
    packing2d.average_curvature, packing2d.curvature_averages,
    lambda c, r: operators2d.ricci_potential(c, np.log(np.ones(4)), np.log(r)),
    lambda c, r: operators2d.ricci_potential(c, np.log(r), np.log(r))],
    ids=["average_curvature", "curvature_averages", "ricci_potential(u1)",
         "ricci_potential(u0 == u1)"])
def test_averages_and_the_potential_check_the_radii(call, radii):
    with pytest.raises(ValueError, match="radii|shape"), \
            np.errstate(divide="ignore"):
        call(COMPLEXES["tetrahedron"], np.array(radii))


def test_ricci_potential_checks_an_overflowing_end_point():
    with pytest.raises(ValueError, match="radii"):
        operators2d.ricci_potential(COMPLEXES["tetrahedron"], np.zeros(4),
                                    np.full(4, 800.0))


# -- the checks of the exponent, the vertex functions and the measure ----------

# every public function that refuses an input outside the paper's
# hypotheses, as (name, the inputs it takes, call(c, r, alpha, target, f)):
# alpha when its exponent is free, target, f or x when it takes one,
# measure when it reads the measure r^alpha (r^3 on a 3-manifold) or
# divides by it, and R when it evaluates the curvatures K / r^alpha
# (packing2d._evaluate). A function that does not take alpha reads r^2 on a
# surface
_T = np.zeros(4)  # a target of the tetrahedron


def _flow_calls(family):
    row = FAMILIES[family]
    takes = {"measure"} | ({"alpha"} if row.alpha is None else set()) | (
        {"target"} if row.prescribed else set())

    def spec(a, t):
        return FlowSpec(family, alpha=a if row.alpha is None else row.alpha,
                        target=(_T if t is None else t) if row.prescribed
                        else None)
    return [
        (f"run({family})", takes,
         lambda c, r, a, t, f: flows2d.run(spec(a, t), c, r)),
        (f"step({family})", takes,
         lambda c, r, a, t, f: flows2d.step(spec(a, t), c,
                                            flows2d.FlowState(0.0, r, 0.01))),
        (f"vector_field({family})", takes,
         lambda c, r, a, t, f: flows2d.vector_field(spec(a, t), c, r))]


REFUSING_2D = [
    ("curvature", {"alpha", "R"},
     lambda c, r, a, t, f: packing2d.curvature(c, r, a)),
    ("average_curvature", {"alpha"},
     lambda c, r, a, t, f: packing2d.average_curvature(c, r, a)),
    ("curvature_averages", {"alpha"},
     lambda c, r, a, t, f: packing2d.curvature_averages(c, r, a)),
    ("laplacian", {"measure", "f", "R"},
     lambda c, r, a, t, f: operators2d.laplacian(c, r, f)),
    ("alpha_laplacian", {"alpha", "f", "R"},
     lambda c, r, a, t, f: operators2d.alpha_laplacian(c, r, a, f)),
] + [
    (name, {"alpha", "target", "R"},
     lambda c, r, a, t, f, fn=getattr(operators2d, name): fn(c, r, a, t))
    for name in ("potential_gradient", "potential_hessian", "calabi_energy",
                 "calabi_energy_gradient")
] + [
    ("ricci_potential", {"alpha", "target"},
     lambda c, r, a, t, f: operators2d.ricci_potential(
         c, np.log(r), np.log(r) + 0.1, a, t)),
    ("constant_curvature_residual", {"alpha", "R"},
     lambda c, r, a, t, f: flows2d.constant_curvature_residual(c, r, a)),
    ("prescribed_residual", {"alpha", "target", "R"},
     lambda c, r, a, t, f: flows2d.prescribed_residual(
         c, r, a, _T if t is None else t)),
    ("find_constant_curvature", {"alpha"},
     lambda c, r, a, t, f: flows2d.find_constant_curvature(c, a, r)),
    ("find_constant_curvature(flow)", {"alpha"},
     lambda c, r, a, t, f: flows2d.find_constant_curvature(c, a, r,
                                                           method="flow")),
    ("metric_condition", {"alpha"},
     lambda c, r, a, t, f: admissibility.metric_condition(c, r, a)),
    ("y_membership", {"x"},
     lambda c, r, a, t, f: admissibility.y_membership(
         c, packing2d.angle_defect(c, r) if f is None else f)),
] + [call for family in FAMILIES_2D for call in _flow_calls(family)]

REFUSING_3D = [
    ("curvature3", {"measure"}, lambda c, r, f: packing3d.curvature3(c, r)),
    ("yamabe_state", {"measure"},
     lambda c, r, f: packing3d.yamabe_state(c, r)),
    ("yamabe_residual", {"measure"},
     lambda c, r, f: packing3d.yamabe_residual(c, r)),
    ("laplacian3", {"f"}, lambda c, r, f: packing3d.laplacian3(c, r, f)),
] + [(name, takes, lambda c, r, f, call=call: call(c, r, 2.0, None, None))
     for name, takes, call in _flow_calls("yamabe")]

R_TETRA = np.array([1.0, 1.1, 0.9, 1.05])
BAD_VECTORS = {"short": [1.0], "long": np.ones(5), "nan": [np.nan, 0, 0, 0],
               "inf": [0, 0, np.inf, 0]}
MATCH = {"target": "^target must be", "f": "^f must be a finite vector",
         "x": "^x must be a finite vector"}


# torus_7 with r_0^2 = 4e-308, a normal double: K_0 = -4 pi, and K_0 / r_0^2
# overflows
R_TORUS7 = np.array([2e-154] + 6 * [1.0])


def _cases_2d():
    """(id, call, complex, r, alpha, target, f, match) of each refusal."""
    tetra = COMPLEXES["tetrahedron"]
    for name, takes, call in REFUSING_2D:
        alphas = ([-2.0, 1.0, 2.0, 3.0] if "alpha" in takes else
                  [2.0] if "measure" in takes else [])
        if "alpha" in takes:
            for a in (np.nan, np.inf, -np.inf):
                yield (f"{name}-alpha={a}", call, tetra, R_TETRA, a, None,
                       None, "^alpha must be finite")
        for kind in sorted(takes & set(MATCH)):
            for label, bad in BAD_VECTORS.items():
                t = bad if kind == "target" else None
                f = bad if kind != "target" else None
                yield (f"{name}-{kind}={label}", call, tetra, R_TETRA, 2.0, t,
                       f, MATCH[kind])
        if "R" in takes:
            zeros = np.zeros(7)
            yield (f"{name}-R-overflows", call, COMPLEXES["torus_7"],
                   R_TORUS7, 2.0, zeros if "target" in takes else None,
                   zeros if "f" in takes else None,
                   r"^the curvature K / r \*\* 2 leaves the float range")
        # radii whose measure r^alpha overflows (for alpha = 1, the sum of
        # the measure) and underflows past the normal doubles
        for a in alphas:
            scales = ({"over": 1e308, "under": 1e-310} if a == 1.0 else
                      {"over": 10.0 ** (400.0 / a),
                       "under": 10.0 ** (-400.0 / a)})
            for label, s in scales.items():
                yield (f"{name}-{label}flow-at-alpha={a:g}", call, tetra,
                       s * R_TETRA / R_TETRA.max(), a, None, None,
                       r"^the measure r \*\* .* leaves the float range")


CASES_2D = list(_cases_2d())


@pytest.mark.parametrize("name, call, c, r, alpha, target, f, match",
                         CASES_2D, ids=[case[0] for case in CASES_2D])
def test_refusing_functions_of_a_surface_name_the_input(
        name, call, c, r, alpha, target, f, match):
    with pytest.raises(ValueError, match=match):
        call(c, r, alpha, target, f)


R_CELL5 = np.array([1.0, 1.1, 0.9, 1.0, 1.05])
CASES_3D = [
    (f"{name}-{label}flow", call, s * R_CELL5, None,
     r"^the measure r \*\* 3 leaves the float range")
    for name, takes, call in REFUSING_3D if "measure" in takes
    for label, s in (("over", 1e150), ("under", 1e-150))
] + [
    (f"{name}-f={label}", call, R_CELL5, bad, MATCH["f"])
    for name, takes, call in REFUSING_3D if "f" in takes
    for label, bad in (("short", np.ones(4)), ("nan", [np.nan, 0, 0, 0, 0]))
]


@pytest.mark.parametrize("name, call, r, f, match", CASES_3D,
                         ids=[case[0] for case in CASES_3D])
def test_refusing_functions_of_a_3_manifold_name_the_input(
        name, call, r, f, match):
    with pytest.raises(ValueError, match=match):
        call(COMPLEXES["cell5"], r, np.zeros(5) if f is None else f)


def test_the_refusal_tables_cover_the_refusing_functions():
    names = {name.split("(")[0] for name, _, _ in REFUSING_2D + REFUSING_3D}
    assert names == {
        "curvature", "average_curvature", "curvature_averages", "laplacian",
        "alpha_laplacian", "potential_gradient", "potential_hessian",
        "calabi_energy", "calabi_energy_gradient", "ricci_potential",
        "constant_curvature_residual", "prescribed_residual",
        "find_constant_curvature", "metric_condition", "y_membership", "run",
        "step", "vector_field", "curvature3", "yamabe_state",
        "yamabe_residual", "laplacian3"}


# the angle-only and scale-free functions accept every positive finite
# radius, as (name, complex, k, call): at the radii s r, s = 1e+-150, they
# return s^k times their value at r. The 2-d Jacobian and spectrum form
# their edge weights on radii rescaled by a power of two
def _matrix(fn):
    return lambda c, r: fn(c, r).matrix


def _vertex_index(fn):
    return lambda c, r: fn(c, r, np.arange(c.vertex_count, dtype=float))


SCALE_FREE = [
    ("edge_lengths", "genus2_11", 1, packing2d.edge_lengths),
    ("inner_angles", "genus2_11", 0, packing2d.inner_angles),
    ("angle_defect", "genus2_11", 0, packing2d.angle_defect),
    ("curvature_jacobian", "genus2_11", 0,
     _matrix(operators2d.curvature_jacobian)),
    ("laplacian_spectrum", "genus2_11", -2,
     lambda c, r: operators2d.laplacian_spectrum(c, r)[0]),
    ("first_positive_eigenvalue", "genus2_11", -2,
     operators2d.first_positive_eigenvalue),
    ("solid_angles", "cell16", 0, packing3d.solid_angles),
    ("solid_angle_defect", "cell16", 0, packing3d.solid_angle_defect),
    ("curvature_norm_bound", "cell16", 0, packing3d.curvature_norm_bound),
    ("tet_q_factors", "cell16", -2, packing3d.tet_q_factors),
    ("defect_jacobian", "cell16", -1, _matrix(packing3d.defect_jacobian)),
    ("laplacian3", "cell16", -2, _vertex_index(packing3d.laplacian3)),
]


@pytest.mark.parametrize("name, mesh, k, call", SCALE_FREE,
                         ids=[case[0] for case in SCALE_FREE])
@pytest.mark.parametrize("sign", [-1, 1])
def test_scale_free_functions_accept_every_scale(name, mesh, k, call, sign):
    c = COMPLEXES[mesh]
    r = np.random.default_rng(1).uniform(0.95, 1.05, c.vertex_count)
    s = 10.0 ** (sign * 150)
    ref = np.asarray(call(c, r))
    out = np.asarray(call(c, s * r)) / s ** k
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


# the CLI commands that once reported input outside the hypotheses as a
# success or a non-convergence: each exits 2 by name and writes nothing
CELL5_1E150 = "1e150,1.1e150,0.9e150,1e150,1.05e150"


@pytest.mark.parametrize("argv", [
    ["curvature", "--mesh", "cell5", "--radii", CELL5_1E150],
    ["curvature", "--mesh", "tetrahedron", "--radii", "1e-200,1,1,1"],
    ["flow", "--mesh", "tetrahedron", "--family", "alpha-ricci", "--radii",
     "1e-200,1,1,1"],
    ["flow", "--mesh", "cell5", "--radii", CELL5_1E150],
    ["solve", "--mesh", "tetrahedron", "--radii", "1e-200,1,1,1"],
    ["flow", "--mesh", "tetrahedron", "--radii", "1e-310,1,1,1"],
    ["curvature", "--mesh", "torus_7", "--radii", "2e-154,1,1,1,1,1,1"],
], ids=["curvature-cell5", "curvature-tetrahedron", "flow-tetrahedron",
        "flow-cell5", "solve-tetrahedron", "flow-start-out-of-range",
        "curvature-torus_7-R-overflows"])
def test_cli_refuses_a_measure_out_of_range(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_INVALID
    assert "leaves the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
