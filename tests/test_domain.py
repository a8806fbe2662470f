"""The admissible domain is checked once, at the public boundary.

Public functions validate radii with check_metric; the private evaluators
(packing2d._angles, packing3d._state) and the stages built on them either
return finite values or fail by name: a named degeneracy from the kernels,
DomainError from a stage. Warnings are errors in this suite, so a kernel
that lets NaN or an overflow through fails here too.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric
from packflows import (admissibility, data, flows2d, mesh, operators2d,
                       packing2d, packing3d)
from packflows._rk import DomainError
from packflows.errors import (DegenerateTetrahedronError,
                              DegenerateTriangleError, NearDegenerateError)
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
    """The stepper's field of a family on c; in 3-d that of the flow
    yamabe_flow hands to the driver."""
    if c.dim == 3:
        spec = packing3d.default_yamabe_spec()
        with mock.patch.object(packing3d, "_integrate",
                               lambda spec, c, r0, flow: flow):
            flow = packing3d.yamabe_flow(c, np.ones(c.vertex_count), spec)
        return flows2d._stage(spec, flow.evaluate, flow.field)[0]
    row = FAMILIES[family]
    spec = FlowSpec(family, alpha=alpha if row.alpha is None else row.alpha,
                    target=(np.linspace(-1.0, 1.0, c.vertex_count)
                            if row.prescribed else None))
    return flows2d._stage(spec, lambda r: flows2d._point(c, r),
                          flows2d._base_field(spec, c))[0]


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

    def counted_check(c, r):
        calls["check_metric"] += 1
        return check(c, r)

    def counted_require_valid(self):
        calls["require_valid"] += 1
        return require_valid(self)
    for module in (packing2d, flows2d, operators2d, packing3d, admissibility):
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
        ("yamabe_flow", lambda: packing3d.yamabe_flow(cell16, r3), 1),
        ("estimate", lambda: packing3d.yamabe_invariant_estimate(
            cell16, n_starts=3), 0),
    ]
    for name, driver, checks in drivers:
        calls.clear()
        result = driver()
        if hasattr(result, "n_steps"):
            assert result.n_steps > 10, name
        assert calls == Counter(check_metric=checks, require_valid=1), name
