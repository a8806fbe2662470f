"""The Ricci potential integrated by the stepper: against the quadrature
oracle, and without effect on the run."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reweighted
from packflows import data
from packflows.flows2d import FAMILIES, FlowSpec, run
from packflows.operators2d import ricci_potential
from packflows.packing2d import curvature

FAMILIES_2D = sorted(name for name, row in FAMILIES.items()
                     if row.field is not None)


def oracle_potential(c, trace):
    """Cumulative quadrature of the potential between consecutive samples."""
    u = np.log(trace.radii)
    legs = [ricci_potential(c, u[k - 1], u[k], trace.alpha, trace.target,
                            tol=1e-12) for k in range(1, len(u))]
    return np.concatenate([[0.0], np.cumsum(legs)])


@pytest.mark.parametrize("mesh_name", ["genus2_11", "torus_7",
                                       "genus2_11-weighted",
                                       "torus_7-weighted"])
@pytest.mark.parametrize("family, alpha", [("ricci_normalized", 2.0),
                                           ("alpha_prescribed", 1.0),
                                           ("alpha_calabi_modified", 0.0)])
def test_dopri_potential_matches_quadrature(surfaces, mesh_name, family, alpha):
    # "-weighted": edge weights from a U(0, pi/2) draw, where every bundled
    # surface has weight 0
    c = surfaces[mesh_name.removesuffix("-weighted")]
    if mesh_name.endswith("-weighted"):
        c = reweighted(c, np.random.default_rng(7).uniform(
            0.0, np.pi / 2.0, len(c.edges)))
    rng = np.random.default_rng(31)
    r0 = rng.uniform(0.5, 2.0, c.vertex_count)
    target = None
    if FAMILIES[family].prescribed:
        target = curvature(c, rng.uniform(0.9, 1.1, c.vertex_count), alpha)
    tr = run(FlowSpec(family, alpha=alpha, target=target, t_max=3.0), c, r0)
    assert tr.n_steps > 20
    ref = oracle_potential(c, tr)
    assert np.max(np.abs(tr.potential - ref)) <= 1e-8 * max(1.0, np.abs(ref).max())


def test_quadrature_tolerance_is_relative_to_the_integral(tetra):
    # the CLI corpus run `flow --mesh tetrahedron --family alpha-prescribed
    # --alpha 2 --random 0.8,1.3,1 --t-max 3` reaches radii ~9e3 and
    # |F| ~ 1.7e8, where an absolute panel tolerance cannot be met in double
    # precision: two of its legs raised QuadratureFailureError
    target = curvature(tetra, np.random.default_rng(101).uniform(0.9, 1.1, 4),
                       2.0)
    r0 = np.random.default_rng(1).uniform(0.8, 1.3, 4)
    spec = FlowSpec("alpha_prescribed", alpha=2.0, target=target, t_max=3.0)
    tr = run(spec, tetra, r0)
    assert tr.radii.max() > 9e3
    assert np.all(np.isfinite(oracle_potential(tetra, tr)))
    # the stepper's potential is not in its error norm, so at the default
    # rtol 1e-9 it is ~4e-6 relative off on the last legs; at rtol 1e-13 it
    # meets the bound of the test above on every leg
    tr = run(dataclasses.replace(spec, rtol=1e-13), tetra, r0)
    ref = oracle_potential(tetra, tr)
    assert np.max(np.abs(tr.potential - ref)) <= 1e-8 * max(1.0, np.abs(ref).max())


def test_alpha_one_tetrahedron_diverges_with_energies(tetra):
    # the runaway radii once sent the potential quadrature into endless
    # refinement; the stepper's potential costs no extra steps
    r0 = np.linspace(0.7, 1.4, 4)
    on = run(FlowSpec("alpha_ricci_normalized", alpha=1.0), tetra, r0)
    off = run(FlowSpec("alpha_ricci_normalized", alpha=1.0,
                       record_energies=False), tetra, r0)
    assert on.termination == off.termination == "diverged"
    assert on.n_steps == off.n_steps
    assert np.all(np.isfinite(on.potential)) and np.all(np.isnan(off.potential))


@settings(max_examples=25, deadline=None, database=None)
@given(family=st.sampled_from(FAMILIES_2D),
       mesh_name=st.sampled_from(["tetrahedron", "torus_7"]),
       alpha=st.sampled_from([0.0, 1.0, 2.0]),
       draw=st.data())
def test_energies_do_not_change_the_run(family, mesh_name, alpha, draw):
    c = data.load(mesh_name)
    n = c.vertex_count
    radii = st.lists(st.floats(0.6, 1.6), min_size=n, max_size=n)
    r0 = np.array(draw.draw(radii))
    if FAMILIES[family].alpha is not None:
        alpha = FAMILIES[family].alpha
    target = None
    if FAMILIES[family].prescribed:
        target = curvature(c, np.array(draw.draw(radii)), alpha)
    traces = [run(FlowSpec(family, alpha=alpha, target=target, t_max=1.0,
                           max_steps=40, record_energies=energies), c, r0)
              for energies in (True, False)]
    on, off = traces
    assert (on.termination, on.n_steps, on.n_rejected) == (
        off.termination, off.n_steps, off.n_rejected)
    for name in ("times", "radii", "curvatures", "conserved", "residuals"):
        assert getattr(on, name).tobytes() == getattr(off, name).tobytes(), name
