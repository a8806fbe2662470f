"""The Ricci potential in closed form: Lobachevsky's function against
mpmath, F against the quadrature oracle, and the trace's potential column,
which leaves the run as it is."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_torus, reweighted, ricci_potential_oracle
from packflows import data
from packflows.flows2d import FAMILIES, FlowSpec, run
from packflows.operators2d import _lobachevsky, ricci_potential
from packflows.packing2d import curvature

FAMILIES_2D = sorted(name for name, row in FAMILIES.items()
                     if row.field is not None)
BUNDLED_2D = ["tetrahedron", "octahedron", "icosahedron", "torus_7",
              "genus2_11"]


def mp_lobachevsky(x):
    """L(x) = Cl_2(2x) / 2 at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return float(mpmath.clsin(2, 2 * mpmath.mpf(float(x))) / 2)


def test_lobachevsky_is_within_4e_16_of_mpmath():
    rng = np.random.default_rng(0)
    h = 0.5 * np.pi
    x = np.concatenate([rng.uniform(-h, h, 1000), np.linspace(-h, h, 201),
                        [0.0, -0.0, 5e-324, 1e-300, 1e-8, h, -h,
                         np.nextafter(h, 0.0)]])
    got = _lobachevsky(x)
    want = np.array([mp_lobachevsky(v) for v in x])
    assert np.max(np.abs(got - want)) <= 4e-16
    assert _lobachevsky(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_lobachevsky_reduces_its_argument_by_pi():
    # odd and of period pi: an argument past pi/2 is first reduced by the
    # nearest multiple of pi, which moves it by ~|x| eps, times the slope
    # -log |2 sin x| (at the double nearest pi, L is 4.5e-15, not 0)
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(-3.0 * np.pi, 3.0 * np.pi, 500),
                        [0.75 * np.pi, np.pi, -2.0 * np.pi, 2.5 * np.pi]])
    got = _lobachevsky(x)
    want = np.array([mp_lobachevsky(v) for v in x])
    slope = 1.0 + np.abs(np.log(2.0 * np.abs(np.sin(x))))
    assert np.all(np.abs(got - want)
                  <= 4e-16 + 2.0 * np.finfo(float).eps * np.abs(x) * slope)
    inside = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 100)
    assert np.array_equal(_lobachevsky(-inside), -_lobachevsky(inside))
    # the 2-d input of the weighted potential: the same values, row by row
    stacked = np.stack((x[:100], x[100:200]))
    assert np.array_equal(_lobachevsky(stacked),
                          np.stack((_lobachevsky(x[:100]),
                                    _lobachevsky(x[100:200]))))


def assert_potential_matches_the_oracle(c, alpha, prescribed, rng):
    n = c.vertex_count
    u0, u1 = np.log(rng.uniform(0.5, 2.0, (2, n)))
    target = (curvature(c, rng.uniform(0.9, 1.1, n), alpha) if prescribed
              else None)
    got = ricci_potential(c, u0, u1, alpha, target)
    want = ricci_potential_oracle(c, u0, u1, alpha, target)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("prescribed", [False, True])
@pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -1.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", BUNDLED_2D + ["grid_torus_400"])
def test_potential_matches_the_quadrature_oracle(name, weighted, alpha,
                                                 prescribed):
    # each bundled surface and the 20 x 20 grid torus, tangent and with
    # U(0, pi/2) weights
    rng = np.random.default_rng(17)
    c = grid_torus(20, 20) if name == "grid_torus_400" else data.load(name)
    if weighted:
        c = reweighted(c, rng.uniform(0.0, 0.5 * np.pi, len(c.edges)))
    assert_potential_matches_the_oracle(c, alpha, prescribed, rng)


@settings(max_examples=60, deadline=None, database=None)
@given(size=st.tuples(st.integers(3, 12), st.integers(3, 12)),
       weighted=st.booleans(), alpha=st.sampled_from([2.0, 1.0, 0.0, -1.0]),
       prescribed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_potential_matches_the_oracle_on_grid_tori(size, weighted, alpha,
                                                   prescribed, seed):
    rng = np.random.default_rng(seed)
    c = grid_torus(*size)
    if weighted:
        c = reweighted(c, rng.uniform(0.0, 0.5 * np.pi, len(c.edges)))
    assert_potential_matches_the_oracle(c, alpha, prescribed, rng)


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(BUNDLED_2D),
       alpha=st.sampled_from([2.0, 1.0, 0.0, -1.0]),
       prescribed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_potential_matches_the_oracle_on_reweighted_surfaces(
        name, alpha, prescribed, seed):
    rng = np.random.default_rng(seed)
    c = data.load(name)
    c = reweighted(c, rng.uniform(0.0, 0.5 * np.pi, len(c.edges)))
    assert_potential_matches_the_oracle(c, alpha, prescribed, rng)


def trace_oracle(c, trace, samples=6):
    """Sample indices k of a trace and the oracle's F(u_k) - F(u_0)."""
    u = np.log(trace.radii)
    ks = np.unique(np.linspace(0, len(u) - 1, samples).astype(int))
    return ks, np.array([ricci_potential_oracle(c, u[0], u[k], trace.alpha,
                                                trace.target) for k in ks])


@pytest.mark.parametrize("mesh_name", ["genus2_11", "torus_7",
                                       "genus2_11-weighted",
                                       "torus_7-weighted"])
@pytest.mark.parametrize("family, alpha", [("ricci_normalized", 2.0),
                                           ("alpha_prescribed", 1.0),
                                           ("alpha_calabi_modified", 0.0)])
def test_trace_potential_matches_quadrature(surfaces, mesh_name, family,
                                            alpha):
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
    ks, ref = trace_oracle(c, tr)
    assert tr.potential[0] == 0.0
    assert np.max(np.abs(tr.potential[ks] - ref)) <= 1e-12 * max(
        1.0, np.abs(ref).max())


def test_trace_potential_is_exact_on_a_diverging_run(tetra):
    # the CLI corpus run `flow --mesh tetrahedron --family alpha-prescribed
    # --alpha 2 --random 0.8,1.3,1 --t-max 3` reaches radii ~9e3 and
    # |F| ~ 1.7e8; a potential integrated by the stepper, outside its error
    # norm, was 3.9e-6 relative off there at the default rtol 1e-9
    target = curvature(tetra, np.random.default_rng(101).uniform(0.9, 1.1, 4),
                       2.0)
    r0 = np.random.default_rng(1).uniform(0.8, 1.3, 4)
    spec = FlowSpec("alpha_prescribed", alpha=2.0, target=target, t_max=3.0)
    tr = run(spec, tetra, r0)
    assert tr.radii.max() > 9e3
    ks, ref = trace_oracle(tetra, tr, samples=len(tr.times))
    assert np.abs(ref).max() > 1e8
    assert np.max(np.abs(tr.potential[ks] - ref)
                  / np.maximum(1.0, np.abs(ref))) <= 1e-10


def test_alpha_one_tetrahedron_diverges_with_energies(tetra):
    # the runaway radii once sent the potential quadrature into endless
    # refinement; the closed-form potential costs no extra steps
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
