"""The table-driven DOP853 trial: its coefficients against scipy's table
and the order conditions, each trial against the term-by-term sums of the
textbook formula and against scipy's DOP853, and its order of accuracy."""

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as ref

from packflows import _rk

# the DOP853 coefficients as scipy writes them: the a-coefficients one list
# per stage, with their zeros, and the weights of the eighth-order solution
# and of the fifth- and third-order error estimates over the twelve stages
ORACLE_A = [list(ref.A[s, :s]) for s in range(ref.N_STAGES)]
ORACLE_B = [ref.B, ref.E5[:ref.N_STAGES], ref.E3[:ref.N_STAGES]]


def oracle_stages(field, t, y, h, first):
    """The stages summed term by term with Python's sum, in order."""
    stages = [first]
    for s in range(1, 12):
        ys = y + h * sum(a * ks for a, ks in zip(ORACLE_A[s], stages))
        stages.append(field(t + ref.C[s] * h, ys))
    return stages


def oracle_step(field, t, y, h, rtol, atol, first):
    k = oracle_stages(field, t, y, h, first)
    dy, e5, e3 = (sum(b * ks for b, ks in zip(row, k)) for row in ORACLE_B)
    y8 = y + h * dy
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y8))
    n5, n3 = np.sum((e5 / scale) ** 2), np.sum((e3 / scale) ** 2)
    err = 0.0 if n5 == 0.0 else float(
        abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * len(y)))
    return err <= 1.0, t + h, y8, err


def affine_field(rng, n):
    """A random affine field (t, y) -> a y + c y[perm] + b + d t that couples the components without an n x n matrix. On every fourth
    component, the flat ones, it is y / 2 alone: started at -0.0 they stay
    zero, and the sign of each zero follows the sums exactly."""
    a, c, b, d = rng.normal(size=(4, n))
    perm = rng.permutation(n)
    flat = np.arange(n) % 4 == 1

    def field(t, y):
        v = a * y + c * y[perm] + b + d * t
        v[flat] = 0.5 * y[flat]
        return v
    return field, flat


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_the_table_is_dop853_bit_for_bit():
    """The coefficients equal scipy's DOP853 table, which holds Hairer's
    dop853.f: the error estimates give no weight to a stage at the new
    point, so a trial evaluates none there."""
    n = ref.N_STAGES
    assert _rk._A.shape == (n, n) and _rk._B.shape == (n, 3)
    assert bits(_rk._C) == bits(ref.C[:n])
    assert bits(_rk._A) == bits(ref.A[:n, :n])
    assert bits(_rk._B8) == bits(ref.B)
    assert bits(_rk._E5) == bits(ref.E5[:n])
    assert bits(_rk._E3) == bits(ref.E3[:n])
    assert ref.E5[n] == ref.E3[n] == 0.0


def test_the_zero_coefficients_are_in_the_table():
    """The sums keep their zero terms: 0 * k is -0.0 or NaN for some k."""
    assert _rk._A[11, 1] == 0.0 and _rk._B8[1] == 0.0 and _rk._E3[4] == 0.0
    for s, row in enumerate(ORACLE_A):
        assert bits(_rk._A[s, :s]) == bits(row)
    assert np.all(np.triu(_rk._A) == 0.0)


def test_each_row_of_a_sums_to_its_node():
    assert np.max(np.abs(_rk._A.sum(axis=1) - _rk._C)) <= 1e-14


@pytest.mark.parametrize("k", range(1, 9))
def test_the_weights_meet_the_quadrature_conditions_to_order_8(k):
    assert abs(_rk._B8 @ _rk._C ** (k - 1) - 1.0 / k) <= 1e-14


@pytest.mark.parametrize("n", [1, 11, 3600])
@pytest.mark.parametrize("seed", range(4))
def test_dopri_trial_is_bit_for_bit_the_term_by_term_sum(n, seed):
    rng = np.random.default_rng([seed, n])
    field, flat = affine_field(rng, n)
    y = rng.normal(size=n)
    y[flat] = -0.0
    t, h = rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-6.0, 0.0)
    first = field(t, y)

    k = _rk._dopri_stages(field, t, y, h, first)
    assert k.shape == (12, n)
    assert bits(k) == bits(oracle_stages(field, t, y, h, first))

    got = _rk.dopri_step(field, t, y, h, 1e-9, 1e-12, first)
    want = oracle_step(field, t, y, h, 1e-9, 1e-12, first)
    assert got[0] == want[0] and got[1] == want[1]
    for x, x_oracle in zip(got[2:], want[2:]):
        assert bits(x) == bits(x_oracle)


@pytest.mark.parametrize("seed", range(3))
def test_one_trial_is_scipys_first_dop853_step(seed):
    """The new point agrees to rounding; the error norm, whose estimates
    cancel O(1) stage terms down to ~1e-10 (err ~ 0.1 in units of rtol),
    agrees to 1e-6 relative."""
    rng = np.random.default_rng(seed)
    n, h, rtol, atol = 6, 0.2, 1e-9, 1e-12
    m = rng.normal(size=(n, n))
    b = rng.normal(size=n)

    def f(t, y):
        return m @ y + b * np.sin(t)
    y0 = rng.normal(size=n)
    solver = DOP853(f, 0.0, y0, 10.0, rtol=rtol, atol=atol, first_step=h)
    solver.step()
    assert solver.t == h  # scipy accepted its first trial

    ok, t2, y2, err = _rk.dopri_step(f, 0.0, y0, h, rtol, atol, f(0.0, y0))
    assert ok and t2 == h
    assert np.max(np.abs(y2 - solver.y)) <= 1e-13 * max(1.0, np.abs(y0).max())
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(solver.y))
    err_scipy = solver._estimate_error_norm(solver.K, h, scale)
    assert abs(err / err_scipy - 1.0) <= 1e-6


def test_a_fixed_step_shows_order_8_on_a_linear_ode():
    """y' = M y with M a damped rotation, integrated over [0, 4] with n
    equal trials: the error of the eighth-order solution against exp(4 M)
    falls by 2^8 when n doubles."""
    w, d = 2.0, 0.3
    m = np.array([[-d, w], [-w, -d]])
    y0 = np.array([1.0, 0.5])
    exact = np.exp(-4.0 * d) * np.array([
        [np.cos(4.0 * w), np.sin(4.0 * w)],
        [-np.sin(4.0 * w), np.cos(4.0 * w)]]) @ y0

    def error(n):
        field = lambda t, y: m @ y  # noqa: E731
        t, y, h = 0.0, y0, 4.0 / n
        for _ in range(n):
            _, t, y, _ = _rk.dopri_step(field, t, y, h, 1e-9, 1e-12,
                                        field(t, y))
        return np.max(np.abs(y - exact))

    errors = [error(n) for n in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.8 * 2 ** 8 < coarse / fine < 1.25 * 2 ** 8
