"""The table-driven Dormand-Prince trial against the term-by-term sums of
the textbook formula."""

import numpy as np
import pytest

from packflows import _rk

# the Dormand-Prince a-coefficients, one list per stage, as the textbook
# writes them
ORACLE_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]


def oracle_stages(field, t, y, h, first):
    """The stages summed term by term with Python's sum, in order."""
    stages = [first]
    for s in range(1, 7):
        ys = y + h * sum(a * ks for a, (ks, _) in zip(ORACLE_A[s], stages))
        stages.append(field(t + _rk._C[s] * h, ys))
    return zip(*stages)


def oracle_step(field, t, y, h, rtol, atol, first):
    k, q = oracle_stages(field, t, y, h, first)
    y5 = y + h * sum(b * ks for b, ks in zip(_rk._B5, k))
    y4 = y + h * sum(b * ks for b, ks in zip(_rk._B4, k))
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
    return err <= 1.0, t + h, y5, err, h * float(_rk._B5 @ q)


def affine_field(rng, n):
    """A random affine field (t, y) -> (a y + c y[perm] + b + d t, g . y + e t)
    that couples the components without an n x n matrix. On every fourth
    component, the flat ones, it is y / 2 alone: started at -0.0 they stay
    zero, and the sign of each zero follows the sums exactly."""
    a, c, b, d = rng.normal(size=(4, n))
    g = rng.normal(size=n)
    e = rng.normal()
    perm = rng.permutation(n)
    flat = np.arange(n) % 4 == 1

    def field(t, y):
        v = a * y + c * y[perm] + b + d * t
        v[flat] = 0.5 * y[flat]
        return v, float(g @ y + e * t)
    return field, flat


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_the_zero_coefficients_are_in_the_table():
    """The sums keep their zero terms: 0 * k is -0.0 or NaN for some k."""
    assert _rk._A[6, 1] == 0.0 and _rk._B5[1] == 0.0 and _rk._B5[6] == 0.0
    for s, row in enumerate(ORACLE_A):
        assert bits(_rk._A[s, :s]) == bits(row)
    assert np.all(np.triu(_rk._A) == 0.0)


@pytest.mark.parametrize("n", [1, 11, 3600])
@pytest.mark.parametrize("seed", range(4))
def test_dopri_trial_is_bit_for_bit_the_term_by_term_sum(n, seed):
    rng = np.random.default_rng([seed, n])
    field, flat = affine_field(rng, n)
    y = rng.normal(size=n)
    y[flat] = -0.0
    t, h = rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-6.0, 0.0)
    first = field(t, y)

    k, q = _rk._dopri_stages(field, t, y, h, first)
    k_oracle, q_oracle = oracle_stages(field, t, y, h, first)
    assert k.shape == (7, n) and q.shape == (7,)
    assert bits(k) == bits(k_oracle)
    assert bits(q) == bits(q_oracle)

    got = _rk.dopri_step(field, t, y, h, 1e-9, 1e-12, first)
    want = oracle_step(field, t, y, h, 1e-9, 1e-12, first)
    assert got[0] == want[0] and got[1] == want[1]
    for x, x_oracle in zip(got[2:], want[2:]):
        assert bits(x) == bits(x_oracle)
