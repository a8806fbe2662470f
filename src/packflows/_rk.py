"""Explicit ODE steppers used by the flow drivers.

Provides a Dormand-Prince 5(4) embedded pair with standard step-size control
plus fixed-step rk4/euler for oracle-style comparisons. The flow drivers need
to project the state and probe domain boundaries between accepted steps,
which is why stepping is exposed one step at a time instead of wrapping a
whole-interval integrator.

The field of ``advance`` and ``dopri_step`` maps (t, y) to (dy/dt, q) with q
a scalar rate. Each step also returns the integral of q over the step under
the method's own weights: a quadrature carried along with the ODE (Hairer,
Norsett, Wanner, Solving ODEs I, II.4-5). q never enters the error norm, so
it does not change the steps taken.
"""

import numpy as np

from .errors import PackflowsError, StepFailureError

# Dormand-Prince coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0


class DomainError(PackflowsError):
    """Raised by a field callback when a stage leaves the admissible domain."""


def _dopri_stages(field, t, y, h):
    """The seven stage derivatives and the seven stage rates q."""
    stages = [field(t, y)]
    for s in range(1, 7):
        ys = y + h * sum(a * ks for a, (ks, _) in zip(_A[s], stages))
        stages.append(field(t + _C[s] * h, ys))
    return zip(*stages)


def dopri_step(field, t, y, h, rtol, atol):
    """One trial Dormand-Prince step of a field (t, y) -> (dy/dt, q).

    Returns (accepted, t_new, y_new, err_norm, quad) with quad the fifth-order
    integral of q over the step. Raises DomainError through from the field.
    """
    k, q = _dopri_stages(field, t, y, h)
    y5 = y + h * sum(b * ks for b, ks in zip(_B5, k))
    y4 = y + h * sum(b * ks for b, ks in zip(_B4, k))
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
    return err <= 1.0, t + h, y5, err, h * float(_B5 @ q)


def _rk4(field, t, y, h):
    k1, q1 = field(t, y)
    k2, q2 = field(t + 0.5 * h, y + 0.5 * h * k1)
    k3, q3 = field(t + 0.5 * h, y + 0.5 * h * k2)
    k4, q4 = field(t + h, y + h * k3)
    return (t + h, y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4),
            (h / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4))


def _euler(field, t, y, h):
    k, q = field(t, y)
    return t + h, y + h * k, h * q


def rk4_step(field, t, y, h):
    """One classical Runge-Kutta step of a plain field (t, y) -> dy/dt."""
    return _rk4(lambda t, y: (field(t, y), 0.0), t, y, h)[:2]


_FIXED = {"euler": _euler, "rk4": _rk4}


def advance(field, t, y, h, method, rtol, atol, min_step, max_step):
    """Advance one accepted step of a field (t, y) -> (dy/dt, q); adaptive
    methods retry with smaller h.

    Returns (t_new, y_new, quad, h_next, rejected) where quad is the
    integral of q over the accepted step and rejected counts the failed
    trials. DomainError from the field is treated like an oversized step:
    halve and retry. StepFailureError when no acceptable step at or above
    min_step exists.
    """
    if method in _FIXED:
        t2, y2, quad = _FIXED[method](field, t, y, h)
        return t2, y2, quad, h, 0
    if method != "dopri5":
        raise ValueError(f"unknown method {method!r}")

    rejected = 0
    while True:
        if h < min_step:
            raise StepFailureError(f"step size {h:.3g} fell below {min_step:.3g}")
        try:
            ok, t2, y2, err, quad = dopri_step(field, t, y, h, rtol, atol)
        except DomainError:
            h *= 0.5
            rejected += 1
            continue
        if ok:
            factor = MAX_FACTOR if err == 0.0 else min(
                MAX_FACTOR, max(MIN_FACTOR, SAFETY * err ** -0.2))
            h_next = min(h * factor, max_step)
            return t2, y2, quad, h_next, rejected
        h *= max(MIN_FACTOR, min(SAFETY * err ** -0.2, 0.9))
        rejected += 1
