"""Curvature flows on circle packing metrics.

Every flow is integrated in log-radius coordinates, which keeps radii
positive structurally, as d(log r)/dt = scale * (base field). A family is
one row of FAMILIES:

    family                   base field             scale  conserved
    alpha_ricci              -R_a                   1      -
    alpha_ricci_normalized   R_a,av - R_a           1      sum r^a (*)
    alpha_prescribed         Rbar - R_a             1      -
    alpha_calabi             Laplacian_a R_a        1      sum r^a (*)
    alpha_calabi_modified    -A phi                 1      prod r
    ricci                    -R_2                   1/2    -
    ricci_normalized         R_2,av - R_2           1/2    sum r^2
    ricci_prescribed         Rbar - R_2             1/2    -
    calabi                   Laplacian_2 R_2        1/4    sum r^2
    calabi_modified          -A phi at alpha = 2    1/4    prod r
    yamabe (3-d)             R_av - R               1/2    sum r^3

A and phi are the potential Hessian and gradient in log r coordinates;
(*) the product of the radii when alpha = 0. The classic families trace the
alpha = 2 curves at half (Ricci) or a quarter (Calabi) of the speed; this
is the log r^2 versus log r time convention. Every flow runs through one
driver, ``_integrate``.
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from ._rk import DomainError, advance
from .errors import (DegenerateTetrahedronError, DegenerateTriangleError,
                     NoConvergenceError, NotApplicableError, StepFailureError)
from .mesh import euler_characteristic
from .operators2d import (_edge_apply, _edge_weights, _hessian_apply,
                          _jacobian_diagonal, _potential_gradient)
from .packing2d import (_angles, _defect_from_angles, average_curvature,
                        check_metric, total_measure)

# -- the family table ---------------------------------------------------------

# base fields of the alpha families from the inner angles theta of r and
# their angle defects K, (c, r, alpha, target, K, theta) -> d(log r)/dt; the
# Calabi rows apply the edge-weight Jacobian of theta, an O(E) matvec
_BASE = {
    "ricci": lambda c, r, a, target, K, theta: -(K / r ** a),
    "ricci_normalized": lambda c, r, a, target, K, theta: (
        average_curvature(c, r, a) - K / r ** a),
    "prescribed": lambda c, r, a, target, K, theta: target - K / r ** a,
    "calabi": lambda c, r, a, target, K, theta: -_edge_apply(
        c, _edge_weights(c, r, theta), K / r ** a) / r ** a,
    "calabi_modified": lambda c, r, a, target, K, theta: -_hessian_apply(
        c, r, _edge_weights(c, r, theta), a, target,
        _potential_gradient(c, r, K, a, target)),
}

# field: key of _BASE, None for the 3-d flow (packing3d); alpha: the fixed
# exponent, None when free; conserved: p of the conserved sum r^p ("alpha":
# the flow's own, 0: product of the radii, None: nothing conserved)
Family = namedtuple("Family", "field scale alpha conserved prescribed max_step")

FAMILIES = {
    "ricci": Family("ricci", 0.5, 2.0, None, False, 5.0),
    "ricci_normalized": Family("ricci_normalized", 0.5, 2.0, "alpha", False, 5.0),
    "ricci_prescribed": Family("prescribed", 0.5, 2.0, None, True, 5.0),
    "calabi": Family("calabi", 0.25, 2.0, "alpha", False, 0.5),
    "calabi_modified": Family("calabi_modified", 0.25, 2.0, 0.0, False, 0.5),
    "alpha_ricci": Family("ricci", 1.0, None, None, False, 5.0),
    "alpha_ricci_normalized": Family("ricci_normalized", 1.0, None, "alpha", False, 5.0),
    "alpha_prescribed": Family("prescribed", 1.0, None, None, True, 5.0),
    "alpha_calabi": Family("calabi", 1.0, None, "alpha", False, 0.5),
    "alpha_calabi_modified": Family("calabi_modified", 1.0, None, 0.0, False, 0.5),
    "yamabe": Family(None, 0.5, 2.0, 3.0, False, 5.0),
}


@dataclass
class FlowSpec:
    """Flow family plus integrator and stopping configuration."""

    family: str
    alpha: float = 2.0
    target: np.ndarray | None = None
    method: str = "dopri5"
    initial_step: float = 1e-2
    min_step: float = 1e-12
    max_step: float | None = None
    rtol: float = 1e-9
    atol: float = 1e-12
    t_max: float = 50.0
    max_steps: int = 100000
    eps: float = 1e-9
    renormalize: bool = True
    record_energies: bool = True

    def __post_init__(self):
        row = FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}")
        if row.alpha is not None and self.alpha != row.alpha:
            raise ValueError(f"family {self.family!r} fixes alpha = {row.alpha:g}, "
                             f"got {self.alpha}")
        if row.prescribed and self.target is None:
            raise ValueError(f"family {self.family!r} requires a target")
        if not row.prescribed and self.target is not None:
            raise ValueError(f"family {self.family!r} takes no target")
        if self.target is not None:
            self.target = np.asarray(self.target, dtype=float)
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, (numbers.Real, np.ndarray))
                    and not np.all(np.isfinite(value))):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("initial_step", "min_step", "max_step", "rtol", "atol",
                     "t_max", "eps"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def resolved_max_step(self):
        if self.max_step is not None:
            return self.max_step
        return FAMILIES[self.family].max_step


@dataclass
class FlowState:
    t: float
    r: np.ndarray
    h: float


@dataclass
class FlowTrace:
    """Time series of a flow run with its diagnostic monitors."""

    family: str
    alpha: float
    times: np.ndarray
    radii: np.ndarray        # (samples, N)
    curvatures: np.ndarray   # (samples, N) alpha-curvature along the run
    conserved: np.ndarray    # (samples,) family's conserved quantity
    potential: np.ndarray    # (samples,) Ricci potential from 0, integrated
                             # by the stepper (3-d: total curvature)
    calabi: np.ndarray       # (samples,) Calabi energy (3-d: dissipation form)
    residuals: np.ndarray    # (samples,) scale-normalized curvature residual
    termination: str
    n_steps: int
    n_rejected: int = 0
    target: np.ndarray | None = None
    singularity: dict | None = None

    @property
    def converged(self):
        return self.termination == "converged"

    def fit_rate(self):
        """Least-squares fit of log residual against time.

        Returns (slope, intercept, r_squared) over the samples past the first
        tenth of the run and above the terminal-noise floor, or None when
        fewer than five samples qualify.
        """
        res = self.residuals
        t = self.times
        floor = max(res[-1] * 50.0, 1e-300)
        keep = (res > floor) & (t >= t[-1] / 10.0)
        if keep.sum() < 5:
            keep = res > floor
        if keep.sum() < 5:
            return None
        x = t[keep]
        y = np.log(res[keep])
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        pred = A @ coef
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return float(coef[0]), float(coef[1]), r2

    def summary(self):
        drift = 0.0
        if self.conserved[0] != 0 and np.all(np.isfinite(self.conserved)):
            drift = float(np.max(np.abs(self.conserved / self.conserved[0] - 1.0)))
        span = max(self.times[-1] - self.times[0], 1e-300)
        fin = np.isfinite(self.potential)
        mono_f = bool(np.all(np.diff(self.potential[fin]) <= 1e-9)) if fin.any() else None
        finc = np.isfinite(self.calabi)
        mono_c = bool(np.all(np.diff(self.calabi[finc]) <= 1e-9)) if finc.any() else None
        out = {
            "family": self.family,
            "alpha": self.alpha,
            "termination": self.termination,
            "t_final": float(self.times[-1]),
            "samples": int(len(self.times)),
            "steps": int(self.n_steps),
            "rejected_steps": int(self.n_rejected),
            "final_residual": float(self.residuals[-1]),
            "conserved_drift": drift,
            "conserved_drift_per_unit_time": drift / span,
            "potential_nonincreasing": mono_f,
            "calabi_nonincreasing": mono_c,
        }
        fit = self.fit_rate()
        if fit is not None:
            out["rate_fit"] = {"slope": fit[0], "r_squared": fit[2]}
        if self.singularity is not None:
            out["singularity"] = self.singularity
        return out

    def write_csv(self, path):
        n = self.radii.shape[1]
        cols = (["t"] + [f"r_{i+1}" for i in range(n)]
                + [f"R_{i+1}" for i in range(n)]
                + ["conserved", "F", "C", "residual"])
        with open(path, "w") as fp:
            fp.write(",".join(cols) + "\n")
            for k in range(len(self.times)):
                row = ([self.times[k]] + list(self.radii[k])
                       + list(self.curvatures[k])
                       + [self.conserved[k], self.potential[k],
                          self.calabi[k], self.residuals[k]])
                fp.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- vector fields ------------------------------------------------------------


def _base_field(spec, c):
    """The family's base field r -> (v, q): v the field and q = g . v the
    rate of the Ricci potential along it, g = K - Rbar r^alpha the potential
    gradient (q = 0 when energies are not recorded). One angle evaluation
    gives both."""
    key = FAMILIES[spec.family].field
    if key is None:
        raise ValueError(f"family {spec.family!r} is not a 2-d flow")
    base, alpha, target = _BASE[key], spec.alpha, spec.target

    def fn(r):
        theta = _angles(c, r)
        K = _defect_from_angles(c, theta)
        v = base(c, r, alpha, target, K, theta)
        if not spec.record_energies:
            return v, 0.0
        return v, float(_potential_gradient(c, r, K, alpha, target) @ v)
    return fn


def vector_field(spec, c, r):
    """Right-hand side of the selected family as d(log r)/dt per vertex."""
    return (FAMILIES[spec.family].scale
            * _base_field(spec, c)(check_metric(c, r))[0])


# -- residuals and conserved quantities ---------------------------------------


def _residual(c, r, alpha, target, K):
    """The convergence residual of a run from the angle defects K: with no
    target max |R_a - R_av| * ||r||_a^a / (2 pi |chi| + 1), else
    max |K - Rbar r^alpha|."""
    if target is not None:
        return float(np.max(np.abs(_potential_gradient(c, r, K, alpha, target))))
    dev = np.max(np.abs(K / r ** alpha - average_curvature(c, r, alpha)))
    chi = euler_characteristic(c)
    return float(dev * total_measure(r, alpha) / (2.0 * np.pi * abs(chi) + 1.0))


def constant_curvature_residual(c, r, alpha=2.0):
    """Scale-free deviation from constant alpha-curvature:
    max |R_a - R_av| * ||r||_a^a / (2 pi |chi| + 1)."""
    r = check_metric(c, r)
    return _residual(c, r, alpha, None, _defect_from_angles(c, _angles(c, r)))


def prescribed_residual(c, r, alpha, target):
    """max |K - Rbar r^alpha| in radians (scale invariant)."""
    r = check_metric(c, r)
    return _residual(c, r, alpha, target, _defect_from_angles(c, _angles(c, r)))


def _exponent(spec):
    """p of the family's conserved sum r^p (0: the product of the radii), or
    None when nothing is conserved."""
    p = FAMILIES[spec.family].conserved
    return spec.alpha if p == "alpha" else p


def _log_measure(p, u):
    """The conserved quantity in the form the projection restores."""
    return np.sum(np.exp(p * u)) if p else np.sum(u)


# -- stepping -----------------------------------------------------------------


def _radii(u):
    """e^u, or DomainError past the exp overflow guard."""
    if np.max(np.abs(u)) > 700.0:
        raise DomainError("log radius out of range")
    return np.exp(u)


def _stage(spec, base):
    """The stepper's field u -> scale * base(e^u), for a base r -> (v, q)
    returning the field and the potential's rate along it. A stage that
    leaves the admissible region (a named degeneracy or a non-finite field)
    raises DomainError, so the stepper retries smaller."""
    scale = FAMILIES[spec.family].scale

    @np.errstate(all="ignore")
    def fn(t, u):
        try:
            v, q = base(_radii(u))
        except (DegenerateTriangleError, DegenerateTetrahedronError) as exc:
            raise DomainError(str(exc)) from exc
        if not (np.isfinite(q) and np.isfinite(v).all()):
            raise DomainError("the field is not finite")
        return scale * v, scale * q
    return fn


def step(spec, c, state):
    """One integrator step from a FlowState; adaptive methods retry until the
    local error estimate passes. Raises StepFailureError below min_step."""
    fn = _stage(spec, _base_field(spec, c))
    u = np.log(check_metric(c, state.r))
    t2, u2, _, h_next, _ = advance(fn, state.t, u, state.h, spec.method,
                                   spec.rtol, spec.atol, spec.min_step,
                                   spec.resolved_max_step())
    return FlowState(t2, np.exp(u2), h_next)


# field(r): base field and potential rate (v, q); sample(t, u, F): trace row
# (t, r, R, conserved, F, C, residual) given the integral F of q; guard: a
# run leaving the radius bounds diverged; classify(r, t, relax): singularity
_Flow = namedtuple("_Flow", "field sample guard classify")
R_MIN_GUARD, R_MAX_GUARD = 1e-8, 1e8


def _integrate(spec, c, r0, flow):
    """The stepping loop of every flow, from validated radii r0.

    Normalized families are projected back onto their conserved quantity
    after every accepted step; the shift leaves the potential unchanged,
    since its gradient sums to zero (Gauss-Bonnet). Stops on the first of:
    converged (residual below spec.eps), a classified singularity, max_time,
    max_steps, stepped_out_of_domain (no step above min_step), diverged.
    """
    fn = _stage(spec, flow.field)
    p = _exponent(spec)
    u = np.log(r0)
    ref = _log_measure(p, u)
    t, h = 0.0, min(spec.initial_step, spec.resolved_max_step())
    f = 0.0
    rows = [flow.sample(t, u, f)]
    termination = singularity = None
    n_steps = n_rejected = 0
    while True:
        if rows[-1][-1] < spec.eps:
            termination = "converged"
            break
        if flow.classify is not None:
            singularity = flow.classify(np.exp(u), t)
            if singularity is not None:
                break
        if t >= spec.t_max - spec.min_step:
            termination = "max_time"
            break
        if n_steps >= spec.max_steps:
            termination = "max_steps"
            break
        try:
            t, u, df, h, rej = advance(fn, t, u, min(h, spec.t_max - t),
                                      spec.method, spec.rtol, spec.atol,
                                      spec.min_step, spec.resolved_max_step())
        except StepFailureError:
            if flow.classify is not None:
                singularity = flow.classify(np.exp(u), t, relax=1e3)
            termination = "stepped_out_of_domain"
            break
        n_steps += 1
        n_rejected += rej
        f += df
        if p is not None and spec.renormalize:
            # shift along the constant vector to restore the conserved quantity
            cur = _log_measure(p, u)
            u = u + (np.log(ref / cur) / p if p else (ref - cur) / len(u))
        rows.append(flow.sample(t, u, f))
        r_now = rows[-1][1]
        if flow.guard and (np.min(r_now) < R_MIN_GUARD
                           or np.max(r_now) > R_MAX_GUARD):
            termination = "diverged"
            break
    if singularity is not None:
        termination = "singularity_" + singularity["type"]
    return FlowTrace(spec.family, spec.alpha, *map(np.array, zip(*rows)),
                     termination, n_steps, n_rejected=n_rejected,
                     target=spec.target, singularity=singularity)


def run(spec, c, r0):
    """Integrate the flow until convergence or a stop condition.

    Convergence means the scale-normalized curvature residual falls below
    spec.eps. Normalized families are projected back onto their conserved
    constraint after every accepted step. With spec.record_energies the
    trace's potential is integrated by the stepper from its own stages, and
    each sample's angle defects give R, the residual and the Calabi energy.
    """
    c.require_valid()
    r0 = check_metric(c, r0)
    target = spec.target
    if target is not None and target.shape != r0.shape:
        raise ValueError(f"target has shape {target.shape}, expected {r0.shape}")
    p = _exponent(spec)

    def sample(t, u, F):
        r = np.exp(u)
        K = _defect_from_angles(c, _angles(c, r))
        if p is None:
            conserved = math.nan
        elif p:
            conserved = total_measure(r, p)
        else:
            conserved = float(np.exp(np.sum(np.log(r))))
        if spec.record_energies:
            g = _potential_gradient(c, r, K, spec.alpha, target)
            C = float(g @ g)
        else:
            F = C = math.nan
        return (t, r, K / r ** spec.alpha, conserved, F, C,
                _residual(c, r, spec.alpha, target, K))

    return _integrate(spec, c, r0,
                      _Flow(_base_field(spec, c), sample, True, None))


# -- maximum-principle envelopes ----------------------------------------------


@dataclass
class EnvelopeCase:
    name: str
    kind: str                 # "lower", "upper" or "sign"
    max_violation: float
    n_violations: int
    envelope: np.ndarray | None = None

    @property
    def ok(self):
        return self.n_violations == 0


@dataclass
class MaxPrincipleReport:
    cases: list
    tol: float

    @property
    def ok(self):
        return all(case.ok for case in self.cases)


def _reaction_solution(s0, cav, kappa, t):
    """Solution of s' = kappa s (s - cav) with s(0) = s0 and its validity mask.

    The mask turns false past a blow-up time (the denominator crossing zero);
    the formula is only an envelope while the comparison solution exists.
    """
    t = np.asarray(t, dtype=float)
    if s0 == 0.0:
        return np.zeros_like(t), np.ones_like(t, dtype=bool)
    if kappa == 0.0:
        return np.full_like(t, s0), np.ones_like(t, dtype=bool)
    if cav == 0.0:
        denom = 1.0 - kappa * s0 * t
        num = s0
    else:
        denom = 1.0 - (1.0 - cav / s0) * np.exp(kappa * cav * t)
        num = cav
    valid = (np.sign(denom) == np.sign(denom.flat[0])) & (np.abs(denom) > 1e-300)
    s = num / np.where(valid, denom, 1.0)
    return np.where(valid, s, 0.0), valid


def max_principle_bounds(c, trace, alpha=None, tol=1e-6):
    """Check the closed-form curvature envelopes along a normalized run.

    The applicable cases depend on the Euler characteristic and the signs of
    the initial curvatures; raises NotApplicableError when none applies.
    """
    if trace.family not in ("ricci_normalized", "alpha_ricci_normalized"):
        raise NotApplicableError(
            f"envelopes are stated for normalized Ricci runs, not {trace.family!r}")
    a = trace.alpha if alpha is None else float(alpha)
    kappa = 1.0 if trace.family == "ricci_normalized" else a
    chi = euler_characteristic(c)
    t = trace.times
    R = trace.curvatures
    cav = average_curvature(c, trace.radii[0], a)
    smin = float(R[0].min())
    smax = float(R[0].max())
    rmin = R.min(axis=1)
    rmax = R.max(axis=1)
    cases = []

    def check(kind, name, env, valid=None):
        gap = env - rmin if kind == "lower" else rmax - env
        if valid is not None:
            gap = np.where(valid, gap, -np.inf)
        cases.append(EnvelopeCase(name, kind, float(np.max(gap)),
                                  int((gap > tol).sum()), env))

    if trace.family == "ricci_normalized":
        if chi < 0 or chi == 0 or (chi > 0 and smin < 0):
            env, valid = _reaction_solution(smin, cav, kappa, t)
            sign = "neg" if chi < 0 else ("zero" if chi == 0 else "pos")
            check("lower", f"lower_chi_{sign}", env, valid)
        if smax < 0:
            dev = cav * (1.0 - cav / smax) * np.exp(kappa * cav * t)
            check("upper", "upper_all_negative", cav + dev)
    else:
        if a > 0 and smax < 0:
            grow = np.exp(kappa * cav * t)
            check("lower", "alpha_pos_lower", cav + (smin - cav) * grow)
            check("upper", "alpha_pos_upper",
                  cav + cav * (1.0 - cav / smax) * grow)
        elif a < 0 and smin > 0:
            grow = np.exp(kappa * cav * t)
            check("lower", "alpha_neg_lower",
                  cav + (cav / smin) * (smin - cav) * grow)
            check("upper", "alpha_neg_upper", cav + (smax - cav) * grow)
        elif a == 0.0:
            check("lower", "heat_lower", np.full_like(t, smin))
            check("upper", "heat_upper", np.full_like(t, smax))

    if smin >= 0:
        check("lower", "nonnegative_preserved", np.zeros_like(t))
    if smax <= 0:
        check("upper", "nonpositive_preserved", np.zeros_like(t))

    if not cases:
        raise NotApplicableError("no maximum-principle case applies to this run")
    return MaxPrincipleReport(cases, tol)


# -- constant-curvature search -------------------------------------------------


CG_RTOL = 1e-12


def _projected_cg(apply, b, m_inv, max_iter):
    """Solve P A P x = P b for x on the slice sum x = 0, P v = v - mean(v),
    by conjugate gradients preconditioned with the positive diagonal m_inv;
    A is the symmetric matvec apply. Stops at ||P b - P A x|| <= CG_RTOL
    ||P b||; the iteration cap and a breakdown (p^T A p zero or not finite)
    raise NoConvergenceError. A may be indefinite on the slice, as the
    sphere's Hessian is near its constant-curvature metrics: the recurrence
    needs only p^T A p != 0, not its sign."""
    b = b - b.mean()
    b_norm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x
    res = b
    z = m_inv * res
    z -= z.mean()
    p, rz = z, res @ z
    for k in range(1, max_iter + 1):
        Ap = apply(p)
        Ap -= Ap.mean()
        pAp = p @ Ap
        if not (pAp != 0.0 and math.isfinite(pAp)):
            raise NoConvergenceError(
                "conjugate-gradient breakdown: the projected Hessian is "
                "singular along a search direction",
                diagnostics={"cg_iterations": k, "pAp": float(pAp)})
        a = rz / pAp
        x = x + a * p
        res = res - a * Ap
        rel = np.linalg.norm(res) / b_norm
        if rel <= CG_RTOL:
            return x
        z = m_inv * res
        z -= z.mean()
        rz_old, rz = rz, res @ z
        p = z + (rz / rz_old) * p
    raise NoConvergenceError(
        f"conjugate gradients did not converge in {max_iter} iterations",
        diagnostics={"cg_iterations": max_iter, "relative_residual": float(rel)})


def _newton_point(c, u, alpha):
    """(r, theta, K, g) at u = log r: the radii, their inner angles, angle
    defects and potential gradient, from one angle evaluation."""
    r = _radii(u)
    theta = _angles(c, r)
    K = _defect_from_angles(c, theta)
    return r, theta, K, _potential_gradient(c, r, K, alpha, None)


def _newton_direction(c, r, theta, alpha, g):
    """The Newton step on the slice: -P g solved against the projected
    potential Hessian, applied through the edge weights of the inner angles
    theta of r and preconditioned with the Jacobian's diagonal."""
    w = _edge_weights(c, r, theta)
    return _projected_cg(lambda v: _hessian_apply(c, r, w, alpha, None, v),
                         -g, 1.0 / _jacobian_diagonal(c, w),
                         10 * c.vertex_count)


def find_constant_curvature(c, alpha, r0, method="newton", eps=1e-9,
                            max_iter=100):
    """Search for a constant alpha-curvature metric.

    method="newton" runs a damped Newton iteration on the potential gradient
    restricted to the scale-invariant slice sum log r = const; each step
    solves the projected Hessian system by preconditioned conjugate
    gradients on the edge-weight matvec, so no V x V matrix is formed.
    method="flow" delegates to the normalized alpha-Ricci flow.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1):
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    if method == "flow":
        spec = FlowSpec(family="alpha_ricci_normalized", alpha=alpha, eps=eps,
                        t_max=500.0)
        trace = run(spec, c, r0)
        if not trace.converged:
            raise NoConvergenceError(
                f"flow terminated with {trace.termination!r}",
                diagnostics=trace.summary())
        return trace.radii[-1]
    if method != "newton":
        raise ValueError(f"unknown method {method!r}")
    c.require_valid()
    u = np.log(check_metric(c, r0))
    r, theta, K, g = _newton_point(c, u, alpha)
    for _ in range(max_iter):
        residual = _residual(c, r, alpha, None, K)
        if residual < eps:
            return r
        d = _newton_direction(c, r, theta, alpha, g)
        # backtracking on the gradient norm, with a floor so Newton can still
        # crawl through mildly indefinite regions
        lam = 1.0
        g_norm = np.linalg.norm(g)
        for _ in range(30):
            u_try = u + lam * d
            try:
                point = _newton_point(c, u_try, alpha)
            except (DomainError, DegenerateTriangleError):
                lam *= 0.5
                continue
            if np.linalg.norm(point[3]) <= (1.0 - 0.25 * lam) * g_norm or lam < 1e-4:
                u = u_try
                r, theta, K, g = point
                break
            lam *= 0.5
        else:
            raise NoConvergenceError(
                "line search stalled",
                diagnostics={"gradient_norm": float(g_norm),
                             "constant_curvature_residual": residual})
    raise NoConvergenceError(
        f"no convergence after {max_iter} Newton iterations",
        diagnostics={"residual": _residual(c, r, alpha, None, K)})
