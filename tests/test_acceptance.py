"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute. Tolerances are fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import assert_time_scaled_runs, random_metric
from packflows.admissibility import rhs_table, sphere_condition
from packflows.flows2d import (FlowSpec, find_constant_curvature,
                               max_principle_bounds, run, vector_field)
from packflows.mesh import euler_characteristic
from packflows.operators2d import curvature_jacobian, potential_hessian
from packflows.packing2d import angle_defect, curvature
from packflows.packing3d import (curvature_norm_bound, defect_jacobian,
                                 solid_angle_defect, tet_geometry,
                                 yamabe_state)

REGULAR_SOLID_ANGLE = 3 * np.arccos(1.0 / 3.0) - np.pi


class criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number:2d}: {self.description}")
        return False


def test_criterion_01_constant_metric(tetra):
    with criterion(1, "tetrahedron constant metric: K = R = pi to 1e-12, < 1 ms"):
        r = np.ones(4)
        angle_defect(tetra, r)  # warm
        t0 = time.perf_counter()
        reps = 20
        for _ in range(reps):
            K = angle_defect(tetra, r)
            R = curvature(tetra, r, 2.0)
        elapsed = (time.perf_counter() - t0) / reps
        assert np.abs(K - np.pi).max() < 1e-12
        assert np.abs(R - np.pi).max() < 1e-12
        assert elapsed < 1e-3


def test_criterion_02_second_constant_metric(tetra):
    with criterion(2, "second constant-curvature metric x = 5.9487, x = 1, < 1 s"):
        def f(x):
            th = np.arccos(x / (1.0 + x))
            return (5 * np.pi / 3 - 2 * th) - x * x * (6 * th - np.pi)

        # the independent one-variable oracle has exactly the two roots
        assert abs(brentq(f, 0.5, 2.0, xtol=1e-14) - 1.0) < 1e-9
        x_star = brentq(f, 2.0, 20.0, xtol=1e-14)

        t0 = time.perf_counter()
        r = find_constant_curvature(tetra, 2.0, np.array([1.0, 6.0, 6.0, 6.0]))
        elapsed = time.perf_counter() - t0
        x = r[1] / r[0]
        assert abs(x - 5.9487) < 5e-5
        assert abs(x - x_star) < 1e-9
        R = curvature(tetra, r, 2.0)
        assert np.abs(R - R.mean()).max() < 1e-9
        assert elapsed < 1.0


def test_criterion_03_hessian_value(tetra):
    with criterion(3, "Hessian at the constant metric matches the closed form"):
        H = potential_hessian(tetra, np.ones(4), 2.0, coord="log_r2").matrix
        expect = (np.sqrt(3) / 6 - np.pi / 4) * (4 * np.eye(4) - np.ones((4, 4)))
        assert np.abs(H - expect).max() < 1e-9
        w, v = np.linalg.eigh(H)
        # restricted to the complement of the constant vector: negative definite
        assert np.sum(w < -1e-9) == 3
        kernel = v[:, np.argmin(np.abs(w))]
        assert np.abs(kernel - kernel.mean()).max() < 1e-9


def test_criterion_04_source_behavior(tetra):
    with criterion(4, "normalized flow moves away from the tetrahedron metric"):
        v = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        r0 = 1.0 + 1e-3 * v
        r0 *= 2.0 / np.linalg.norm(r0)
        assert abs(np.linalg.norm(r0 - 1.0) - 1e-3) < 1e-5
        spec = FlowSpec(family="ricci_normalized", t_max=1.0, eps=1e-16,
                        record_energies=False)
        tr = run(spec, tetra, r0)
        assert tr.times[-1] >= 1.0 - 1e-9
        assert tr.residuals[-1] > tr.residuals[0]


def test_criterion_05_gauss_bonnet(surfaces):
    with criterion(5, "Gauss-Bonnet to 1e-10 on 100+ random metrics, 5 complexes"):
        rng = np.random.default_rng(50)
        count = 0
        for c in surfaces.values():
            gb = 2 * np.pi * euler_characteristic(c)
            for _ in range(25):
                K = angle_defect(c, random_metric(rng, c.vertex_count, 0.2, 5.0))
                assert abs(K.sum() - gb) < 1e-10
                count += 1
        assert count >= 100


def test_criterion_06_jacobian(surfaces):
    with criterion(6, "analytic Jacobian vs FD to 1e-6 on 100+ cases, structure"):
        rng = np.random.default_rng(60)
        count = 0
        for c in surfaces.values():
            n = c.vertex_count
            adj = np.zeros((n, n), dtype=bool)
            for i, j in c.edges:
                adj[i, j] = adj[j, i] = True
            for _ in range(25):
                r = random_metric(rng, n)
                Lt = curvature_jacobian(c, r).matrix
                fd = np.empty((n, n))
                for j in range(n):
                    h = 1e-6 * r[j]
                    rp = r.copy()
                    rp[j] += h
                    rm = r.copy()
                    rm[j] -= h
                    fd[:, j] = (angle_defect(c, rp) - angle_defect(c, rm)) \
                        / (2 * h) * r[j]
                scale = np.abs(Lt).max()
                assert np.abs(Lt - fd).max() <= 1e-6 * scale
                assert np.abs(Lt - Lt.T).max() <= 1e-9 * scale
                w, v = np.linalg.eigh(Lt)
                assert w[0] >= -1e-9 * scale      # PSD
                assert abs(w[0]) <= 1e-9 * scale  # rank N-1
                assert w[1] >= 1e-9 * scale
                kern = v[:, 0]
                assert np.abs(kern - kern.mean()).max() < 1e-8  # kernel = 1
                assert np.all(Lt[adj] < 0)
                off_far = Lt[~adj & ~np.eye(n, dtype=bool)]
                if off_far.size:
                    assert np.abs(off_far).max() == 0.0
                count += 1
        assert count >= 100


def test_criterion_07_negative_curvature_convergence(genus2):
    with criterion(7, "genus-2 min-degree-7 flow converges exponentially, < 10 s"):
        assert genus2.degrees().min() >= 7
        assert euler_characteristic(genus2) == -2
        r0 = np.ones(11)
        assert np.all(angle_defect(genus2, r0) < 0)
        t0 = time.perf_counter()
        tr = run(FlowSpec(family="ricci_normalized"), genus2, r0)
        elapsed = time.perf_counter() - t0
        assert tr.converged
        assert tr.residuals[-1] < 1e-9
        slope, _, r2 = tr.fit_rate()
        assert slope < 0
        assert r2 > 0.99
        assert elapsed < 10.0


def test_criterion_08_maximum_principle(genus2, torus7):
    with criterion(8, "maximum-principle envelopes hold in each applicable case"):
        rng = np.random.default_rng(80)
        runs = [
            (genus2, random_metric(rng, 11, 0.8, 1.3)),   # chi < 0
            (torus7, random_metric(rng, 7, 0.7, 1.5)),    # chi = 0
            (genus2, np.ones(11)),                         # all R(0) < 0
        ]
        for c, r0 in runs:
            tr = run(FlowSpec(family="ricci_normalized", t_max=6.0), c, r0)
            rep = max_principle_bounds(c, tr, tol=1e-6)
            assert rep.ok, [(case.name, case.max_violation) for case in rep.cases]
        # curvature signs are preserved
        tr_neg = run(FlowSpec(family="ricci_normalized", t_max=6.0), genus2,
                     np.ones(11))
        assert tr_neg.curvatures.max() <= 1e-9


def test_criterion_09_conservation_and_monotonicity(genus2, torus7, torus3):
    with criterion(9, "conserved quantities and energy monotonicity, 2-d and 3-d"):
        rng = np.random.default_rng(90)
        families = [
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
        # conservation of the family invariant over a unit of time, no
        # projection: the flow itself keeps it
        for family, alpha in families:
            r0 = random_metric(rng, 11, 0.8, 1.25)
            spec = FlowSpec(family=family, alpha=alpha, t_max=1.0, eps=1e-16,
                            renormalize=False, record_energies=False)
            tr = run(spec, genus2, r0)
            drift = np.abs(tr.conserved / tr.conserved[0] - 1.0).max()
            assert drift <= 1e-7, (family, alpha, drift)

        # monotone potential and Calabi energy where alpha chi <= 0
        for c, family, alpha in [(genus2, "ricci_normalized", 2.0),
                                 (torus7, "ricci_normalized", 2.0),
                                 (genus2, "calabi", 2.0),
                                 (genus2, "calabi_modified", 2.0),
                                 (genus2, "alpha_calabi_modified", 1.0)]:
            r0 = random_metric(rng, c.vertex_count, 0.8, 1.2)
            tr = run(FlowSpec(family=family, alpha=alpha, t_max=3.0), c, r0)
            assert np.all(np.diff(tr.potential) <= 1e-9), family
            if "calabi_modified" in family:
                assert np.all(np.diff(tr.calabi) <= 1e-9), family

        # 3-d: volume conserved, total curvature nonincreasing, derivative
        # matches the closed dissipation form
        r0 = 1.0 + 0.02 * rng.standard_normal(27)
        tr3 = run(FlowSpec("yamabe", t_max=2.0, eps=1e-14), torus3, r0)
        assert np.abs(tr3.conserved / tr3.conserved[0] - 1.0).max() <= 1e-7
        assert np.all(np.diff(tr3.potential) <= 1e-9)
        # a centered difference along the field: log r +- delta v
        for k in np.linspace(0, len(tr3.times) - 1, 4).astype(int):
            r = tr3.radii[k]
            st = yamabe_state(torus3, r)
            v = 0.5 * (st.average - st.curvature)
            ds = (yamabe_state(torus3, r * np.exp(1e-5 * v)).total
                  - yamabe_state(torus3, r * np.exp(-1e-5 * v)).total) / 2e-5
            assert abs(ds + 0.5 * tr3.calabi[k]) <= 1e-6 * max(1.0, tr3.calabi[k])


def test_criterion_10_family_equivalences(genus2):
    with criterion(10, "alpha = 2 and alpha = 0 flows match the classical ones"):
        rng = np.random.default_rng(100)
        r = random_metric(rng, 11)
        # alpha = 0 field is the classical normalized flow of the defect
        v0 = vector_field(FlowSpec(family="alpha_ricci_normalized", alpha=0.0),
                          genus2, r)
        K = angle_defect(genus2, r)
        k_av = 2 * np.pi * euler_characteristic(genus2) / 11
        assert np.abs(v0 - (k_av - K)).max() < 1e-14

        # alpha = 2: same curves at twice / four times the speed; with the
        # time settings scaled alike, DOP853 takes the same steps bit for bit
        pairs = [("alpha_ricci_normalized", "ricci_normalized", 2.0),
                 ("alpha_calabi", "calabi", 4.0),
                 ("alpha_calabi_modified", "calabi_modified", 4.0)]
        for fam_a, fam_c, factor in pairs:
            va = vector_field(FlowSpec(family=fam_a, alpha=2.0), genus2, r)
            vc = vector_field(FlowSpec(family=fam_c), genus2, r)
            assert np.abs(va - factor * vc).max() <= 1e-12 * max(
                1.0, np.abs(va).max())
            assert_time_scaled_runs(genus2, r, fam_a, fam_c, factor)


def test_criterion_11_three_dimensional_geometry(cell5, cell16):
    with criterion(11, "5-cell geometry, Schlaefli identity, Jacobian, quotient"):
        geom = tet_geometry([1.0, 1.0, 1.0, 1.0])
        assert np.abs(geom.angles - REGULAR_SOLID_ANGLE).max() < 1e-9
        K = solid_angle_defect(cell5, np.ones(5))
        assert np.abs(K - (4 * np.pi - 4 * REGULAR_SOLID_ANGLE)).max() < 1e-12

        rng = np.random.default_rng(110)
        for c in (cell5, cell16):
            for _ in range(10):
                r = rng.uniform(0.7, 1.4, c.vertex_count)
                Kv = solid_angle_defect(c, r)
                for j in range(c.vertex_count):
                    h = 1e-6 * r[j]
                    rp = r.copy()
                    rp[j] += h
                    rm = r.copy()
                    rm[j] -= h
                    fd = (yamabe_state(c, rp).total
                          - yamabe_state(c, rm).total) / (2 * h)
                    assert abs(fd - Kv[j]) <= 1e-6 * max(1.0, abs(Kv[j]))
                st = yamabe_state(c, r)
                assert abs(yamabe_state(c, 2.0 * r).quotient - st.quotient) \
                    <= 1e-12 * max(1.0, abs(st.quotient))
                assert abs(st.quotient) <= curvature_norm_bound(c, r) + 1e-12
            lam = defect_jacobian(c, np.ones(c.vertex_count)).matrix
            scale = np.abs(lam).max()
            assert np.array_equal(lam, lam.T)
            w = np.linalg.eigvalsh(lam)
            assert w[0] >= -1e-12 * scale
            assert np.linalg.norm(lam @ np.ones(c.vertex_count)) <= \
                1e-12 * scale * np.sqrt(c.vertex_count)


def test_criterion_12_admissibility(tetra, octa, icosa, torus7):
    with criterion(12, "sphere-condition boundary witness; realized curvatures"
                       " lie in the admissible space"):
        rep = sphere_condition(tetra)
        assert not rep.satisfied
        first = rep.first_witness()
        assert len(first.subset) == 2
        assert abs(first.margin) <= 1e-12

        rng = np.random.default_rng(120)
        complexes = [tetra, octa, icosa, torus7]
        trials = 1000
        per = trials // len(complexes)
        for c in complexes:
            ind, rhs = rhs_table(c)
            gb = 2 * np.pi * euler_characteristic(c)
            for _ in range(per):
                K = angle_defect(c, random_metric(rng, c.vertex_count, 0.2, 5.0))
                assert abs(K.sum() - gb) < 1e-9
                assert np.all(ind @ K > rhs)
