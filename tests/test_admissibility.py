import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_subsets, grid_torus, random_metric, reweighted,
                      subset_rhs_oracle)
from packflows import data
from packflows.admissibility import (metric_condition, rhs_table,
                                     sphere_condition, subset_rhs,
                                     thurston_condition, y_membership)
from packflows.errors import EnumerationTooLargeError
from packflows.flows2d import find_constant_curvature
from packflows.mesh import Surface2Complex, euler_characteristic
from packflows.packing2d import angle_defect


def rows_of(ind):
    """The subsets of an indicator's rows, as sorted tuples."""
    return [tuple(np.flatnonzero(row).tolist()) for row in ind]


def test_subset_rhs_tetrahedron(tetra):
    assert abs(subset_rhs(tetra, {0}) - (-np.pi)) < 1e-14
    assert abs(subset_rhs(tetra, {0, 1})) < 1e-14
    assert abs(subset_rhs(tetra, {1, 2})) < 1e-14


def test_subset_rhs_weighted():
    edges = [(i, j, np.pi / 2) for i, j in itertools.combinations(range(4), 2)]
    c = Surface2Complex(4, itertools.combinations(range(4), 3), edges=edges)
    assert abs(subset_rhs(c, {0}) - np.pi / 2) < 1e-14


def test_subset_rhs_two_routes_agree(surfaces):
    for c in surfaces.values():
        n = c.vertex_count
        if n <= 8:
            subsets = list(all_subsets(n))
        else:
            rng = np.random.default_rng(n)
            subsets = [frozenset(rng.choice(n, size=rng.integers(1, n),
                                            replace=False).tolist())
                       for _ in range(120)]
        for I in subsets:
            assert subset_rhs(c, I) == subset_rhs_oracle(c, I)


def test_table_matches_oracle_bit_for_bit_with_random_weights(octa, icosa):
    # the table adds the link terms in face order, as the oracle does, so
    # every row is exact even where the terms differ
    rng = np.random.default_rng(46)
    for c in (octa, icosa):
        c = reweighted(c, rng.uniform(0, np.pi / 2, len(c.edges)))
        ind, rhs = rhs_table(c)
        assert len(ind) == 2 ** c.vertex_count - 2
        for I, value in zip(rows_of(ind), rhs.tolist()):
            assert value == subset_rhs_oracle(c, I)


def test_table_rows_are_the_report_rows(octa):
    rng = np.random.default_rng(47)
    r = random_metric(rng, 6)
    ind, rhs = rhs_table(octa)
    subsets = rows_of(ind)
    assert subsets == sorted(subsets, key=lambda I: (len(I), I))
    assert ind.tolist() == [[v in I for v in range(6)] for I in subsets]
    reports = (thurston_condition(octa), sphere_condition(octa),
               metric_condition(octa, r),
               y_membership(octa, angle_defect(octa, r)))
    for rep in reports:
        assert [rec.subset for rec in rep.records] == subsets
        assert [rec.rhs for rec in rep.records] == rhs.tolist()
        assert rep.ind.tolist() == ind.tolist()
        assert rep.rhs.tolist() == rhs.tolist()
    # explicit subsets are canonicalized and sorted; repeats keep both rows
    explicit = [[3, 1, 2], {4}, (2, 1, 3), [0, 5]]
    ind, rhs = rhs_table(octa, subsets=explicit)
    subsets = rows_of(ind)
    assert subsets == [(4,), (0, 5), (1, 2, 3), (1, 2, 3)]
    rep = sphere_condition(octa, subsets=explicit)
    assert [rec.subset for rec in rep.records] == subsets
    assert rhs[2] == rhs[3] == subset_rhs(octa, {1, 2, 3})


def test_empty_or_non_integer_subsets_rejected(octa):
    with pytest.raises(ValueError, match="no subsets"):
        thurston_condition(octa, subsets=[])
    with pytest.raises(ValueError, match="no subsets"):
        rhs_table(octa, subsets=[])
    with pytest.raises(ValueError, match="non-integer"):
        thurston_condition(octa, subsets=[[0.7, 1]])
    with pytest.raises(ValueError, match="non-integer"):
        subset_rhs(octa, [1.5])
    # integral floats name the same vertex
    assert subset_rhs(octa, [0.0, 1]) == subset_rhs(octa, {0, 1})


# a flat list, a nested list, a string and a bool where vertices belong
MALFORMED_SUBSETS = [[0, 1], [[0, [1]]], ["01"], [[True, 2]]]


@pytest.mark.parametrize("subsets", MALFORMED_SUBSETS)
def test_malformed_subsets_rejected(octa, subsets):
    with pytest.raises(ValueError, match="collection of vertices|non-integer"):
        thurston_condition(octa, subsets=subsets)
    with pytest.raises(ValueError):
        subset_rhs(octa, subsets[0])


@pytest.mark.parametrize("condition", [
    thurston_condition, sphere_condition, rhs_table,
    lambda c: metric_condition(c, np.ones(c.vertex_count)),
    lambda c: y_membership(c, np.zeros(c.vertex_count)),
])
def test_conditions_refuse_a_3_manifold(cell5, condition):
    # the conditions are stated for surfaces; a 3-complex once failed with
    # an AttributeError
    with pytest.raises(ValueError, match="surfaces"):
        condition(cell5)


def test_thurston_tetrahedron(tetra):
    report = thurston_condition(tetra)
    assert report.exhaustive
    assert len(report.records) == 2 ** 4 - 2
    rec = next(r for r in report.records if r.subset == (0,))
    assert abs(rec.lhs - np.pi) < 1e-14
    assert abs(rec.rhs + np.pi) < 1e-14
    assert rec.satisfied
    # the regular metric has constant classical curvature, so the criterion
    # must hold outright
    assert report.satisfied


def test_thurston_icosahedron(icosa):
    assert thurston_condition(icosa).satisfied


def test_thurston_witness_reporting(torus7):
    # chi = 0 makes the left side vanish; subsets with rhs >= 0 are reported
    report = thurston_condition(torus7)
    for rec in report.records:
        if not rec.satisfied:
            assert rec.rhs >= -1e-12
    assert report.worst.margin == min(r.margin for r in report.records)


def test_sphere_condition_tetrahedron_boundary(tetra):
    report = sphere_condition(tetra)
    assert not report.satisfied
    first = report.first_witness()
    assert first.subset == (0, 1)
    assert abs(first.margin) < 1e-12
    assert first.boundary
    # every size-2 subset sits exactly on the boundary
    for rec in report.records:
        if len(rec.subset) == 2:
            assert abs(rec.margin) < 1e-12


def test_sphere_condition_octahedron(octa):
    # exhaustive enumeration: single vertices and pairs are fine, but on any
    # sphere the subcomplex induced on V minus a vertex is a disk, so its
    # Euler term alone pushes the bound to +2 pi and the condition fails
    report = sphere_condition(octa)
    assert report.exhaustive and len(report.records) == 2 ** 6 - 2
    assert not report.satisfied
    for rec in report.records:
        if len(rec.subset) <= 3:
            assert rec.satisfied
        if len(rec.subset) == 5:
            assert abs(rec.margin + 2 * np.pi) < 1e-12


def test_sphere_condition_holds_on_nonpositive_chi(torus7, genus2):
    assert sphere_condition(torus7).satisfied
    assert sphere_condition(genus2).satisfied


def test_sphere_condition_single_vertex_arithmetic(surfaces):
    # for a lone vertex of degree d and zero weights: rhs = -d pi + 2 pi < 0
    for c in surfaces.values():
        if np.any(c.weights != 0):
            continue
        deg_faces = np.bincount(c.face_array.ravel()).tolist()
        rep = sphere_condition(c, subsets=[{v} for v in range(c.vertex_count)])
        for rec, d in zip(rep.records, deg_faces):
            assert abs(rec.rhs - (2.0 - d) * np.pi) < 1e-12


def test_y_membership_of_realized_curvatures(surfaces):
    rng = np.random.default_rng(42)
    for c in surfaces.values():
        for _ in range(25):
            K = angle_defect(c, random_metric(rng, c.vertex_count, 0.3, 3.0))
            assert y_membership(c, K).satisfied


@settings(max_examples=25, deadline=None, database=None)
@given(mesh_name=st.sampled_from(["tetrahedron", "octahedron", "icosahedron",
                                  "torus_7", "genus2_11"]),
       draw=st.data())
def test_y_membership_of_realized_curvatures_random_weights(mesh_name, draw):
    # necessity (Chow-Luo): the curvature of any circle packing metric with
    # weights in [0, pi/2] lies in the admissible-curvature space
    c = data.load(mesh_name)
    w = draw.draw(st.lists(st.floats(0.0, np.pi / 2), min_size=len(c.edges),
                           max_size=len(c.edges)))
    r = draw.draw(st.lists(st.floats(0.3, 3.0), min_size=c.vertex_count,
                           max_size=c.vertex_count))
    c = reweighted(c, w)
    assert y_membership(c, angle_defect(c, np.array(r))).satisfied


@pytest.mark.parametrize("x", [np.zeros(5), np.zeros(3),
                               np.array([np.nan, 0, 0, 0]), np.zeros((4, 1)),
                               np.array([np.inf, 0, 0, 0])])
def test_y_membership_rejects_malformed_x(tetra, x):
    with pytest.raises(ValueError, match="finite vector of shape"):
        y_membership(tetra, x)


def test_y_membership_batch_table(icosa):
    # the precomputed table agrees with the per-call reports and lets a large
    # batch of curvature vectors be checked at once
    rng = np.random.default_rng(43)
    ind, rhs = rhs_table(icosa)
    gb = 2 * np.pi * euler_characteristic(icosa)
    for _ in range(200):
        K = angle_defect(icosa, random_metric(rng, 12, 0.3, 3.0))
        assert abs(K.sum() - gb) < 1e-9
        assert np.all(ind @ K > rhs)


def test_y_membership_gauss_bonnet_plane(tetra):
    x = np.full(4, 1.0)
    report = y_membership(tetra, x)
    assert not report.satisfied
    assert any("Gauss-Bonnet" in msg for msg in report.extra_failures)


def test_y_membership_uniform_vector_iff_thurston(surfaces):
    for c in surfaces.values():
        n = c.vertex_count
        x = np.full(n, 2 * np.pi * euler_characteristic(c) / n)
        mem = y_membership(c, x)
        thu = thurston_condition(c)
        assert mem.satisfied == thu.satisfied
        for a, b in zip(mem.records, thu.records):
            assert a.subset == b.subset
            assert abs(a.lhs - b.lhs) < 1e-12


def test_metric_condition_at_constant_curvature(genus2, torus7):
    # necessity: wherever a constant alpha-curvature metric exists, it
    # satisfies the metric-dependent inequality (alpha chi <= 0 cases)
    rng = np.random.default_rng(44)
    for c, alpha in ((genus2, 2.0), (torus7, 2.0), (genus2, 1.0)):
        r_star = find_constant_curvature(c, alpha,
                                         random_metric(rng, c.vertex_count))
        assert metric_condition(c, r_star, alpha).satisfied


def test_metric_condition_zero_chi_reduces_to_sphere_bound(torus7):
    rng = np.random.default_rng(45)
    r = random_metric(rng, 7)
    rep = metric_condition(torus7, r, 2.0)
    sph = sphere_condition(torus7)
    for a, b in zip(rep.records, sph.records):
        assert a.lhs == 0.0
        assert a.satisfied == b.satisfied


def test_metric_condition_tetrahedron_pair(tetra):
    rep = metric_condition(tetra, np.ones(4), 2.0,
                           subsets=[{0, 1}])
    rec = rep.records[0]
    assert abs(rec.lhs - 2 * np.pi) < 1e-12
    assert abs(rec.rhs) < 1e-12
    assert rec.satisfied


@pytest.mark.parametrize("alpha", [2000.0, -2000.0])
def test_metric_condition_refuses_an_overflowing_metric(octa, alpha):
    # r ** alpha past the float range once gave inf / inf = NaN margins,
    # a "worst_margin": NaN that is not JSON, and RuntimeWarnings
    r = np.array([0.5, 2.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="float range"):
        metric_condition(octa, r, alpha)


def test_rhs_is_degeneration_limit_of_subset_curvature(tetra, octa):
    # as the radii over a subset shrink to zero, the total defect over the
    # subset approaches the link-boundary sum; this is the geometric content
    # of the right-hand side (convergence rate is only sqrt(eps))
    for c, I in ((tetra, {1, 2, 3}), (tetra, {0}), (octa, {0, 1})):
        rhs = subset_rhs(c, I)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            r = np.ones(c.vertex_count)
            for v in I:
                r[v] = eps
            K = angle_defect(c, r)
            gaps.append(abs(sum(K[v] for v in I) - rhs))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # each 100x reduction of eps shrinks the gap by about 10x
        assert all(a / b > 5 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 20 * np.sqrt(1e-8)


def test_full_table_on_a_grid_torus_is_in_size_lex_order_and_exact():
    c = grid_torus(4, 4)
    ind, rhs = rhs_table(c)
    subsets = rows_of(ind)
    assert len(subsets) == 2 ** 16 - 2
    assert subsets == sorted(set(subsets), key=lambda I: (len(I), I))
    assert all(value == subset_rhs_oracle(c, I)
               for I, value in zip(subsets, rhs.tolist()))


def test_enumeration_cap():
    # full enumeration (2^V - 2 rows) is refused above V = 22: a 23-vertex
    # circulant torus and a 24-vertex grid torus
    circulant = Surface2Complex(23, [(i, (i + a) % 23, (i + 3) % 23)
                                     for i in range(23) for a in (1, 2)])
    for c in (circulant, grid_torus(4, 6)):
        assert c.is_valid
        for condition in (thurston_condition, sphere_condition, rhs_table):
            with pytest.raises(EnumerationTooLargeError, match="cap n <= 22"):
                condition(c)
        # explicit subsets bypass the cap
        rep = thurston_condition(c, subsets=[{0}, {1, 2}])
        assert len(rep.records) == 2
        assert not rep.exhaustive


def test_report_json_shape(tetra):
    doc = sphere_condition(tetra).to_dict()
    assert doc["condition"] == "sphere"
    assert doc["satisfied"] is False
    assert doc["witness"] == [0, 1]
    assert abs(doc["witness_margin"]) < 1e-12
    assert "records" not in doc
    full = sphere_condition(tetra).to_dict(full=True)
    assert len(full["records"]) == 14
