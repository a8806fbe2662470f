"""Combinatorial-topological existence conditions for constant curvature.

Every condition compares a subset functional against the same right-hand
side, the link-boundary sum

    rhs(I) = -sum_{(e,v) in Lk(I)} (pi - phi(e)) + 2 pi chi(F_I),

over all nonempty proper vertex subsets I. Every condition reads rhs from one
subset table (``rhs_table``), built in one pass over the faces and one over
the edges, and forms its left side as one vector over the table's rows.
Enumeration is exponential and is capped; larger complexes must supply
candidate subsets explicitly.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import (SUBSET_ENUMERATION_CAP, check_subset, euler_characteristic,
                   proper_subsets)
from .packing2d import check_metric, total_measure

BOUNDARY_MARGIN = 1e-9


@dataclass
class SubsetRecord:
    subset: tuple
    lhs: float
    rhs: float

    @property
    def margin(self):
        return self.lhs - self.rhs

    @property
    def boundary(self):
        """Within roundoff of equality; flagged instead of silently passed."""
        return abs(self.margin) < BOUNDARY_MARGIN

    @property
    def satisfied(self):
        return self.margin > 0 and not self.boundary


@dataclass
class AdmissibilityReport:
    condition: str
    records: list
    exhaustive: bool
    extra_failures: list | None = None  # e.g. Gauss-Bonnet plane violation

    @property
    def satisfied(self):
        if self.extra_failures:
            return False
        return all(rec.satisfied for rec in self.records)

    @property
    def worst(self):
        """Record with the smallest margin (the closest to failing)."""
        return min(self.records, key=lambda rec: rec.margin)

    def witnesses(self):
        return [rec for rec in self.records if not rec.satisfied]

    def first_witness(self):
        """First failing subset in (size, lex) order, or None."""
        for rec in self.records:
            if not rec.satisfied:
                return rec
        return None

    def to_dict(self, full=False):
        doc = {
            "condition": self.condition,
            "satisfied": bool(self.satisfied),
            "exhaustive": self.exhaustive,
            "subsets_checked": len(self.records),
            "worst_subset": list(self.worst.subset),
            "worst_margin": float(self.worst.margin),
            "boundary_cases": sum(1 for rec in self.records if rec.boundary),
        }
        first = self.first_witness()
        if first is not None:
            doc["witness"] = list(first.subset)
            doc["witness_margin"] = float(first.margin)
        if self.extra_failures:
            doc["failures"] = list(self.extra_failures)
        if full:
            doc["records"] = [{"subset": list(rec.subset), "lhs": rec.lhs,
                               "rhs": rec.rhs, "margin": rec.margin,
                               "satisfied": rec.satisfied}
                              for rec in self.records]
        return doc


def rhs_table(c, subsets=None, cap=SUBSET_ENUMERATION_CAP):
    """The subset table behind every condition: (subsets, rhs, indicator).

    Subsets are sorted tuples in (size, lex) order (explicit repeats are
    kept) and indicator is the boolean (n_subsets, N) matrix; x lies in the
    admissible-curvature space iff indicator @ x > rhs holds componentwise
    (plus the Gauss-Bonnet plane). Link terms are added in face order.
    """
    c.require_valid()
    if subsets is None:
        rows = list(proper_subsets(c.vertex_count, cap))
    else:
        rows = sorted((check_subset(c, s) for s in subsets),
                      key=lambda I: (len(I), I))
        if not rows:
            raise ValueError("no subsets were given")
    ind = np.zeros((len(rows), c.vertex_count), dtype=bool)
    for k, I in enumerate(rows):
        ind[k, list(I)] = True
    link = np.zeros(len(rows))
    chi = ind.sum(axis=1)
    for f, opposite in zip(c.face_array, c.face_edge):
        inside = ind[:, f]
        count = inside.sum(axis=1)
        chi += count == 3
        for m in range(3):
            link[(count == 1) & inside[:, m]] += np.pi - c.weights[opposite[m]]
    for i, j in c.edge_array:
        chi -= ind[:, i] & ind[:, j]
    return rows, -link + 2.0 * np.pi * chi, ind


def subset_rhs(c, subset):
    """The link-boundary sum for one subset."""
    return float(rhs_table(c, [subset])[1][0])


def _masked_sum(ind, w):
    """sum_{v in I} w[v] per row, added in ascending vertex order."""
    total = np.zeros(len(ind))
    for v, wv in enumerate(w):
        total[ind[:, v]] += wv
    return total


def _report(c, condition, lhs_fn, subsets, cap):
    rows, rhs, ind = rhs_table(c, subsets, cap)
    records = [SubsetRecord(I, lhs, r) for I, lhs, r
               in zip(rows, lhs_fn(ind).tolist(), rhs.tolist())]
    return AdmissibilityReport(condition, records, subsets is None)


def thurston_condition(c, subsets=None, cap=SUBSET_ENUMERATION_CAP):
    """Existence criterion for constant classical curvature:
    2 pi chi(M) |I| / |V| > rhs(I) for every nonempty proper I."""
    gb = 2.0 * np.pi * euler_characteristic(c)
    n = c.vertex_count
    return _report(c, "thurston", lambda ind: gb * ind.sum(axis=1) / n,
                   subsets, cap)


def y_membership(c, x, subsets=None, cap=SUBSET_ENUMERATION_CAP,
                 gb_tol=1e-9):
    """Membership of a vertex function in the admissible-curvature space:
    the Gauss-Bonnet plane plus every subset half-space."""
    x = np.asarray(x, dtype=float)
    if x.shape != (c.vertex_count,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be a finite vector of shape "
                         f"({c.vertex_count},), got shape {x.shape}")
    gb = 2.0 * np.pi * euler_characteristic(c)
    report = _report(c, "y_membership", lambda ind: _masked_sum(ind, x),
                     subsets, cap)
    if abs(x.sum() - gb) > gb_tol:
        report.extra_failures = [
            f"Gauss-Bonnet plane: sum(x) = {x.sum():.12g} != {gb:.12g}"]
    return report


def metric_condition(c, r, alpha=2.0, subsets=None,
                     cap=SUBSET_ENUMERATION_CAP):
    """Metric-dependent condition for constant alpha-curvature:
    2 pi chi(M) sum_{i in I} r_i^alpha / ||r||_a^a > rhs(I)."""
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    r = check_metric(c, r)
    gb = 2.0 * np.pi * euler_characteristic(c)
    nrm = total_measure(r, alpha)
    return _report(c, f"metric_alpha_{alpha:g}",
                   lambda ind: gb * _masked_sum(ind, r ** alpha) / nrm,
                   subsets, cap)


def sphere_condition(c, subsets=None, cap=SUBSET_ENUMERATION_CAP):
    """rhs(I) < 0 for every nonempty proper I (hypothesis of the
    nonnegative-curvature existence theorems)."""
    return _report(c, "sphere", lambda ind: np.zeros(len(ind)), subsets, cap)
