"""Combinatorial-topological existence conditions for constant curvature.

Every condition compares a subset functional against the same right-hand
side, the link-boundary sum

    rhs(I) = -sum_{(e,v) in Lk(I)} (pi - phi(e)) + 2 pi chi(F_I),

over all nonempty proper vertex subsets I. The conditions read one subset
table of arrays (``rhs_table``: a boolean indicator row per subset, and rhs),
built in one pass over the faces and one over the edges, and form their left
sides, and from them the margins, as vectors over the rows. Enumeration is
exponential and is capped; larger complexes must supply subsets explicitly.
"""

import itertools
from collections import namedtuple

import numpy as np

from .errors import EnumerationTooLargeError
from .mesh import _check_complex, check_subset
from .packing2d import _checked, _vertex_function, total_measure

BOUNDARY_MARGIN = 1e-9
SUBSET_ENUMERATION_CAP = 22

# A reported row of the table, made only for the rows a report shows
SubsetRecord = namedtuple("SubsetRecord",
                          "subset lhs rhs margin boundary satisfied")


class AdmissibilityReport:
    """lhs > rhs over the rows of a subset table; rows within BOUNDARY_MARGIN
    of equality are flagged instead of silently passed."""

    def __init__(self, condition, ind, lhs, rhs, exhaustive):
        self.condition, self.exhaustive = condition, exhaustive
        self.ind, self.lhs, self.rhs = ind, lhs, rhs
        self.extra_failures = None  # e.g. Gauss-Bonnet plane violation
        self.margin = lhs - rhs
        self.boundary = np.abs(self.margin) < BOUNDARY_MARGIN
        self.holds = (self.margin > 0) & ~self.boundary

    @property
    def satisfied(self):
        return not self.extra_failures and bool(self.holds.all())

    def _record(self, k):
        return SubsetRecord(tuple(np.flatnonzero(self.ind[k]).tolist()),
                            float(self.lhs[k]), float(self.rhs[k]),
                            float(self.margin[k]), bool(self.boundary[k]),
                            bool(self.holds[k]))

    @property
    def records(self):
        return [self._record(k) for k in range(len(self.rhs))]

    @property
    def worst(self):
        """Record with the smallest margin (the closest to failing)."""
        return self._record(np.argmin(self.margin))

    def first_witness(self):
        """First failing subset in (size, lex) order, or None."""
        failing = np.flatnonzero(~self.holds)
        return self._record(failing[0]) if len(failing) else None

    def to_dict(self, full=False):
        doc = {
            "condition": self.condition,
            "satisfied": self.satisfied,
            "exhaustive": self.exhaustive,
            "subsets_checked": len(self.rhs),
            "worst_subset": list(self.worst.subset),
            "worst_margin": self.worst.margin,
            "boundary_cases": int(self.boundary.sum()),
        }
        first = self.first_witness()
        if first is not None:
            doc["witness"] = list(first.subset)
            doc["witness_margin"] = first.margin
        if self.extra_failures:
            doc["failures"] = list(self.extra_failures)
        if full:
            doc["records"] = [{"subset": list(rec.subset), "lhs": rec.lhs,
                               "rhs": rec.rhs, "margin": rec.margin,
                               "satisfied": rec.satisfied}
                              for rec in self.records]
        return doc


def rhs_table(c, subsets=None):
    """The subset table behind every condition: (indicator, rhs).

    The indicator is the boolean (n_subsets, N) matrix whose rows are the
    subsets in (size, lex) order: all nonempty proper subsets, or the given
    ones canonicalised (repeats are kept). x lies in the admissible-curvature
    space iff indicator @ x > rhs holds componentwise (plus the Gauss-Bonnet
    plane). Link terms are added in face order.
    """
    _check_complex(c, 2)
    n = c.vertex_count
    if subsets is None:
        if n > SUBSET_ENUMERATION_CAP:
            raise EnumerationTooLargeError(
                f"enumeration of 2^{n}-2 subsets exceeds cap n <= "
                f"{SUBSET_ENUMERATION_CAP}")
        n_rows = 2 ** n - 2
        blocks = ((k, itertools.combinations(range(n), k))
                  for k in range(1, n))
    else:
        given = sorted((check_subset(c, s) for s in subsets),
                       key=lambda I: (len(I), I))
        if not given:
            raise ValueError("no subsets were given")
        n_rows, blocks = len(given), itertools.groupby(given, len)
    # filled one block of equal size at a time from the flat vertex stream,
    # with no tuple kept per row
    ind = np.zeros((n_rows, n), dtype=bool)
    start = 0
    for size, block in blocks:
        verts = np.fromiter(itertools.chain.from_iterable(block),
                            dtype=np.intp).reshape(-1, size)
        ind[start + np.arange(len(verts))[:, np.newaxis], verts] = True
        start += len(verts)
    link = np.zeros(len(ind))
    chi = ind.sum(axis=1)
    for f, opposite in zip(c.face_array, c.face_edge):
        inside = ind[:, f]
        count = inside.sum(axis=1)
        chi += count == 3
        for m in range(3):
            link[(count == 1) & inside[:, m]] += np.pi - c.weights[opposite[m]]
    for i, j in c.edge_array:
        chi -= ind[:, i] & ind[:, j]
    return ind, -link + 2.0 * np.pi * chi


def subset_rhs(c, subset):
    """The link-boundary sum for one subset."""
    return float(rhs_table(c, [subset])[1][0])


def _masked_sum(ind, w):
    """sum_{v in I} w[v] per row, added in ascending vertex order."""
    total = np.zeros(len(ind))
    for v, wv in enumerate(w):
        total[ind[:, v]] += wv
    return total


def _report(c, condition, lhs_fn, subsets):
    """The report of lhs_fn(indicator, 2 pi chi(M)) > rhs on the subset table."""
    ind, rhs = rhs_table(c, subsets)
    return AdmissibilityReport(condition, ind, lhs_fn(ind, 2.0 * np.pi * c.chi),
                               rhs, subsets is None)


def thurston_condition(c, subsets=None):
    """Existence criterion for constant classical curvature:
    2 pi chi(M) |I| / |V| > rhs(I) for every nonempty proper I."""
    n = c.vertex_count
    return _report(c, "thurston", lambda ind, gb: gb * ind.sum(axis=1) / n,
                   subsets)


def y_membership(c, x, subsets=None):
    """Membership of a vertex function in the admissible-curvature space:
    the Gauss-Bonnet plane (to within BOUNDARY_MARGIN) plus every subset
    half-space."""
    x = _vertex_function(c, "x", x)
    report = _report(c, "y_membership", lambda ind, gb: _masked_sum(ind, x),
                     subsets)
    gb = 2.0 * np.pi * c.chi
    if abs(x.sum() - gb) > BOUNDARY_MARGIN:
        report.extra_failures = [
            f"Gauss-Bonnet plane: sum(x) = {x.sum():.12g} != {gb:.12g}"]
    return report


def metric_condition(c, r, alpha=2.0, subsets=None):
    """Metric-dependent condition for constant alpha-curvature:
    2 pi chi(M) sum_{i in I} r_i^alpha / ||r||_a^a > rhs(I)."""
    r = _checked(c, r, alpha)[0]
    w, nrm = r ** alpha, total_measure(r, alpha)
    return _report(c, f"metric_alpha_{alpha:g}",
                   lambda ind, gb: gb * _masked_sum(ind, w) / nrm, subsets)


def sphere_condition(c, subsets=None):
    """rhs(I) < 0 for every nonempty proper I (hypothesis of the
    nonnegative-curvature existence theorems)."""
    return _report(c, "sphere", lambda ind, gb: np.zeros(len(ind)), subsets)
