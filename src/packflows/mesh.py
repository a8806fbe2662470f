"""Combinatorial structure of weighted triangulated surfaces and 3-manifolds.

Simplices are stored as sorted vertex tuples so that set comparisons are
canonical and hashable. Orientation is not tracked; nothing downstream needs
it. Complexes are immutable after construction and safe to share.
"""

import itertools
import json
import math
import numbers
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import InvalidComplexError


def _canon_simplices(simplices):
    return [tuple(sorted(int(v) for v in s)) for s in simplices]


def _disconnected(n, simplices):
    """[a violation] if the (nonempty) simplices leave a vertex unreachable
    from vertex 0: a breadth-first search with one vectorised step per level,
    over the sorted lists of the pairs (s[0], s[k]) in both directions."""
    s = np.asarray(simplices, dtype=np.intp)
    hub, rest = np.repeat(s[:, 0], s.shape[1] - 1), s[:, 1:].ravel()
    heads, tails = np.r_[hub, rest], np.r_[rest, hub]
    order = np.argsort(heads, kind="stable")
    nbrs, first = tails[order], np.searchsorted(heads[order], np.arange(n + 1))
    seen, frontier = np.zeros(n, dtype=bool), np.zeros(1, dtype=np.intp)
    slot = np.empty(n, dtype=np.intp)
    while frontier.size:
        seen[frontier] = True
        size = first[frontier + 1] - first[frontier]
        at = np.repeat(first[frontier] - np.cumsum(size) + size, size)
        reach = nbrs[at + np.arange(size.sum())]  # the frontier's neighbours
        reach = reach[~seen[reach]]
        # each vertex once: the entries that hold their vertex's last slot
        # (O(k), where np.unique would sort and import numpy.ma, ~1 MB)
        slot[reach] = np.arange(len(reach))
        frontier = reach[slot[reach] == np.arange(len(reach))]
    missed = n - int(seen.sum())
    return [f"complex is disconnected: {missed} of {n} vertices are not "
            f"joined to vertex 0"] if missed else []


class _Complex:
    """Structural validation shared by both complexes; the subclass supplies
    _validate (the violation report) and _build_index (derived arrays)."""

    def _finish(self):
        self.violations = self._validate()
        if not self.violations:
            self._build_index()

    def validate(self):
        """Return the list of violated structural invariants (empty iff valid)."""
        return list(self.violations)

    @property
    def is_valid(self):
        return not self.violations

    def require_valid(self):
        if self.violations:
            raise InvalidComplexError(self.violations)


class Surface2Complex(_Complex):
    """Closed triangulated surface with a weight in [0, pi/2] per edge.

    Parameters
    ----------
    vertex_count : int
        Number of vertices N; vertices are 0..N-1.
    faces : iterable of vertex triples
    edges : iterable of (i, j) or (i, j, phi), optional
        If omitted, edges are inferred from the faces with weight 0.
    """

    dim = 2

    def __init__(self, vertex_count, faces, edges=None):
        self.vertex_count = int(vertex_count)
        self.faces = _canon_simplices(faces)

        inferred = sorted({e for f in self.faces if len(f) == 3
                           for e in itertools.combinations(f, 2)})
        if edges is None:
            self.edges = inferred
            self.weights = np.zeros(len(inferred))
        else:
            es, ws = [], []
            for item in edges:
                item = tuple(item)
                if len(item) == 3:
                    i, j, phi = item
                else:
                    (i, j), phi = item, 0.0
                es.append(tuple(sorted((int(i), int(j)))))
                ws.append(float(phi))
            self.edges = es
            self.weights = np.asarray(ws, dtype=float)
        self._finish()

    # -- validation -------------------------------------------------------

    def _validate(self):
        report = []
        n = self.vertex_count
        if n <= 0:
            report.append("vertex_count must be positive")
            return report
        for f in self.faces:
            if len(f) != 3 or len(set(f)) != 3:
                report.append(f"face {f} is not a proper vertex triple")
            elif not all(0 <= v < n for v in f):
                report.append(f"face {f} has a vertex index outside [0, {n})")
        for e in self.edges:
            if len(set(e)) != 2:
                report.append(f"edge {e} is degenerate")
            elif not all(0 <= v < n for v in e):
                report.append(f"edge {e} has a vertex index outside [0, {n})")
        if report:
            return report

        if len(set(self.faces)) != len(self.faces):
            report.append("duplicate faces present")
        if len(set(self.edges)) != len(self.edges):
            report.append("duplicate edges present")

        edge_set = set(self.edges)
        count = {e: 0 for e in self.edges}
        for f in self.faces:
            for e in itertools.combinations(f, 2):
                if e not in edge_set:
                    report.append(f"face {f} uses edge {e} not in the complex")
                else:
                    count[e] += 1
        for e, k in count.items():
            if k != 2:
                report.append(f"edge {e} in {k} faces != 2")

        covered = {v for f in self.faces for v in f}
        for v in range(n):
            if v not in covered:
                report.append(f"vertex {v} not incident to any face")

        bad_w = [e for e, w in zip(self.edges, self.weights)
                 if not (0.0 <= w <= math.pi / 2 + 1e-15)]
        for e in bad_w:
            report.append(f"edge {e} weight outside [0, pi/2]")
        return report or _disconnected(n, self.faces)

    # -- derived indices ---------------------------------------------------

    def _build_index(self):
        self._edge_index = {e: k for k, e in enumerate(self.edges)}
        self.edge_array = np.array(self.edges, dtype=int).reshape(-1, 2)
        self.face_array = np.array(self.faces, dtype=int).reshape(-1, 3)
        nf = len(self.faces)
        # face_edge[f, m] = index of the edge opposite vertex column m
        self.face_edge = np.zeros((nf, 3), dtype=int)
        for fi, f in enumerate(self.faces):
            for m in range(3):
                pq = tuple(v for k, v in enumerate(f) if k != m)
                self.face_edge[fi, m] = self._edge_index[pq]
        self.cos_weights = np.cos(self.weights)
        self.chi = self.vertex_count - len(self.edges) + len(self.faces)
        for arr in (self.weights, self.cos_weights, self.edge_array,
                    self.face_array, self.face_edge):
            arr.setflags(write=False)

    def edge_index(self, i, j):
        return self._edge_index[tuple(sorted((int(i), int(j))))]

    def weight(self, i, j):
        return float(self.weights[self.edge_index(i, j)])

    def degrees(self):
        deg = np.zeros(self.vertex_count, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def __repr__(self):
        return (f"Surface2Complex(V={self.vertex_count}, E={len(self.edges)}, "
                f"F={len(self.faces)})")


class Manifold3Complex(_Complex):
    """Closed triangulated 3-manifold (vertices, edges, triangles, tetrahedra)."""

    dim = 3

    def __init__(self, vertex_count, tetrahedra, triangles=None, edges=None):
        self.vertex_count = int(vertex_count)
        self.tetrahedra = _canon_simplices(tetrahedra)
        if triangles is None:
            triangles = sorted({t for tet in self.tetrahedra if len(tet) == 4
                                for t in itertools.combinations(tet, 3)})
        self.triangles = _canon_simplices(triangles)
        if edges is None:
            edges = sorted({e for tet in self.tetrahedra if len(tet) == 4
                            for e in itertools.combinations(tet, 2)})
        self.edges = _canon_simplices(edges)
        self._finish()

    def _validate(self):
        report = []
        n = self.vertex_count
        if n <= 0:
            return ["vertex_count must be positive"]
        for name, simplices, size in (("tetrahedron", self.tetrahedra, 4),
                                      ("triangle", self.triangles, 3),
                                      ("edge", self.edges, 2)):
            for s in simplices:
                if len(s) != size or len(set(s)) != size:
                    report.append(f"{name} {s} is not a proper {size}-tuple")
                elif not all(0 <= v < n for v in s):
                    report.append(f"{name} {s} has an index outside [0, {n})")
        if report:
            return report

        for name, simplices in (("tetrahedra", self.tetrahedra),
                                ("triangles", self.triangles),
                                ("edges", self.edges)):
            if len(set(simplices)) != len(simplices):
                report.append(f"duplicate {name} present")

        tri_set = set(self.triangles)
        edge_set = set(self.edges)
        tri_count = {t: 0 for t in self.triangles}
        for tet in self.tetrahedra:
            for t in itertools.combinations(tet, 3):
                if t not in tri_set:
                    report.append(f"tetrahedron {tet} face {t} not listed")
                else:
                    tri_count[t] += 1
            for e in itertools.combinations(tet, 2):
                if e not in edge_set:
                    report.append(f"tetrahedron {tet} edge {e} not listed")
        for t, k in tri_count.items():
            if k != 2:
                report.append(f"triangle {t} in {k} tetrahedra != 2")
        for tri in self.triangles:
            for e in itertools.combinations(tri, 2):
                if e not in edge_set:
                    report.append(f"triangle {tri} edge {e} not listed")
        covered = {v for tet in self.tetrahedra for v in tet}
        for v in range(n):
            if v not in covered:
                report.append(f"vertex {v} not in any tetrahedron")
        return report or _disconnected(n, self.tetrahedra)

    def _build_index(self):
        self.tet_array = np.array(self.tetrahedra, dtype=int).reshape(-1, 4)
        self.edge_array = np.array(self.edges, dtype=int).reshape(-1, 2)
        self._edge_index = {e: k for k, e in enumerate(self.edges)}
        # tet_edge[t, k] = index of the edge of the k-th column pair, in the
        # order (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        self.tet_edge = np.array(
            [[self._edge_index[e] for e in itertools.combinations(tet, 2)]
             for tet in self.tetrahedra], dtype=int).reshape(-1, 6)
        for arr in (self.tet_array, self.edge_array, self.tet_edge):
            arr.setflags(write=False)

    def degrees(self):
        """Number of tetrahedra incident to each vertex."""
        deg = np.zeros(self.vertex_count, dtype=int)
        for tet in self.tetrahedra:
            for v in tet:
                deg[v] += 1
        return deg

    def __repr__(self):
        return (f"Manifold3Complex(V={self.vertex_count}, E={len(self.edges)}, "
                f"F={len(self.triangles)}, T={len(self.tetrahedra)})")


# -- Euler characteristics and subsets -------------------------------------


def _check_complex(c, dim):
    """c, checked to be valid and of dimension dim: the public functions of
    each dimension are stated for its complexes only."""
    c.require_valid()
    if c.dim != dim:
        kind = "surfaces" if dim == 2 else "3-manifolds"
        raise ValueError(f"stated for {kind}, not for a {c.dim}-complex")
    return c


def euler_characteristic(c):
    """V - E + F of a valid surface complex."""
    return _check_complex(c, 2).chi


def check_subset(c, subset):
    """The subset as a sorted tuple, checked to be a collection of integral
    numbers (not strings, bools or nested collections), nonempty and proper."""
    if (isinstance(subset, (str, bytes, Mapping))
            or not isinstance(subset, Iterable)):
        raise ValueError(f"subset {subset!r} is not a collection of vertices")
    verts = list(subset)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and float(v).is_integer() for v in verts):
        raise ValueError(f"subset {verts} has a non-integer vertex")
    I = tuple(sorted({int(v) for v in verts}))
    if not I or len(I) >= c.vertex_count:
        raise ValueError(f"subset must be nonempty and proper, got size {len(I)} "
                         f"of {c.vertex_count}")
    for v in I:
        if not 0 <= v < c.vertex_count:
            raise ValueError(f"vertex {v} outside [0, {c.vertex_count})")
    return I


# -- JSON I/O ---------------------------------------------------------------


def mesh_from_dict(doc):
    dim = int(doc.get("dim", 2))
    n = int(doc["vertex_count"])
    edges = doc.get("edges")
    if dim == 2:
        return Surface2Complex(n, doc["faces"], edges=edges)
    if dim == 3:
        return Manifold3Complex(n, doc["tetrahedra"],
                                triangles=doc.get("faces"), edges=edges)
    raise ValueError(f"unsupported dim {dim}")


def mesh_to_dict(c):
    if c.dim == 2:
        doc = {"dim": 2, "vertex_count": c.vertex_count,
               "faces": [list(f) for f in c.faces]}
        if np.any(c.weights != 0.0):
            doc["edges"] = [[e[0], e[1], float(w)]
                            for e, w in zip(c.edges, c.weights)]
        return doc
    return {"dim": 3, "vertex_count": c.vertex_count,
            "faces": [list(t) for t in c.triangles],
            "tetrahedra": [list(t) for t in c.tetrahedra]}


def load_mesh(path):
    with open(path) as fp:
        return mesh_from_dict(json.load(fp))


def save_mesh(c, path):
    with open(path, "w") as fp:
        json.dump(mesh_to_dict(c), fp, indent=1)
        fp.write("\n")


def load_metric(path):
    """Read a metric JSON {"radii": [...]} into an unchecked array."""
    with open(path) as fp:
        doc = json.load(fp)
    return np.asarray(doc["radii"], dtype=float)


def save_metric(r, path):
    with open(path, "w") as fp:
        json.dump({"radii": [float(x) for x in np.asarray(r)]}, fp, indent=1)
        fp.write("\n")
