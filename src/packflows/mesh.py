"""Combinatorial structure of weighted triangulated surfaces and 3-manifolds.

Simplices are stored as sorted vertex tuples so that set comparisons are
canonical and hashable. Orientation is not tracked; nothing downstream needs
it. Complexes are immutable after construction and safe to share.

One rule set makes a complex of either dimension valid. vertex_count is a
positive integer. Every simplex is distinct integral vertices in
[0, vertex_count), listed once: 2 and 2.0 are vertices, while 2.5, True and
"2" are refused, never truncated. Every sub-simplex of a top simplex (a face
or a tetrahedron) is listed, or inferred for a kind that is not given. Every
ridge (an edge of a surface, a triangle of a 3-manifold) lies in exactly two
top simplices, and every other listed simplex in at least one. The top
simplices cover and join all vertices, and surface edge weights lie in
[0, pi/2]. Vertex links are not checked.
"""

import itertools
import json
import math
import numbers
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import InvalidComplexError


def _integral(v):
    """True for an integral real number that is not a bool: 2, 2.0 and numpy
    integers, not 2.5, True, nan or "2"."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or float(v).is_integer()))


def _simplices(kind, rows, size, n):
    """(array, report) for a list of vertex tuples: their (k, size) array,
    each row sorted, or None and a violation for each tuple that is not size
    distinct integral vertices in [0, n) or that is listed twice."""
    # the usual input, Python ints, skips the check of each entry
    if not ({type(v) for s in rows for v in s} <= {int}
            and {len(s) for s in rows} <= {size}):
        bad = [s for s in rows if len(s) != size or not all(map(_integral, s))]
        if bad:
            return None, [f"{kind} {s} is not {size} integral vertices"
                          for s in bad]
        rows = [tuple(map(int, s)) for s in rows]
    if (min(map(min, rows), default=0) < 0
            or max(map(max, rows), default=0) >= n):
        return None, [f"{kind} {s} has a vertex index outside [0, {n})"
                      for s in rows if min(s) < 0 or max(s) >= n]
    a = np.array(rows, dtype=int).reshape(-1, size)
    a.sort(axis=1)
    repeats = a[(a[:, 1:] == a[:, :-1]).any(axis=1)]
    by_row = a[np.lexsort(a.T[::-1])]
    twice = by_row[1:][(by_row[1:] == by_row[:-1]).all(axis=1)]
    report = ([f"{kind} {tuple(s)} repeats a vertex" for s in repeats.tolist()]
              + [f"duplicate {kind} {tuple(s)}" for s in twice.tolist()])
    return (None, report) if report else (a, [])


def _incidence(top, size, n, listed=None):
    """(listed, index): for each top row, the index in listed of each of its
    size-vertex sub-simplices, in itertools.combinations column order, or -1
    where one is not listed. listed None is inferred: the sub-simplices, each
    once, in lexicographic order. A simplex is found by its mixed-radix key,
    whose order is the lexicographic order of the sorted rows: one sort of
    the listed keys and one searchsorted."""
    sub = top[:, list(itertools.combinations(range(top.shape[1]), size))]
    radix = n ** np.arange(size - 1, -1, -1)
    want = sub @ radix
    if listed is None:  # the distinct keys, decoded
        keys = np.sort(want, axis=None)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        listed = keys[:, None] // radix % n
    else:
        keys = listed @ radix
    order = keys.argsort(kind="stable")
    # a last key above every simplex's keeps each search inside the array
    keys = np.concatenate((keys[order], [n ** size]))
    order = np.concatenate((order, [-1]))
    at = keys.searchsorted(want)
    return listed, np.where(keys[at] == want, order[at], -1)


def _disconnected(n, simplices):
    """[a violation] if the (nonempty) simplices leave a vertex unreachable
    from vertex 0: a breadth-first search with one vectorised step per level,
    over the sorted lists of the pairs (s[0], s[k]) in both directions."""
    s = np.asarray(simplices, dtype=np.intp)
    hub, rest = np.repeat(s[:, 0], s.shape[1] - 1), s[:, 1:].ravel()
    heads, tails = np.concatenate((hub, rest)), np.concatenate((rest, hub))
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
    """Validation and indexing shared by both complexes, driven by the
    subclass's SIMPLICES table: the top simplices, then each listed lower
    kind from the ridge (dim vertices) down to the edges, as (list
    attribute, singular name, array attribute or None)."""

    def _validate(self, vertex_count, given, report=()):
        """Check the complex, and set vertex_count, the simplex lists, the
        violations and, when it is valid, the arrays. given holds the
        simplices of each kind of SIMPLICES (None: inferred from the top
        ones); report holds the violations the subclass found. Return the
        index of the edges of each top simplex, in itertools.combinations
        column order, or None if the complex is invalid."""
        n = self.vertex_count = (int(vertex_count) if _integral(vertex_count)
                                 else vertex_count)
        given = [None if g is None else [tuple(s) for s in g] for g in given]
        for (attr, _, _), rows in zip(self.SIMPLICES, given):
            setattr(self, attr, rows or [])  # until they are checked
        # the keys of _incidence are int64
        if type(n) is not int or not (0 < n and n ** self.dim < 2 ** 63):
            self.violations = [f"vertex_count must be a positive integer "
                               f"below 2 ** (63 / {self.dim}), got {n!r}"]
            return None
        sizes = range(self.dim + 1, 1, -1)
        checked = [_simplices(kind, rows, size, n) if rows is not None
                   else (None, []) for (_, kind, _), size, rows
                   in zip(self.SIMPLICES, sizes, given)]
        self.violations = [m for _, faults in checked for m in faults]
        if self.violations:
            return None

        arrays, violations = [a for a, _ in checked], []
        top, (top_attr, top_kind, _) = arrays[0], self.SIMPLICES[0]
        # the ridges (k = 1) lie in exactly two top simplices, the other
        # listed kinds in at least one
        for k, (_, kind, _) in enumerate(self.SIMPLICES[1:], 1):
            arrays[k], index = _incidence(top, sizes[k], n, arrays[k])
            for t, col in zip(*(index < 0).nonzero()):
                s = tuple(top[t].tolist())
                sub = list(itertools.combinations(s, sizes[k]))[col]
                violations.append(f"{top_kind} {s} {kind} {sub} not listed")
            count = np.bincount(index[index >= 0], minlength=len(arrays[k]))
            for i in (count != 2 if k == 1 else count == 0).nonzero()[0]:
                s = tuple(arrays[k][i].tolist())
                violations.append(f"{kind} {s} in {count[i]} {top_attr} != 2"
                                  if k == 1 else f"{kind} {s} in no {top_kind}")
        for v in (np.bincount(top.ravel(), minlength=n) == 0).nonzero()[0]:
            violations.append(f"vertex {v} not in any {top_kind}")
        self.violations = [*violations, *report] or _disconnected(n, top)
        # the tuples share one int object per vertex, not one per entry
        verts = np.arange(n).astype(object)
        for (attr, _, array_attr), a in zip(self.SIMPLICES, arrays):
            setattr(self, attr, list(zip(*verts[a.T].tolist())))
            if array_attr and not self.violations:
                a.setflags(write=False)
                setattr(self, array_attr, a)
        return None if self.violations else index

    def validate(self):
        """Return the list of violated structural invariants (empty iff valid)."""
        return list(self.violations)

    @property
    def is_valid(self):
        return not self.violations

    def require_valid(self):
        if self.violations:
            raise InvalidComplexError(self.violations)

    def degrees(self):
        """Number of top simplices at each vertex. On a valid surface each
        vertex link is 2-regular, so this is also the number of edges."""
        top = getattr(self, self.SIMPLICES[0][2])
        return np.bincount(top.ravel(), minlength=self.vertex_count)


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
    SIMPLICES = (("faces", "face", "face_array"),
                 ("edges", "edge", "edge_array"))

    def __init__(self, vertex_count, faces, edges=None):
        weights, report = None, []
        if edges is not None:
            edges = [tuple(e) for e in edges]
            weights = np.array([float(e[2]) if len(e) == 3 else 0.0
                                for e in edges])
            edges = [e[:2] if len(e) == 3 else e for e in edges]
            report = [f"edge {e} weight outside [0, pi/2]"
                      for e, w in zip(edges, weights)
                      if not (0.0 <= w <= math.pi / 2 + 1e-15)]
        edge_of = self._validate(vertex_count, (faces, edges), report)
        self.weights = (np.zeros(len(self.edges)) if weights is None
                        else weights)
        if edge_of is None:
            return
        # face_edge[f, m] = index of the edge opposite vertex column m
        self.face_edge = edge_of[:, ::-1].copy()
        # the C-ordered gathers of the kernels: edge_ends[k, e] is end k of
        # edge e, and face_sides[j, f] the edge opposite, face_corners[j, f]
        # the vertex at, column j mod 3 of face f, so that the rows k:k + 3
        # of these (5, F) tables hold the columns (m + k) mod 3, m = 0, 1, 2
        self.edge_ends = self.edge_array.T.copy()
        self.face_sides, self.face_corners = (
            a.T[np.arange(5) % 3] for a in (self.face_edge, self.face_array))
        self.cos_weights = np.cos(self.weights)
        # every weight 0: adjacent circles touch, and the 2-d kernels take
        # the incircle formulas (packing2d._angles)
        self.tangent = not self.weights.any()
        self.chi = self.vertex_count - len(self.edges) + len(self.faces)
        for arr in (self.weights, self.cos_weights, self.face_edge,
                    self.face_sides, self.face_corners, self.edge_ends):
            arr.setflags(write=False)

    def edge_index(self, i, j):
        """The index of the edge {i, j}; KeyError if it is not an edge."""
        e = tuple(sorted((int(i), int(j))))
        hit = (self.edge_array == e).all(axis=1).nonzero()[0]
        if not hit.size:
            raise KeyError(e)
        return int(hit[0])

    def weight(self, i, j):
        return float(self.weights[self.edge_index(i, j)])

    def __repr__(self):
        return (f"Surface2Complex(V={self.vertex_count}, E={len(self.edges)}, "
                f"F={len(self.faces)})")


class Manifold3Complex(_Complex):
    """Closed triangulated 3-manifold (vertices, edges, triangles, tetrahedra)."""

    dim = 3
    SIMPLICES = (("tetrahedra", "tetrahedron", "tet_array"),
                 ("triangles", "triangle", None),
                 ("edges", "edge", "edge_array"))

    def __init__(self, vertex_count, tetrahedra, triangles=None, edges=None):
        tet_edge = self._validate(vertex_count, (tetrahedra, triangles, edges))
        if tet_edge is not None:
            # tet_edge[t, k] = index of the edge of the k-th column pair, in
            # the order (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
            self.tet_edge = tet_edge
            # the C-ordered gathers of the kernels: tet_columns[p, t] is the
            # vertex at column p of tetrahedron t, edge_ends[k, e] end k of e
            self.tet_columns = self.tet_array.T.copy()
            self.edge_ends = self.edge_array.T.copy()
            for arr in (tet_edge, self.tet_columns, self.edge_ends):
                arr.setflags(write=False)

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
    if not all(map(_integral, verts)):
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
    """The complex of a mesh document: an object with vertex_count, dim (2
    by default, or 3) and the simplex lists of that dimension (faces; or
    tetrahedra and optional faces), with optional edges, each a list of
    rows of vertices. A document of another shape raises
    InvalidComplexError, an unsupported dim ValueError."""
    if not isinstance(doc, Mapping):
        raise InvalidComplexError(
            [f"a mesh document is an object, got {type(doc).__name__}"])
    dim = doc.get("dim", 2)
    if dim not in (2, 3):
        raise ValueError(f"unsupported dim {dim!r}")
    top = "faces" if dim == 2 else "tetrahedra"
    faults = [f"{key} is missing" for key in ("vertex_count", top)
              if key not in doc]
    faults += [f"{key} is not a list of lists of vertices"
               for key in ("faces", "tetrahedra", "edges")
               if doc.get(key) is not None
               and not (isinstance(doc[key], list)
                        and all(isinstance(s, list) for s in doc[key]))]
    if faults:
        raise InvalidComplexError(faults)
    n, edges = doc["vertex_count"], doc.get("edges")
    if dim == 2:
        return Surface2Complex(n, doc["faces"], edges=edges)
    return Manifold3Complex(n, doc["tetrahedra"], triangles=doc.get("faces"),
                            edges=edges)


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
    """Read a metric JSON {"radii": [...]} into an array whose values are
    unchecked; a document of another shape raises ValueError."""
    with open(path) as fp:
        doc = json.load(fp)
    if not (isinstance(doc, dict) and isinstance(doc.get("radii"), list)):
        raise ValueError(f"{path}: a metric document is an object with a "
                         f"list of radii, {{\"radii\": [...]}}")
    return np.asarray(doc["radii"], dtype=float)


def save_metric(r, path):
    with open(path, "w") as fp:
        json.dump({"radii": [float(x) for x in np.asarray(r)]}, fp, indent=1)
        fp.write("\n")
