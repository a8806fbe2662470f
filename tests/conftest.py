import itertools

import numpy as np
import pytest

from packflows import data
from packflows.mesh import Surface2Complex


@pytest.fixture(scope="session")
def tetra():
    return data.load("tetrahedron")


@pytest.fixture(scope="session")
def octa():
    return data.load("octahedron")


@pytest.fixture(scope="session")
def icosa():
    return data.load("icosahedron")


@pytest.fixture(scope="session")
def torus7():
    return data.load("torus_7")


@pytest.fixture(scope="session")
def genus2():
    return data.load("genus2_11")


@pytest.fixture(scope="session")
def cell5():
    return data.load("cell5")


@pytest.fixture(scope="session")
def cell16():
    return data.load("cell16")


@pytest.fixture(scope="session")
def torus3():
    return data.load("torus3_27")


@pytest.fixture(scope="session")
def surfaces(tetra, octa, icosa, torus7, genus2):
    return {"tetrahedron": tetra, "octahedron": octa, "icosahedron": icosa,
            "torus_7": torus7, "genus2_11": genus2}


def random_metric(rng, n, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi, n)


def grid_torus(n, m):
    """Standard diagonal triangulation of an n x m torus grid (degree 6)."""
    def vid(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return Surface2Complex(n * m, faces)


def reweighted(c, weights):
    """The same surface with the given weight on each edge (in edge order)."""
    edges = [(i, j, w) for (i, j), w in zip(c.edges, weights)]
    return Surface2Complex(c.vertex_count, c.faces, edges=edges)


def subset_rhs_oracle(c, subset):
    """Second route to the link-boundary sum: direct scans, no link helper."""
    I = set(subset)
    total = 0.0
    for fi, f in enumerate(c.faces):
        inside = [v for v in f if v in I]
        if len(inside) == 1:
            e = tuple(sorted(w for w in f if w != inside[0]))
            total += np.pi - c.weights[c.edge_index(*e)]
    nv = len(I)
    ne = sum(1 for e in c.edges if set(e) <= I)
    nf = sum(1 for f in c.faces if set(f) <= I)
    return -total + 2.0 * np.pi * (nv - ne + nf)


def all_subsets(n):
    verts = range(n)
    for size in range(1, n):
        yield from (frozenset(s) for s in itertools.combinations(verts, size))
