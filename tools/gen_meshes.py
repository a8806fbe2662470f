#!/usr/bin/env python3
"""Regenerate the example meshes shipped under src/packflows/data/.

The canonical complexes are constructed here; the genus-2 surface is a frozen
face list (found once by an edge-flip search for minimum vertex degree 7,
which forces 10-12 vertices on a genus-2 surface).
"""

import itertools
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "src", "packflows", "data")


def tetrahedron():
    return {"dim": 2, "vertex_count": 4,
            "faces": [list(f) for f in itertools.combinations(range(4), 3)]}


def octahedron():
    pairs = [(0, 5), (1, 4), (2, 3)]
    faces = [sorted((a, b, c))
             for a in pairs[0] for b in pairs[1] for c in pairs[2]]
    return {"dim": 2, "vertex_count": 6, "faces": sorted(faces)}


def icosahedron():
    up = [1, 2, 3, 4, 5]
    lo = [6, 7, 8, 9, 10]
    faces = []
    for k in range(5):
        faces.append([0, up[k], up[(k + 1) % 5]])
        faces.append([11, lo[k], lo[(k + 1) % 5]])
        faces.append([up[k], up[(k + 1) % 5], lo[k]])
        faces.append([lo[k], lo[(k + 1) % 5], up[(k + 1) % 5]])
    return {"dim": 2, "vertex_count": 12,
            "faces": sorted(sorted(f) for f in faces)}


def torus_7():
    faces = []
    for i in range(7):
        faces.append(sorted((i % 7, (i + 1) % 7, (i + 3) % 7)))
        faces.append(sorted((i % 7, (i + 2) % 7, (i + 3) % 7)))
    return {"dim": 2, "vertex_count": 7, "faces": sorted(faces)}


# Orientable genus-2 surface, 11 vertices, vertex degrees (7 x 10, 8 x 1).
GENUS2_FACES = [
    [0, 1, 2], [0, 1, 6], [0, 2, 10], [0, 4, 5], [0, 4, 6], [0, 5, 8],
    [0, 8, 10], [1, 2, 4], [1, 4, 7], [1, 6, 9], [1, 7, 10], [1, 9, 10],
    [2, 3, 5], [2, 3, 7], [2, 4, 5], [2, 7, 10], [3, 5, 6], [3, 6, 8],
    [3, 7, 9], [3, 8, 10], [3, 9, 10], [4, 6, 8], [4, 7, 8], [5, 6, 9],
    [5, 8, 9], [7, 8, 9],
]


def genus2():
    return {"dim": 2, "vertex_count": 11, "faces": GENUS2_FACES}


def cell5():
    return {"dim": 3, "vertex_count": 5,
            "tetrahedra": [list(t) for t in itertools.combinations(range(5), 4)]}


def cell16():
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    tets = [sorted((a, b, c, d)) for a in pairs[0] for b in pairs[1]
            for c in pairs[2] for d in pairs[3]]
    return {"dim": 3, "vertex_count": 8, "tetrahedra": sorted(tets)}


def torus3_freudenthal(n=3):
    """Kuhn subdivision of the n x n x n periodic cube grid; every vertex is
    in exactly 24 tetrahedra, so equal radii give constant negative defect."""
    def vid(x, y, z):
        return (x % n) + n * (y % n) + n * n * (z % n)

    tets = set()
    for x, y, z in itertools.product(range(n), repeat=3):
        for perm in itertools.permutations(range(3)):
            cur = [x, y, z]
            path = [vid(*cur)]
            for axis in perm:
                cur[axis] += 1
                path.append(vid(*cur))
            tets.add(tuple(sorted(path)))
    return {"dim": 3, "vertex_count": n ** 3,
            "tetrahedra": [list(t) for t in sorted(tets)]}


def grid_torus(n, m):
    """Diagonal triangulation of the n x m periodic grid (every vertex of
    degree 6); vertex (i, j) is i * m + j. Not shipped: the tests and the CLI
    corpus build it at the size they need."""
    def vid(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            faces.append([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)])
    return {"dim": 2, "vertex_count": n * m, "faces": faces}


MESHES = {
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "torus_7": torus_7,
    "genus2_11": genus2,
    "cell5": cell5,
    "cell16": cell16,
    "torus3_27": torus3_freudenthal,
}


def main():
    os.makedirs(DATA, exist_ok=True)
    for name, build in MESHES.items():
        path = os.path.join(DATA, name + ".json")
        with open(path, "w") as fp:
            json.dump(build(), fp, separators=(",", ":"))
            fp.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
