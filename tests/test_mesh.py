import itertools
import json
from importlib import resources

import numpy as np
import pytest

from conftest import gen_meshes, grid_torus, index_oracle, two_copies
from packflows import data
from packflows.admissibility import subset_rhs
from packflows.errors import InvalidComplexError
from packflows.flows2d import FlowSpec, run
from packflows.mesh import (Manifold3Complex, Surface2Complex,
                            euler_characteristic, load_mesh, mesh_from_dict,
                            mesh_to_dict, save_mesh)


def test_euler_characteristic(tetra, octa, icosa, torus7, genus2):
    assert euler_characteristic(tetra) == 2
    assert euler_characteristic(octa) == 2
    assert euler_characteristic(icosa) == 2
    assert euler_characteristic(torus7) == 0
    # counted directly on the shipped mesh: 11 - 39 + 26
    assert euler_characteristic(genus2) == -2
    assert genus2.vertex_count - len(genus2.edges) + len(genus2.faces) == -2


def test_face_edge_count_relation(surfaces):
    for c in surfaces.values():
        assert 3 * len(c.faces) == 2 * len(c.edges)


def test_tet_edge_names_the_edge_of_each_column_pair(cell5, cell16, torus3):
    pairs = list(itertools.combinations(range(4), 2))
    for c in (cell5, cell16, torus3):
        assert c.tet_edge.shape == (len(c.tetrahedra), 6)
        assert not c.tet_edge.flags.writeable
        for tet, row in zip(c.tet_array, c.tet_edge):
            for (a, b), e in zip(pairs, row):
                assert c.edges[e] == (tet[a], tet[b])
        # every edge lies in some tetrahedron
        assert set(c.tet_edge.ravel()) == set(range(len(c.edges)))


def test_genus2_min_degree(genus2):
    deg = genus2.degrees()
    assert deg.min() == 7
    assert sorted(deg) == [7] * 10 + [8]


def test_induced_euler_full_complex_recovers_chi(surfaces):
    # the induced count on all vertices equals chi(M); exercised via the
    # formula on a near-full subset plus the direct count
    for c in surfaces.values():
        n = c.vertex_count
        nv, ne, nf = n, len(c.edges), len(c.faces)
        assert nv - ne + nf == euler_characteristic(c)


def test_subset_validation(tetra):
    with pytest.raises(ValueError):
        subset_rhs(tetra, set())
    with pytest.raises(ValueError):
        subset_rhs(tetra, {0, 1, 2, 3})
    with pytest.raises(ValueError):
        subset_rhs(tetra, {0, 9})


def test_validate_good_complexes(surfaces, cell5, cell16, torus3):
    for c in surfaces.values():
        assert c.validate() == []
    assert cell5.validate() == []
    assert cell16.validate() == []
    assert torus3.validate() == []


def test_validate_edge_in_three_faces():
    c = Surface2Complex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4),
                            (2, 3, 4), (0, 2, 4), (1, 2, 3)])
    report = c.validate()
    assert any("(0, 1)" in msg and "3 faces" in msg for msg in report)
    with pytest.raises(InvalidComplexError):
        c.require_valid()


def test_validate_bad_indices_and_weights():
    c = Surface2Complex(3, [(0, 1, 7)])
    assert any("outside" in m for m in c.validate())
    c2 = Surface2Complex(4, list(itertools.combinations(range(4), 3)),
                         edges=[(i, j, 2.0) for i, j in
                                itertools.combinations(range(4), 2)])
    assert any("weight" in m for m in c2.validate())


def test_validate_duplicates():
    faces = list(itertools.combinations(range(4), 3)) + [(0, 1, 2)]
    c = Surface2Complex(4, faces)
    assert any("duplicate" in m for m in c.validate())


def test_validate_3d_triangle_in_three_tets(cell5):
    tets = list(cell5.tetrahedra) + [(0, 1, 2, 3)]
    c = Manifold3Complex(5, tets)
    assert any("duplicate" in m for m in c.validate())
    c2 = Manifold3Complex(6, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
    assert any("3 tetrahedra" in m for m in c2.validate())


def test_validate_3d_missing_subsimplex(cell5):
    tris = [t for t in cell5.triangles if t != (0, 1, 2)]
    c = Manifold3Complex(5, cell5.tetrahedra, triangles=tris)
    assert any("not listed" in m for m in c.validate())


def test_validate_3d_stray_listed_edge(cell16):
    # an edge in no tetrahedron (between antipodal vertices) once passed,
    # giving E = 25, while the 2-d check refused the same case
    edges = list(cell16.edges) + [(0, 1)]
    c = Manifold3Complex(8, cell16.tetrahedra, edges=edges)
    assert c.validate() == ["edge (0, 1) in no tetrahedron"]
    with pytest.raises(InvalidComplexError, match="no tetrahedron"):
        c.require_valid()
    tris = list(cell16.triangles) + [(0, 1, 2)]
    c2 = Manifold3Complex(8, cell16.tetrahedra, triangles=tris, edges=edges)
    assert "triangle (0, 1, 2) in 0 tetrahedra != 2" in c2.validate()


@pytest.mark.parametrize("vertex_count, faces, fault", [
    (4, [(0.5, 1, 2)], "face (0.5, 1, 2) is not 3 integral vertices"),
    (4, [(True, 2, 3)], "face (True, 2, 3) is not 3 integral vertices"),
    (4, [("0", 1, 2)], "face ('0', 1, 2) is not 3 integral vertices"),
    (4, [(0, 1)], "face (0, 1) is not 3 integral vertices"),
    (4, [(1, 0, 1)], "face (0, 1, 1) repeats a vertex"),
    (4, [(0, 1, 7)], "face (0, 1, 7) has a vertex index outside [0, 4)"),
    (4.7, [], "vertex_count must be a positive integer below 2 ** (63 / 2), "
              "got 4.7"),
    (True, [], "vertex_count must be a positive integer below"),
    (-4, [], "vertex_count must be a positive integer below"),
    # a surface's int64 keys reach vertex_count ** 2
    (2 ** 32, [], "vertex_count must be a positive integer below"),
])
def test_validate_refuses_malformed_entries(tetra, vertex_count, faces,
                                           fault):
    # entries were once cast with int(): the face (0.5, 1, 2) became a valid
    # (0, 1, 2) and vertex_count 4.7 became 4
    c = Surface2Complex(vertex_count, faces + list(tetra.faces)[len(faces):])
    assert any(m.startswith(fault) for m in c.validate()), c.validate()
    with pytest.raises(InvalidComplexError):
        c.require_valid()
    doc = {"dim": 2, "vertex_count": vertex_count,
           "faces": [list(f) for f in c.faces]}
    assert not mesh_from_dict(doc).is_valid


def test_integral_floats_and_numpy_integers_are_vertices(tetra, cell5):
    faces = [tuple(float(v) for v in f) for f in tetra.faces]
    c = Surface2Complex(4.0, faces)
    assert c.is_valid and c.vertex_count == 4 and c.faces == tetra.faces
    assert type(c.vertex_count) is int
    assert all(type(v) is int for f in c.faces for v in f)
    c3 = Manifold3Complex(np.int64(5), cell5.tet_array)
    assert c3.is_valid and c3.tetrahedra == cell5.tetrahedra
    assert np.array_equal(c3.tet_edge, cell5.tet_edge)


def _bundled_doc(name):
    path = resources.files("packflows").joinpath(f"data/{name}.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("doc", [
    *(pytest.param(_bundled_doc(name), id=name) for name in data.available()),
    pytest.param(gen_meshes.grid_torus(4, 7), id="grid_torus_4x7"),
    pytest.param(gen_meshes.grid_torus(20, 20), id="grid_torus_20x20"),
    pytest.param(gen_meshes.torus3_freudenthal(7), id="torus3_freudenthal_7"),
    pytest.param({"dim": 2, "vertex_count": 4,
                  "faces": [[2, 1, 0], [0, 1, 3], [3, 2, 0], [1, 2, 3]],
                  "edges": [[3, 2, 0.3], [1, 0, 0.5], [1, 3], [0, 2, 0.1],
                            [2, 1, 1.0], [0, 3]]}, id="listed_weighted"),
])
def test_index_matches_the_dict_oracle(doc):
    c = mesh_from_dict(doc)
    assert c.is_valid
    top = doc["faces"] if c.dim == 2 else doc["tetrahedra"]
    want = index_oracle(c.dim, top, doc.get("edges"))
    assert c.edges == want["edges"]
    assert np.array_equal(c.edge_array, np.array(want["edges"]))
    if c.dim == 2:
        assert c.face_edge.dtype == want["face_edge"].dtype
        assert np.array_equal(c.face_edge, want["face_edge"])
        assert not c.face_edge.flags.writeable
        # the gathers of column (m + k) mod 3, k = 0, 1, 2
        for k in range(3):
            cols = (np.arange(3) + k) % 3
            assert np.array_equal(c.face_sides[k], want["face_edge"][:, cols])
            assert np.array_equal(c.face_corners[k], c.face_array[:, cols])
        for a in (c.face_sides, c.face_corners):
            assert a.flags.c_contiguous and not a.flags.writeable
        # degrees() counts faces; on a closed surface that is the edge degree
        assert c.degrees().tolist() == np.bincount(
            np.ravel(want["edges"]), minlength=c.vertex_count).tolist()
        for e, w in zip(doc.get("edges", []), c.weights):
            assert c.weight(e[0], e[1]) == w == (e[2] if len(e) == 3 else 0)
    else:
        assert c.triangles == want["triangles"]
        assert np.array_equal(c.tet_edge, want["tet_edge"])
        assert c.degrees().tolist() == np.bincount(
            np.ravel(top), minlength=c.vertex_count).tolist()


def test_validate_disconnected(tetra, cell5):
    # two disjoint spheres once passed validation, and the normalized Ricci
    # flow from unit radii then reported convergence after 0 steps
    surface = Surface2Complex(8, two_copies(tetra.faces, 4))
    solid = Manifold3Complex(10, two_copies(cell5.tetrahedra, 5))
    for c, half in ((surface, 4), (solid, 5)):
        assert c.validate() == [f"complex is disconnected: {half} of "
                                f"{2 * half} vertices are not joined to "
                                f"vertex 0"]
        with pytest.raises(InvalidComplexError, match="disconnected"):
            c.require_valid()
    with pytest.raises(InvalidComplexError, match="disconnected"):
        run(FlowSpec("ricci_normalized"), surface, np.ones(8))


def test_mesh_json_roundtrip(tmp_path, genus2, cell16):
    p = tmp_path / "m.json"
    save_mesh(genus2, p)
    c = load_mesh(p)
    assert c.faces == genus2.faces
    assert c.vertex_count == genus2.vertex_count
    save_mesh(cell16, p)
    c3 = load_mesh(p)
    assert c3.tetrahedra == cell16.tetrahedra


def test_edge_index_takes_either_order_and_refuses_a_non_edge(octa):
    edges = set(octa.edges)
    for i, j in itertools.combinations(range(octa.vertex_count), 2):
        if (i, j) in edges:
            k = octa.edge_index(j, i)
            assert octa.edge_index(i, j) == k and octa.edges[k] == (i, j)
        else:
            with pytest.raises(KeyError):
                octa.edge_index(i, j)


def test_mesh_json_weights_and_inference(tmp_path):
    doc = {"dim": 2, "vertex_count": 4,
           "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
           "edges": [[0, 1, 0.5], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
    c = mesh_from_dict(doc)
    assert c.is_valid
    assert c.weight(0, 1) == 0.5
    assert c.weight(2, 3) == 0.0
    # edges omitted entirely: inferred with zero weights
    c2 = mesh_from_dict({"dim": 2, "vertex_count": 4, "faces": doc["faces"]})
    assert len(c2.edges) == 6
    assert np.all(c2.weights == 0.0)
    back = mesh_to_dict(c)
    assert any(len(e) == 3 and e[2] == 0.5 for e in back["edges"])


def test_grid_torus_helper():
    c = grid_torus(4, 7)
    assert c.is_valid
    assert euler_characteristic(c) == 0
    assert set(c.degrees()) == {6}
