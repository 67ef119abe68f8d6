import numpy as np
import pytest

from animrig.geometry import (
    EmptyInputError,
    MeshFormatError,
    TriMesh,
    UnsupportedTopologyError,
    bbox_diagonal,
    load_mesh,
    save_mesh,
)
from shapes import make_cube, make_quad


QUAD_OBJ = """\
# planar quad
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3
f 1 3 4
"""


def write(tmp_path, text, name="mesh.obj"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadMesh:
    def test_quad_counts(self, tmp_path):
        mesh = load_mesh(write(tmp_path, QUAD_OBJ))
        assert mesh.num_vertices == 4
        assert mesh.num_faces == 2
        assert len(mesh.edges) == 5

    def test_empty_file_is_format_error(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_mesh(write(tmp_path, ""))

    def test_cube_edge_count_euler(self, tmp_path):
        # V - E + F = 2 for the cube: E = 8 + 12 - 2 = 18
        cube = make_cube()
        path = write(tmp_path, "")
        save_mesh(cube, path)
        mesh = load_mesh(path)
        assert len(mesh.edges) == 18
        # brute-force edge-set oracle
        seen = set()
        for f in mesh.faces:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                seen.add((min(a, b), max(a, b)))
        assert len(seen) == 18
        assert seen == {tuple(e) for e in mesh.edges.tolist()}

    def test_non_triangle_face_rejected(self, tmp_path):
        text = QUAD_OBJ + "f 1 2 3 4\n"
        with pytest.raises(UnsupportedTopologyError) as err:
            load_mesh(write(tmp_path, text))
        assert ":8" in str(err.value)

    def test_bad_coordinate_names_line(self, tmp_path):
        with pytest.raises(MeshFormatError) as err:
            load_mesh(write(tmp_path, "v 0 0 zero\nf 1 1 1\n"))
        assert ":1" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        with pytest.raises(MeshFormatError) as err:
            load_mesh(write(tmp_path, f"v 0 0 0\nv {value} 0 0\nv 0 1 0\nf 1 2 3\n"))
        assert ":2: non-finite vertex coordinate" in str(err.value)

    def test_slash_face_references(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
        mesh = load_mesh(write(tmp_path, text))
        assert mesh.num_faces == 1

    def test_unknown_lines_ignored(self, tmp_path):
        text = "vn 0 0 1\nusemtl body\n" + QUAD_OBJ
        assert load_mesh(write(tmp_path, text)).num_vertices == 4

    def test_face_index_out_of_range(self, tmp_path):
        with pytest.raises(MeshFormatError):
            load_mesh(write(tmp_path, "v 0 0 0\nf 1 2 3\n"))

    def test_roundtrip_precision(self, tmp_path, rng):
        verts = rng.normal(size=(30, 3)) * 7.3
        mesh = TriMesh(verts, [[0, 1, 2]])
        path = str(tmp_path / "round.obj")
        save_mesh(mesh, path)
        again = load_mesh(path)
        # 9 significant digits printed
        assert np.abs(again.vertices - verts).max() < 1e-7 * np.abs(verts).max()
        save_mesh(again, path)
        third = load_mesh(path)
        assert np.array_equal(third.vertices, again.vertices)


class TestTriMesh:
    def test_degenerate_face_rejected(self):
        with pytest.raises(ValueError):
            TriMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 1]])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    def test_adjacency_reconstruction_idempotent(self):
        mesh = make_cube()
        rebuilt = TriMesh(mesh.vertices, mesh.faces)
        assert np.array_equal(rebuilt.edges, mesh.edges)
        assert rebuilt.vertex_neighbors == mesh.vertex_neighbors

    def test_neighbors_match_edges(self):
        mesh = make_quad()
        for i, j in mesh.edges:
            assert j in mesh.vertex_neighbors[i]
            assert i in mesh.vertex_neighbors[j]

    def test_vertices_immutable(self):
        mesh = make_quad()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0

    def test_point_cloud_mesh_allowed(self):
        mesh = TriMesh([[1.0, 2.0, 3.0]])
        assert mesh.num_faces == 0
        assert mesh.vertex_neighbors == ((),)


class TestBboxDiagonal:
    def test_unit_cube(self):
        assert abs(bbox_diagonal(make_cube()) - np.sqrt(3.0)) < 1e-12

    def test_single_point(self):
        assert bbox_diagonal(TriMesh([[4.0, 5.0, 6.0]])) == 0.0

    def test_random_cloud_against_scan(self, rng):
        pts = rng.normal(size=(100, 3)) * 3.0
        lo = [min(p[k] for p in pts) for k in range(3)]
        hi = [max(p[k] for p in pts) for k in range(3)]
        expected = np.sqrt(sum((h - l) ** 2 for h, l in zip(hi, lo)))
        assert abs(bbox_diagonal(TriMesh(pts)) - expected) < 1e-12

    def test_empty_mesh_raises(self):
        with pytest.raises(EmptyInputError):
            bbox_diagonal(TriMesh(np.zeros((0, 3))))
