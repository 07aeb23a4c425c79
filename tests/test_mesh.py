"""Mesh construction, validation, and the text round-trip."""

from itertools import permutations

import numpy as np
import pytest

from sllgfem import Mesh, MeshError, build_structured_mesh
from sllgfem.mesh import read_mesh_text, write_mesh_text


def test_one_square_split():
    mesh = build_structured_mesh(2, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_2d_counts():
    mesh = build_structured_mesh(2, 4)
    assert mesh.n_vertices == 25
    assert mesh.n_cells == 32
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_3d_counts():
    mesh = build_structured_mesh(3, 2)
    assert mesh.n_vertices == 27
    assert mesh.n_cells == 48
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_zero_divisions_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(2, 0)


def test_bad_dim_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(4, 2)


def test_all_measures_positive():
    for dim, n in ((2, 3), (3, 2)):
        mesh = build_structured_mesh(dim, n)
        assert (mesh.volumes > 0).all()


def test_h_is_max_diameter():
    assert np.isclose(build_structured_mesh(2, 4).h, np.sqrt(2.0) / 4)
    assert np.isclose(build_structured_mesh(3, 2).h, np.sqrt(3.0) / 2)


def test_negative_cell_reoriented():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(vertices, np.array([[0, 2, 1]]))  # clockwise on input
    assert mesh.volumes[0] > 0


def test_degenerate_cell_named():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError, match="cell 0"):
        Mesh(vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vertex", [1, 3])
def test_non_finite_vertex_named(value, vertex):
    # vertex 3 belongs to no cell: the coordinates are checked first
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    vertices[vertex, 1] = value
    with pytest.raises(MeshError, match=rf"vertex {vertex} has a "
                                        rf"non-finite coordinate"):
        Mesh(vertices, np.array([[0, 1, 2]]))


def test_index_out_of_range():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="out of range"):
        Mesh(vertices, np.array([[0, 1, 3]]))


def test_overshared_facet_rejected():
    # three triangles hanging off one edge
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                         [1.0, 1.0], [-1.0, 0.5]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="more than two"):
        Mesh(vertices, cells)


def _loop_cells(dim, n):
    """The structured cells, built one sub-square or sub-cube at a time."""
    if dim == 2:
        def vid(i, j):
            return j * (n + 1) + i
        cells = []
        for j in range(n):
            for i in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
                cells += [(v00, v10, v11), (v00, v11, v01)]
        return np.array(cells)

    def vid3(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in permutations(range(3)):
                    corner = [i, j, k]
                    ids = [vid3(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        ids.append(vid3(*corner))
                    # odd permutations: swap the last two vertices
                    inversions = sum(perm[a] > perm[b] for a in range(3)
                                     for b in range(a + 1, 3))
                    if inversions % 2:
                        ids[2], ids[3] = ids[3], ids[2]
                    cells.append(tuple(ids))
    return np.array(cells)


def _loop_facets(cells, dim):
    """Distinct facets in sorted order, gathered one facet tuple at a time."""
    facets = set()
    for cell in cells:
        for i in range(dim + 1):
            facets.add(tuple(sorted(int(cell[j]) for j in range(dim + 1)
                                    if j != i)))
    return np.array(sorted(facets), dtype=np.int64)


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (2, 16),
                                   (3, 1), (3, 2), (3, 4)])
def test_structured_mesh_matches_loop_construction(dim, n):
    mesh = build_structured_mesh(dim, n)
    cells = Mesh(mesh.vertices, _loop_cells(dim, n)).cells
    assert mesh.cells.dtype == cells.dtype
    assert np.array_equal(mesh.cells, cells)
    facets = _loop_facets(cells, dim)
    assert mesh.facets.dtype == facets.dtype
    assert np.array_equal(mesh.facets, facets)


def test_overshared_facet_named_in_cell_order():
    # edge (1, 2) is over-shared first in cell order, edge (0, 1) sorts first
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0],
                         [0.0, 2.0], [0.0, 1.0], [2.0, 0.0], [-1.0, 0.5],
                         [0.5, -1.0]])
    cells = np.array([[1, 2, 5], [1, 2, 6], [1, 2, 3], [0, 1, 7],
                      [0, 1, 5], [0, 1, 8]])
    with pytest.raises(MeshError, match=r"facet \(1, 2\) shared by more"):
        Mesh(vertices, cells)


def test_arrays_read_only():
    mesh = build_structured_mesh(2, 2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.cells[0, 0] = 0


def test_text_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    mesh = build_structured_mesh(2, 3)
    jitter = rng.uniform(-0.01, 0.01, size=mesh.vertices.shape)
    inner = (mesh.vertices[:, 0] > 0) & (mesh.vertices[:, 0] < 1) \
        & (mesh.vertices[:, 1] > 0) & (mesh.vertices[:, 1] < 1)
    verts = mesh.vertices + jitter * inner[:, None]
    mesh = Mesh(verts, mesh.cells)

    p = tmp_path / "mesh.txt"
    write_mesh_text(mesh, p)
    back = read_mesh_text(p)
    assert back.dim == mesh.dim
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)

    header = p.read_text().splitlines()[0].split()
    assert header == ["2", str(mesh.n_vertices), str(mesh.n_cells)]


def test_text_round_trip_3d(tmp_path):
    mesh = build_structured_mesh(3, 2)
    p = tmp_path / "mesh3.txt"
    write_mesh_text(mesh, p)
    back = read_mesh_text(p)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 4 2\n0 0\n1 0\n")
    with pytest.raises(MeshError, match="tokens"):
        read_mesh_text(p)
