"""Legacy VTK snapshot writer."""

import numpy as np
import pytest

from sllgfem.mesh import build_structured_mesh
from sllgfem.vtkio import write_vtk


def _write(tmp_path, dim, divisions=2, comment="snap"):
    mesh = build_structured_mesh(dim, divisions)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((mesh.n_vertices, 3))
    M = rng.standard_normal((mesh.n_vertices, 3))
    out = tmp_path / "snap.vtk"
    write_vtk(out, mesh, m, M, comment=comment)
    return mesh, m, M, out.read_text().splitlines()


def test_header_and_sections_2d(tmp_path):
    mesh, m, M, lines = _write(tmp_path, 2)
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "snap"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {mesh.n_vertices} double"
    cells_at = 5 + mesh.n_vertices
    assert lines[cells_at] == f"CELLS {mesh.n_cells} {mesh.n_cells * 4}"
    types_at = cells_at + 1 + mesh.n_cells
    assert lines[types_at] == f"CELL_TYPES {mesh.n_cells}"
    assert lines[types_at + 1] == "5"     # VTK_TRIANGLE
    data_at = types_at + 1 + mesh.n_cells
    assert lines[data_at] == f"POINT_DATA {mesh.n_vertices}"
    assert lines[data_at + 1] == "VECTORS m double"
    assert lines[data_at + 2 + mesh.n_vertices] == "VECTORS M double"


def test_2d_points_get_zero_third_coordinate(tmp_path):
    mesh, _, _, lines = _write(tmp_path, 2)
    for i in range(mesh.n_vertices):
        xyz = [float(t) for t in lines[5 + i].split()]
        assert xyz[2] == 0.0
        np.testing.assert_allclose(xyz[:2], mesh.vertices[i], atol=0)


def test_tetrahedra_use_cell_type_10(tmp_path):
    mesh, _, _, lines = _write(tmp_path, 3, divisions=1)
    cells_at = 5 + mesh.n_vertices
    assert lines[cells_at] == f"CELLS {mesh.n_cells} {mesh.n_cells * 5}"
    types_at = cells_at + 1 + mesh.n_cells
    assert lines[types_at + 1] == "10"    # VTK_TETRA


def test_vector_fields_round_trip_full_precision(tmp_path):
    mesh, m, M, lines = _write(tmp_path, 2)
    data_at = 5 + mesh.n_vertices + 1 + mesh.n_cells + 1 + mesh.n_cells + 1
    m_block = lines[data_at + 1: data_at + 1 + mesh.n_vertices]
    got = np.array([[float(t) for t in row.split()] for row in m_block])
    np.testing.assert_array_equal(got, m)
    M_at = data_at + 1 + mesh.n_vertices
    M_block = lines[M_at + 1: M_at + 1 + mesh.n_vertices]
    got = np.array([[float(t) for t in row.split()] for row in M_block])
    np.testing.assert_array_equal(got, M)


def test_comment_is_truncated_to_one_line(tmp_path):
    _, _, _, lines = _write(tmp_path, 2, comment="first\nsecond")
    assert lines[1] == "first"


def test_empty_comment_writes_empty_title_line(tmp_path):
    mesh = build_structured_mesh(2, 2)
    m = np.random.default_rng(0).standard_normal((mesh.n_vertices, 3))
    empty, default = tmp_path / "empty.vtk", tmp_path / "default.vtk"
    write_vtk(empty, mesh, m, m, comment="")
    write_vtk(default, mesh, m, m)
    got = empty.read_bytes().split(b"\n")
    want = default.read_bytes().split(b"\n")
    assert got[1] == b"" and want[1] == b"sllgfem snapshot"
    assert got[:1] + got[2:] == want[:1] + want[2:]


def test_shape_mismatch_rejected(tmp_path):
    mesh = build_structured_mesh(2, 2)
    good = np.zeros((mesh.n_vertices, 3))
    bad = np.zeros((mesh.n_vertices - 1, 3))
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "x.vtk", mesh, bad, good)


def _write_line_by_line(filename, mesh, m, M, comment):
    """Reference writer: the documented layout, one line per write."""
    n, nv = mesh.n_vertices, mesh.dim + 1
    pts = np.zeros((n, 3))
    pts[:, :mesh.dim] = mesh.vertices
    with open(filename, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(comment + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        for p in pts:
            fh.write("%.17g %.17g %.17g\n" % tuple(p))
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (nv + 1)}\n")
        for cell in mesh.cells:
            fh.write(" ".join([str(nv)] + [str(int(v)) for v in cell]) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        for _ in range(mesh.n_cells):
            fh.write("5\n" if mesh.dim == 2 else "10\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, field in (("m", m), ("M", M)):
            fh.write(f"VECTORS {name} double\n")
            for row in field:
                fh.write("%.17g %.17g %.17g\n" % tuple(row))


@pytest.mark.parametrize("dim,divisions", [(2, 5), (3, 2)])
def test_bytes_match_line_by_line_writer(tmp_path, dim, divisions):
    mesh = build_structured_mesh(dim, divisions)
    rng = np.random.default_rng(dim)
    shape = (mesh.n_vertices, 3)
    # magnitudes from 1e-300 to 1e300, both signs, and signed zeros
    m = (rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape)
         * 10.0 ** rng.integers(-300, 300, shape))
    m[0] = [-0.0, 0.0, 1e-300]
    m[1] = [1e300, -1e300, -1e-300]
    M = rng.standard_normal(shape)
    M[2, 1] = -0.0
    write_vtk(tmp_path / "block.vtk", mesh, m, M, comment="snap")
    _write_line_by_line(tmp_path / "lines.vtk", mesh, m, M, "snap")
    assert ((tmp_path / "block.vtk").read_bytes()
            == (tmp_path / "lines.vtk").read_bytes())
