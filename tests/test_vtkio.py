"""Legacy VTK 3.0 BINARY snapshot writer."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from sllgfem import load_config, run
from sllgfem.mesh import build_structured_mesh
from sllgfem.reconstruct import reconstruct_M
from sllgfem.studies import run_study
from sllgfem.vtkio import vtk_geometry, write_vtk
from sllgfem.wiener import sample_path

# the dtype of the block of big-endian values after each section line,
# and the line's value count as a function of n, the POINTS count, and
# the line's numbers
_BLOCKS = {"POINTS": (">f8", lambda n, *_: 3 * n),
           "CELLS": (">i4", lambda n, n_cells, size: size),
           "CELL_TYPES": (">i4", lambda n, n_cells: n_cells),
           "POINT_DATA": (None, lambda n, _: 0),
           "VECTORS": (">f8", lambda n: 3 * n)}


def _decode(data):
    """The four header lines and the (section line, values) pairs of a
    binary legacy VTK file, values None for POINT_DATA."""
    lines = iter(data.split(b"\n", 4))
    header = [next(lines).decode() for _ in range(4)]
    rest, sections, n = next(lines), [], None
    while rest:
        text, rest = rest.split(b"\n", 1)
        text = text.decode()
        word, *words = text.split()
        numbers = [int(t) for t in words if t.isdigit()]
        n = numbers[0] if word == "POINTS" else n
        dtype, count = _BLOCKS[word]
        if dtype is None:
            sections.append((text, None))
            continue
        size = count(n, *numbers) * np.dtype(dtype).itemsize
        sections.append((text, np.frombuffer(rest[:size], dtype=dtype)))
        assert rest[size:size + 1] == b"\n"
        rest = rest[size + 1:]
    return header, sections


def _write(tmp_path, dim, divisions=2, comment="snap"):
    mesh = build_structured_mesh(dim, divisions)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((mesh.n_vertices, 3))
    M = rng.standard_normal((mesh.n_vertices, 3))
    out = tmp_path / "snap.vtk"
    write_vtk(out, mesh, m, M, comment=comment)
    return (mesh, m, M) + _decode(out.read_bytes())


def test_header_and_sections_2d(tmp_path):
    mesh, m, M, header, sections = _write(tmp_path, 2)
    assert header == ["# vtk DataFile Version 3.0", "snap", "BINARY",
                      "DATASET UNSTRUCTURED_GRID"]
    n, n_cells = mesh.n_vertices, mesh.n_cells
    assert [text for text, _ in sections] == [
        f"POINTS {n} double", f"CELLS {n_cells} {n_cells * 4}",
        f"CELL_TYPES {n_cells}", f"POINT_DATA {n}", "VECTORS m double",
        "VECTORS M double"]
    cells = sections[1][1].reshape(n_cells, 4)
    np.testing.assert_array_equal(cells[:, 0], 3)
    np.testing.assert_array_equal(cells[:, 1:], mesh.cells)
    np.testing.assert_array_equal(sections[2][1], 5)       # VTK_TRIANGLE


def test_2d_points_get_zero_third_coordinate(tmp_path):
    mesh, _, _, _, sections = _write(tmp_path, 2)
    xyz = sections[0][1].reshape(-1, 3)
    assert xyz.shape == (mesh.n_vertices, 3)
    assert np.signbit(xyz[:, 2]).sum() == 0 and not xyz[:, 2].any()
    np.testing.assert_array_equal(xyz[:, :2], mesh.vertices)


def test_tetrahedra_use_cell_type_10(tmp_path):
    mesh, _, _, _, sections = _write(tmp_path, 3, divisions=1)
    assert sections[1][0] == f"CELLS {mesh.n_cells} {mesh.n_cells * 5}"
    np.testing.assert_array_equal(
        sections[1][1].reshape(-1, 5)[:, 1:], mesh.cells)
    np.testing.assert_array_equal(sections[2][1], 10)      # VTK_TETRA


def test_vector_fields_round_trip_full_precision(tmp_path):
    _, m, M, _, sections = _write(tmp_path, 2)
    for (_, values), field in zip(sections[4:], (m, M)):
        assert values.tobytes() == field.astype(">f8").tobytes()
        np.testing.assert_array_equal(values.reshape(-1, 3), field)


def test_comment_is_truncated_to_one_line(tmp_path):
    *_, header, _ = _write(tmp_path, 2, comment="first\nsecond")
    assert header[1] == "first"


def test_empty_comment_writes_empty_title_line(tmp_path):
    mesh = build_structured_mesh(2, 2)
    m = np.random.default_rng(0).standard_normal((mesh.n_vertices, 3))
    empty, default = tmp_path / "empty.vtk", tmp_path / "default.vtk"
    write_vtk(empty, mesh, m, m, comment="")
    write_vtk(default, mesh, m, m)
    got = empty.read_bytes().split(b"\n", 2)
    want = default.read_bytes().split(b"\n", 2)
    assert got[1] == b"" and want[1] == b"sllgfem snapshot"
    assert got[:1] + got[2:] == want[:1] + want[2:]


def test_shape_mismatch_rejected(tmp_path):
    mesh = build_structured_mesh(2, 2)
    good = np.zeros((mesh.n_vertices, 3))
    bad = np.zeros((mesh.n_vertices - 1, 3))
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "x.vtk", mesh, bad, good)


def test_vertex_count_beyond_int32_rejected():
    # vertex ids are written as int32: a count past its range is an error,
    # not a wrapped id; nothing of the mesh is read before the check
    mesh = SimpleNamespace(n_vertices=2**31, n_cells=1, dim=2,
                           vertices=None, cells=None)
    with pytest.raises(ValueError, match="2147483648"):
        vtk_geometry(mesh)


def _write_record_by_record(filename, mesh, m, M, comment):
    """Reference writer: the documented layout, one record per write."""
    n, nv = mesh.n_vertices, mesh.dim + 1
    pts = np.zeros((n, 3))
    pts[:, :mesh.dim] = mesh.vertices
    with open(filename, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\n")
        fh.write(comment.encode() + b"\n")
        fh.write(b"BINARY\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n".encode())
        for p in pts:
            fh.write(struct.pack(">ddd", *p))
        fh.write(b"\n")
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (nv + 1)}\n"
                 .encode())
        for cell in mesh.cells:
            fh.write(struct.pack(">" + "i" * (nv + 1), nv,
                                 *(int(v) for v in cell)))
        fh.write(b"\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n".encode())
        for _ in range(mesh.n_cells):
            fh.write(struct.pack(">i", 5 if mesh.dim == 2 else 10))
        fh.write(b"\n")
        fh.write(f"POINT_DATA {n}\n".encode())
        for name, field in (("m", m), ("M", M)):
            fh.write(f"VECTORS {name} double\n".encode())
            for row in field:
                fh.write(struct.pack(">ddd", *row))
            fh.write(b"\n")


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
    _write_record_by_record(tmp_path / "records.vtk", mesh, m, M, "snap")
    assert ((tmp_path / "block.vtk").read_bytes()
            == (tmp_path / "records.vtk").read_bytes())


@pytest.mark.parametrize("dim,divisions", [(2, 5), (3, 2)])
def test_geometry_formatted_once_serves_every_snapshot(tmp_path, dim,
                                                       divisions):
    # as a study's snapshot writer does: one vtk_geometry, many files
    mesh = build_structured_mesh(dim, divisions)
    geometry = vtk_geometry(mesh)
    rng = np.random.default_rng(dim)
    for j in range(3):
        m, M = rng.standard_normal((2, mesh.n_vertices, 3))
        write_vtk(tmp_path / "shared.vtk", mesh, m, M, comment=f"step {j}",
                  geometry=geometry)
        _write_record_by_record(tmp_path / "records.vtk", mesh, m, M,
                                f"step {j}")
        assert ((tmp_path / "shared.vtk").read_bytes()
                == (tmp_path / "records.vtk").read_bytes())


def test_study_snapshots_decode_to_the_runs_fields(tmp_path, monkeypatch):
    # a single study's snapshot files hold, bit for bit, the m of an
    # independent run of its trajectory and reconstruct_M of it at the
    # snapshot steps: 0, every 2 steps and J
    monkeypatch.setenv("SLLGFEM_WORKERS", "1")
    ini = tmp_path / "single.ini"
    ini.write_text(f"""\
[mesh]
divisions = 6
[scheme]
J = 5
T = 0.05
[noise]
preset = pair-noncommuting
[initial]
preset = spiral
tilt = 0.3
[run]
seed = 3
snapshots = 2
out = {tmp_path / "out"}
""")
    cfg = load_config(str(ini))
    run_study(cfg)

    space = cfg.build_space()
    coeffs = cfg.build_noise()
    p = cfg.params
    path = sample_path(cfg.seed, coeffs.q, p.J, p.T, stream=0)
    want = {}

    def record(step):
        if step.j == 0:
            want[0] = (step.m.copy(), reconstruct_M(step.m, step.field))
        want[step.j + 1] = (step.m_next.copy(),
                            reconstruct_M(step.m_next, step.field_next))

    run(cfg.initial_field(space), p, path, coeffs, space,
        observers=[record])
    names = sorted(f.name for f in (tmp_path / "out").glob("snap_*.vtk"))
    assert names == [f"snap_{j:06d}.vtk" for j in (0, 2, 4, 5)]
    for j in (0, 2, 4, 5):
        header, sections = _decode(
            (tmp_path / "out" / f"snap_{j:06d}.vtk").read_bytes())
        assert header[1] == f"step {j} seed 3 stream 0"
        got_m, got_M = (values.reshape(-1, 3) for _, values in sections[4:])
        m, M = want[j]
        assert got_m.tobytes() == m.astype(">f8").tobytes()
        assert got_M.tobytes() == M.astype(">f8").tobytes()
