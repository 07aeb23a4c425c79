"""Legacy VTK 3.0 BINARY output for simulation snapshots.

One file per snapshot time holding the mesh and two point vector fields:
the transformed field m and the reconstructed physical field M. 2D meshes
are written with a zero third coordinate so standard viewers accept them.

The header and section lines are text; each section's data follow as
big-endian bytes, float64 for POINTS and VECTORS, int32 for CELLS and
CELL_TYPES, with a newline after each block. The values are the arrays'
own bits, signed zeros included.
"""

from __future__ import annotations

import numpy as np

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA
_ID_MAX = np.iinfo(np.int32).max


def vtk_geometry(mesh):
    """The POINTS, CELLS and CELL_TYPES sections of a snapshot of `mesh`,
    the same bytes in every snapshot of it. A mesh whose vertex count does
    not fit int32 raises ValueError."""
    n, n_cells, nv = mesh.n_vertices, mesh.n_cells, mesh.dim + 1
    if n > _ID_MAX:
        raise ValueError(f"a legacy VTK file holds at most {_ID_MAX} "
                         f"vertices; the mesh has {n}")
    pts = np.zeros((n, 3), dtype=">f8")
    pts[:, :mesh.dim] = mesh.vertices
    cells = np.empty((n_cells, nv + 1), dtype=">i4")
    cells[:, 0] = nv
    cells[:, 1:] = mesh.cells
    types = np.full(n_cells, _CELL_TYPE[mesh.dim], dtype=">i4")
    return b"".join([
        f"POINTS {n} double\n".encode(), pts.tobytes(), b"\n",
        f"CELLS {n_cells} {cells.size}\n".encode(), cells.tobytes(), b"\n",
        f"CELL_TYPES {n_cells}\n".encode(), types.tobytes(), b"\n"])


def write_vtk(filename, mesh, m, M, comment="sllgfem snapshot",
              geometry=None):
    """Write one snapshot. m and M are (N, 3) nodal vector fields.
    `geometry` is vtk_geometry(mesh), built here unless given: a writer
    of many snapshots of one mesh builds it once."""
    m = np.asarray(m, dtype=float)
    M = np.asarray(M, dtype=float)
    n = mesh.n_vertices
    if m.shape != (n, 3) or M.shape != (n, 3):
        raise ValueError(f"fields must have shape ({n}, 3); got "
                         f"{m.shape} and {M.shape}")
    if geometry is None:
        geometry = vtk_geometry(mesh)
    title = (comment.splitlines() or [""])[0][:255]
    with open(filename, "wb") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\n"
                 f"BINARY\nDATASET UNSTRUCTURED_GRID\n".encode())
        fh.write(geometry)
        fh.write(f"POINT_DATA {n}\n".encode())
        for name, field in (("m", m), ("M", M)):
            fh.write(f"VECTORS {name} double\n".encode())
            fh.write(field.astype(">f8").tobytes())
            fh.write(b"\n")
