"""Legacy ASCII VTK output for simulation snapshots.

One file per snapshot time holding the mesh and two point vector fields:
the transformed field m and the reconstructed physical field M. 2D meshes
are written with a zero third coordinate so standard viewers accept them.
"""

from __future__ import annotations

import numpy as np

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA
_VEC_ROW = "%.17g %.17g %.17g\n"


def vtk_geometry(mesh):
    """The POINTS, CELLS and CELL_TYPES sections of a snapshot of `mesh`,
    the same text in every snapshot of it."""
    n = mesh.n_vertices
    pts = np.zeros((n, 3))
    pts[:, :mesh.dim] = mesh.vertices
    nv = mesh.dim + 1
    return "".join([
        f"POINTS {n} double\n",
        _block(_VEC_ROW, pts),
        f"CELLS {mesh.n_cells} {mesh.n_cells * (nv + 1)}\n",
        _block(" ".join(["%d"] * (nv + 1)) + "\n",
               np.column_stack([np.full(mesh.n_cells, nv), mesh.cells])),
        f"CELL_TYPES {mesh.n_cells}\n",
        f"{_CELL_TYPE[mesh.dim]}\n" * mesh.n_cells])


def write_vtk(filename, mesh, m, M, comment="sllgfem snapshot",
              geometry=None):
    """Write one snapshot. m and M are (N, 3) nodal vector fields.
    `geometry` is vtk_geometry(mesh), formatted here unless given: a
    writer of many snapshots of one mesh formats it once."""
    m = np.asarray(m, dtype=float)
    M = np.asarray(M, dtype=float)
    n = mesh.n_vertices
    if m.shape != (n, 3) or M.shape != (n, 3):
        raise ValueError(f"fields must have shape ({n}, 3); got "
                         f"{m.shape} and {M.shape}")
    if geometry is None:
        geometry = vtk_geometry(mesh)
    with open(filename, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write((comment.splitlines() or [""])[0][:255] + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(geometry)
        fh.write(f"POINT_DATA {n}\n")
        for name, field in (("m", m), ("M", M)):
            fh.write(f"VECTORS {name} double\n")
            fh.write(_block(_VEC_ROW, field))


def _block(row_format, rows):
    """All rows of a 2D array, each formatted with row_format, as one
    string."""
    return (row_format * len(rows)) % tuple(rows.ravel().tolist())
