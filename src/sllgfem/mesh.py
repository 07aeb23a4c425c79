"""Simplicial meshes (triangles, tetrahedra) with a plain-text file format.

Structured meshes cover the unit square or unit cube: the square is cut into
right isoceles triangles along one diagonal per cell, the cube into six
tetrahedra per sub-cube (Kuhn split, all sharing the main diagonal). Both
splits give reproducible cell counts and stiffness matrices with nonpositive
off-diagonal entries, which the normalization step of the scheme relies on.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import MeshError

def _perm_parity(p):
    q = list(p)
    sign = 1
    for i in range(len(q)):
        while q[i] != i:
            j = q[i]
            q[i], q[j] = q[j], q[i]
            sign = -sign
    return sign


class Mesh:
    """Conforming simplicial mesh in 2D or 3D.

    Parameters
    ----------
    vertices : (N, dim) float array
        Vertex coordinates, dim in {2, 3}.
    cells : (M, dim+1) int array
        Vertex indices per cell. Cells with negative signed measure are
        reoriented (last two indices swapped); zero-measure cells raise.

    Attributes
    ----------
    dim : int
    volumes : (M,) array of positive cell measures.
    h : float, largest cell diameter.
    facets : (F, dim) int array of distinct facets (edges in 2D, faces in
        3D), each row's vertex ids ascending, rows in lexicographic order.
    cell_facets : (M, dim+1) int array; entry (c, i) is the row of `facets`
        holding the facet of cell c opposite its local vertex i.
    boundary_facets : (B, dim) int array of facets owned by exactly one cell.
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
            raise MeshError("vertices must be an (N, 2) or (N, 3) array")
        dim = vertices.shape[1]
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise MeshError(f"cells must be (M, {dim + 1}) for dim={dim}")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell vertex index out of range")

        vols = _signed_measures(vertices, cells)
        flip = vols < 0
        if np.any(flip):
            cells = cells.copy()
            cells[flip, -2], cells[flip, -1] = (cells[flip, -1].copy(),
                                                cells[flip, -2].copy())
            vols = np.abs(vols)
        degenerate = np.flatnonzero(vols <= 0)
        if degenerate.size:
            raise MeshError(f"cell {degenerate[0]} is degenerate "
                            f"(measure {float(vols[degenerate[0]])!r})")

        self.dim = dim
        self.vertices = vertices
        self.cells = cells
        self.volumes = vols
        self.facets, self.cell_facets, self.boundary_facets = \
            self._find_facets()

        edges = vertices[cells]                      # (M, dim+1, dim)
        diam = 0.0
        for a in range(dim + 1):
            for b in range(a + 1, dim + 1):
                d = np.linalg.norm(edges[:, a] - edges[:, b], axis=1)
                diam = max(diam, float(d.max()))
        self.h = diam

        self.vertices.setflags(write=False)
        self.cells.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    def _find_facets(self):
        # every interior facet must be shared by exactly two cells
        d = self.dim
        local_facets = [[j for j in range(d + 1) if j != i]
                        for i in range(d + 1)]
        faces = np.sort(self.cells[:, local_facets].reshape(-1, d), axis=1)
        order = np.lexsort(faces.T[::-1])       # rows in lexicographic order
        faces = faces[order]
        new = np.ones(len(faces), dtype=bool)
        new[1:] = np.any(faces[1:] != faces[:-1], axis=1)
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(faces)))
        over = starts[counts > 2]
        if over.size:
            # report the over-shared facet met first in cell order
            first = over[np.argmin(order[over])]
            raise MeshError(f"facet {tuple(int(v) for v in faces[first])} "
                            f"shared by more than two cells")
        cell_facets = np.empty(len(faces), dtype=np.int64)
        cell_facets[order] = np.cumsum(new) - 1
        facets = faces[starts]
        return (facets, cell_facets.reshape(-1, d + 1),
                facets[counts == 1])


def _signed_measures(vertices, cells):
    x = vertices[cells]
    e = x[:, 1:, :] - x[:, :1, :]                    # (M, dim, dim)
    det = np.linalg.det(e)
    fact = 2.0 if vertices.shape[1] == 2 else 6.0
    return det / fact


def build_structured_mesh(dim, divisions, domain_size=1.0):
    """Structured simplicial mesh of the unit square or cube.

    Parameters
    ----------
    dim : {2, 3}
    divisions : int
        Number of sub-intervals per side, >= 1.
    domain_size : float
        Side length (default 1.0).

    Returns
    -------
    Mesh
        2D: 2*n^2 right isoceles triangles on (n+1)^2 vertices.
        3D: 6*n^3 Kuhn tetrahedra on (n+1)^3 vertices.
    """
    n = int(divisions)
    if n < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    side = np.linspace(0.0, float(domain_size), n + 1)

    if dim == 2:
        xx, yy = np.meshgrid(side, side, indexing="xy")
        vertices = np.column_stack([xx.ravel(), yy.ravel()])
        # lower-left corner j (n+1) + i of square (i, j), i fastest; the
        # triangles below and above the diagonal
        corner = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        local = np.array([[0, 1, n + 2], [0, n + 2, n + 1]])
        cells = corner[:, None, None] + local
        return Mesh(vertices, cells.reshape(-1, 3))

    grid = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1)
    vertices = grid.reshape(-1, 3)
    # vertex (i, j, k) has index stride . (i, j, k); sub-cubes in (i, j, k)
    # order, k fastest
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    cube = np.arange(n)
    corner = (cube[:, None, None] * stride[0] + cube[:, None] * stride[1]
              + cube).ravel()
    unit = np.eye(3, dtype=np.int64)
    local = []
    for perm in permutations(range(3)):
        # walk the cube edges in the order given by the permutation
        steps = np.vstack([np.zeros(3, dtype=np.int64), unit[list(perm)]])
        ids = np.cumsum(steps, axis=0) @ stride
        if _perm_parity(perm) < 0:
            ids[[2, 3]] = ids[[3, 2]]
        local.append(ids)
    cells = corner[:, None, None] + np.array(local)
    return Mesh(vertices, cells.reshape(-1, 4))


def write_mesh_text(mesh, path):
    """Write `dim N_vertices N_cells`, vertex lines, cell lines (0-based)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for row in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
        for cell in mesh.cells:
            fh.write(" ".join(str(int(i)) for i in cell) + "\n")


def read_mesh_text(path):
    """Read the format written by :func:`write_mesh_text`; text that does
    not describe a mesh raises MeshError naming `path`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
        if len(tokens) < 3:
            raise MeshError(f"{path}: truncated mesh header")
        dim, nv, nc = (int(t) for t in tokens[:3])
        if dim not in (2, 3):
            raise MeshError(f"{path}: dim must be 2 or 3, got {dim}")
        need = 3 + nv * dim + nc * (dim + 1)
        if len(tokens) != need:
            raise MeshError(f"{path}: expected {need} tokens, "
                            f"found {len(tokens)}")
        body = tokens[3:]
        vertices = np.array(body[:nv * dim], dtype=float).reshape(nv, dim)
        cells = np.array(body[nv * dim:], dtype=np.int64).reshape(nc, dim + 1)
    except ValueError as e:     # not ASCII text, or a token not a number
        raise MeshError(f"{path}: {e}") from None
    return Mesh(vertices, cells)
