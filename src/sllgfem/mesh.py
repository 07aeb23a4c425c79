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

class Mesh:
    """Conforming simplicial mesh in 2D or 3D, the owner of cell geometry.

    Parameters
    ----------
    vertices : (N, dim) float array
        Vertex coordinates, dim in {2, 3}; a non-finite coordinate raises
        MeshError naming the vertex.
    cells : (M, dim+1) int array
        Vertex indices per cell; an index that is not an integer in
        int64's range (2.5, NaN, 2**70) raises MeshError naming the cell.
        Cells with negative signed measure are reoriented (last two
        indices swapped). No cells, a zero or non-finite cell measure or
        diameter, a cell so thin that its barycentric gradients or
        stiffness diagonal are not finite, an over-shared facet, two cells
        on one side of a facet or an unused vertex raise MeshError.

    Attributes
    ----------
    dim : int
    volumes : (M,) array of positive cell measures.
    grad_lambda : (M, dim+1, dim) read-only array, the constant gradient
        of each barycentric coordinate of each (reoriented) cell.
    h : float, largest cell diameter.
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
            raise MeshError("vertices must be an (N, 2) or (N, 3) array")
        dim = vertices.shape[1]
        cells = np.asarray(cells)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise MeshError(f"cells must be (M, {dim + 1}) for dim={dim}")
        if not len(cells):
            raise MeshError("mesh has no cells")
        if not np.can_cast(cells.dtype, np.int64):
            # ids one by one, so that 2.5 is not truncated to 2
            for c, row in enumerate(cells.tolist()):
                try:
                    ok = all(int(i) == i and -2**63 <= i < 2**63 for i in row)
                except (TypeError, ValueError, OverflowError):  # NaN, inf
                    ok = False
                if not ok:
                    raise MeshError(f"cell {c} has a vertex id that is not "
                                    f"an integer in int64's range: {row}")
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if cells.min() < 0 or cells.max() >= len(vertices):
            raise MeshError("cell vertex index out of range")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate "
                            f"{tuple(float(c) for c in vertices[bad[0]])}")

        x = np.take(vertices, cells, axis=0)           # (M, dim+1, dim)
        # grad lambda_i, i = 1..dim, starts as cofactor row i - 1
        grad = np.empty((len(cells), dim + 1, dim))
        # finite coordinates far apart can overflow: rejected, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            det = edge_determinants(x, grad[:, 1:])
            longest = _longest_edges_sq(x)
        for values, what in ((det, "measure"), (longest, "diameter")):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise MeshError(f"cell {bad[0]} has a non-finite {what}")
        flip = det < 0
        if np.any(flip):
            # swapping the last two vertices negates det E and the cofactor
            # rows and swaps the last two rows. 2D rows are signed edge
            # components, negated exactly by -0.0 - c; 3D ones are
            # differences of products, and 0.0 - c keeps a vanishing one +0,
            # as a recompute does unless it subtracts a -0 product from +0
            cells = cells.copy()
            cells[flip, -2], cells[flip, -1] = (cells[flip, -1].copy(),
                                                cells[flip, -2].copy())
            cof = grad[flip, 1:][:, [*range(dim - 2), -1, -2]]
            grad[flip, 1:] = (-0.0 if dim == 2 else 0.0) - cof
            det = np.abs(det)
        vols = det / (2.0 if dim == 2 else 6.0)
        degenerate = np.flatnonzero(vols <= 0)
        if degenerate.size:
            raise MeshError(f"cell {degenerate[0]} is degenerate "
                            f"(measure {float(vols[degenerate[0]])!r})")
        # one (M,) component at a time: the cofactor rows over det E, and
        # grad lambda_0 minus their sum. A sliver is a cell whose gradients,
        # or whose stiffness diagonal vol |grad lambda_l|^2 summed as
        # assemble_stiffness sums it, are not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(dim):
                for i in range(1, dim + 1):
                    grad[:, i, k] /= det
                np.negative(sum(grad[:, i, k] for i in range(1, dim + 1)),
                            out=grad[:, 0, k])
            diagonal = [sum(grad[:, l, k] * grad[:, l, k] for k in range(dim))
                        * vols for l in range(dim + 1)]
        sliver = np.flatnonzero(~np.isfinite(diagonal).all(axis=0))
        if sliver.size:
            raise MeshError(f"cell {sliver[0]} is too thin: its barycentric "
                            f"gradients or stiffness would overflow")

        self.dim = dim
        self.vertices = vertices
        self.cells = cells
        self.volumes = vols
        self.grad_lambda = grad
        self._check_facets()
        unused = np.bincount(cells.ravel(), minlength=len(vertices)) == 0
        if unused.any():
            raise MeshError(f"vertex {unused.argmax()} belongs to no cell")
        self.h = float(np.sqrt(longest.max()))

        for array in (vertices, cells, grad):
            array.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    def _check_facets(self):
        # every interior facet must be shared by exactly two cells, which
        # induce opposite orientations on it
        d = self.dim
        ids, odd = _sorted_rows(self.cells)             # (M, d+1), (M,)
        # facet (c, i) leaves out cell c's i-th smallest id, so it is
        # sorted too: its k-th id is ids[c, k + 1] for i <= k, else ids[c, k]
        cols = [np.take(ids, [k + 1] * (k + 1) + [k] * (d - k),
                        axis=1).ravel() for k in range(d)]
        order = np.lexsort(cols[::-1])          # rows in lexicographic order
        cols = [c[order] for c in cols]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        np.not_equal(cols[0][1:], cols[0][:-1], out=new[1:])
        for c in cols[1:]:
            new[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(order)))
        # a positively oriented cell induces the orientation (-1)^i on its
        # facet i, times its sort's parity, on the facet's ascending ids
        sign = (odd[:, None] ^ (np.arange(d + 1) % 2 == 1)).ravel()[order]
        over, two = starts[counts > 2], starts[counts == 2]
        for bad, problem in ((over, "shared by more than two cells"),
                             (two[sign[two] == sign[two + 1]],
                              "has both its cells on one side")):
            if bad.size:
                # report the bad facet met first in cell order
                first = bad[np.argmin(order[bad])]
                raise MeshError(f"facet {tuple(int(c[first]) for c in cols)} "
                                f"{problem}")


def edge_determinants(x, cofactors):
    """det E per cell, E the (dim, dim) matrix whose row i - 1 is the edge
    x_i - x_0, for cell vertex coordinates x of shape (M, dim+1, dim).

    Closed form: the 2x2 determinant in 2D, the triple product
    e1 . (e2 x e3) in 3D. `cofactors`, an (M, dim, dim) array, receives
    the rows of the cofactor matrix of E, so that
    E cofactors^T = det E I: row i - 1 is det E times the gradient of the
    barycentric coordinate lambda_i. They are (e2_y, -e2_x) and
    (-e1_y, e1_x) in 2D, and e2 x e3, e3 x e1 and e1 x e2 in 3D.
    """
    d = x.shape[2]
    # e[i][k] is component k of edge i + 1, one (M,) array each
    e = [[x[:, i, k] - x[:, 0, k] for k in range(d)]
         for i in range(1, d + 1)]
    c = cofactors
    if d == 2:
        (ax, ay), (bx, by) = e
        c[:, 0, 0], c[:, 0, 1] = by, -bx
        c[:, 1, 0], c[:, 1, 1] = -ay, ax
        return ax * by - ay * bx
    for i in range(3):
        a, b = e[(i + 1) % 3], e[(i + 2) % 3]
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            c[:, i, k] = a[k1] * b[k2] - a[k2] * b[k1]
    return e[0][0] * c[:, 0, 0] + e[0][1] * c[:, 0, 1] + e[0][2] * c[:, 0, 2]


def _sorted_rows(cells):
    """`cells` with each row's entries in ascending order, sorted by a
    sorting network over whole columns, and each row's swap parity."""
    cols = [cells[:, i] for i in range(cells.shape[1])]
    pairs = (((0, 1), (1, 2), (0, 1)) if len(cols) == 3
             else ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)))
    odd = np.zeros(len(cells), dtype=bool)
    for a, b in pairs:
        odd ^= cols[a] > cols[b]
        cols[a], cols[b] = (np.minimum(cols[a], cols[b]),
                            np.maximum(cols[a], cols[b]))
    return np.stack(cols, axis=1), odd


def _longest_edges_sq(x):
    """(M,) squared length of each cell's longest edge, for cell vertex
    coordinates x (M, dim+1, dim); squares are summed component by
    component, in order."""
    d = x.shape[2]
    longest = np.zeros(len(x))
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            sq = 0.0
            for k in range(d):
                diff = x[:, a, k] - x[:, b, k]
                sq = sq + diff * diff
            np.maximum(longest, sq, out=longest)
    return longest


def build_structured_mesh(dim, divisions):
    """Structured simplicial mesh of the unit square or cube.

    Parameters
    ----------
    dim : {2, 3}
    divisions : int
        Number of sub-intervals per side, >= 1.

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
    side = np.linspace(0.0, 1.0, n + 1)

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
        # odd permutations give negative measures, which Mesh reorients
        local.append(np.cumsum(steps, axis=0) @ stride)
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
    except (ValueError, OverflowError) as e:
        # not ASCII text, a token not a number, or an id beyond int64
        raise MeshError(f"{path}: {e}") from None
    return Mesh(vertices, cells)
