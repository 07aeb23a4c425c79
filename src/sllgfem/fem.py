"""P1 finite elements: space metadata, assembly, interpolation, nodal norms.

Matrices are scipy.sparse CSR, except the step matrix layout (StepLayout),
which is CSC for SuperLU. The quadrature rule is exact for quadratics
(3-point edge-midpoint rule on triangles, 4-point interior rule on
tetrahedra), which is exact for products of P1 gradients and is the accuracy
the scheme needs for the rotation-twisted integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, MeshError, NormalizationError
from .mesh import Mesh

# barycentric coordinates and weights, exactness degree 2
_TRI_QP = np.array([[0.5, 0.5, 0.0],
                    [0.0, 0.5, 0.5],
                    [0.5, 0.0, 0.5]])
_TRI_W = np.array([1.0, 1.0, 1.0]) / 3.0

_A = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
_B = (5.0 - np.sqrt(5.0)) / 20.0
_TET_QP = np.array([[_A, _B, _B, _B],
                    [_B, _A, _B, _B],
                    [_B, _B, _A, _B],
                    [_B, _B, _B, _A]])
_TET_W = np.array([0.25, 0.25, 0.25, 0.25])


class P1Space:
    """Continuous piecewise-linear vector elements on a simplicial mesh.

    Parameters
    ----------
    mesh : Mesh

    Attributes
    ----------
    N : int
        Node count (one vector unknown in R^3 per mesh vertex).
    phi_qp : (n_qp, dim+1) array
        Barycentric basis values at the reference quadrature points.
    grad_phi : (n_cells, dim+1, dim) read-only array
        Constant gradient of each local basis function per cell: the
        mesh's `grad_lambda`.
    quad_points : (n_cells, n_qp, dim) array
        Physical quadrature point coordinates, cell-major. Points on a
        shared facet (all of the 2D edge-midpoint rule) appear once per
        adjacent cell; a pointwise field over them keeps its own row
        layout (RotationField has one row per distinct noise value).
    quad_weights : (n_cells, n_qp) array
        Physical quadrature weights; per cell they sum to the cell measure.
    """

    def __init__(self, mesh: Mesh):
        if not isinstance(mesh, Mesh):
            raise MeshError("P1Space requires a Mesh")
        self.mesh = mesh
        self.N = mesh.n_vertices
        d = mesh.dim

        bary = _TRI_QP if d == 2 else _TET_QP
        ref_w = _TRI_W if d == 2 else _TET_W
        self.phi_qp = bary
        self.n_qp = len(bary)

        self.grad_phi = mesh.grad_lambda
        x = np.take(mesh.vertices, mesh.cells, axis=0)   # (M, d+1, d)
        # one (M,) coordinate at a time, summed over the vertices in order
        self.quad_points = np.empty((mesh.n_cells, self.n_qp, d))
        for q, weights in enumerate(bary):
            for k in range(d):
                point = weights[0] * x[:, 0, k]
                for a in range(1, d + 1):
                    point += weights[a] * x[:, a, k]
                self.quad_points[:, q, k] = point
        self.quad_weights = mesh.volumes[:, None] * ref_w[None, :]

        self._stiffness = None
        self._lumped = None
        self._pair_pattern = None
        self._step_layout = None

    # cached assemblies ---------------------------------------------------

    def stiffness(self):
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(self)
        return self._stiffness

    def lumped_mass_diagonal(self):
        if self._lumped is None:
            self._lumped = assemble_lumped_mass(self)
        return self._lumped

    def cell_pair_pattern(self):
        """CSR pattern of the node pairs that share a cell, the pattern slot
        of each local node pair, and the transpose map.

        Returns (indptr, indices, slots, transpose). The pattern has sorted
        column indices. `slots` (n_cells * (d+1)**2,) holds the slot of
        each local node pair (cells[c,l], cells[c,m]), flattened c-major,
        so np.bincount(slots, x) sums per-pair entries x onto the pattern,
        each slot's pairs in cell order. `transpose[s]` is the slot of
        (j, i) for the slot s of (i, j); the pattern is symmetric, so it is
        a permutation.
        """
        if self._pair_pattern is None:
            N, d1 = self.N, self.mesh.dim + 1
            cells = self.mesh.cells
            keys = np.empty((len(cells), d1, d1), dtype=np.int64)
            for a in range(d1):
                np.add(cells[:, a:a + 1] * N, cells, out=keys[:, a])
            keys = keys.ravel()
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            new = np.empty(len(keys), dtype=bool)
            new[0] = True
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            rows, indices = np.divmod(keys[starts], N)
            indptr = np.zeros(N + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=N), out=indptr[1:])
            slots = np.empty(len(keys), dtype=np.intp)
            slots[order] = np.cumsum(new) - 1
            # the first pair (c, l, m) of slot (i, j) has its transpose
            # (c, m, l) on slot (j, i), at a flat index d (m - l) further
            l, m = np.indices((d1, d1)).reshape(2, -1)
            shift = np.tile((d1 - 1) * (m - l), len(cells))
            first = order[starts]
            transpose = slots[first + shift[first]]
            self._pair_pattern = (indptr, indices, slots, transpose)
        return self._pair_pattern

    def step_layout(self):
        """The StepLayout of the (2N, 2N) tangent-plane step matrix."""
        if self._step_layout is None:
            self._step_layout = StepLayout(self)
        return self._step_layout

    # pointwise sampling ---------------------------------------------------

    def values_at_qp(self, u):
        """(M, n_qp, 3) samples of an (N, 3) nodal field at the points."""
        return self.phi_qp @ u[self.mesh.cells]

    def grads_at_qp(self, u):
        """(M, dim, 3) cellwise-constant gradient of an (N, 3) nodal field."""
        return np.swapaxes(self.grad_phi, 1, 2) @ u[self.mesh.cells]

    def integrate(self, values):
        """Integrate per-quadrature-point scalars of shape (M, n_qp)."""
        return float(np.sum(self.quad_weights * values))


def assemble_stiffness(space: P1Space):
    """Scalar stiffness matrix K with K[i,j] = integral of grad(phi_i).grad(phi_j).

    Returns
    -------
    scipy.sparse.csr_matrix of shape (N, N) on the pattern of
    `space.cell_pair_pattern()` (explicit zeros included), exactly
    symmetric, row sums zero. The cell matrices are symmetric entry for
    entry and the cells of slot (i, j) and of slot (j, i) are summed in
    the same order.
    """
    mesh = space.mesh
    bad = np.flatnonzero(~np.isfinite(space.grad_phi).all(axis=(1, 2)))
    if bad.size:
        raise AssemblyError(f"cell {bad[0]} has a singular geometry map")
    # the cell blocks vol grad_phi grad_phi^T, one (M,) entry at a time,
    # (l, m) and (m, l) from the same product
    g, d1 = space.grad_phi, mesh.dim + 1
    local = np.empty((mesh.n_cells, d1, d1))
    for l in range(d1):
        for m in range(l, d1):
            entry = sum(g[:, l, k] * g[:, m, k] for k in range(mesh.dim))
            entry *= mesh.volumes
            local[:, l, m] = local[:, m, l] = entry
    indptr, indices, slots, _ = space.cell_pair_pattern()
    return sp.csr_matrix((np.bincount(slots, local.ravel(), len(indices)),
                          indices, indptr), shape=(space.N, space.N))


def assemble_lumped_mass(space: P1Space):
    """Lumped mass weights (N,), each node's share of its cells' measure;
    they sum to the domain measure."""
    mesh = space.mesh
    share = mesh.volumes / (mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), np.repeat(share, mesh.dim + 1),
                       minlength=space.N)


# SuperLU's supernode relaxation and panel size for every factorization
# (_splu). On step matrices in the layout's order (2D 32^2 and 96^2, 3D 8^3
# and 10^3, one BLAS thread) they factored faster than its defaults at
# every size, by 4-31%, with the same nnz(L+U); CHANGES.md has the table.
# relax <= panel_size: relax=32 with panel_size=16 crashed scipy 1.17.1.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


def _splu(matrix, permc_spec):
    return spla.splu(matrix, permc_spec=permc_spec, relax=SUPERLU_RELAX,
                     panel_size=SUPERLU_PANEL_SIZE)


class StepLayout:
    """The fixed sparse structure of a (2N, 2N) matrix in 2x2 node blocks
    on the nonzero pattern of the stiffness K, in its fill-reducing order.

    K's explicit zeros (edges opposite right angles) are dropped: they
    would only add LU fill. Slot s of the pattern holds the block of the
    node pair (rows[s], cols[s]), in CSR order. Unknown 2n + a is node n's
    a-th coefficient (node-major), and the matrix is A[p][:, p] for the
    node-major A: it is built in the order that `factor` factors.

    Attributes
    ----------
    rows, cols : (nnz,) int arrays, the node pairs of K's nonzeros.
    values : (nnz,) K's entries on them.
    diagonal : (N,) the slot of (n, n), node by node.
    order : (2N,) the fill-reducing order p. It is the minimum-degree
        order of the scalar K + diag(L), L the lumped mass (SuperLU's MMD
        on its A^T + A), with each node's two unknowns kept side by side.
        The pattern is fixed, so the order is too.
    inverse : (2N,) argsort(order), each unknown's place in the order;
        x[inverse] takes an ordered x back to node-major.
    shape : (2N, 2N).
    """

    def __init__(self, space):
        N = space.N
        K = space.stiffness()
        keep = np.flatnonzero(K.data)
        self.rows = np.repeat(np.arange(N), np.diff(K.indptr))[keep]
        self.cols = K.indices[keep]
        self.values = K.data[keep]
        self.diagonal = np.flatnonzero(self.rows == self.cols)
        self.shape = (2 * N, 2 * N)

        scalar = self.values.copy()
        scalar[self.diagonal] += space.lumped_mass_diagonal()
        # K's pattern is symmetric, so its CSR arrays are a CSC matrix too;
        # only the order is kept: perm_c is each node's rank in it
        row_ptr = np.searchsorted(self.rows, np.arange(N + 1))
        rank = _splu(sp.csc_matrix((scalar, self.cols, row_ptr), shape=(N, N)),
                     "MMD_AT_PLUS_A").perm_c.astype(np.int64)
        self.inverse = (2 * rank[:, None] + np.arange(2)).ravel()
        self.order = np.argsort(self.inverse)
        # blocks[s, a, b] is entry (2 rank[rows[s]] + a, 2 rank[cols[s]] + b);
        # one sort of int64 keys puts them column by column, rows ascending
        new_rows = np.repeat(self.inverse.reshape(N, 2)[self.rows], 2, axis=1)
        new_cols = np.tile(self.inverse.reshape(N, 2)[self.cols], 2)
        self._gather = np.argsort((new_cols * (2 * N) + new_rows).ravel())
        self._indices = new_rows.ravel()[self._gather].astype(np.intc)
        self._indptr = np.zeros(2 * N + 1, dtype=np.intc)
        np.cumsum(np.bincount(new_cols.ravel(), minlength=2 * N),
                  out=self._indptr[1:])

    def matrix(self, blocks):
        """The ordered CSC matrix A[p][:, p] whose node-major block on slot
        s is the 2x2 blocks[s], for blocks of shape (nnz, 2, 2)."""
        data = np.take(blocks.reshape(-1), self._gather)
        return sp.csc_matrix((data, self._indices, self._indptr),
                             shape=self.shape)

    def factor(self, matrix):
        """SuperLU's LU of a matrix made by `matrix`, in its own order
        (permc_spec="NATURAL"): the order depends only on the pattern, so
        the layout computed it once. A singular factor raises
        RuntimeError."""
        return _splu(matrix, "NATURAL")


# off-diagonal stiffness entries up to this size count as nonpositive
_OFFDIAG_TOL = 1e-12


@dataclass(frozen=True)
class OffdiagReport:
    holds: bool
    worst_value: float


def check_offdiag_condition(space: P1Space):
    """Check that every off-diagonal stiffness entry is <= _OFFDIAG_TOL.

    Nonpositive off-diagonal entries are the acute-mesh condition under which
    nodal renormalization cannot increase the Dirichlet energy.
    """
    K = space.stiffness().tocoo()
    vals = K.data[K.row != K.col]
    if not vals.size:
        return OffdiagReport(True, 0.0)
    worst = float(vals.max())
    return OffdiagReport(worst <= _OFFDIAG_TOL, worst)


def interpolate_nodal(f, space: P1Space):
    """Nodal interpolant of a continuous field.

    Parameters
    ----------
    f : callable
        Vectorized: maps the (N, dim) array of node coordinates to an
        (N, 3) array. Any exception from f propagates, and a result of
        another shape raises ValueError.
    space : P1Space

    Returns
    -------
    (N, 3) array with value f(x_n) at node n.
    """
    vals = np.asarray(f(space.mesh.vertices), dtype=float)
    if vals.shape != (space.N, 3):
        raise ValueError(f"interpolated field has shape {vals.shape}, "
                         f"expected ({space.N}, 3)")
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite value at node {bad[0]}")
    return vals


def normalize_nodal(u):
    """Scale every nodal vector to unit length, preserving direction."""
    u = np.asarray(u, dtype=float)
    norms = np.linalg.norm(u, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise NormalizationError(f"zero vector at node {bad[0]}")
    return u / norms[:, None]

