"""P1 finite elements: space metadata, assembly, interpolation, nodal norms.

Matrices are scipy.sparse CSR. The quadrature rule is exact for quadratics
(3-point edge-midpoint rule on triangles, 4-point interior rule on
tetrahedra), which is exact for products of P1 gradients and is the accuracy
the scheme needs for the rotation-twisted integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    grad_phi : (n_cells, dim+1, dim) array
        Constant gradient of each local basis function per cell.
    quad_points : (n_cells, n_qp, dim) array
        Physical quadrature point coordinates.
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

        x = mesh.vertices[mesh.cells]                    # (M, d+1, d)
        edges = x[:, 1:, :] - x[:, :1, :]                # (M, d, d)
        inv = np.linalg.inv(edges)                       # columns are grad(lambda_i), i>=1
        grads = np.transpose(inv, (0, 2, 1))             # (M, d, d) rows grad(lambda_i)
        grad0 = -grads.sum(axis=1, keepdims=True)
        self.grad_phi = np.concatenate([grad0, grads], axis=1)

        self.quad_points = np.einsum("qa,cad->cqd", bary, x)
        self.quad_weights = mesh.volumes[:, None] * ref_w[None, :]

        self._stiffness = None
        self._lumped = None
        self._vec_scatter = None

    # cached assemblies ---------------------------------------------------

    def stiffness(self):
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(self)
        return self._stiffness

    def lumped_mass_diagonal(self):
        if self._lumped is None:
            self._lumped = assemble_lumped_mass(self).diagonal()
        return self._lumped

    def vector_block_indices(self):
        """Row/col index arrays for scattering (3x3-blocked) cell matrices.

        Returns (rows, cols) each of shape (n_cells, 3(d+1), 3(d+1)) where the
        local degree of freedom (l, b) maps to global index 3*cells[c,l] + b.
        """
        if self._vec_scatter is None:
            d1 = self.mesh.dim + 1
            gdof = (3 * self.mesh.cells[:, :, None]
                    + np.arange(3)[None, None, :]).reshape(-1, 3 * d1)
            rows = np.repeat(gdof[:, :, None], 3 * d1, axis=2)
            cols = np.transpose(rows, (0, 2, 1))
            self._vec_scatter = (rows, cols)
        return self._vec_scatter

    # pointwise sampling ---------------------------------------------------

    def values_at_qp(self, u):
        """Sample a nodal field at quadrature points, shape (M, n_qp, ...)."""
        return np.einsum("qa,ca...->cq...", self.phi_qp, u[self.mesh.cells])

    def grads_at_qp(self, u):
        """Cellwise-constant gradient of a nodal field, shape (M, dim, ...)."""
        return np.einsum("cad,ca...->cd...", self.grad_phi, u[self.mesh.cells])

    def integrate(self, values):
        """Integrate per-quadrature-point scalars of shape (M, n_qp)."""
        return float(np.sum(self.quad_weights * values))

    def l2_norm_sq(self, u):
        """Integral of |u|^2 for a nodal vector field (exact for P1)."""
        vals = self.values_at_qp(u)
        return self.integrate(np.sum(vals * vals, axis=-1))

    def l1_norm(self, u):
        """Quadrature approximation of the integral of |u| (Euclidean)."""
        vals = self.values_at_qp(u)
        return self.integrate(np.linalg.norm(vals, axis=-1))


def assemble_stiffness(space: P1Space):
    """Scalar stiffness matrix K with K[i,j] = integral of grad(phi_i).grad(phi_j).

    Returns
    -------
    scipy.sparse.csr_matrix of shape (N, N), symmetric, row sums zero.
    """
    mesh = space.mesh
    bad = np.flatnonzero(~np.isfinite(space.grad_phi).all(axis=(1, 2)))
    if bad.size:
        raise AssemblyError(f"cell {bad[0]} has a singular geometry map")
    local = np.einsum("c,cad,cbd->cab", mesh.volumes,
                      space.grad_phi, space.grad_phi)
    d1 = mesh.dim + 1
    rows = np.repeat(mesh.cells[:, :, None], d1, axis=2)
    cols = np.transpose(rows, (0, 2, 1))
    K = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(space.N, space.N))
    return K.tocsr()


def assemble_lumped_mass(space: P1Space):
    """Diagonal (lumped) mass matrix; trace equals the domain measure."""
    mesh = space.mesh
    diag = np.zeros(space.N)
    share = mesh.volumes / (mesh.dim + 1)
    np.add.at(diag, mesh.cells.ravel(),
              np.repeat(share, mesh.dim + 1))
    return sp.diags(diag, format="csr")


@dataclass(frozen=True)
class OffdiagReport:
    holds: bool
    worst_pair: tuple
    worst_value: float


def check_offdiag_condition(space: P1Space, tol: float = 1e-12):
    """Check that every off-diagonal stiffness entry is <= tol.

    Nonpositive off-diagonal entries are the acute-mesh condition under which
    nodal renormalization cannot increase the Dirichlet energy.
    """
    K = space.stiffness().tocoo()
    off = K.row != K.col
    if not np.any(off):
        return OffdiagReport(True, (0, 0), 0.0)
    vals = K.data[off]
    rows = K.row[off]
    cols = K.col[off]
    worst = int(np.argmax(vals))
    return OffdiagReport(bool(vals[worst] <= tol),
                         (int(rows[worst]), int(cols[worst])),
                         float(vals[worst]))


def interpolate_nodal(f, space: P1Space):
    """Nodal interpolant of a continuous field.

    Parameters
    ----------
    f : callable
        Either vectorized, mapping an (N, dim) coordinate array to (N, 3), or
        pointwise, mapping one coordinate vector to a length-3 sequence.
        f is called pointwise only when the array call raises TypeError or
        ValueError or returns the wrong shape; any other exception from f
        propagates.
    space : P1Space

    Returns
    -------
    (N, 3) array with value f(x_n) at node n.
    """
    x = space.mesh.vertices
    try:
        vals = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):     # a pointwise f given an array
        vals = None
    if vals is None or vals.shape != (space.N, 3):
        vals = np.array([f(p) for p in x], dtype=float)
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


def discrete_lp_norm(u, p, h, dim=2):
    """Nodal l^p norm (h^dim sum |u(x_n)|^p)^(1/p); p = inf gives the max.

    Equivalent, up to mesh-independent constants, to the continuous L^p norm
    of the P1 field with those nodal values. `dim` is the mesh dimension the
    scale factor h was measured on; the nodal vectors live in R^3 regardless.
    """
    u = np.asarray(u, dtype=float)
    if not (p >= 1):
        raise ValueError(f"p must be >= 1, got {p}")
    norms = np.linalg.norm(u, axis=1)
    if np.isinf(p):
        return float(norms.max(initial=0.0))
    return float((h ** dim * np.sum(norms ** p)) ** (1.0 / p))
