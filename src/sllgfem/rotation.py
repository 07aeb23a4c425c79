"""Pathwise rotation field Z_t(x), its gradient xi_t(x), and the F functional.

The magnetization transform m = Z^T M hinges on the matrix process
dZ = sum_i G_i Z o dW_i with skew generators G_i u = u x g_i(x). One time
step multiplies Z on the left by the exponential of the accumulated skew
increment (a closed-form Rodrigues rotation), which keeps Z exactly
orthogonal for any step size and discretizes the Stratonovich equation with
strong order at least 1/2.

The gradient field xi = grad Z is direction-indexed (one 3x3 matrix per
spatial direction) and follows the linear Ito equation
dxi = 1/2 sum_i (G_i^2 xi + H_i Z) dt + sum_i (G_i xi + I_i Z) dW_i,
advanced by Euler-Maruyama with Z frozen at the left endpoint. Here
I_i u = u x dg_i/dx_d per direction d, and H_i = I_i G_i + G_i I_i. A step
sums over the noise index before it touches xi: with
M = 1/2 k sum_i G_i^2 + sum_i dW_i G_i and N_d = 1/2 k sum_i H_i
+ sum_i dW_i I_i, it is xi_d <- xi_d + M xi_d + N_d Z, two stacked 3x3
matrix products per point. The drift sums are fixed by the noise
coefficients, so they are formed once per field.

Both equations are pointwise in x, so the field is evolved once per point
that is read, and no point twice: Z at the distinct quadrature points
(P1Space.distinct_points, where the 2D edge-midpoint rule shares each
interior point between two triangles) and at the vertices, which
reconstruct_M reads; xi at the distinct quadrature points only, since only
quadrature sums read it.

F(t, u, v) = <grad(Z u), grad(Z v)> - <grad u, grad v> is the stochastic
correction that appears as an extra load in the scheme. Two routes compute
it: the identity form (from the current Z, xi only) and an Ito-sum
accumulation of the increment densities F_1i, F_2i along the whole path.
The accumulation uses the gradient-pairing form of the densities
(F_1i = <B_i Zu, grad Zv> + <grad Zu, B_i Zv> + <I_i Zu, I_i Zv> with
B_i = 1/2 H_i - G_i I_i, and F_2i = <I_i Zu, grad Zv> + <grad Zu, I_i Zv>),
which is the exact pathwise differential of <grad Zu, grad Zv> for any
coefficients, needs only first derivatives of g_i, and is manifestly
symmetric in (u, v).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def cross_matrix(a):
    """Matrix C(a) with C(a) u = a x u, for a of shape (..., 3)."""
    a = np.asarray(a, dtype=float)
    C = np.zeros(a.shape[:-1] + (3, 3))
    C[..., 0, 1] = -a[..., 2]
    C[..., 0, 2] = a[..., 1]
    C[..., 1, 0] = a[..., 2]
    C[..., 1, 2] = -a[..., 0]
    C[..., 2, 0] = -a[..., 1]
    C[..., 2, 1] = a[..., 0]
    return C


def rodrigues_exp(w):
    """Closed-form exp(C(w)) for w of shape (..., 3).

    Rotation about w/|w| by the angle |w|; series expansion of the two
    scalar coefficients keeps the small-angle branch accurate to machine
    precision, and w = 0 returns the identity exactly.
    """
    w = np.asarray(w, dtype=float)
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small,
                     1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0,
                     np.sin(theta) / np.where(small, 1.0, theta))
        c = np.where(small,
                     0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    C = cross_matrix(w)
    eye = np.broadcast_to(np.eye(3), C.shape)
    return eye + s[..., None, None] * C + c[..., None, None] * (C @ C)


def evolve_point_rotation(gvals, increments, Z0=None):
    """Run the exponential integrator at fixed points with constant g's.

    Parameters
    ----------
    gvals : (q, 3) array
        Constant coefficient vectors.
    increments : (..., J, q) array
        Wiener increments; leading axes are independent paths.
    Z0 : optional (..., 3, 3) initial rotations, identity by default.

    Returns
    -------
    (..., 3, 3) array of rotations after J steps.
    """
    gvals = np.asarray(gvals, dtype=float)
    increments = np.asarray(increments, dtype=float)
    J = increments.shape[-2]
    Z = (np.broadcast_to(np.eye(3), increments.shape[:-2] + (3, 3)).copy()
         if Z0 is None else np.array(Z0, dtype=float))
    for j in range(J):
        a = increments[..., j, :] @ gvals          # (..., 3)
        Z = rodrigues_exp(-a) @ Z
    return Z


class RotationField:
    """Z and xi at the points where they are read.

    Z and xi solve equations that are pointwise in x, so each is evolved
    once per distinct point. Z has one row per distinct quadrature point
    (space.distinct_points) followed by one per vertex; xi, which only
    quadrature sums read, has the quadrature rows alone. Z_quad and xi_quad
    gather them cell-major through space.qp_index (views when no point is
    shared, as in 3D); Z_nodes are the vertex rows. Snapshots are
    immutable: each evolve_step returns a new field at index j+1 sharing
    the cached coefficient tensors.
    """

    def __init__(self, space, coeffs, j, Z, xi, cache):
        self.space = space
        self.coeffs = coeffs
        self.j = int(j)
        self.Z = Z
        self.xi = xi
        self._cache = cache
        Z.setflags(write=False)
        xi.setflags(write=False)

    # views ---------------------------------------------------------------

    @property
    def Z_quad(self):
        """(n_cells, n_qp, 3, 3); a copy where points are shared, so read it
        once per use."""
        s = self.space
        return self.Z[:len(self.xi)][s.qp_index].reshape(
            s.mesh.n_cells, s.n_qp, 3, 3)

    @property
    def Z_nodes(self):
        return self.Z[len(self.xi):]

    @property
    def xi_quad(self):
        """(n_cells, n_qp, dim, 3, 3); a copy where points are shared, so read
        it once per use."""
        s = self.space
        return self.xi[s.qp_index].reshape(s.mesh.n_cells, s.n_qp,
                                           s.mesh.dim, 3, 3)

    def orthogonality_defect(self):
        """max over points of ||Z^T Z - I||_F."""
        G = np.swapaxes(self.Z, 1, 2) @ self.Z - np.eye(3)
        return float(np.sqrt(np.sum(G * G, axis=(1, 2))).max())


def _coefficient_cache(space, coeffs):
    """Noise coefficients at the field's points, in the form the steps use.

    "g" (q, P + N, 3) holds the vectors g_i at the P distinct quadrature
    points, then the N vertices (the rows of RotationField.Z). The rest
    feed only the xi update and so hold the P quadrature rows alone: "dg"
    (q, P, dim, 3) the derivatives dg_i/dx_d, "G2" (P, 3, 3) sum_i G_i^2
    and "H" (P, dim, 3, 3) sum_i H_i, with H_i = I_i G_i + G_i I_i per
    direction. A step contracts g and dg with its increments and builds
    sum_i dW_i G_i and sum_i dW_i I_i from the results; the drift of xi
    does not depend on the increments, so only its sums over the noise
    index are kept.
    """
    qp = space.distinct_points
    g = coeffs.g_at(np.vstack([qp, space.mesh.vertices]))   # (q, P+N, 3)
    dg = np.moveaxis(coeffs.jac_at(qp), -1, 2)      # (q, P, dim, 3)
    G = -cross_matrix(g[:, :len(qp)])               # matrix of u -> u x g
    Ii = -cross_matrix(dg)                          # (q, P, dim, 3, 3)
    G2 = np.sum(G @ G, axis=0)
    H = np.sum(Ii @ G[:, :, None] + G[:, :, None] @ Ii, axis=0)
    return {"g": g, "dg": dg, "G2": G2, "H": H}


def init_rotation_field(space, coeffs):
    """Field at time index 0: Z = I and xi = 0 at every point."""
    cache = _coefficient_cache(space, coeffs)
    Z = np.tile(np.eye(3), (cache["g"].shape[1], 1, 1))
    xi = np.zeros(cache["dg"].shape[1:] + (3,))
    return RotationField(space, coeffs, 0, Z, xi, cache)


def evolve_step(field, dW, k):
    """Advance Z by one exponential step and xi by one Euler-Maruyama step.

    Parameters
    ----------
    field : RotationField at index j
    dW : (q,) increments of step j
    k : time step (the Wiener increments have variance k)

    Returns
    -------
    RotationField at index j + 1.
    """
    dW = np.asarray(dW, dtype=float).reshape(-1)
    if dW.shape[0] != field.coeffs.q:
        raise ValueError(f"expected {field.coeffs.q} increments, got {dW.shape[0]}")
    if not np.isfinite(dW).all():
        raise ValueError("non-finite Wiener increment")
    if not k > 0:
        raise ValueError(f"time step must be positive, got {k}")
    c = field._cache
    a = np.einsum("i,ipa->pa", dW, c["g"])
    Z1 = rodrigues_exp(-a) @ field.Z

    # xi lives on the first P rows of Z, the quadrature points.
    # G u = u x g = -g x u, so sum_i dW_i G_i = C(-a), likewise for I_i
    P = len(field.xi)
    M = 0.5 * k * c["G2"] + cross_matrix(-a[:P])
    N = 0.5 * k * c["H"] + cross_matrix(-np.tensordot(dW, c["dg"], 1))
    xi1 = M[:, None] @ field.xi
    xi1 += N @ field.Z[:P, None]
    xi1 += field.xi
    return RotationField(field.space, field.coeffs, field.j + 1, Z1, xi1, c)


def grad_Z_apply(field, u):
    """grad(Z u) at quadrature points by the product rule.

    Returns (n_cells, n_qp, dim, 3): xi_d u + Z du/dx_d per direction d,
    with u and grad u sampled from the P1 interpolant.
    """
    space = field.space
    u_qp = space.values_at_qp(np.asarray(u, dtype=float))
    gu = space.grads_at_qp(np.asarray(u, dtype=float))
    return (np.einsum("cqdab,cqb->cqda", field.xi_quad, u_qp)
            + np.einsum("cqab,cdb->cqda", field.Z_quad, gu))


def compute_F_identity(field, u, v, K=None):
    """F(t_j, u, v) = <grad(Z u), grad(Z v)>_quadrature - u^T K v."""
    if field.j == 0:
        return 0.0  # Z = I, xi = 0: exact zero, not two sums that cancel
    space = field.space
    if K is None:
        K = space.stiffness()
    gu = grad_Z_apply(field, u)
    gv = grad_Z_apply(field, v)
    twisted = np.einsum("cq,cqda,cqda->", space.quad_weights, gu, gv)
    base = float(np.sum(np.asarray(u) * (K @ np.asarray(v))))
    return float(twisted) - base


def assemble_rotated_stiffness(field):
    """Gram matrix of u -> grad(Z u) on vector P1 fields.

    Returns a (3N, 3N) BSR matrix KZ, in 3x3 node blocks over the pattern
    of node pairs that share a cell, with u^T KZ v equal to the quadrature
    value of <grad(Z u), grad(Z v)>; KZ minus the plain vector stiffness is
    the matrix of F(t_j, ., .) restricted to P1 fields.
    """
    space = field.space
    mesh = space.mesh
    d1 = mesh.dim + 1
    Z, xi = field.Z_quad, field.xi_quad
    # T[l,c,q,d,a,b]: contribution of nodal dof (l,b) to grad_d(Z u)_a at
    # qp; the local node index goes first so each T[l] is filled contiguously
    T = np.empty((d1,) + xi.shape)
    for l in range(d1):
        np.multiply(space.phi_qp[None, :, l, None, None, None], xi,
                    out=T[l])
        T[l] += space.grad_phi[:, None, l, :, None, None] * Z[:, :, None]
    wT = space.quad_weights[None, :, :, None, None, None] * T
    T = T.reshape(d1, mesh.n_cells, -1, 3)
    wT = wT.reshape(T.shape)
    # cell Gram matrices in 3x3 node-pair blocks (c, l, m, b, e); the
    # blocks below the diagonal are the transposes of those above it
    blocks = np.empty((mesh.n_cells, d1, d1, 3, 3))
    for l in range(d1):
        for m in range(l, d1):
            blocks[:, l, m] = np.swapaxes(T[l], 1, 2) @ wT[m]
            blocks[:, m, l] = np.swapaxes(blocks[:, l, m], 1, 2)
    indptr, indices, scatter = space.cell_pair_pattern()
    data = (scatter @ blocks.reshape(-1, 9)).reshape(-1, 3, 3)
    return sp.bsr_matrix((data, indices, indptr),
                         shape=(3 * space.N, 3 * space.N))


def compute_F_direct(path, coeffs, u, v, j_end, space):
    """Ito-sum oracle for F: accumulate F_1i k + F_2i dW_i along the path.

    Evolves its own rotation field from t = 0 and adds the left-endpoint
    increment densities up to (excluding) step j_end. Independent of
    compute_F_identity apart from the shared evolution kernel; the two
    converge to each other at strong order ~1/2 in k.
    """
    j_end = int(j_end)
    if j_end < 0 or j_end > path.J:
        raise ValueError(f"t index {j_end} beyond path horizon J = {path.J}")
    if path.q != coeffs.q:
        raise ValueError("path and coefficients disagree on q")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    field = init_rotation_field(space, coeffs)
    w = space.quad_weights
    u_qp, gu = space.values_at_qp(u), space.grads_at_qp(u)
    v_qp, gv = space.values_at_qp(v), space.grads_at_qp(v)
    c = field._cache
    idx = space.qp_index
    shape = (coeffs.q, space.mesh.n_cells, space.n_qp, space.mesh.dim, 3, 3)
    G = -cross_matrix(c["g"][:, :len(field.xi)][:, idx])[:, :, None]
    Ii = -cross_matrix(c["dg"][:, idx])
    Bi = (0.5 * (Ii @ G - G @ Ii)).reshape(shape)
    Ii = Ii.reshape(shape)

    acc = 0.0
    for s in range(j_end):
        Zq, xiq = field.Z_quad, field.xi_quad
        Zu = np.einsum("cqab,cqb->cqa", Zq, u_qp)
        Zv = np.einsum("cqab,cqb->cqa", Zq, v_qp)
        gZu = (np.einsum("cqdab,cqb->cqda", xiq, u_qp)
               + np.einsum("cqab,cdb->cqda", Zq, gu))
        gZv = (np.einsum("cqdab,cqb->cqda", xiq, v_qp)
               + np.einsum("cqab,cdb->cqda", Zq, gv))
        IZu = np.einsum("icqdab,cqb->icqda", Ii, Zu)
        IZv = np.einsum("icqdab,cqb->icqda", Ii, Zv)
        BZu = np.einsum("icqdab,cqb->icqda", Bi, Zu)
        BZv = np.einsum("icqdab,cqb->icqda", Bi, Zv)
        F1 = (np.einsum("cq,icqda,cqda->i", w, BZu, gZv)
              + np.einsum("cq,cqda,icqda->i", w, gZu, BZv)
              + np.einsum("cq,icqda,icqda->i", w, IZu, IZv))
        F2 = (np.einsum("cq,icqda,cqda->i", w, IZu, gZv)
              + np.einsum("cq,cqda,icqda->i", w, gZu, IZv))
        acc += path.k * F1.sum() + float(F2 @ path.increments[s])
        field = evolve_step(field, path.increments[s], path.k)
    return float(acc)
