"""Pathwise rotation field Z_t(x), its gradient xi_t(x), and the F functional.

The magnetization transform m = Z^T M hinges on the matrix process
dZ = sum_i G_i Z o dW_i with skew generators G_i u = u x g_i(x). One time
step multiplies Z on the left by the exponential of the accumulated skew
increment (a closed-form Rodrigues rotation), which keeps Z exactly
orthogonal for any step size and discretizes the Stratonovich equation with
strong order at least 1/2.

The gradient field xi = grad Z holds one 3x3 matrix xi_d per spatial
direction d and follows the linear Ito equation
dxi = 1/2 sum_i (G_i^2 xi + H_i Z) dt + sum_i (G_i xi + I_i Z) dW_i,
advanced by Euler-Maruyama with Z frozen at the left endpoint. Here
I_i u = u x dg_i/dx_d per direction d, and H_i = I_i G_i + G_i I_i. A step
sums over the noise index before it touches xi: with
M = 1/2 k sum_i G_i^2 + sum_i dW_i G_i and N_d = 1/2 k sum_i H_i
+ sum_i dW_i I_i, it is xi_d <- xi_d + M xi_d + N_d Z. xi is stored
direction-inner, xi[p, a, d, b] = (xi_d)_ab, so that at each point M xi is
one (3x3)@(3x3dim) product and N Z one (3dim x 3)@(3x3) product, N being
stored in the same layout. The drift sums are fixed by the noise
coefficients, so they are formed once per field.

Both equations are pointwise in x, and at a point Z and xi depend only on
the path and the coefficients (g_i, dg_i) there. So they are evolved once
per distinct coefficient value: points whose coefficients are equal bit for
bit, coinciding points among them, share one row, and an index maps each
quadrature point and vertex to its row.

F(t, u, v) = <grad(Z u), grad(Z v)> - <grad u, grad v> is the stochastic
correction that appears as an extra load in the scheme. As Z^T Z = I and
grad_d(Z u) = xi_d u + Z d_d u, it reads the field only through the
invariants A = sum_d xi_d^T xi_d and B_d = Z^T xi_d (formed once per row
by RotationField.invariants), in the one form that production uses:

  F(t, u, w) = sum_qp w [w . (A u + sum_d B_d^T d_d u) + sum_d d_d w . B_d u].

KZ - K (x) I is its Galerkin matrix on vector P1 fields
(assemble_rotated_stiffness), and the weak residual in reconstruct pairs it
at the points with w = m x psi through the fields
(a, b) = (A m + sum_d B_d^T d_d m, B_d m) of F_pairing. Only the two
oracles form grad(Z u) itself, with one kernel: compute_F_identity (from
the current Z, xi only) and compute_F_direct, an Ito-sum accumulation of
the increment densities F_1i, F_2i along the whole path in their
gradient-pairing form
(F_1i = <B_i Zu, grad Zv> + <grad Zu, B_i Zv> + <I_i Zu, I_i Zv> with
B_i = 1/2 H_i - G_i I_i, and F_2i = <I_i Zu, grad Zv> + <grad Zu, I_i Zv>),
which is the exact pathwise differential of <grad Zu, grad Zv> for any
coefficients, needs only first derivatives of g_i, and is manifestly
symmetric in (u, v).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import group_keys

def cross_matrix(a):
    """Matrix C(a) with C(a) u = a x u, for a of shape (..., 3)."""
    a = np.asarray(a, dtype=float)
    C = np.zeros(a.shape[:-1] + (3, 3))
    _add_cross(C, a)
    return C


def _add_cross(out, a):
    """out += C(a) in place, for out of shape (..., 3, 3) and a (..., 3)."""
    out[..., 0, 1] -= a[..., 2]
    out[..., 0, 2] += a[..., 1]
    out[..., 1, 0] += a[..., 2]
    out[..., 1, 2] -= a[..., 0]
    out[..., 2, 0] -= a[..., 1]
    out[..., 2, 1] += a[..., 0]


def rodrigues_exp(w):
    """Closed-form exp(C(w)) for w of shape (..., 3).

    Rotation about w/|w| by the angle theta = |w|:
    cos(theta) I + s C(w) + c w w^T, with s = sin(theta)/theta and
    c = (1 - cos(theta))/theta^2, which follows from C(w)^2 = w w^T -
    theta^2 I. A series expansion of s and c keeps the small-angle branch
    accurate to machine precision, and w = 0 returns the identity exactly.
    """
    w = np.asarray(w, dtype=float)
    v = w.reshape(-1, 3)
    theta2 = np.einsum("pa,pa->p", v, v)
    theta = np.sqrt(theta2)
    cos = np.cos(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sin(theta) / theta
        c = (1.0 - cos) / theta2
    small = theta < 1e-4
    if small.any():
        t2 = theta2[small]
        s[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        c[small] = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    R = np.einsum("pa,pb->pab", c[:, None] * v, v)
    for a in range(3):
        R[:, a, a] += cos
    _add_cross(R, s[:, None] * v)
    return R.reshape(w.shape[:-1] + (3, 3))


def evolve_point_rotation(gvals, increments):
    """Run the exponential integrator at fixed points with constant g's.

    Parameters
    ----------
    gvals : (q, 3) array
        Constant coefficient vectors.
    increments : (..., J, q) array
        Wiener increments; leading axes are independent paths.

    Returns
    -------
    (..., 3, 3) array of rotations after J steps, starting from the
    identity.
    """
    gvals = np.asarray(gvals, dtype=float)
    increments = np.asarray(increments, dtype=float)
    J = increments.shape[-2]
    Z = np.broadcast_to(np.eye(3), increments.shape[:-2] + (3, 3)).copy()
    for j in range(J):
        a = increments[..., j, :] @ gvals          # (..., 3)
        Z = rodrigues_exp(-a) @ Z
    return Z


class RotationField:
    """Z and xi, one row per distinct noise coefficient value.

    Z (R, 3, 3) and xi (R, 3, dim, 3) share one row set: row r holds the
    field at every point whose coefficients (g_i, dg_i) equal the cache's
    row r bit for bit. xi is stored direction-inner, xi[r, a, d, b] =
    (xi_d)_ab. The cache's int `index` gives the row of each cell-major
    quadrature point, then of each vertex; qp_rows, Z_quad, xi_quad and
    Z_nodes read it, and only this module knows the layout. Snapshots are
    immutable: each evolve_step returns a new field at index j+1 sharing
    the cached coefficient tensors.
    """

    def __init__(self, space, j, Z, xi, cache):
        self.space = space
        self.j = int(j)
        self.Z = Z
        self.xi = xi
        self._cache = cache
        Z.setflags(write=False)
        xi.setflags(write=False)

    def qp_rows(self):
        """(n_cells, n_qp) row of each quadrature point."""
        s = self.space
        n = s.mesh.n_cells * s.n_qp
        return self._cache["index"][:n].reshape(-1, s.n_qp)

    def invariants(self):
        """The (R (1 + dim), 9) stack [A; B] through which F reads the
        field (module docstring): row r holds row r's A, row R + dim r + d
        its B_d, each 3x3 matrix flattened row-major."""
        R, dim = self.xi.shape[0], self.xi.shape[2]
        AB = np.empty((R * (1 + dim), 9))
        X = self.xi.reshape(R, 3 * dim, 3)
        np.matmul(np.ascontiguousarray(np.swapaxes(X, 1, 2)), X,
                  out=AB[:R].reshape(R, 3, 3))
        np.matmul(np.swapaxes(self.Z, 1, 2)[:, None],
                  np.moveaxis(self.xi, 2, 1),
                  out=AB[R:].reshape(R, dim, 3, 3))
        return AB

    # gathers: copies, so read each once per use ---------------------------

    def Z_quad(self):
        """(n_cells, n_qp, 3, 3) at the quadrature points."""
        return np.take(self.Z, self.qp_rows(), axis=0)

    @property
    def Z_nodes(self):
        """(N, 3, 3) at the vertices."""
        return np.take(self.Z, self._cache["index"][-self.space.N:], axis=0)

    def xi_quad(self):
        """(n_cells, n_qp, 3, dim, 3), [c, q, a, d, b] = (xi_d)_ab, at the
        quadrature points."""
        return np.take(self.xi, self.qp_rows(), axis=0)

    def orthogonality_defect(self):
        """max over points of ||Z^T Z - I||_F, read on the rows."""
        G = np.swapaxes(self.Z, 1, 2) @ self.Z
        for a in range(3):
            G[:, a, a] -= 1.0
        G *= G
        return float(np.sqrt(G.reshape(-1, 9).sum(axis=1).max()))


def _coefficient_cache(space, coeffs):
    """Noise coefficients, one row per distinct value, as the steps use them.

    "index" (n_cells * n_qp + N,) gives the row of each cell-major
    quadrature point, then each vertex. Per row r: "g" (q, R, 3) the
    vectors g_i, "dg" (q, R, dim, 3) the derivatives dg_i/dx_d, "G2" (R, 3,
    3) sum_i G_i^2 and "H" (R, 3, dim, 3) sum_i H_i in the layout of xi,
    H[r, a, d, b] = (H_d)_ab with H_i = I_i G_i + G_i I_i per direction.
    Both sums are built in closed form from C(x) C(y) = y x^T - (x . y) I:
    G_i^2 = g_i g_i^T - |g_i|^2 I and H_i = g_i dg_i^T + dg_i g_i^T - 2
    (g_i . dg_i) I. A step contracts g and dg with its increments and adds
    sum_i dW_i G_i and sum_i dW_i I_i to the drift sums in place; the drift
    of xi does not depend on the increments, so only its sums over the
    noise index are kept.
    """
    points = np.vstack([space.quad_points.reshape(-1, space.mesh.dim),
                        space.mesh.vertices])
    g = coeffs.g_at(points)                         # (q, n, 3)
    jac = coeffs.jac_at(points)                     # (q, n, 3, dim)
    index, first = _group_points(g, jac)
    # np.take keeps C order, so each row's sums over the noise index read
    # their operands in the layout of a per-point evaluation
    g, jac = np.take(g, first, axis=1), np.take(jac, first, axis=1)
    dg = np.moveaxis(jac, -1, 2)                    # (q, R, dim, 3)
    G2 = np.einsum("ipa,ipb->pab", g, g)
    gg = np.einsum("ipa,ipa->p", g, g)
    gdg = np.einsum("ipa,ipda->pd", g, dg)
    T = np.einsum("ipa,ipdb->padb", g, dg)
    # C order, so that the steps' reshapes of H, dg and xi are views
    H = np.add(T, T.transpose(0, 3, 2, 1), order="C")
    dg = np.ascontiguousarray(dg)
    for a in range(3):
        G2[:, a, a] -= gg
        H[:, a, :, a] -= 2.0 * gdg
    return {"g": g, "dg": dg, "G2": G2, "H": H, "index": index}


def _group_points(*values):
    """(index, first) grouping the points of the arrays `values`, each of
    shape (q, n, ...), by their entries bit for bit: point p is in group
    index[p], and first holds one point per group. Only the entries that
    vary over the points are sorted; with none there is one group."""
    keys = []
    for x in values:
        bits = x.reshape(x.shape[:2] + (-1,)).view(np.int64)
        m = bits.shape[2]
        flat = bits.reshape(len(bits), -1)
        # an entry varies if it differs from the previous point's somewhere
        changed = flat[:, m:] != flat[:, :-m]
        keys += [bits[i, :, c] for i in range(len(bits)) for c in range(m)
                 if changed[i, c::m].any()]
    n = values[0].shape[1]
    if not keys:
        return np.zeros(n, dtype=np.intp), np.zeros(1, dtype=np.intp)
    return group_keys(*keys)[::-1]


def init_rotation_field(space, coeffs):
    """Field at time index 0: Z = I and xi = 0 at every point."""
    cache = _coefficient_cache(space, coeffs)
    Z = np.tile(np.eye(3), (cache["g"].shape[1], 1, 1))
    xi = np.zeros(cache["H"].shape)
    return RotationField(space, 0, Z, xi, cache)


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
    c = field._cache
    if dW.shape[0] != len(c["g"]):
        raise ValueError(f"expected {len(c['g'])} increments, "
                         f"got {dW.shape[0]}")
    if not np.isfinite(dW).all():
        raise ValueError("non-finite Wiener increment")
    if not k > 0:
        raise ValueError(f"time step must be positive, got {k}")
    # G_i u = u x g_i = -g_i x u, so sum_i dW_i G_i = C(a) with
    # a = -sum_i dW_i g_i, and likewise sum_i dW_i I_i = C(e)
    a = -np.einsum("i,ipa->pa", dW, c["g"])
    Z1 = rodrigues_exp(a) @ field.Z
    # M and N start from their drift sums and take the cross-product
    # matrices in place, one direction of N at a time
    M = 0.5 * k * c["G2"]
    _add_cross(M, a)
    N = 0.5 * k * c["H"]
    e = -np.tensordot(dW, c["dg"], 1)
    R, dim = field.xi.shape[0], field.xi.shape[2]
    for d in range(dim):
        _add_cross(N[:, :, d], e[:, d])
    xi = field.xi.reshape(R, 3, 3 * dim)
    xi1 = M @ xi
    xi1 += (N.reshape(R, 3 * dim, 3) @ field.Z).reshape(xi.shape)
    xi1 += xi
    xi1 = xi1.reshape(field.xi.shape)
    return RotationField(field.space, field.j + 1, Z1, xi1, c)


def F_pairing(AB, rows, u_qp, gu):
    """(a, b) with F(t, u, w) = sum_qp w (w . a + sum_d d_d w . b_d) at the
    quadrature points whose field rows are `rows` (c, q), from the field's
    invariants AB, the samples u_qp (c, q, 3) of u there and its cellwise
    gradient gu (c, dim, 3): a (c, q, 3) = A u + sum_d B_d^T d_d u, and
    b (c, q, dim, 3) holds b_d = B_d u in row d, point by point. A and
    every B_d are gathered entry-major in one go, so that each product is
    one pass over the points per matrix entry."""
    dim = gu.shape[1]
    R = len(AB) // (1 + dim)
    idx = np.empty((1 + dim,) + rows.shape, dtype=np.intp)
    idx[0] = rows
    idx[1:] = R + dim * rows + np.arange(dim)[:, None, None]
    # G[i, j, 0] is A_ij and G[i, j, 1 + d] is (B_d)_ij, (c, q) each
    G = AB.T[:, idx].reshape((3, 3, 1 + dim) + rows.shape)
    u = np.moveaxis(u_qp, -1, 0)
    g = np.moveaxis(gu, 0, -1)[..., None]           # (dim, 3, c, 1)
    a = np.empty((3,) + rows.shape)
    b = np.empty((dim, 3) + rows.shape)
    for i in range(3):
        a[i] = _dot3(G[i, :, 0], u)
        for d in range(dim):
            a[i] += _dot3(G[:, i, 1 + d], g[d])
            b[d, i] = _dot3(G[i, :, 1 + d], u)
    return np.moveaxis(a, 0, -1), np.moveaxis(b, (0, 1), (-2, -1))


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _rotated_gradient(Z, xi, u_qp, gu):
    """grad(Z u) for the oracles, (c, q, 3, dim) with column d for
    direction d, from Z (c, q, 3, 3), xi (c, q, 3, dim, 3), the samples
    u_qp (c, q, 3) and the cellwise gradient gu (c, dim, 3): Z d_d u is one
    product per cell, xi_d u one per point against xi as (3 dim x 3)."""
    c, q, _, dim, _ = xi.shape
    grad = (Z.reshape(c, q * 3, 3) @ np.swapaxes(gu, 1, 2)).reshape(
        c, q, 3, dim)
    grad += np.einsum("cqkb,cqb->cqk", xi.reshape(c, q, 3 * dim, 3),
                      u_qp).reshape(c, q, 3, dim)
    return grad


def compute_F_identity(field, u, v):
    """F(t_j, u, v) = <grad(Z u), grad(Z v)>_quadrature - u^T K v, with
    grad(Z u) formed by the product rule: the oracle for KZ and F_pairing."""
    if field.j == 0:
        return 0.0  # Z = I, xi = 0: exact zero, not two sums that cancel
    space = field.space
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    Z, xi = field.Z_quad(), field.xi_quad()
    gu, gv = (_rotated_gradient(Z, xi, space.values_at_qp(x),
                                space.grads_at_qp(x)) for x in (u, v))
    twisted = np.einsum("cq,cqad,cqad->", space.quad_weights, gu, gv)
    return float(twisted) - float(np.sum(u * (space.stiffness() @ v)))


def assemble_rotated_stiffness(field):
    """Gram matrix KZ of u -> grad(Z u) on vector P1 fields.

    Returns a (3N, 3N) BSR matrix, in 3x3 node blocks over the pattern of
    node pairs that share a cell, with u^T KZ v the quadrature value of
    <grad(Z u), grad(Z v)>. KZ = K (x) I + Kxi, Kxi the Galerkin matrix of
    F (module docstring): its block for local nodes (l, m) of a cell is
    sum_qp w [phi_l phi_m A + phi_l sum_d d_d phi_m B_d^T
    + phi_m sum_d d_d phi_l B_d]. The slot blocks D of the pattern, the
    scattered cell blocks
    V[l, m] = sum_qp w (1/2 phi_l phi_m A + phi_m sum_d d_d phi_l B_d),
    carry half the first term and the third; the second is the transpose
    of the third with l and m swapped. So Kxi = D + D^T, which makes KZ
    exactly symmetric. D is linear in the invariants, with coefficients
    fixed by the mesh and the field's row index, so D = W [A; B], the
    run's operator W (_kz_operator) times the stack of the invariants. K
    is assembled on the pattern of cell_pair_pattern, so its data add to
    the diagonals of the 3x3 blocks slot by slot.
    """
    space = field.space
    indptr, indices, _, transpose = space.cell_pair_pattern()
    D = (_kz_operator(field) @ field.invariants()).reshape(-1, 3, 3)
    data = D + np.swapaxes(D[transpose], 1, 2)
    K = space.stiffness().data
    for a in range(3):
        data[:, a, a] += K
    return sp.bsr_matrix((data, indices, indptr),
                         shape=(3 * space.N, 3 * space.N))


def _kz_operator(field):
    """The sparse W with W [A; B] the slot blocks D of KZ (see
    assemble_rotated_stiffness), shared by all fields of a run.

    W has one row per cell_pair_pattern slot. Column r takes row r's A,
    column R + dim r + d its B_d. It depends only on the mesh and the row
    index, so it is built on the first call of a run and kept in the
    cache the run's fields share; the steps then form no per-point array.
    Built as scatter @ Wc. The 0/1 scatter puts each local node pair
    (c, l, m), flattened c-major, on its cell_pair_pattern slot. Wc has
    one row per local node pair and, per quadrature point q of cell c with
    row r, the entries 1/2 w phi_l phi_m in column r and w phi_m d_d phi_l
    in column R + dim r + d.
    """
    cache = field._cache
    if "kz" not in cache:
        space = field.space
        n_c, n_q, dim = space.mesh.n_cells, space.n_qp, space.mesh.dim
        d1, R = dim + 1, len(field.Z)
        rows = field.qp_rows().astype(np.intc)[:, None, None, :]
        shape = (n_c, d1, d1, n_q, 1 + dim)           # (c, l, m, q, column)
        cols = np.empty(shape, dtype=np.intc)
        cols[..., 0] = rows
        cols[..., 1:] = R + dim * rows[..., None] + np.arange(dim)
        wphi = (space.quad_weights[:, :, None] * space.phi_qp).transpose(
            0, 2, 1)[:, None, :, :]                     # (c, 1, m, q)
        vals = np.empty(shape)
        np.multiply(wphi, 0.5 * space.phi_qp.T[:, None, :], out=vals[..., 0])
        np.multiply(wphi[..., None], space.grad_phi[:, :, None, None, :],
                    out=vals[..., 1:])
        n_row = n_q * (1 + dim)
        Wc = sp.csr_matrix(
            (vals.reshape(-1), cols.reshape(-1),
             np.arange(0, vals.size + 1, n_row)),
            shape=(n_c * d1 * d1, R * (1 + dim)))
        _, indices, slots, _ = space.cell_pair_pattern()
        n = len(slots)
        scatter = sp.csr_matrix((np.ones(n), (slots, np.arange(n))),
                                shape=(len(indices), n))
        cache["kz"] = scatter @ Wc
    return cache["kz"]


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
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    field = init_rotation_field(space, coeffs)
    w = space.quad_weights
    u_qp, gu = space.values_at_qp(u), space.grads_at_qp(u)
    v_qp, gv = space.values_at_qp(v), space.grads_at_qp(v)
    c = field._cache
    rows = field.qp_rows().ravel()
    shape = (coeffs.q, space.mesh.n_cells, space.n_qp, space.mesh.dim, 3, 3)
    G = -cross_matrix(np.take(c["g"], rows, axis=1))[:, :, None]
    Ii = -cross_matrix(np.take(c["dg"], rows, axis=1))
    Bi = (0.5 * (Ii @ G - G @ Ii)).reshape(shape)
    Ii = Ii.reshape(shape)

    acc = 0.0
    for s in range(j_end):
        Zq, xiq = field.Z_quad(), field.xi_quad()
        Zu = np.einsum("cqab,cqb->cqa", Zq, u_qp)
        Zv = np.einsum("cqab,cqb->cqa", Zq, v_qp)
        gZu = _rotated_gradient(Zq, xiq, u_qp, gu)         # (c, q, 3, dim)
        gZv = _rotated_gradient(Zq, xiq, v_qp, gv)
        IZu = np.einsum("icqdab,cqb->icqda", Ii, Zu)
        IZv = np.einsum("icqdab,cqb->icqda", Ii, Zv)
        BZu = np.einsum("icqdab,cqb->icqda", Bi, Zu)
        BZv = np.einsum("icqdab,cqb->icqda", Bi, Zv)
        F1 = (np.einsum("cq,icqda,cqad->i", w, BZu, gZv)
              + np.einsum("cq,cqad,icqda->i", w, gZu, BZv)
              + np.einsum("cq,icqda,icqda->i", w, IZu, IZv))
        F2 = (np.einsum("cq,icqda,cqad->i", w, IZu, gZv)
              + np.einsum("cq,cqad,icqda->i", w, gZu, IZv))
        acc += path.k * F1.sum() + float(F2 @ path.increments[s])
        field = evolve_step(field, path.increments[s], path.k)
    return float(acc)
