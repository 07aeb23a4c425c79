"""Physical-field reconstruction and the convergence monitors.

The scheme computes the transformed field m; the physical magnetization is
M = Z_t m, recovered nodally. Convergence evidence comes from three
interpolant error measures (how far the piecewise-linear-in-time trajectory
is from piecewise-constant, from the unit sphere, and from its own time
derivative) and from the weak-form residual

  I(m', psi) = lambda1 <m' x dm'/dt, m' x psi> - lambda2 <dm'/dt, m' x psi>
               - mu <grad m', grad(m' x psi)> - mu int F(t, m', m' x psi) dt

over space-time, evaluated with a midpoint rule per scheme interval and the
left-endpoint-frozen rotation field in the F term. For an exact weak
solution I vanishes for every smooth test field psi supported inside (0, T).
Both monitors are observers of `scheme.run`; the residual's totals are
filled in at the last step.

Per interval the integrand is linear in (psi, grad psi), so each step
forms two fields at the quadrature points that serve every test field.
With m = m'(t_mid), dm = dm'/dt, c_d = xi_d m, a = sum_d xi_d^T (c_d +
Z d_d m) and b_d = Z^T c_d (so grad_d(Z m) = Z (d_d m + b_d), Z being
orthogonal), they are

  R   = lambda1 (m x dm) x m - lambda2 dm x m - mu (a x m + sum_d b_d x d_d m)
  S_d = -mu (d_d m + b_d) x m

and the interval adds k bump(t_mid) sum_qp w (Psi . R + grad Psi : S) for
psi = bump Psi. Every test field has the same bump, so the run sums
k bump(t_mid) (R, S) and pairs the sum with each Psi once. The
<grad m', grad(m' x psi)> term cancels against the same term inside F;
the rest follows from (m x psi) . X = psi . (X x m) and
d_d m . (d_d m x psi) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeMismatchError
from .rotation import evolve_step
from .rotation import init_rotation_field  # noqa: F401  (perfbench traces it)

# 3-point Gauss-Legendre on [0, 1]; used where the time integrand is not
# polynomial (the unit-norm defect of the linear interpolant)
_GAUSS_A = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5,
                     0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


def reconstruct_M(m, field):
    """M = Z m at the nodes; unit norms are preserved exactly by orthogonality.

    `m` is an (N, 3) nodal array at the rotation field's time; the caller
    vouches for the alignment.
    """
    return np.einsum("nab,nb->na", field.Z_nodes, np.asarray(m, dtype=float))


def interpolant_errors(space, k):
    """Observer of `scheme.run` accumulating the three interpolant error
    measures over the space-time cylinder, one scheme interval per step.

    Returns (observer, errors); errors is a dict filled in as the run goes.
    Its keys: "m_minus_mleft_sq" (squared L2 distance between the linear
    and left-constant interpolants; exact, the integrand is quadratic in t),
    "unit_defect_sq" (squared L2 norm of |m_lin| - 1; 3-point Gauss per
    interval), and "v_minus_dtm_l1" (L1 distance between v and the discrete
    time derivative; exact in t, quadrature in space).
    """
    errors = {"m_minus_mleft_sq": 0.0, "unit_defect_sq": 0.0,
              "v_minus_dtm_l1": 0.0}
    prev, prev_qp = None, None      # the last m_next seen and its samples

    def observe(step):
        nonlocal prev, prev_qp
        # run hands the previous m_next on as this step's m, so each state
        # is sampled once; differences are formed at the points by linearity
        m_qp = prev_qp if step.m is prev else space.values_at_qp(step.m)
        m_next_qp = space.values_at_qp(step.m_next)
        prev, prev_qp = step.m_next, m_next_qp
        diff_qp = m_next_qp - m_qp
        errors["m_minus_mleft_sq"] += (k / 3.0) * space.integrate(
            np.sum(diff_qp * diff_qp, axis=-1))
        for a, wgt in zip(_GAUSS_A, _GAUSS_W):
            sample = (1.0 - a) * m_qp + a * m_next_qp
            norms = np.linalg.norm(sample, axis=-1)
            errors["unit_defect_sq"] += (k * wgt
                                         * space.integrate((norms - 1.0) ** 2))
        gap = space.values_at_qp(step.v) - diff_qp / k
        errors["v_minus_dtm_l1"] += k * space.integrate(
            np.linalg.norm(gap, axis=-1))

    return observe, errors


def time_profile(t, T):
    """The bump of every test field: smooth, and zero with all its
    derivatives outside (0.15 T, 0.85 T), a support inside (0, T)."""
    s = (t - 0.15 * T) / (0.85 * T - 0.15 * T)
    if s <= 0.0 or s >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (s * (1.0 - s))) * np.e ** 2)


@dataclass(frozen=True)
class TestField:
    """Spatial part Psi(x) of a test field time_profile(t, T) Psi(x)."""

    __test__ = False         # keep pytest from collecting the class

    f1: float
    f2: float
    amps: tuple

    def evaluate(self, points):
        """Psi and d Psi / dx_d at (P, dim) points: shapes (P, 3) and
        (P, dim, 3), from one evaluation of the trigonometric factors."""
        P, dim = points.shape
        x, y = points[:, 0], points[:, 1]
        a = self.amps
        f1p, f2p = np.pi * self.f1, np.pi * self.f2
        sx, cx = np.sin(f1p * x), np.cos(f1p * x)
        sy, cy = np.sin(f2p * y), np.cos(f2p * y)
        psi = np.column_stack([a[0] * sx * cy, a[1] * cx * sy,
                               a[2] * sx * sy])
        g = np.zeros((P, dim, 3))
        g[:, 0, 0] = a[0] * f1p * cx * cy
        g[:, 0, 1] = -a[1] * f1p * sx * sy
        g[:, 0, 2] = a[2] * f1p * cx * sy
        g[:, 1, 0] = -a[0] * f2p * sx * sy
        g[:, 1, 1] = a[1] * f2p * cx * cy
        g[:, 1, 2] = a[2] * f2p * sx * cy
        return psi, g


def make_test_field(index):
    """Built-in reproducible test fields, indexed from 0."""
    amp_cycle = [(1.0, 0.6, -0.8), (-0.7, 1.0, 0.5), (0.4, -0.9, 1.0)]
    return TestField(f1=1.0 + index, f2=1.0 + (index % 2),
                     amps=amp_cycle[index % len(amp_cycle)])


def _contracted_residual(field, space, params, m, m_next):
    """The step's fields (R, S): a test field psi = bump Psi contributes
    k bump(t_mid) sum w (Psi . R + grad Psi : S) to the interval.

    R has shape (c, q, 3) and S (c, q, dim, 3); both already carry the
    quadrature weights. See the module docstring for the derivation. xi is
    read as (3 dim x 3) matrices X with rows (a, d), so each xi contraction
    is one product per point; c, g and bt hold one column per direction d.
    """
    k, mu = params.k, params.mu
    Z, xi = field.Z_quad, field.xi_quad
    n_c, n_q, _, dim, _ = xi.shape
    X = xi.reshape(n_c, n_q, 3 * dim, 3)
    m_mid = 0.5 * (m + m_next)
    m_qp = space.values_at_qp(m_mid)                         # (c, q, 3)
    gm = space.grads_at_qp(m_mid)                            # (c, dim, 3)
    dtm_qp = space.values_at_qp((m_next - m) / k)
    c = np.einsum("cqkb,cqb->cqk", X, m_qp).reshape(n_c, n_q, 3, dim)
    # grad_d(Z m) = Z d_d m + xi_d m, with Z d_d m one product per cell
    g = (Z.reshape(n_c, n_q * 3, 3) @ np.swapaxes(gm, 1, 2)).reshape(c.shape)
    g += c
    a = np.einsum("cqkb,cqk->cqb", X, g.reshape(n_c, n_q, 3 * dim))
    bt = np.swapaxes(Z, -1, -2) @ c                          # b_d = Z^T xi_d m
    # sum_d b_d x d_d m is the axial vector of P = sum_d b_d (d_d m)^T
    P = (bt.reshape(n_c, n_q * 3, dim) @ gm).reshape(n_c, n_q, 3, 3)
    b_x_gm = np.stack([P[..., 1, 2] - P[..., 2, 1],
                       P[..., 2, 0] - P[..., 0, 2],
                       P[..., 0, 1] - P[..., 1, 0]], axis=-1)
    Y = (params.lambda1 * np.cross(m_qp, dtm_qp) - params.lambda2 * dtm_qp
         - mu * a)
    R = np.cross(Y, m_qp) - mu * b_x_gm
    S = -mu * np.cross(gm[:, None] + np.swapaxes(bt, -1, -2),
                       m_qp[:, :, None])
    w = space.quad_weights
    R *= w[:, :, None]
    S *= w[:, :, None, None]
    return R, S


def weak_residual(space, params, path, fields):
    """Observer of `scheme.run` evaluating I(m_lin, time_profile * Psi)
    pathwise for each TestField Psi in the list `fields`.

    Returns (observer, totals); totals holds one value per test field,
    filled in at j = params.J - 1. The rotation field is replayed along the
    path in lockstep with the run, from the run's own field at j = 0; each
    interval uses the midpoint value of the interpolant, the piecewise-
    constant discrete time derivative, and its left-endpoint rotation field.
    """
    k = params.k
    qp_flat = space.quad_points.reshape(-1, space.mesh.dim)
    rot = None
    # run sums of k bump(t_mid) (R, S), allocated up front: keeping the
    # first active step's arrays instead pins their heap block (peak RSS)
    w = space.quad_weights
    acc = [np.zeros(w.shape + (3,)), np.zeros(w.shape + (space.mesh.dim, 3))]
    totals = np.zeros(len(fields))

    def observe(step):
        nonlocal rot
        if step.j == 0:
            rot = step.field
        elif rot is None or rot.j != step.j:
            raise TimeMismatchError(f"weak residual observer did not see "
                                    f"every step before step {step.j}")
        b = time_profile((step.j + 0.5) * k, params.T)
        if b != 0.0:
            R, S = _contracted_residual(rot, space, params, step.m,
                                        step.m_next)
            R *= k * b
            S *= k * b
            acc[0] += R
            acc[1] += S
        if step.j == params.J - 1:
            for idx, f in enumerate(fields):
                psi_qp, grad_psi_qp = f.evaluate(qp_flat)
                totals[idx] = (psi_qp.ravel() @ acc[0].ravel()
                               + grad_psi_qp.ravel() @ acc[1].ravel())
        rot = evolve_step(rot, path.increments[step.j], k)

    return observe, totals


def solve_phi(lambda1, lambda2, zeta, psi):
    """Closed-form solution of lambda1 phi + lambda2 (phi x zeta) = psi.

    Requires lambda1 != 0 and |zeta| = 1; the inverse of the linear map is
    (lambda1^2 I + lambda1 lambda2 C(zeta) + lambda2^2 zeta zeta^T) divided
    by lambda1 (lambda1^2 + lambda2^2), with C(zeta) u = zeta x u.
    """
    if lambda1 == 0.0:
        raise ValueError("lambda1 must be nonzero")
    zeta = np.asarray(zeta, dtype=float).reshape(3)
    psi = np.asarray(psi, dtype=float).reshape(3)
    if abs(np.linalg.norm(zeta) - 1.0) > 1e-10:
        raise ValueError(f"zeta must be unit length, |zeta| = "
                         f"{np.linalg.norm(zeta)!r}")
    mu = lambda1 ** 2 + lambda2 ** 2
    return (lambda1 ** 2 * psi
            + lambda1 * lambda2 * np.cross(zeta, psi)
            + lambda2 ** 2 * np.dot(zeta, psi) * zeta) / (lambda1 * mu)
