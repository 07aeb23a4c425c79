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
Both monitors are observers of `scheme.run` and accumulate step by step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TimeMismatchError
from .rotation import evolve_step
from .rotation import init_rotation_field  # noqa: F401  (perfbench traces it)
from .scheme import NodalState

# 3-point Gauss-Legendre on [0, 1]; used where the time integrand is not
# polynomial (the unit-norm defect of the linear interpolant)
_GAUSS_A = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5,
                     0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


def reconstruct_M(state, field):
    """M = Z m at the nodes; unit norms are preserved exactly by orthogonality.

    `state` is a NodalState (time-checked against the rotation field) or a
    bare (N, 3) nodal array (caller vouches for alignment).
    """
    if isinstance(state, NodalState):
        if state.j != field.j:
            raise TimeMismatchError(f"state at index {state.j}, rotation "
                                    f"field at index {field.j}")
        m = state.m
    else:
        m = np.asarray(state, dtype=float)
    return np.einsum("nab,nb->na", field.Z_nodes, m)


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

    def observe(step):
        diff = step.m_next - step.m
        errors["m_minus_mleft_sq"] += (k / 3.0) * space.l2_norm_sq(diff)
        m_qp = space.values_at_qp(step.m)
        m_next_qp = space.values_at_qp(step.m_next)
        for a, wgt in zip(_GAUSS_A, _GAUSS_W):
            sample = (1.0 - a) * m_qp + a * m_next_qp
            norms = np.linalg.norm(sample, axis=-1)
            errors["unit_defect_sq"] += (k * wgt
                                         * space.integrate((norms - 1.0) ** 2))
        errors["v_minus_dtm_l1"] += k * space.l1_norm(step.v - diff / k)

    return observe, errors


@dataclass(frozen=True)
class TestField:
    """Separable test field psi(t, x) = bump(t) * Psi(x).

    The bump vanishes with all derivatives at t0 and t1 (compact support in
    time); the spatial part is trigonometric in the first two coordinates
    with analytic gradients.
    """

    __test__ = False         # keep pytest from collecting the class

    t0: float
    t1: float
    f1: float
    f2: float
    amps: tuple

    def time_profile(self, t):
        s = (t - self.t0) / (self.t1 - self.t0)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return float(np.exp(-1.0 / (s * (1.0 - s))) * np.e ** 2)

    def spatial(self, points):
        x, y = points[:, 0], points[:, 1]
        a = self.amps
        sx, cx = np.sin(np.pi * self.f1 * x), np.cos(np.pi * self.f1 * x)
        sy, cy = np.sin(np.pi * self.f2 * y), np.cos(np.pi * self.f2 * y)
        return np.column_stack([a[0] * sx * cy, a[1] * cx * sy,
                                a[2] * sx * sy])

    def spatial_grad(self, points):
        """d Psi / dx_d, shape (P, dim, 3)."""
        P, dim = points.shape
        x, y = points[:, 0], points[:, 1]
        a = self.amps
        f1p, f2p = np.pi * self.f1, np.pi * self.f2
        sx, cx = np.sin(f1p * x), np.cos(f1p * x)
        sy, cy = np.sin(f2p * y), np.cos(f2p * y)
        g = np.zeros((P, dim, 3))
        g[:, 0, 0] = a[0] * f1p * cx * cy
        g[:, 0, 1] = -a[1] * f1p * sx * sy
        g[:, 0, 2] = a[2] * f1p * cx * sy
        g[:, 1, 0] = -a[0] * f2p * sx * sy
        g[:, 1, 1] = a[1] * f2p * cx * cy
        g[:, 1, 2] = a[2] * f2p * sx * cy
        return g

    def eval(self, t, points):
        return self.time_profile(t) * self.spatial(points)

    def grad(self, t, points):
        return self.time_profile(t) * self.spatial_grad(points)


def make_test_field(index, T):
    """Built-in reproducible test fields, indexed from 0."""
    amp_cycle = [(1.0, 0.6, -0.8), (-0.7, 1.0, 0.5), (0.4, -0.9, 1.0)]
    return TestField(t0=0.15 * T, t1=0.85 * T,
                     f1=1.0 + index, f2=1.0 + (index % 2),
                     amps=amp_cycle[index % len(amp_cycle)])


def _grad_Z(field, u_qp, gu_qp):
    """grad(Z u) at the quadrature points, shape (n_cells, n_qp, dim, 3),
    from the values u_qp and gradients gu_qp (n_cells, n_qp, dim, 3) of u
    there."""
    return (np.einsum("cqdab,cqb->cqda", field.xi_quad, u_qp)
            + np.einsum("cqab,cqdb->cqda", field.Z_quad, gu_qp))


def _F_general(field, space, gZu, gu_qp, v_qp, gv_qp):
    """Quadrature F for fields given by values and gradients at the
    quadrature points; gZu = _grad_Z(field, u_qp, gu_qp) is passed in, so
    a caller pairing one u with several v computes it once."""
    gZv = _grad_Z(field, v_qp, gv_qp)
    w = space.quad_weights
    twisted = np.einsum("cq,cqda,cqda->", w, gZu, gZv)
    plain = np.einsum("cq,cqda,cqda->", w, gu_qp, gv_qp)
    return float(twisted - plain)


def weak_residual(space, params, path, psi):
    """Observer of `scheme.run` evaluating I(m_lin, psi) pathwise; psi may
    be one TestField or a list.

    Returns (observer, totals); totals holds one value per test field and is
    filled in as the run goes. The rotation field is replayed along the path
    in lockstep with the run, starting from the run's own field at j = 0
    (one replay for all test fields); each interval uses the midpoint value
    of the interpolant, the piecewise-constant discrete time derivative, and
    the interval's left-endpoint rotation field in the F term.
    """
    fields = [psi] if isinstance(psi, TestField) else list(psi)
    for f in fields:
        if f.t0 <= 0.0 or f.t1 >= params.T:
            warnings.warn("test field support touches the time boundary; "
                          "the residual identity assumes psi vanishes near "
                          "0 and T", stacklevel=2)

    k = params.k
    mesh = space.mesh
    qp_flat = space.quad_points.reshape(-1, mesh.dim)
    rot = None
    totals = np.zeros(len(fields))

    def observe(step):
        nonlocal rot
        if step.j == 0:
            rot = step.field
        elif rot is None or rot.j != step.j:
            raise TimeMismatchError(f"weak residual observer did not see "
                                    f"every step before step {step.j}")
        t_mid = (step.j + 0.5) * k
        m_mid = 0.5 * (step.m + step.m_next)
        dtm = (step.m_next - step.m) / k
        m_qp = space.values_at_qp(m_mid)                     # (c, q, 3)
        gm = space.grads_at_qp(m_mid)                        # (c, dim, 3)
        gm_qp = np.broadcast_to(gm[:, None], (mesh.n_cells, space.n_qp,
                                              mesh.dim, 3))
        dtm_qp = space.values_at_qp(dtm)
        m_x_dtm = np.cross(m_qp, dtm_qp)
        w = space.quad_weights
        gZm = None
        for idx, f in enumerate(fields):
            b = f.time_profile(t_mid)
            if b == 0.0:
                continue
            psi_qp = (b * f.spatial(qp_flat)).reshape(mesh.n_cells,
                                                      space.n_qp, 3)
            gpsi_qp = (b * f.spatial_grad(qp_flat)).reshape(
                mesh.n_cells, space.n_qp, mesh.dim, 3)
            m_x_psi = np.cross(m_qp, psi_qp)
            # grad_d(m x psi) = grad_d m x psi + m x grad_d psi
            g_mxpsi = (np.cross(gm_qp, psi_qp[:, :, None, :])
                       + np.cross(m_qp[:, :, None, :], gpsi_qp))
            t1 = np.einsum("cq,cqa,cqa->", w, m_x_dtm, m_x_psi)
            t2 = np.einsum("cq,cqa,cqa->", w, dtm_qp, m_x_psi)
            t3 = np.einsum("cq,cqda,cqda->", w, gm_qp, g_mxpsi)
            if gZm is None:         # grad(Z m_mid) serves every test field
                gZm = _grad_Z(rot, m_qp, gm_qp)
            Fj = _F_general(rot, space, gZm, gm_qp, m_x_psi, g_mxpsi)
            totals[idx] += k * (params.lambda1 * t1 - params.lambda2 * t2
                                - params.mu * t3 - params.mu * Fj)
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
