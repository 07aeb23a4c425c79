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
With m = m'(t_mid), dm = dm'/dt and the fields (a, b) of rotation.F_pairing,
F(t, m, w) = sum_qp w (w . a + sum_d d_d w . b_d) (the one form of F in
the rotation module docstring), they are

  R   = lambda1 (m x dm) x m - lambda2 dm x m - mu (a x m + sum_d b_d x d_d m)
  S_d = -mu (d_d m + b_d) x m

and the interval adds k bump(t_mid) sum_qp w (Psi . R + grad Psi : S) for
psi = bump Psi. Every test field has the same bump, so the run sums
k bump(t_mid) (R, S) and pairs the sum with each Psi once. With
w = m x psi, d_d w = d_d m x psi + m x d_d psi, and the terms follow from
(m x psi) . X = psi . (X x m) and d_d m . (d_d m x psi) = 0;
<grad m', grad(m' x psi)> gives the d_d m x m part of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeMismatchError
from .rotation import F_pairing, evolve_step
from .rotation import init_rotation_field  # noqa: F401  (perfbench traces it)

# 3-point Gauss-Legendre on [0, 1]; used where the time integrand is not
# polynomial (the unit-norm defect of the linear interpolant)
_GAUSS_A = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5,
                     0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0

# cells per block of the weak residual's (R, S)
_CELL_BLOCK = 2048


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

    Each step samples m_next and v - (m_next - m)/k once; m's samples are
    the previous step's. |(1 - a) m + a m_next|^2 at a Gauss time a is
    formed from the per-point |m|^2, m . m_next and |m_next|^2.
    """
    errors = {"m_minus_mleft_sq": 0.0, "unit_defect_sq": 0.0,
              "v_minus_dtm_l1": 0.0}
    last = (None, None, None)       # the last m_next seen, its samples, |.|^2

    def observe(step):
        nonlocal last
        prev, m_qp, m_sq = last
        if step.m is not prev:      # run hands the previous m_next on as m
            m_qp = space.values_at_qp(step.m)
            m_sq = _dot(m_qp, m_qp)
        m_next_qp = space.values_at_qp(step.m_next)
        last = (step.m_next, m_next_qp, _dot(m_next_qp, m_next_qp))
        both, next_sq = _dot(m_qp, m_next_qp), last[2]
        diff_qp = m_next_qp - m_qp
        errors["m_minus_mleft_sq"] += (k / 3.0) * space.integrate(
            _dot(diff_qp, diff_qp))
        for a, wgt in zip(_GAUSS_A, _GAUSS_W):
            norms = np.sqrt((1.0 - a) ** 2 * m_sq + (2.0 * a * (1.0 - a))
                            * both + a ** 2 * next_sq)
            errors["unit_defect_sq"] += (k * wgt
                                         * space.integrate((norms - 1.0) ** 2))
        gap = space.values_at_qp(step.v - (step.m_next - step.m) / k)
        errors["v_minus_dtm_l1"] += k * space.integrate(
            np.sqrt(_dot(gap, gap)))

    return observe, errors


def _dot(x, y):
    """Per-point dot products of (c, q, 3) samples."""
    return np.einsum("cqa,cqa->cq", x, y)


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


def _contracted_residual(params, AB, rows, m_qp, gm, dtm_qp, w):
    """One step's fields (R, S) at the quadrature points of some cells: a
    test field psi = bump Psi contributes k bump(t_mid) sum w (Psi . R +
    grad Psi : S) to the interval (module docstring).

    AB holds the rotation field's invariants and rows (c, q) the points'
    field rows; m_qp (c, q, 3) and gm (c, dim, 3) sample the midpoint value
    of the interpolant, dtm_qp (c, q, 3) its time derivative, and w (c, q)
    holds the weights, which R (c, q, 3) and S (c, q, dim, 3) carry. Cross
    products are formed one component at a time, on (c, q) planes.
    """
    mu, dim = params.mu, gm.shape[1]
    a, b = F_pairing(AB, rows, m_qp, gm)
    m, dm, a = (np.moveaxis(x, -1, 0) for x in (m_qp, dtm_qp, a))
    R = _cross(params.lambda1 * _cross(m, dm) - params.lambda2 * dm - mu * a,
               m)
    # S_d = (d_d m + b_d) x m', with m' = -mu w m
    mw = -mu * w * m
    S = np.empty((dim, 3) + w.shape)
    g = np.moveaxis(gm, 0, -1)[..., None]           # (dim, 3, c, 1)
    for d in range(dim):
        bd = np.moveaxis(b[..., d, :], -1, 0)
        R -= mu * _cross(bd, g[d])
        S[d] = _cross(g[d] + bd, mw)
    R *= w
    return np.moveaxis(R, 0, -1), np.moveaxis(S, (0, 1), (-2, -1))


def _cross(x, y):
    """x x y for vectors stored component-first, x[i] and y[i] the planes
    of component i."""
    return np.stack([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                     x[0] * y[1] - x[1] * y[0]])


def weak_residual(space, params, path, fields):
    """Observer of `scheme.run` evaluating I(m_lin, time_profile * Psi)
    pathwise for each TestField Psi in the list `fields`.

    Returns (observer, totals); totals holds one value per test field,
    filled in at j = params.J - 1. The rotation field is replayed along the
    path in lockstep with the run, from the run's own field at j = 0; each
    interval uses the midpoint value of the interpolant, the piecewise-
    constant discrete time derivative, and its left-endpoint rotation field.
    A step inside the bump's support makes three samplings over all
    cells, values_at_qp of m_mid and of (m_next - m) / k and grads_at_qp
    of m_mid, and forms the invariants once, then (R, S) _CELL_BLOCK cells
    at a time; a step outside it samples nothing.
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
            m_mid = 0.5 * (step.m + step.m_next)
            AB = rot.invariants()
            samples = (rot.qp_rows(), space.values_at_qp(m_mid),
                       space.grads_at_qp(m_mid),
                       space.values_at_qp((step.m_next - step.m) / k),
                       (k * b) * w)
            for c0 in range(0, len(w), _CELL_BLOCK):
                cells = slice(c0, c0 + _CELL_BLOCK)
                R, S = _contracted_residual(params, AB,
                                            *(x[cells] for x in samples))
                acc[0][cells] += R
                acc[1][cells] += S
        if step.j == params.J - 1:
            # numpy's pairwise sums, not BLAS dots: OpenBLAS splits a long
            # dot over its threads, and the bits would follow their count
            for idx, f in enumerate(fields):
                psi_qp, grad_psi_qp = f.evaluate(qp_flat)
                totals[idx] = (np.sum(psi_qp.ravel() * acc[0].ravel())
                               + np.sum(grad_psi_qp.ravel()
                                        * acc[1].ravel()))
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
