"""The theta-linear tangent-plane scheme.

One step: build an orthonormal tangent frame at every node, assemble the
nonsymmetric linear system for the update velocity v directly in the
2N-dimensional nodal tangent space, solve it with one single-precision
sparse LU factorization refined in double precision (no nonlinear
iteration), move m by k*v, renormalize nodally, and advance the rotation
field along the Wiener path in lockstep. `run` then hands the step to its
observers, inline, before the next step.

Discrete pairings: <v, w> and <m x v, w> use the lumped nodal pairing (the
cross term is then lambda1 L_n J in a right-handed frame, exactly skew, which
the per-path energy chain needs) while the stiffness and the rotation-twisted
load use consistent order-2 quadrature. With theta >= 1/2 the chain

  |grad m^(j+1)|^2 + 2 k mu^-1 lambda2 |v|_lumped^2
      + k^2 (2 theta - 1) |grad v|^2  <=  |grad m^j|^2 - 2 k F(t_j, m, v)

holds step by step in exact arithmetic on meshes whose stiffness matrix has
no positive off-diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp

from .errors import SolverFailure
from .fem import StepLayout, normalize_nodal
from .rotation import (RotationField, assemble_rotated_stiffness,
                       evolve_step, init_rotation_field)

# Fields of the per-step diagnostics row (filled in run and _update), in the
# column order of the diagnostics CSV.
DIAGNOSTIC_COLUMNS = ("j", "t", "energy", "v_norm_sq", "F_value",
                      "residual", "grad_v_sq", "tangency_max",
                      "unit_dev_max")
DIAGNOSTICS_DTYPE = np.dtype([(name, int if name == "j" else float)
                              for name in DIAGNOSTIC_COLUMNS])


@dataclass(frozen=True)
class SchemeParams:
    """Scheme constants, mu and k derived on construction; a bad constant,
    or one that over- or underflows mu, underflows k or overflows k^2,
    raises ValueError whose message starts with the field name."""

    lambda1: float
    lambda2: float
    theta: float = 1.0
    T: float = 1.0
    J: int = 100
    solver_tol: float = 1e-12
    mu: float = dataclass_field(init=False)
    k: float = dataclass_field(init=False)

    def __post_init__(self):
        if self.lambda1 == 0.0:
            raise ValueError(f"lambda1 must be nonzero, got {self.lambda1}")
        if not self.lambda2 > 0.0:
            raise ValueError(f"lambda2 must be positive, got {self.lambda2}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")
        if not self.solver_tol > 0.0:
            raise ValueError(
                f"solver_tol must be positive, got {self.solver_tol}")
        mu = self.lambda1 * self.lambda1 + self.lambda2 * self.lambda2
        k = self.T / self.J
        big = ("lambda1", "lambda2")[abs(self.lambda2) > abs(self.lambda1)]
        for name, what, bad in ((big, "mu overflow", not np.isfinite(mu)),
                                (big, "mu underflow", mu == 0.0),
                                ("T", "k underflow", k == 0.0),
                                ("T", "k^2 overflow", not np.isfinite(k * k))):
            if bad:
                raise ValueError(f"{name} = {getattr(self, name)} makes "
                                 f"{what}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "k", k)


# c in the step-size guard k <= c h (theta = 1/2) or k <= c h^2 (theta < 1/2)
GUARD_C = 2.0


def check_theta_guard(params, h):
    """Step-size guard per stability regime.

    theta > 1/2 is unconditional; theta = 1/2 requires k <= GUARD_C * h;
    theta < 1/2 requires k <= GUARD_C * h^2. Returns (ok, bound).
    """
    if params.theta > 0.5:
        return True, np.inf
    bound = GUARD_C * (h if params.theta == 0.5 else h * h)
    return params.k <= bound, bound


def build_tangent_frame(m):
    """Per node, an orthonormal pair tau (N, 2, 3) spanning the plane
    orthogonal to m, with (tau_0, tau_1, m) right-handed, which makes the
    step's cross block the constant J: another frame must keep this.

    The Householder reflector w = m + sign(m_z) e3 maps e3 to -sign(m_z) m,
    so its images of e1 and e2 (e2's negated where m_z < 0) span the tangent
    plane; |w|^2 = 2 + 2|m_z| never degenerates, and m = e3 yields the
    canonical pair (e1, e2). No continuity across nodes or steps is promised.
    """
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-8)
    if bad.size:
        raise ValueError(f"node {bad[0]} is not unit length "
                         f"(|m| = {norms[bad[0]]!r})")
    sign = np.where(m[:, 2] >= 0.0, 1.0, -1.0)
    w = m.copy()
    w[:, 2] += sign
    wsq = np.sum(w * w, axis=1)
    tau = np.empty((len(m), 2, 3))
    for a in range(2):
        coef = 2.0 * w[:, a] / wsq
        tau[:, a, :] = -coef[:, None] * w
        tau[:, a, a] += 1.0
    tau[:, 1] *= sign[:, None]
    return tau


@dataclass(frozen=True)
class StepSystem:
    """Assembled tangent-coordinate system for one step.

    `matrix` has the fixed structure of `layout` (the space's
    P1Space.step_layout()), in the layout's order; `rhs` is node-major.
    """

    matrix: sp.csc_matrix    # (2N, 2N), A[p][:, p], p = layout.order
    rhs: np.ndarray          # (2N,), node-major
    layout: StepLayout


def assemble_step_system(m, tau, field, params, space):
    """Assemble the step system in tangent coordinates.

    Bilinear form a(v, w) = -lambda2 <v,w>_lumped + lambda1 <m x v, w>_lumped
    - mu k theta <grad v, grad w>; load l(w) = mu (<grad m, grad w> +
    F(t_j, m, w)), evaluated through the rotation-twisted stiffness so the
    F term is exactly the identity-form value on every basis function.

    With v_n = sum_a c_(n,a) tau_(n,a), the 2x2 block (i, j) of the matrix
    is -mu k theta K_ij tau_i tau_j^T over the nonzero pattern of K, and
    node n's diagonal block also holds L_n (lambda1 J - lambda2 I), L the
    lumped mass and J = [[0, -1], [1, 0]], as tau_(n,b) . (m_n x tau_(n,a))
    = J[b, a] in a right-handed frame. The load is
    rhs_(n,a) = tau_(n,a) . (mu KZ m)_n.

    The pattern is K's nonzeros in every step, so the space's StepLayout,
    built on its first step, holds it: the blocks are written straight
    into the data of its CSC matrix, in the order that SuperLU factors.
    """
    N = len(m)
    layout = space.step_layout()
    lumped = space.lumped_mass_diagonal()
    blocks = tau[layout.rows] @ tau[layout.cols].transpose(0, 2, 1)
    blocks *= (-params.mu * params.k * params.theta
               * layout.values)[:, None, None]
    blocks[layout.diagonal] += lumped[:, None, None] * np.array(
        [[-params.lambda2, -params.lambda1],
         [params.lambda1, -params.lambda2]])
    load = params.mu * (assemble_rotated_stiffness(field) @ m.ravel())
    rhs = np.einsum("nac,nc->na", tau, load.reshape(N, 3)).ravel()
    return StepSystem(matrix=layout.matrix(blocks), rhs=rhs, layout=layout)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one step solve.

    `iterations` is the number of LU solves the step made: the first one
    and each refinement sweep, 1 to MAX_SOLVES. `residual` is the final
    relative residual, at most the solver tolerance.
    """

    coefficients: np.ndarray  # (2N,), node-major
    iterations: int
    residual: float


# LU solves per step at most: the first and its refinement sweeps. The
# workloads' steps need 2 or 3
MAX_SOLVES = 10


def _norm(x):
    """The 2-norm of a 1-D array as numpy's pairwise sum of squares.

    np.linalg.norm and `@` hand a long vector to BLAS, whose sum is split
    over OpenBLAS's threads: its bits would depend on their count. A norm
    that overflows is inf.
    """
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(x * x)))


def solve_step(system, params):
    """Solve for the step's tangent coefficients.

    One single-precision sparse LU factorization (SuperLU, through
    StepLayout.factor) of the step matrix, which is already in its
    layout's fill-reducing order, refined in double precision. From c = 0
    and r = b, each sweep adds the factor's correction for r to c and
    forms r = b - A c with the float64 matrix, until the relative residual
    |r| / |b| (|r| when b = 0, as for a uniform field) is at most
    params.solver_tol. The solution is then taken back to node-major.

    A load whose norm is not finite, a singular factorization, or a sweep
    that does not at least halve the residual (a non-finite one
    included), or MAX_SOLVES solves without reaching the tolerance, raise
    SolverFailure with the residual reached. There is no other path.
    """
    A, layout = system.matrix, system.layout
    b = system.rhs[layout.order]
    load = _norm(b)
    if not np.isfinite(load):
        raise SolverFailure(f"the step's load has a non-finite norm "
                            f"({load})", residual=np.nan)
    try:
        solve = layout.factor(A)
    except RuntimeError as ex:         # SuperLU: factor is exactly singular
        raise SolverFailure(f"sparse LU failed: {ex}", residual=np.inf)
    c, r, residual = np.zeros_like(b), b, 1.0
    for solves in range(1, MAX_SOLVES + 1):
        c += solve(r)
        r = b - A @ c
        last, residual = residual, _norm(r) / (load or 1.0)
        if residual <= params.solver_tol:
            return SolveResult(c[layout.inverse], solves, residual)
        if not residual <= 0.5 * last:
            break
    raise SolverFailure(f"the float32 LU's refinement stopped contracting: "
                        f"relative residual {residual:.3e} after {solves} "
                        f"solves (tolerance {params.solver_tol:.3e})",
                        residual=residual)


def advance(m, v, params):
    """Move m by k*v and renormalize nodally; returns m^(j+1).

    Tangency makes |m + k v|^2 = 1 + k^2 |v|^2 >= 1 at every node, so the
    normalization is always well posed.
    """
    return normalize_nodal(m + params.k * np.asarray(v))


@dataclass(frozen=True)
class Step:
    """What one step of `run` saw and produced, handed to every observer.

    `m` is m^j, `v` the tangent update v^j, `m_next` the renormalized
    m^(j+1); `field` is the rotation field at t_j that assembled the step
    (left endpoint) and `field_next` the field at t_(j+1).
    """

    j: int
    m: np.ndarray            # (N, 3)
    v: np.ndarray            # (N, 3)
    m_next: np.ndarray       # (N, 3)
    field: RotationField
    field_next: RotationField


@dataclass
class Trajectory:
    """A scheme run: the final state and the per-step scalars."""

    params: SchemeParams
    m: np.ndarray            # (N, 3), m^J
    energy: np.ndarray       # (J+1,), |grad m^j|^2
    diagnostics: np.ndarray  # (J,) of DIAGNOSTICS_DTYPE, one row per step
    m0_drift: float


def run(m0, params, path, coeffs, space, observers=()):
    """Run the scheme for J steps along one Wiener path.

    This is the only time loop: anything that needs the nodal states or
    the rotation field along the way is an observer, so a trajectory is
    walked once and memory does not grow with J.

    Parameters
    ----------
    m0 : (N, 3) finite nodal initial data (else ValueError, before any
        step); renormalized once (max drift recorded).
    params : SchemeParams
    path : WienerPath with J = params.J and matching step k.
    coeffs : NoiseCoefficients
    space : P1Space
    observers : callables, each called as observer(step) once per step,
        j = 0, ..., J-1, in the order given, with the frozen Step record of
        that step (see Step), right after the step is solved and before the
        next one is assembled. The arrays and fields are the loop's own and
        later steps read them: observers must not mutate them, and may keep
        references to them. An observer's exception ends the run.

    Returns
    -------
    Trajectory, whose diagnostics hold one DIAGNOSTICS_DTYPE row per step.
    """
    if path.J != params.J:
        raise ValueError(f"path has J = {path.J}, params J = {params.J}")
    if abs(path.k - params.k) > 1e-12 * params.k:
        raise ValueError("path step k does not match params")
    if path.q != coeffs.q:
        raise ValueError("path and noise coefficients disagree on q")

    m = np.asarray(m0, dtype=float)
    if m.shape != (space.N, 3):
        raise ValueError(f"m0 has shape {m.shape}, expected ({space.N}, 3)")
    bad = np.flatnonzero(~np.isfinite(m).all(axis=1))
    if bad.size:
        raise ValueError(f"m0 has a non-finite value at node {bad[0]}")
    drift = float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max())
    m = normalize_nodal(m)

    field = init_rotation_field(space, coeffs)
    J, k, K = params.J, params.k, space.stiffness()

    # row j holds t_j = j k and the Dirichlet energy |grad m^j|^2
    diagnostics = np.empty(J, dtype=DIAGNOSTICS_DTYPE)
    for j in range(J):
        row = diagnostics[j]
        row["j"], row["t"], row["energy"] = j, j * k, np.sum(m * (K @ m))
        v = _update(m, field, params, space, row)
        m_next = advance(m, v, params)
        next_field = evolve_step(field, path.increments[j], k)
        step = Step(j=j, m=m, v=v, m_next=m_next, field=field,
                    field_next=next_field)
        for observe in observers:
            observe(step)
        # frees the field at t_j before the next solve
        del step
        m, field = m_next, next_field

    energy = np.append(diagnostics["energy"], np.sum(m * (K @ m)))
    return Trajectory(params=params, m=m, energy=energy,
                      diagnostics=diagnostics, m0_drift=drift)


def _update(m, field, params, space, row):
    """Solve one step from m^j at the field's time: returns the update v
    and fills the solve's fields of `row`, a DIAGNOSTICS_DTYPE record.

    The frame, the step system and the factorization are freed on return.
    """
    K = space.stiffness()
    tau = build_tangent_frame(m)
    system = assemble_step_system(m, tau, field, params, space)
    sol = solve_step(system, params)
    v = np.einsum("na,nab->nb", sol.coefficients.reshape(len(m), 2), tau)
    Kv = K @ v
    row["v_norm_sq"] = np.sum(space.lumped_mass_diagonal()
                              * np.sum(v * v, axis=1))
    # c.b = mu v.(KZ m) and KZ is symmetric, so c.b / mu - m.(K v) is
    # F(t_j, m, v) = m^T (KZ - K (x) I) v without applying KZ again. c.b is
    # numpy's pairwise sum, not a BLAS dot, whose bits would depend on the
    # OpenBLAS thread count
    row["F_value"] = (np.sum(sol.coefficients * system.rhs) / params.mu
                      - np.sum(m * Kv))
    row["residual"] = sol.residual
    row["grad_v_sq"] = np.sum(v * Kv)
    row["tangency_max"] = np.abs(np.sum(v * m, axis=1)).max()
    row["unit_dev_max"] = np.abs(np.linalg.norm(m, axis=1) - 1.0).max()
    return v


def energy_inequality_gaps(traj):
    """Per-step slack of the energy chain; nonpositive means it holds.

    gap_j = |grad m^(j+1)|^2 + 2 k mu^-1 lambda2 |v^j|^2_lumped
            + k^2 (2 theta - 1) |grad v^j|^2
            - |grad m^j|^2 + 2 k F(t_j, m^j, v^j)
    """
    p, d = traj.params, traj.diagnostics
    lhs = (traj.energy[1:] + 2.0 * p.k * p.lambda2 / p.mu * d["v_norm_sq"]
           + p.k * p.k * (2.0 * p.theta - 1.0) * d["grad_v_sq"])
    return lhs - (traj.energy[:-1] - 2.0 * p.k * d["F_value"])
