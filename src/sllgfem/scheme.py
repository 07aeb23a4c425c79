"""The theta-linear tangent-plane scheme.

One step: build an orthonormal tangent frame at every node, assemble the
nonsymmetric linear system for the update velocity v directly in the
2N-dimensional nodal tangent space, solve it with one sparse LU
factorization (no nonlinear iteration), move m by k*v, renormalize nodally,
and advance the rotation field along the Wiener path in lockstep.

Discrete pairings: <v, w> and <m x v, w> use the lumped nodal pairing (the
cross term is then exactly skew, which the per-path energy chain needs) while
the stiffness and the rotation-twisted load use consistent order-2
quadrature. With theta >= 1/2 the chain

  |grad m^(j+1)|^2 + 2 k mu^-1 lambda2 |v|_lumped^2
      + k^2 (2 theta - 1) |grad v|^2  <=  |grad m^j|^2 - 2 k F(t_j, m, v)

holds step by step in exact arithmetic on meshes whose stiffness matrix has
no positive off-diagonal entries.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp

from .errors import SolverFailure, TimeMismatchError
from .fem import StepLayout, normalize_nodal
from .rotation import (RotationField, assemble_rotated_stiffness,
                       evolve_step, init_rotation_field)

# Fields of the per-step diagnostics row (filled in _update), in the column
# order of the diagnostics CSV.
DIAGNOSTIC_COLUMNS = ("j", "t", "energy", "v_norm_sq", "F_value",
                      "residual", "grad_v_sq", "tangency_max",
                      "unit_dev_max")
DIAGNOSTICS_DTYPE = np.dtype([(name, int if name == "j" else float)
                              for name in DIAGNOSTIC_COLUMNS])


@dataclass(frozen=True)
class SchemeParams:
    """Scheme constants, mu and k derived on construction; a bad constant
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
        object.__setattr__(self, "mu", self.lambda1 ** 2 + self.lambda2 ** 2)
        object.__setattr__(self, "k", self.T / self.J)


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
    orthogonal to m, built by a Householder reflection.

    The reflector w = m + sign(m_z) e3 maps e3 to -sign(m_z) m, so its images
    of e1 and e2 span the tangent plane; |w|^2 = 2 + 2|m_z| never degenerates,
    and m = e3 yields the canonical pair (e1, e2). No continuity across nodes
    or steps is promised.
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
    return tau


@dataclass
class NodalState:
    """Magnetization nodal vectors at step j, with the Dirichlet energy
    |grad m|^2 recorded."""

    j: int
    m: np.ndarray
    energy: float


@dataclass(frozen=True)
class StepSystem:
    """Assembled tangent-coordinate system for one step.

    `matrix` has the fixed structure of `layout` (the space's
    P1Space.step_layout()), in the layout's order; `rhs` is node-major.
    """

    matrix: sp.csc_matrix    # (2N, 2N), A[p][:, p], p = layout.order
    rhs: np.ndarray          # (2N,), node-major
    tau: np.ndarray          # (N, 2, 3) tangent frame
    layout: StepLayout


def assemble_step_system(state, tau, field, params, space):
    """Assemble the step system in tangent coordinates.

    Bilinear form a(v, w) = -lambda2 <v,w>_lumped + lambda1 <m x v, w>_lumped
    - mu k theta <grad v, grad w>; load l(w) = mu (<grad m, grad w> +
    F(t_j, m, w)), evaluated through the rotation-twisted stiffness so the
    F term is exactly the identity-form value on every basis function.

    With v_n = sum_a c_(n,a) tau_(n,a), the 2x2 block (i, j) of the matrix
    is -mu k theta K_ij tau_i tau_j^T over the nonzero pattern of K, and
    node n's diagonal block also holds L_n (-lambda2 I + lambda1 C_n) with
    C_n[b, a] = tau_(n,b) . (m_n x tau_(n,a)), L the lumped mass. The load
    is rhs_(n,a) = tau_(n,a) . (mu KZ m)_n.

    The pattern is K's nonzeros in every step, so the space's StepLayout,
    built on its first step, holds it: the blocks are written straight
    into the data of its CSC matrix, in the order that SuperLU factors.
    """
    if field.j != state.j:
        raise TimeMismatchError(f"rotation field at index {field.j}, "
                                f"state at index {state.j}")
    m = state.m
    N = len(m)
    layout = space.step_layout()
    lumped = space.lumped_mass_diagonal()
    blocks = tau[layout.rows] @ tau[layout.cols].transpose(0, 2, 1)
    blocks *= (-params.mu * params.k * params.theta
               * layout.values)[:, None, None]
    C = np.einsum("nbc,nac->nba", tau, np.cross(m[:, None, :], tau))
    blocks[layout.diagonal] += lumped[:, None, None] * (
        params.lambda1 * C - params.lambda2 * np.eye(2))
    load = params.mu * (assemble_rotated_stiffness(field) @ m.ravel())
    rhs = np.einsum("nac,nc->na", tau, load.reshape(N, 3)).ravel()
    return StepSystem(matrix=layout.matrix(blocks), rhs=rhs, tau=tau,
                      layout=layout)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one step solve.

    `iterations` is always 0, since the solve is direct; the field stays
    because the benchmark tracer in perfbench/ reads it.
    """

    v: np.ndarray            # (N, 3), tangent at nodes by construction
    coefficients: np.ndarray
    iterations: int
    residual: float


def solve_step(system, params):
    """Solve for the tangent coefficients and rebuild the nodal update v.

    One sparse LU factorization (SuperLU, through StepLayout.factor) of
    the step matrix, which is already in its layout's fill-reducing order.
    The relative residual |A c - b| / |b| (|A c - b| when b = 0, as for a
    uniform field) is checked in that order against params.solver_tol,
    and the solution is taken back to node-major. A singular
    factorization, a non-finite solution, or a residual above the
    tolerance raises SolverFailure.
    """
    A, layout = system.matrix, system.layout
    try:
        lu = layout.factor(A)
    except RuntimeError as e:          # SuperLU: factor is exactly singular
        raise SolverFailure(f"sparse LU failed: {e}", residual=np.inf)
    b = system.rhs[layout.order]
    c = lu.solve(b)
    residual = float(np.linalg.norm(A @ c - b) / (np.linalg.norm(b) or 1.0))
    if not residual <= params.solver_tol:
        raise SolverFailure(f"linear solve reached relative residual "
                            f"{residual:.3e} (tolerance "
                            f"{params.solver_tol:.3e})", residual=residual)
    c = c[layout.inverse]
    return SolveResult(_tangent_to_nodal(c, system.tau), c, 0, residual)


def _tangent_to_nodal(c, tau):
    return np.einsum("na,nab->nb", c.reshape(len(tau), 2), tau)


def advance(state, v, params, space):
    """Move m by k*v and renormalize nodally; returns the state at j + 1,
    with its Dirichlet energy.

    Tangency makes |m + k v|^2 = 1 + k^2 |v|^2 >= 1 at every node, so the
    normalization is always well posed.
    """
    m_next = normalize_nodal(state.m + params.k * np.asarray(v))
    return NodalState(j=state.j + 1, m=m_next,
                      energy=_dirichlet_energy(space, m_next))


def _dirichlet_energy(space, m):
    return float(np.sum(m * (space.stiffness() @ m)))


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

    @property
    def J(self):
        return self.params.J


def run(m0, params, path, coeffs, space, observers=(), overlap=False):
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
        that step (see Step). The arrays and fields are the loop's own and
        later steps read them: observers must not mutate them, and may keep
        references to them.
    overlap : if true, each step's observers run on one background thread
        while the next step is assembled and solved. Only the step's numpy
        work overlaps with them: SuperLU's factorization holds the GIL
        (scipy 1.17.1), so each factorization stalls the observer thread.
        The observers still run one step at a time, in the order given, on
        the same Step records, so they compute the same values. Step j's
        batch is waited for before step j+1's is handed over, so at most
        one step is in flight, and the last batch is waited for before
        `run` returns; the thread does not outlive the call. An observer's
        exception is raised at the next step boundary at the latest; if a
        step fails while a batch is in flight, the batch is waited for and
        the step's error is raised.

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
    J, k = params.J, params.k

    diagnostics = np.empty(J, dtype=DIAGNOSTICS_DTYPE)
    state = NodalState(j=0, m=m, energy=_dirichlet_energy(space, m))

    # leaving the block waits for a batch in flight, whatever the outcome
    with (ThreadPoolExecutor(max_workers=1) if overlap
          else nullcontext()) as pool:
        pending = None              # the future of the batch in flight
        for j in range(J):
            v = _update(state, field, params, space, diagnostics[j])
            next_state = advance(state, v, params, space)
            next_field = evolve_step(field, path.increments[j], k)
            if pending is not None:
                pending.result()    # raises the batch's exception, if any
            step = Step(j=j, m=state.m, v=v, m_next=next_state.m,
                        field=field, field_next=next_field)
            if pool is None:
                _observe(observers, step)
            else:
                pending = pool.submit(_observe, observers, step)
            # without the overlap this frees the field at t_j before the
            # next solve; with it, the batch holds it until it finishes
            del step
            state, field = next_state, next_field
        if pending is not None:
            pending.result()

    return Trajectory(params=params, m=state.m,
                      energy=np.append(diagnostics["energy"], state.energy),
                      diagnostics=diagnostics, m0_drift=drift)


def _observe(observers, step):
    for observe in observers:
        observe(step)


def _update(state, field, params, space, row):
    """Solve one step from `state`: returns the update v and fills `row`,
    a DIAGNOSTICS_DTYPE record, field by field.

    The frame, the step system and the factorization are freed on return.
    """
    K = space.stiffness()
    tau = build_tangent_frame(state.m)
    system = assemble_step_system(state, tau, field, params, space)
    sol = solve_step(system, params)
    v, m = sol.v, state.m
    Kv = K @ v
    row["j"] = state.j
    row["t"] = state.j * params.k
    row["energy"] = state.energy
    row["v_norm_sq"] = np.sum(space.lumped_mass_diagonal()
                              * np.sum(v * v, axis=1))
    # c.b = mu v.(KZ m) and KZ is symmetric, so c.b / mu - m.(K v) is
    # F(t_j, m, v) = m^T (KZ - K (x) I) v without applying KZ again
    row["F_value"] = sol.coefficients @ system.rhs / params.mu - np.sum(m * Kv)
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
           + p.k ** 2 * (2.0 * p.theta - 1.0) * d["grad_v_sq"])
    return lhs - (traj.energy[:-1] - 2.0 * p.k * d["F_value"])
