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

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverFailure, TimeMismatchError
from .fem import normalize_nodal
from .rotation import (assemble_rotated_stiffness, evolve_step,
                       init_rotation_field)


@dataclass(frozen=True)
class SchemeParams:
    """Scheme constants; mu and k are derived and stored on construction."""

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
            raise ValueError("lambda1 must be nonzero")
        if not self.lambda2 > 0.0:
            raise ValueError("lambda2 must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if not self.solver_tol > 0.0:
            raise ValueError("solver_tol must be positive")
        object.__setattr__(self, "mu", self.lambda1 ** 2 + self.lambda2 ** 2)
        object.__setattr__(self, "k", self.T / self.J)


def check_theta_guard(params, h, guard_c=2.0):
    """Step-size guard per stability regime.

    theta > 1/2 is unconditional; theta = 1/2 requires k <= guard_c * h;
    theta < 1/2 requires k <= guard_c * h^2. Returns (ok, bound).
    """
    if params.theta > 0.5:
        return True, np.inf
    bound = guard_c * (h if params.theta == 0.5 else h * h)
    return params.k <= bound, bound


@dataclass(frozen=True)
class TangentFrame:
    """Per node, an orthonormal pair spanning the plane orthogonal to m."""

    tau: np.ndarray          # (N, 2, 3)


def build_tangent_frame(m):
    """Deterministic orthonormal tangent pairs via a Householder reflection.

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
    return TangentFrame(tau)


@dataclass
class NodalState:
    """Magnetization nodal vectors at step j, with the tangent update and
    the Dirichlet energy |grad m|^2 recorded."""

    j: int
    m: np.ndarray
    v: np.ndarray | None
    energy: float


@dataclass(frozen=True)
class StepSystem:
    """Assembled tangent-coordinate system for one step."""

    matrix: sp.csc_matrix    # (2N, 2N), node-major 2x2 blocks
    rhs: np.ndarray          # (2N,)
    frame: TangentFrame
    KZ: sp.csr_matrix        # rotation-twisted vector stiffness (3N, 3N)


def assemble_step_system(state, frame, field, params, space):
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
    """
    if field.j != state.j:
        raise TimeMismatchError(f"rotation field at index {field.j}, "
                                f"state at index {state.j}")
    m, tau = state.m, frame.tau
    N = len(m)
    K = space.stiffness().copy()
    K.eliminate_zeros()      # exact zeros (right-angle edges) only add LU fill
    lumped = space.lumped_mass_diagonal()
    rows = np.repeat(np.arange(N), np.diff(K.indptr))
    blocks = tau[rows] @ tau[K.indices].transpose(0, 2, 1)
    blocks *= (-params.mu * params.k * params.theta * K.data)[:, None, None]
    C = np.einsum("nbc,nac->nba", tau, np.cross(m[:, None, :], tau))
    node_blocks = lumped[:, None, None] * (params.lambda1 * C
                                           - params.lambda2 * np.eye(2))
    diag = np.flatnonzero(K.indices == rows)
    blocks[diag] += node_blocks[rows[diag]]
    A = sp.bsr_matrix((blocks, K.indices, K.indptr), shape=(2 * N, 2 * N))
    KZ = assemble_rotated_stiffness(field)
    load = params.mu * (KZ @ m.ravel())
    rhs = np.einsum("nac,nc->na", tau, load.reshape(N, 3)).ravel()
    return StepSystem(matrix=A.tocsc(), rhs=rhs, frame=frame, KZ=KZ)


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

    One sparse LU factorization (SuperLU) of the step matrix, then a check
    of the relative residual |A c - b| / |b| against params.solver_tol. A
    singular factorization, a non-finite solution, or a residual above the
    tolerance raises SolverFailure.
    """
    A, b = system.matrix, system.rhs
    tau = system.frame.tau
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        c = np.zeros(A.shape[0])
        return SolveResult(_tangent_to_nodal(c, tau), c, 0, 0.0)

    try:
        # the pattern is symmetric (K's, in 2x2 blocks), so order on A + A^T:
        # less fill, memory and time than the default column ordering
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:          # SuperLU: factor is exactly singular
        raise SolverFailure(f"sparse LU failed: {e}", residual=np.inf)
    c = lu.solve(b)
    residual = float(np.linalg.norm(A @ c - b) / bnorm)
    if not residual <= params.solver_tol:
        raise SolverFailure(f"linear solve reached relative residual "
                            f"{residual:.3e} (tolerance "
                            f"{params.solver_tol:.3e})", residual=residual)
    return SolveResult(_tangent_to_nodal(c, tau), c, 0, residual)


def _tangent_to_nodal(c, tau):
    return np.einsum("na,nab->nb", c.reshape(len(tau), 2), tau)


def advance(state, v, params, space=None):
    """Move m by k*v and renormalize nodally; returns the state at j + 1.

    Tangency makes |m + k v|^2 = 1 + k^2 |v|^2 >= 1 at every node, so the
    normalization is always well posed. Energy is recorded when a space is
    supplied.
    """
    m_next = normalize_nodal(state.m + params.k * np.asarray(v))
    energy = _dirichlet_energy(space, m_next) if space is not None else np.nan
    return NodalState(j=state.j + 1, m=m_next, v=None, energy=energy)


def _dirichlet_energy(space, m):
    return float(np.sum(m * (space.stiffness() @ m)))


@dataclass
class Trajectory:
    """A full scheme run: states, updates, and per-step diagnostics."""

    params: SchemeParams
    times: np.ndarray        # (J+1,)
    m: np.ndarray            # (J+1, N, 3)
    v: np.ndarray            # (J, N, 3)
    energy: np.ndarray       # (J+1,), |grad m^j|^2
    diagnostics: list        # one dict per step (schema in run())
    m0_drift: float

    @property
    def J(self):
        return len(self.v)


def run(m0, params, path, coeffs, space, snapshot_hook=None):
    """Run the scheme for J steps along one Wiener path.

    Parameters
    ----------
    m0 : (N, 3) nodal initial data; renormalized once (max drift recorded).
    params : SchemeParams
    path : WienerPath with J = params.J and matching step k.
    coeffs : NoiseCoefficients
    space : P1Space
    snapshot_hook : optional callable (j, m, rotation_field) invoked after
        every accepted state, including j = 0.

    Returns
    -------
    Trajectory. Diagnostics rows carry: j, t, energy (at j), v_norm_sq
    (lumped), F_value = F(t_j, m^j, v^j), residual, grad_v_sq,
    tangency_max, unit_dev_max.
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
    drift = float(np.abs(np.linalg.norm(m, axis=1) - 1.0).max())
    m = normalize_nodal(m)

    K = space.stiffness()
    lumped = space.lumped_mass_diagonal()
    field = init_rotation_field(space, coeffs)
    J, k = params.J, params.k

    ms = np.empty((J + 1, space.N, 3))
    vs = np.empty((J, space.N, 3))
    energies = np.empty(J + 1)
    ms[0] = m
    energies[0] = float(np.sum(m * (K @ m)))
    diagnostics = []
    state = NodalState(j=0, m=m, v=None, energy=energies[0])
    if snapshot_hook is not None:
        snapshot_hook(0, m, field)

    for j in range(J):
        frame = build_tangent_frame(state.m)
        system = assemble_step_system(state, frame, field, params, space)
        sol = solve_step(system, params)
        v = sol.v
        state.v = v
        F_value = float(state.m.ravel() @ (system.KZ @ v.ravel())
                        - np.sum(state.m * (K @ v)))
        diagnostics.append({
            "j": j,
            "t": j * k,
            "energy": state.energy,
            "v_norm_sq": float(np.sum(lumped * np.sum(v * v, axis=1))),
            "F_value": F_value,
            "residual": sol.residual,
            "grad_v_sq": float(np.sum(v * (K @ v))),
            "tangency_max": float(np.abs(np.sum(v * state.m, axis=1)).max()),
            "unit_dev_max": float(
                np.abs(np.linalg.norm(state.m, axis=1) - 1.0).max()),
        })
        vs[j] = v
        state = advance(state, v, params, space)
        ms[j + 1] = state.m
        energies[j + 1] = state.energy
        field = evolve_step(field, path.increments[j], k)
        if snapshot_hook is not None:
            snapshot_hook(j + 1, state.m, field)

    return Trajectory(params=params, times=k * np.arange(J + 1), m=ms, v=vs,
                      energy=energies, diagnostics=diagnostics,
                      m0_drift=drift)


def energy_inequality_gaps(traj):
    """Per-step slack of the energy chain; nonpositive means it holds.

    gap_j = |grad m^(j+1)|^2 + 2 k mu^-1 lambda2 |v^j|^2_lumped
            + k^2 (2 theta - 1) |grad v^j|^2
            - |grad m^j|^2 + 2 k F(t_j, m^j, v^j)
    """
    p = traj.params
    gaps = np.empty(traj.J)
    for j, row in enumerate(traj.diagnostics):
        lhs = (traj.energy[j + 1]
               + 2.0 * p.k * p.lambda2 / p.mu * row["v_norm_sq"]
               + p.k ** 2 * (2.0 * p.theta - 1.0) * row["grad_v_sq"])
        rhs = traj.energy[j] - 2.0 * p.k * row["F_value"]
        gaps[j] = lhs - rhs
    return gaps
