"""Tangent-plane theta scheme: frames, assembly, solving, stepping."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem.errors import SolverFailure, TimeMismatchError
from sllgfem.fem import (P1Space, check_offdiag_condition, interpolate_nodal,
                         normalize_nodal)
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.rotation import (assemble_rotated_stiffness, cross_matrix,
                              evolve_step, init_rotation_field)
from sllgfem.scheme import (NodalState, SchemeParams, StepSystem, advance,
                            assemble_step_system, build_tangent_frame,
                            check_theta_guard, energy_inequality_gaps, run,
                            solve_step)
from sllgfem.wiener import sample_path


def space8():
    return P1Space(build_structured_mesh(2, 8))


def spiral_m0(space, tilt=0.3):
    def f(x):
        c, s = np.cos(tilt), np.sin(tilt)
        ang = 2 * np.pi * x[:, 0]
        return np.stack([c * np.cos(ang), c * np.sin(ang),
                         s + 0 * ang], axis=1)
    return normalize_nodal(interpolate_nodal(f, space))


def default_params(**kw):
    base = dict(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.5, J=25)
    base.update(kw)
    return SchemeParams(**base)


# ----------------------------------------------------------- parameters

def test_params_derive_mu_and_k():
    p = SchemeParams(lambda1=2.0, lambda2=0.5, theta=0.7, T=2.0, J=80)
    assert p.mu == 2.0 ** 2 + 0.5 ** 2
    assert p.k == 2.0 / 80
    assert p.k * p.J == pytest.approx(p.T, abs=1e-16)


@pytest.mark.parametrize("kw", [
    dict(lambda1=0.0, lambda2=1.0),
    dict(lambda1=1.0, lambda2=0.0),
    dict(lambda1=1.0, lambda2=-1.0),
    dict(lambda1=1.0, lambda2=1.0, theta=1.5),
    dict(lambda1=1.0, lambda2=1.0, theta=-0.1),
    dict(lambda1=1.0, lambda2=1.0, T=0.0),
    dict(lambda1=1.0, lambda2=1.0, J=0),
    dict(lambda1=1.0, lambda2=1.0, solver_tol=0.0),
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        SchemeParams(**kw)


def test_theta_guard_regimes():
    h = 0.1
    ok, bound = check_theta_guard(default_params(theta=1.0, T=1.0, J=1), h)
    assert ok and bound == np.inf
    # theta = 1/2: k <= c h
    ok, bound = check_theta_guard(default_params(theta=0.5, T=1.0, J=4), h)
    assert bound == pytest.approx(0.2)
    assert not ok
    ok, _ = check_theta_guard(default_params(theta=0.5, T=1.0, J=10), h)
    assert ok
    # theta < 1/2: k <= c h^2
    ok, bound = check_theta_guard(default_params(theta=0.3, T=1.0, J=20), h)
    assert bound == pytest.approx(0.02)
    assert not ok
    ok, _ = check_theta_guard(default_params(theta=0.3, T=1.0, J=100), h)
    assert ok


# ---------------------------------------------------------------- frames

def test_frame_canonical_at_north_pole():
    frame = build_tangent_frame(np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(frame.tau[0, 0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(frame.tau[0, 1], [0.0, 1.0, 0.0], atol=1e-15)


def test_frame_survives_the_antipode():
    frame = build_tangent_frame(np.array([[0.0, 0.0, -1.0]]))
    tau = frame.tau[0]
    gram = tau @ tau.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(tau @ [0.0, 0.0, -1.0], 0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
       .filter(lambda u: sum(x * x for x in u) > 1e-4))
def test_frame_orthonormal_tangent_property(u):
    m = np.asarray(u) / np.linalg.norm(u)
    tau = build_tangent_frame(m[None, :]).tau[0]
    np.testing.assert_allclose(tau @ tau.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(tau @ m, 0.0, atol=1e-12)


def test_frame_rejects_non_unit_node():
    m = np.tile([0.0, 0.0, 1.0], (4, 1))
    m[2] *= 1.5
    with pytest.raises(ValueError, match="node 2"):
        build_tangent_frame(m)


# -------------------------------------------------------------- assembly

def test_constant_state_zero_noise_is_stationary():
    space = space8()
    m = np.tile([0.0, 0.0, 1.0], (space.N, 1))
    state = NodalState(j=0, m=m, v=None, energy=0.0)
    field = init_rotation_field(space, make_noise("zero"))
    params = default_params()
    system = assemble_step_system(state, build_tangent_frame(m), field,
                                  params, space)
    assert np.linalg.norm(system.rhs) == 0.0
    sol = solve_step(system, params)
    assert np.all(sol.v == 0.0)
    assert sol.residual == 0.0


def test_quadratic_form_is_negative_definite():
    # a(w, w) = -lambda2 |w|^2_lumped - mu k theta |grad w|^2 for tangent w
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    frame = build_tangent_frame(m)
    field = init_rotation_field(space, make_noise("zero"))
    params = default_params(lambda1=1.3, lambda2=0.7, theta=0.8)
    system = assemble_step_system(state, frame, field, params, space)
    lumped = space.lumped_mass_diagonal()
    K = space.stiffness()
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = rng.standard_normal(2 * space.N)
        w = np.einsum("na,nab->nb", c.reshape(space.N, 2), frame.tau)
        quad = float(c @ (system.matrix @ c))
        expected = (-params.lambda2 * np.sum(lumped * np.sum(w * w, axis=1))
                    - params.mu * params.k * params.theta
                    * float(np.sum(w * (K @ w))))
        assert quad == pytest.approx(expected, rel=1e-12, abs=1e-13)
        assert quad < 0.0


def test_assembly_rejects_desynchronized_field():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=3, m=m, v=None, energy=np.nan)
    field = init_rotation_field(space, make_noise("zero"))  # at j = 0
    with pytest.raises(TimeMismatchError):
        assemble_step_system(state, build_tangent_frame(m), field,
                             default_params(), space)


def evolved_step_inputs(dim, divisions, steps=3):
    """A state whose m_z takes both signs, its frame, and a rotation field
    evolved `steps` steps along spatially varying noise."""
    space = P1Space(build_structured_mesh(dim, divisions))
    ang = 2 * np.pi * space.mesh.vertices[:, 0]
    m = normalize_nodal(np.stack(
        [np.sin(ang), 0.4 * np.cos(3 * space.mesh.vertices[:, 1]),
         np.cos(ang)], axis=1))
    assert np.any(m[:, 2] > 0.1) and np.any(m[:, 2] < -0.1)
    params = default_params(lambda1=1.3, lambda2=0.6, theta=0.7, J=20)
    coeffs = make_noise("linear-gradient")
    path = sample_path(4, coeffs.q, params.J, params.T)
    field = init_rotation_field(space, coeffs)
    for j in range(steps):
        field = evolve_step(field, path.increments[j], params.k)
    state = NodalState(j=steps, m=m, v=None, energy=np.nan)
    return space, state, build_tangent_frame(m), field, params


def projected_reference(space, state, frame, field, params):
    """P^T A3 P and P^T rhs3 from the (3N, 3N) nodal-vector form, with P
    the (3N, 2N) map from tangent coefficients to nodal vectors."""
    lumped = space.lumped_mass_diagonal()
    A3 = (-params.lambda2 * sp.diags(np.repeat(lumped, 3))
          + sp.block_diag(list(params.lambda1 * lumped[:, None, None]
                               * cross_matrix(state.m)))
          - params.mu * params.k * params.theta
          * sp.kron(space.stiffness(), sp.eye(3)))
    P = sp.block_diag([t.T for t in frame.tau])
    rhs3 = params.mu * (assemble_rotated_stiffness(field) @ state.m.ravel())
    return (P.T @ A3 @ P).toarray(), P.T @ rhs3


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_assembly_matches_projected_nodal_system(dim, divisions):
    space, state, frame, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(state, frame, field, params, space)
    A_ref, rhs_ref = projected_reference(space, state, frame, field, params)
    A = system.matrix.toarray()
    assert A.shape == A_ref.shape == (2 * space.N, 2 * space.N)
    np.testing.assert_allclose(A, A_ref, rtol=0,
                               atol=1e-14 * np.abs(A_ref).max())
    np.testing.assert_allclose(system.rhs, rhs_ref, rtol=0,
                               atol=1e-14 * np.abs(rhs_ref).max())
    assert np.linalg.norm(rhs_ref) > 0.0


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_lu_solution_matches_dense_solve(dim, divisions):
    space, state, frame, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(state, frame, field, params, space)
    sol = solve_step(system, params)
    c = np.linalg.solve(system.matrix.toarray(), system.rhs)
    np.testing.assert_allclose(sol.coefficients, c, rtol=0,
                               atol=1e-12 * np.abs(c).max())
    assert sol.iterations == 0
    assert sol.residual <= params.solver_tol


def test_solution_satisfies_weak_form_against_random_tangents():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    frame = build_tangent_frame(m)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(state, frame, field, params, space)
    sol = solve_step(system, params)
    resid = system.matrix @ sol.coefficients - system.rhs
    rng = np.random.default_rng(2)
    bnorm = np.linalg.norm(system.rhs)
    for _ in range(20):
        w = rng.standard_normal(2 * space.N)
        assert abs(resid @ w) <= 1e-10 * bnorm * np.linalg.norm(w)


def test_solver_failure_carries_residual():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    params = default_params(solver_tol=1e-30)
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(state, build_tangent_frame(m), field,
                                  params, space)
    with pytest.raises(SolverFailure) as err:
        solve_step(system, params)
    assert err.value.residual is not None
    assert err.value.residual > 1e-30


def test_singular_system_raises_solver_failure():
    space = space8()
    frame = build_tangent_frame(spiral_m0(space))
    n = 2 * space.N
    system = StepSystem(matrix=sp.csc_matrix((n, n)), rhs=np.ones(n),
                        frame=frame, KZ=None)
    with pytest.raises(SolverFailure) as err:
        solve_step(system, default_params())
    assert err.value.residual == np.inf


def test_non_finite_rhs_raises_solver_failure():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(state, build_tangent_frame(m), field,
                                  params, space)
    system.rhs[3] = np.nan
    with pytest.raises(SolverFailure) as err:
        solve_step(system, params)
    assert np.isnan(err.value.residual)


def test_update_is_tangent_at_nodes():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(state, build_tangent_frame(m), field,
                                  params, space)
    sol = solve_step(system, params)
    dots = np.abs(np.sum(sol.v * m, axis=1))
    assert dots.max() <= 1e-12 * max(1.0, np.abs(sol.v).max())


# -------------------------------------------------------------- stepping

def test_advance_identity_for_zero_update():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    nxt = advance(state, np.zeros_like(m), default_params(), space)
    assert nxt.j == 1
    np.testing.assert_allclose(nxt.m, m, atol=1e-15)


def test_advance_pythagoras_before_normalization():
    space = space8()
    m = spiral_m0(space)
    params = default_params()
    state = NodalState(j=0, m=m, v=None, energy=np.nan)
    frame = build_tangent_frame(m)
    field = init_rotation_field(space, make_noise("zero"))
    sol = solve_step(assemble_step_system(state, frame, field, params,
                                          space), params)
    stretched = m + params.k * sol.v
    lhs = np.sum(stretched * stretched, axis=1)
    rhs = 1.0 + params.k ** 2 * np.sum(sol.v * sol.v, axis=1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------------ runs

def test_zero_noise_energy_monotone_and_seed_independent():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=30)
    coeffs = make_noise("zero")
    t1 = run(m0, params, sample_path(0, 1, 30, 0.5), coeffs, space)
    t2 = run(m0, params, sample_path(99, 1, 30, 0.5), coeffs, space)
    assert np.all(np.diff(t1.energy) <= 1e-12)
    np.testing.assert_array_equal(t1.m, t2.m)
    np.testing.assert_array_equal(t1.v, t2.v)


def test_uniform_state_is_a_fixed_point():
    space = space8()
    m0 = np.tile([1.0, 0.0, 0.0], (space.N, 1))
    params = default_params(J=10)
    traj = run(m0, params, sample_path(1, 1, 10, 0.5), make_noise("zero"),
               space)
    assert np.all(traj.v == 0.0)
    np.testing.assert_array_equal(traj.m[-1], m0)
    assert traj.energy[-1] == 0.0


def test_unit_norms_and_tangency_along_stochastic_run():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=40)
    coeffs = make_noise("linear-gradient")
    traj = run(m0, params, sample_path(3, 1, 40, 0.5), coeffs, space)
    norms = np.linalg.norm(traj.m, axis=2)
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert max(r["tangency_max"] for r in traj.diagnostics) <= 1e-12
    assert max(r["residual"] for r in traj.diagnostics) <= params.solver_tol


@pytest.mark.parametrize("theta", [0.6, 1.0])
def test_energy_inequality_every_step(theta):
    space = space8()
    assert check_offdiag_condition(space).holds
    m0 = spiral_m0(space)
    params = default_params(theta=theta, J=50)
    coeffs = make_noise("pair-noncommuting")
    traj = run(m0, params, sample_path(7, 2, 50, 0.5), coeffs, space)
    gaps = energy_inequality_gaps(traj)
    assert gaps.max() <= 1e-9


def test_constant_g_run_reduces_to_deterministic():
    # spatially constant Z leaves the rotated Dirichlet form unchanged, so
    # the transformed unknown follows the zero-noise dynamics
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=30)
    noisy = run(m0, params, sample_path(5, 2, 30, 0.5),
                make_noise("pair-noncommuting", amplitude=1.0), space)
    quiet = run(m0, params, sample_path(5, 1, 30, 0.5), make_noise("zero"),
                space)
    np.testing.assert_allclose(noisy.m, quiet.m, atol=1e-8)


def test_snapshot_hook_sees_every_state():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=12)
    seen = []
    run(m0, params, sample_path(2, 1, 12, 0.5), make_noise("zero"), space,
        snapshot_hook=lambda j, m, field: seen.append((j, field.j)))
    assert [s[0] for s in seen] == list(range(13))
    assert [s[1] for s in seen] == list(range(13))


def test_run_rejects_mismatched_path():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=10)
    with pytest.raises(ValueError):
        run(m0, params, sample_path(0, 1, 20, 0.5), make_noise("zero"),
            space)
    with pytest.raises(ValueError):
        run(m0, params, sample_path(0, 2, 10, 0.5), make_noise("zero"),
            space)


def test_initial_drift_recorded_and_repaired():
    space = space8()
    m0 = spiral_m0(space) * 1.001
    params = default_params(J=5)
    traj = run(m0, params, sample_path(0, 1, 5, 0.5), make_noise("zero"),
               space)
    assert traj.m0_drift == pytest.approx(1e-3, rel=1e-6)
    assert np.abs(np.linalg.norm(traj.m[0], axis=1) - 1.0).max() <= 1e-12
