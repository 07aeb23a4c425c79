"""Tangent-plane theta scheme: frames, assembly, solving, stepping."""

import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem import scheme
from sllgfem.errors import SolverFailure, TimeMismatchError
from sllgfem.fem import (P1Space, check_offdiag_condition, interpolate_nodal,
                         normalize_nodal)
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.rotation import (assemble_rotated_stiffness, compute_F_identity,
                              cross_matrix, evolve_step, init_rotation_field)
from sllgfem.scheme import (DIAGNOSTIC_COLUMNS, DIAGNOSTICS_DTYPE,
                            NodalState, SchemeParams, StepSystem, advance,
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


class History:
    """Observer keeping every state m^0..m^J and update v^0..v^(J-1)."""

    def __init__(self):
        self.states, self.updates = [], []

    def __call__(self, step):
        if step.j == 0:
            self.states.append(step.m)
        self.states.append(step.m_next)
        self.updates.append(step.v)

    @property
    def m(self):
        return np.array(self.states)

    @property
    def v(self):
        return np.array(self.updates)


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
    tau = build_tangent_frame(np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(tau[0, 0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(tau[0, 1], [0.0, 1.0, 0.0], atol=1e-15)


def test_frame_survives_the_antipode():
    tau = build_tangent_frame(np.array([[0.0, 0.0, -1.0]]))[0]
    gram = tau @ tau.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(tau @ [0.0, 0.0, -1.0], 0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
       .filter(lambda u: sum(x * x for x in u) > 1e-4))
def test_frame_orthonormal_tangent_property(u):
    m = np.asarray(u) / np.linalg.norm(u)
    tau = build_tangent_frame(m[None, :])[0]
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
    state = NodalState(j=0, m=m, energy=0.0)
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
    state = NodalState(j=0, m=m, energy=np.nan)
    tau = build_tangent_frame(m)
    field = init_rotation_field(space, make_noise("zero"))
    params = default_params(lambda1=1.3, lambda2=0.7, theta=0.8)
    system = assemble_step_system(state, tau, field, params, space)
    lumped = space.lumped_mass_diagonal()
    K = space.stiffness()
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = rng.standard_normal(2 * space.N)
        w = np.einsum("na,nab->nb", c.reshape(space.N, 2), tau)
        # the matrix is in the layout's order
        co = c[system.layout.order]
        quad = float(co @ (system.matrix @ co))
        expected = (-params.lambda2 * np.sum(lumped * np.sum(w * w, axis=1))
                    - params.mu * params.k * params.theta
                    * float(np.sum(w * (K @ w))))
        assert quad == pytest.approx(expected, rel=1e-12, abs=1e-13)
        assert quad < 0.0


def test_assembly_rejects_desynchronized_field():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=3, m=m, energy=np.nan)
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
    state = NodalState(j=steps, m=m, energy=np.nan)
    return space, state, build_tangent_frame(m), field, params


def projected_reference(space, state, tau, field, params):
    """P^T A3 P and P^T rhs3 from the (3N, 3N) nodal-vector form, with P
    the (3N, 2N) map from tangent coefficients to nodal vectors."""
    lumped = space.lumped_mass_diagonal()
    A3 = (-params.lambda2 * sp.diags(np.repeat(lumped, 3))
          + sp.block_diag(list(params.lambda1 * lumped[:, None, None]
                               * cross_matrix(state.m)))
          - params.mu * params.k * params.theta
          * sp.kron(space.stiffness(), sp.eye(3)))
    P = sp.block_diag([t.T for t in tau])
    rhs3 = params.mu * (assemble_rotated_stiffness(field) @ state.m.ravel())
    return (P.T @ A3 @ P).toarray(), P.T @ rhs3


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_assembly_matches_projected_nodal_system(dim, divisions):
    space, state, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(state, tau, field, params, space)
    A_ref, rhs_ref = projected_reference(space, state, tau, field, params)
    inverse = system.layout.inverse         # node-major again
    A = system.matrix[inverse][:, inverse].toarray()
    assert A.shape == A_ref.shape == (2 * space.N, 2 * space.N)
    np.testing.assert_allclose(A, A_ref, rtol=0,
                               atol=1e-14 * np.abs(A_ref).max())
    np.testing.assert_allclose(system.rhs, rhs_ref, rtol=0,
                               atol=1e-14 * np.abs(rhs_ref).max())
    assert np.linalg.norm(rhs_ref) > 0.0


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_lu_solution_matches_dense_solve(dim, divisions):
    space, state, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(state, tau, field, params, space)
    sol = solve_step(system, params)
    inverse = system.layout.inverse         # node-major again
    c = np.linalg.solve(system.matrix[inverse][:, inverse].toarray(),
                        system.rhs)
    np.testing.assert_allclose(sol.coefficients, c, rtol=0,
                               atol=1e-12 * np.abs(c).max())
    assert sol.iterations == 0
    assert sol.residual <= params.solver_tol


@pytest.mark.parametrize("dim, divisions", [(2, 32), (3, 8)])
def test_layout_order_fills_like_minimum_degree_on_the_step_matrix(
        dim, divisions):
    # the layout's order, the scalar K + diag(L) order expanded to node
    # pairs, against SuperLU's minimum-degree order of the step matrix.
    # It fills 0.3% more at 2D 32^2 and 1.03% more at 3D 8^3, and factors
    # as fast as SuperLU's order of the 2N pattern, which matches MMD's fill
    space, state, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(state, tau, field, params, space)
    lu = spla.splu(system.matrix, permc_spec="NATURAL")
    inverse = system.layout.inverse         # node-major again
    ref = spla.splu(system.matrix[inverse][:, inverse].sorted_indices(),
                    permc_spec="MMD_AT_PLUS_A")
    fill, ref_fill = lu.L.nnz + lu.U.nnz, ref.L.nnz + ref.U.nnz
    assert abs(fill - ref_fill) <= 0.015 * ref_fill, (fill, ref_fill)


def test_solution_satisfies_weak_form_against_random_tangents():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, energy=np.nan)
    tau = build_tangent_frame(m)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(state, tau, field, params, space)
    sol = solve_step(system, params)
    order = system.layout.order             # the matrix's order
    resid = system.matrix @ sol.coefficients[order] - system.rhs[order]
    rng = np.random.default_rng(2)
    bnorm = np.linalg.norm(system.rhs)
    for _ in range(20):
        w = rng.standard_normal(2 * space.N)
        assert abs(resid @ w) <= 1e-10 * bnorm * np.linalg.norm(w)


def test_solver_failure_carries_residual():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, energy=np.nan)
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
    tau = build_tangent_frame(spiral_m0(space))
    n = 2 * space.N
    # the zero matrix on the step pattern, built through the layout
    layout = space.step_layout()
    zero = layout.matrix(np.zeros((len(layout.rows), 2, 2)))
    # a zero load is factored too: no shortcut hands back zeros unchecked
    for rhs in (np.ones(n), np.zeros(n)):
        system = StepSystem(matrix=zero, rhs=rhs, tau=tau, layout=layout)
        with pytest.raises(SolverFailure) as err:
            solve_step(system, default_params())
        assert err.value.residual == np.inf


def test_non_finite_rhs_raises_solver_failure():
    space = space8()
    m = spiral_m0(space)
    state = NodalState(j=0, m=m, energy=np.nan)
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
    state = NodalState(j=0, m=m, energy=np.nan)
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
    state = NodalState(j=0, m=m, energy=np.nan)
    nxt = advance(state, np.zeros_like(m), default_params(), space)
    assert nxt.j == 1
    np.testing.assert_allclose(nxt.m, m, atol=1e-15)


def test_advance_pythagoras_before_normalization():
    space = space8()
    m = spiral_m0(space)
    params = default_params()
    state = NodalState(j=0, m=m, energy=np.nan)
    tau = build_tangent_frame(m)
    field = init_rotation_field(space, make_noise("zero"))
    sol = solve_step(assemble_step_system(state, tau, field, params,
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
    h1, h2 = History(), History()
    t1 = run(m0, params, sample_path(0, 1, 30, 0.5), coeffs, space,
             observers=[h1])
    run(m0, params, sample_path(99, 1, 30, 0.5), coeffs, space,
        observers=[h2])
    assert np.all(np.diff(t1.energy) <= 1e-12)
    np.testing.assert_array_equal(h1.m, h2.m)
    np.testing.assert_array_equal(h1.v, h2.v)


def test_uniform_state_is_a_fixed_point():
    space = space8()
    m0 = np.tile([1.0, 0.0, 0.0], (space.N, 1))
    params = default_params(J=10)
    history = History()
    traj = run(m0, params, sample_path(1, 1, 10, 0.5), make_noise("zero"),
               space, observers=[history])
    assert np.all(history.v == 0.0)
    np.testing.assert_array_equal(traj.m, m0)
    assert traj.energy[-1] == 0.0


def test_unit_norms_and_tangency_along_stochastic_run():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=40)
    coeffs = make_noise("linear-gradient")
    history = History()
    traj = run(m0, params, sample_path(3, 1, 40, 0.5), coeffs, space,
               observers=[history])
    norms = np.linalg.norm(history.m, axis=2)
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert traj.diagnostics["tangency_max"].max() <= 1e-12
    assert traj.diagnostics["residual"].max() <= params.solver_tol


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
    # the chain term by term, one step at a time: a wrong coefficient on
    # any term changes the bits even where the sign would still hold
    p, E = traj.params, traj.energy
    expected = [(E[j + 1] + 2.0 * p.k * p.lambda2 / p.mu * row["v_norm_sq"]
                 + p.k ** 2 * (2.0 * p.theta - 1.0) * row["grad_v_sq"])
                - (E[j] - 2.0 * p.k * row["F_value"])
                for j, row in enumerate(traj.diagnostics)]
    np.testing.assert_array_equal(gaps, expected)


def test_constant_g_run_reduces_to_deterministic():
    # spatially constant Z leaves the rotated Dirichlet form unchanged, so
    # the transformed unknown follows the zero-noise dynamics
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=30)
    noisy, quiet = History(), History()
    run(m0, params, sample_path(5, 2, 30, 0.5),
        make_noise("pair-noncommuting", amplitude=1.0), space,
        observers=[noisy])
    run(m0, params, sample_path(5, 1, 30, 0.5), make_noise("zero"), space,
        observers=[quiet])
    np.testing.assert_allclose(noisy.m, quiet.m, atol=1e-8)


def test_observers_see_every_step_in_order():
    space = space8()
    m0 = spiral_m0(space)
    params = default_params(J=12)
    seen, also_seen = [], []
    traj = run(m0, params, sample_path(2, 1, 12, 0.5),
               make_noise("linear-gradient"), space,
               observers=[seen.append, also_seen.append])
    assert [step.j for step in seen] == list(range(12))
    assert also_seen == seen
    for j, step in enumerate(seen):
        assert step.field.j == j
        assert step.field_next.j == j + 1
        if j + 1 < len(seen):
            assert seen[j + 1].m is step.m_next
            assert seen[j + 1].field is step.field_next
    assert seen[-1].m_next is traj.m
    diag = traj.diagnostics
    assert diag.shape == (12,) and diag.dtype == DIAGNOSTICS_DTYPE
    assert diag.dtype.names == DIAGNOSTIC_COLUMNS
    np.testing.assert_array_equal(diag["j"], np.arange(12))
    assert traj.energy.shape == (13,)
    assert traj.energy[:-1].tobytes() == diag["energy"].tobytes()


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 2)])
def test_F_value_matches_identity_oracle(dim, divisions):
    # F_value is read off the solved system; the oracle evaluates
    # <grad(Z m), grad(Z v)> - m^T K v by quadrature. mu = 2.05, so a
    # misplaced 1/mu shows.
    space = P1Space(build_structured_mesh(dim, divisions))
    params = default_params(lambda1=1.3, lambda2=0.6, J=6)
    coeffs = make_noise("linear-gradient")
    oracle = []
    traj = run(spiral_m0(space), params,
               sample_path(3, coeffs.q, params.J, params.T), coeffs, space,
               observers=[lambda step: oracle.append(
                   compute_F_identity(step.field, step.m, step.v))])
    F, energy = traj.diagnostics["F_value"], traj.diagnostics["energy"]
    assert np.all(np.abs(F - oracle) <= 1e-12 * np.abs(energy))
    assert np.abs(F).max() > 1e-3


def test_memory_does_not_grow_with_steps():
    # no observers: only O(J) scalars may accumulate, far less than a nodal
    # field per step, with the observers inline or one step behind
    space = P1Space(build_structured_mesh(2, 16))
    m0 = spiral_m0(space)
    coeffs = make_noise("linear-gradient")

    def peak_bytes(J, overlap):
        params = default_params(T=0.01 * J, J=J)
        path = sample_path(1, coeffs.q, J, params.T)
        tracemalloc.start()
        try:
            run(m0, params, path, coeffs, space, overlap=overlap)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    half_field = space.N * 3 * 8 / 2
    for overlap in (False, True):
        peak_bytes(2, overlap)      # caches and first-touch allocations
        growth = ((peak_bytes(128, overlap) - peak_bytes(16, overlap))
                  / (128 - 16))
        assert growth < half_field, (f"peak grows {growth:.0f} B per step "
                                     f"(N = {space.N}, overlap {overlap})")


class ObserverFailure(Exception):
    pass


def test_overlapped_observer_error_is_raised_and_no_thread_is_left():
    space = space8()
    params = default_params(J=6)
    coeffs = make_noise("linear-gradient")
    path = sample_path(3, coeffs.q, params.J, params.T)
    seen = []

    def observe(step):
        seen.append(step.j)
        if step.j == 2:
            raise ObserverFailure("step 2")

    threads = threading.active_count()
    with pytest.raises(ObserverFailure, match="step 2"):
        run(spiral_m0(space), params, path, coeffs, space,
            observers=[observe], overlap=True)
    assert threading.active_count() == threads
    # raised at the next step boundary: no later batch was handed over
    assert seen == [0, 1, 2]


def test_overlapped_step_failure_waits_for_the_batch(monkeypatch):
    # the step fails while the previous step's observers still run: run
    # lets them finish, then raises the step's error
    space = space8()
    params = default_params(J=6)
    coeffs = make_noise("linear-gradient")
    path = sample_path(3, coeffs.q, params.J, params.T)
    started, finished, solves = threading.Event(), [], []
    solve = scheme.solve_step

    def failing_solve(system, params):
        solves.append(1)
        if len(solves) == 4:        # step 3, with step 2's batch in flight
            assert started.wait(timeout=30)
            raise SolverFailure("step 3", residual=np.inf)
        return solve(system, params)

    def slow_observer(step):
        if step.j == 2:
            started.set()
            time.sleep(0.2)
        finished.append(step.j)

    monkeypatch.setattr(scheme, "solve_step", failing_solve)
    threads = threading.active_count()
    with pytest.raises(SolverFailure, match="step 3"):
        run(spiral_m0(space), params, path, coeffs, space,
            observers=[slow_observer], overlap=True)
    assert finished == [0, 1, 2]
    assert threading.active_count() == threads


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_run_rejects_non_finite_m0_before_any_step(monkeypatch, value):
    # without the gate a NaN or inf row reaches SuperLU as a singular factor
    space = space8()
    m0 = spiral_m0(space)
    m0[5, 1] = value
    params = default_params(J=5)

    def no_step(*args):
        raise AssertionError("a step was assembled")

    monkeypatch.setattr(scheme, "build_tangent_frame", no_step)
    with pytest.raises(ValueError, match="non-finite value at node 5"):
        run(m0, params, sample_path(0, 1, 5, 0.5), make_noise("zero"),
            space)


def test_initial_drift_recorded_and_repaired():
    space = space8()
    m0 = spiral_m0(space) * 1.001
    params = default_params(J=5)
    history = History()
    traj = run(m0, params, sample_path(0, 1, 5, 0.5), make_noise("zero"),
               space, observers=[history])
    assert traj.m0_drift == pytest.approx(1e-3, rel=1e-6)
    assert np.abs(np.linalg.norm(history.m[0], axis=1) - 1.0).max() <= 1e-12
