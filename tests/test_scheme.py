"""Tangent-plane theta scheme: frames, assembly, solving, stepping."""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem import scheme
from sllgfem.errors import SolverFailure
from sllgfem.fem import (P1Space, check_offdiag_condition, interpolate_nodal,
                         normalize_nodal)
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.rotation import (assemble_rotated_stiffness, compute_F_identity,
                              cross_matrix, evolve_step, init_rotation_field)
from sllgfem.scheme import (DIAGNOSTIC_COLUMNS, DIAGNOSTICS_DTYPE,
                            SchemeParams, StepSystem, advance,
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


def test_frame_is_right_handed_on_both_hemispheres():
    # m x tau_0 = tau_1 and m x tau_1 = -tau_0 at every node, the poles
    # and the equator (m_z = +0 and -0) included
    rng = np.random.default_rng(12)
    phi = np.linspace(0.0, 2.0 * np.pi, 13)
    equator = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    m = np.vstack([normalize_nodal(rng.standard_normal((2000, 3))),
                   [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, -0.0]],
                   equator])
    assert np.any(m[:, 2] > 0.5) and np.any(m[:, 2] < -0.5)
    tau = build_tangent_frame(m)
    t0, t1 = tau[:, 0], tau[:, 1]
    np.testing.assert_allclose(np.sum(t1 * np.cross(m, t0), axis=1), 1.0,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.sum(t0 * np.cross(m, t1), axis=1), -1.0,
                               rtol=0, atol=1e-15)


def test_frame_rejects_non_unit_node():
    m = np.tile([0.0, 0.0, 1.0], (4, 1))
    m[2] *= 1.5
    with pytest.raises(ValueError, match="node 2"):
        build_tangent_frame(m)


# -------------------------------------------------------------- assembly

def test_constant_state_zero_noise_is_stationary():
    space = space8()
    m = np.tile([0.0, 0.0, 1.0], (space.N, 1))
    field = init_rotation_field(space, make_noise("zero"))
    params = default_params()
    system = assemble_step_system(m, build_tangent_frame(m), field,
                                  params, space)
    assert np.linalg.norm(system.rhs) == 0.0
    sol = solve_step(system, params)
    assert np.all(sol.coefficients == 0.0)
    assert sol.residual == 0.0


def test_quadratic_form_is_negative_definite():
    # a(w, w) = -lambda2 |w|^2_lumped - mu k theta |grad w|^2 for tangent w
    space = space8()
    m = spiral_m0(space)
    tau = build_tangent_frame(m)
    field = init_rotation_field(space, make_noise("zero"))
    params = default_params(lambda1=1.3, lambda2=0.7, theta=0.8)
    system = assemble_step_system(m, tau, field, params, space)
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


def evolved_step_inputs(dim, divisions, steps=3):
    """An m whose m_z takes both signs, its frame, and a rotation field
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
    return space, m, build_tangent_frame(m), field, params


def projected_reference(space, m, tau, field, params):
    """P^T A3 P and P^T rhs3 from the (3N, 3N) nodal-vector form, with P
    the (3N, 2N) map from tangent coefficients to nodal vectors."""
    lumped = space.lumped_mass_diagonal()
    A3 = (-params.lambda2 * sp.diags(np.repeat(lumped, 3))
          + sp.block_diag(list(params.lambda1 * lumped[:, None, None]
                               * cross_matrix(m)))
          - params.mu * params.k * params.theta
          * sp.kron(space.stiffness(), sp.eye(3)))
    P = sp.block_diag([t.T for t in tau])
    rhs3 = params.mu * (assemble_rotated_stiffness(field) @ m.ravel())
    return (P.T @ A3 @ P).toarray(), P.T @ rhs3


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_assembly_matches_projected_nodal_system(dim, divisions):
    space, m, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(m, tau, field, params, space)
    A_ref, rhs_ref = projected_reference(space, m, tau, field, params)
    inverse = system.layout.inverse         # node-major again
    A = system.matrix[inverse][:, inverse].toarray()
    assert A.shape == A_ref.shape == (2 * space.N, 2 * space.N)
    np.testing.assert_allclose(A, A_ref, rtol=0,
                               atol=1e-14 * np.abs(A_ref).max())
    np.testing.assert_allclose(system.rhs, rhs_ref, rtol=0,
                               atol=1e-14 * np.abs(rhs_ref).max())
    assert np.linalg.norm(rhs_ref) > 0.0


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_diagonal_blocks_hold_the_constant_cross_block(dim, divisions):
    # with theta = 0 the stiffness part is +-0, so node n's diagonal block
    # is exactly L_n (lambda1 J - lambda2 I) at every node, m_z of either
    # sign: the lumped cross term is skew by construction
    space, m, tau, field, params = evolved_step_inputs(dim, divisions)
    params = replace(params, theta=0.0)
    system = assemble_step_system(m, tau, field, params, space)
    inverse = system.layout.inverse         # node-major again
    A = system.matrix[inverse][:, inverse].toarray()
    n = np.arange(space.N)
    diagonal = A.reshape(space.N, 2, space.N, 2)[n, :, n, :]
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    expect = space.lumped_mass_diagonal()[:, None, None] * (
        params.lambda1 * J - params.lambda2 * np.eye(2))
    np.testing.assert_array_equal(diagonal, expect)


@pytest.mark.parametrize("dim, divisions", [(2, 6), (3, 3)])
def test_lu_solution_matches_dense_solve(dim, divisions):
    space, m, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(m, tau, field, params, space)
    sol = solve_step(system, params)
    inverse = system.layout.inverse         # node-major again
    c = np.linalg.solve(system.matrix[inverse][:, inverse].toarray(),
                        system.rhs)
    np.testing.assert_allclose(sol.coefficients, c, rtol=0,
                               atol=1e-12 * np.abs(c).max())
    # the first LU solve and each refinement sweep
    assert 1 <= sol.iterations <= scheme.MAX_SOLVES
    assert sol.residual <= params.solver_tol


@pytest.mark.parametrize("dim, divisions", [(2, 32), (3, 8)])
def test_layout_order_fills_like_minimum_degree_on_the_step_matrix(
        dim, divisions):
    # the layout's order, the scalar K + diag(L) order expanded to node
    # pairs, against SuperLU's minimum-degree order of the step matrix.
    # It fills 0.3% more at 2D 32^2 and 1.03% more at 3D 8^3, and factors
    # as fast as SuperLU's order of the 2N pattern, which matches MMD's fill
    space, m, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(m, tau, field, params, space)
    lu = spla.splu(system.matrix, permc_spec="NATURAL")
    inverse = system.layout.inverse         # node-major again
    ref = spla.splu(system.matrix[inverse][:, inverse].sorted_indices(),
                    permc_spec="MMD_AT_PLUS_A")
    fill, ref_fill = lu.L.nnz + lu.U.nnz, ref.L.nnz + ref.U.nnz
    assert abs(fill - ref_fill) <= 0.015 * ref_fill, (fill, ref_fill)


def test_solution_satisfies_weak_form_against_random_tangents():
    space = space8()
    m = spiral_m0(space)
    tau = build_tangent_frame(m)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(m, tau, field, params, space)
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
    params = default_params(solver_tol=1e-30)
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(m, build_tangent_frame(m), field,
                                  params, space)
    with pytest.raises(SolverFailure) as err:
        solve_step(system, params)
    assert err.value.residual is not None
    assert err.value.residual > 1e-30


def test_singular_system_raises_solver_failure():
    space = space8()
    n = 2 * space.N
    # the zero matrix on the step pattern, built through the layout
    layout = space.step_layout()
    zero = layout.matrix(np.zeros((len(layout.rows), 2, 2)))
    # a zero load is factored too: no shortcut hands back zeros unchecked
    for rhs in (np.ones(n), np.zeros(n)):
        system = StepSystem(matrix=zero, rhs=rhs, layout=layout)
        with pytest.raises(SolverFailure) as err:
            solve_step(system, default_params())
        assert err.value.residual == np.inf


def test_non_finite_rhs_raises_solver_failure():
    space = space8()
    m = spiral_m0(space)
    params = default_params()
    field = init_rotation_field(space, make_noise("zero"))
    system = assemble_step_system(m, build_tangent_frame(m), field,
                                  params, space)
    system.rhs[3] = np.nan
    with pytest.raises(SolverFailure) as err:
        solve_step(system, params)
    assert np.isnan(err.value.residual)


@pytest.mark.parametrize("dim, divisions", [(2, 32), (3, 8)])
def test_float32_factor_refines_to_the_tolerance_in_float64(dim, divisions):
    space, m, tau, field, params = evolved_step_inputs(dim, divisions)
    system = assemble_step_system(m, tau, field, params, space)
    A, layout = system.matrix, system.layout
    solve = layout.factor(A)
    r = system.rhs[layout.order]
    x = solve(r)
    assert x.dtype == np.float64
    # powers of two pass through the residual's and the matrix's scaling
    for s in (-600, 0, 600):
        np.testing.assert_array_equal(solve(np.ldexp(r, s)), np.ldexp(x, s))
    for s in (-600, 600):
        scaled = sp.csc_matrix((np.ldexp(A.data, s), A.indices, A.indptr),
                               shape=A.shape)
        np.testing.assert_array_equal(layout.factor(scaled)(r),
                                      np.ldexp(x, -s))
    # one solve has single precision's error: float32, not float64, factors
    exact = spla.spsolve(A, r)
    error = np.linalg.norm(x - exact) / np.linalg.norm(exact)
    assert 1e-10 < error < 1e-4, error
    sol = solve_step(system, params)
    assert sol.coefficients.dtype == np.float64
    assert 1 <= sol.iterations <= scheme.MAX_SOLVES
    b = system.rhs[layout.order]
    r = A @ sol.coefficients[layout.order] - b
    assert np.linalg.norm(r) <= params.solver_tol * np.linalg.norm(b)
    assert sol.residual <= params.solver_tol


@pytest.mark.parametrize("delta, stop", [(1e-9, "sparse LU failed"),
                                         (1e-6, "stopped contracting")])
def test_step_whose_float32_lu_cannot_refine_fails_without_retry(
        monkeypatch, delta, stop):
    # node blocks [[1, 1], [1, 1 + delta]]: at 1e-9 the float32 factor is
    # exactly singular, and at 1e-6 the sweeps stall near a relative
    # residual of 1e-10. A float64 LU misses 1e-12 on both
    space = P1Space(build_structured_mesh(2, 4))
    layout = space.step_layout()
    blocks = np.zeros((len(layout.rows), 2, 2))
    blocks[layout.diagonal] = [[1.0, 1.0], [1.0, 1.0 + delta]]
    rhs = np.random.default_rng(0).standard_normal(2 * space.N)
    system = StepSystem(matrix=layout.matrix(blocks), rhs=rhs, layout=layout)
    solves, factor = [], layout.factor

    def counting_factor(matrix):
        solve = factor(matrix)
        solves.append([])

        def counting_solve(r):
            x = solve(r)
            solves[-1].append((r.dtype, x.dtype))
            return x

        return counting_solve

    monkeypatch.setattr(layout, "factor", counting_factor)
    with pytest.raises(SolverFailure, match=stop) as err:
        solve_step(system, default_params())
    residual = err.value.residual
    if delta == 1e-9:                   # no factor, so nothing to solve
        assert residual == np.inf and solves == []
    else:
        # one float32 factor, whose sweeps the stop rule ends before the cap
        assert 1e-12 < residual < 1e-8
        assert f"{residual:.3e}" in str(err.value)
        assert len(solves) == 1
        assert 2 <= len(solves[0]) < scheme.MAX_SOLVES
        assert set(solves[0]) == {(np.dtype(np.float64),) * 2}


def first_update(space, m, params):
    """m^0 and the update v^0 that `run` forms from m without noise."""
    params = replace(params, T=params.k, J=1)
    coeffs = make_noise("zero")
    history = History()
    run(m, params, sample_path(0, coeffs.q, 1, params.T), coeffs, space,
        observers=[history])
    return history.states[0], history.updates[0]


def test_update_is_tangent_at_nodes():
    space = space8()
    m, v = first_update(space, spiral_m0(space), default_params())
    dots = np.abs(np.sum(v * m, axis=1))
    assert dots.max() <= 1e-12 * max(1.0, np.abs(v).max())


# -------------------------------------------------------------- stepping

def test_advance_identity_for_zero_update():
    space = space8()
    m = spiral_m0(space)
    nxt = advance(m, np.zeros_like(m), default_params())
    np.testing.assert_allclose(nxt, m, atol=1e-15)


def test_advance_pythagoras_before_normalization():
    space = space8()
    params = default_params()
    m, v = first_update(space, spiral_m0(space), params)
    stretched = m + params.k * v
    lhs = np.sum(stretched * stretched, axis=1)
    rhs = 1.0 + params.k ** 2 * np.sum(v * v, axis=1)
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


def test_energies_and_times_belong_to_the_states():
    # energy[j] is |grad m^j|^2 of the state the observers see as m^j, and
    # row j's time is j k, for every j
    space = space8()
    params = default_params(J=12)
    coeffs = make_noise("linear-gradient")
    history = History()
    traj = run(spiral_m0(space), params, sample_path(5, 1, 12, 0.5), coeffs,
               space, observers=[history])
    K = space.stiffness()
    assert len(history.states) == len(traj.energy) == params.J + 1
    for j, m in enumerate(history.states):
        assert traj.energy[j] == np.sum(m * (K @ m))
    np.testing.assert_array_equal(traj.diagnostics["energy"], traj.energy[:-1])
    assert all(traj.diagnostics["t"][j] == j * params.k
               for j in range(params.J))
    np.testing.assert_array_equal(traj.diagnostics["j"], np.arange(params.J))


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
    # row j holds the defect of the field the step advanced to
    for j, step in enumerate(seen):
        assert (diag["orth_defect"][j].tobytes()
                == np.float64(step.field_next.orthogonality_defect())
                .tobytes())
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
    # field per step
    space = P1Space(build_structured_mesh(2, 16))
    m0 = spiral_m0(space)
    coeffs = make_noise("linear-gradient")

    def peak_bytes(J):
        params = default_params(T=0.01 * J, J=J)
        path = sample_path(1, coeffs.q, J, params.T)
        tracemalloc.start()
        try:
            run(m0, params, path, coeffs, space)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    half_field = space.N * 3 * 8 / 2
    peak_bytes(2)                   # caches and first-touch allocations
    growth = (peak_bytes(128) - peak_bytes(16)) / (128 - 16)
    assert growth < half_field, (f"peak grows {growth:.0f} B per step "
                                 f"(N = {space.N})")


class ObserverFailure(Exception):
    pass


def test_observer_error_stops_the_run_before_the_next_step(monkeypatch):
    # observers run inline, in order, after their step: an error at step 2
    # is raised before step 3 is assembled, and later observers of step 2
    # are not called
    space = space8()
    params = default_params(J=6)
    coeffs = make_noise("linear-gradient")
    path = sample_path(3, coeffs.q, params.J, params.T)
    assembled, seen, after = [], [], []
    assemble = scheme.assemble_step_system

    def spy(m, tau, field, *args):
        assembled.append(field.j)
        return assemble(m, tau, field, *args)

    def observe(step):
        seen.append(step.j)
        assert assembled[-1] == step.j
        if step.j == 2:
            raise ObserverFailure("step 2")

    monkeypatch.setattr(scheme, "assemble_step_system", spy)
    threads = threading.active_count()
    with pytest.raises(ObserverFailure, match="step 2"):
        run(spiral_m0(space), params, path, coeffs, space,
            observers=[observe, lambda step: after.append(step.j)])
    assert assembled == seen == [0, 1, 2]
    assert after == [0, 1]
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
