"""Reconstruction, interpolant errors, weak residual, and the phi solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem.errors import TimeMismatchError
from sllgfem.fem import P1Space, interpolate_nodal, normalize_nodal
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.reconstruct import (TestField, interpolant_errors,
                                 make_test_field, reconstruct_M, solve_phi,
                                 time_profile, weak_residual)
from sllgfem.rotation import init_rotation_field, evolve_step
from sllgfem.scheme import SchemeParams, run
from sllgfem.wiener import sample_path

from test_rotation import evolve_field, pair_varying, small_space
from test_scheme import History


def space8():
    return P1Space(build_structured_mesh(2, 8))


def spiral_m0(space):
    def f(x):
        ang = 2 * np.pi * x[:, 0]
        c, s = np.cos(0.3), np.sin(0.3)
        return np.stack([c * np.cos(ang), c * np.sin(ang), s + 0 * ang],
                        axis=1)
    return normalize_nodal(interpolate_nodal(f, space))


def short_params(J=20):
    return SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.4, J=J)


def short_inputs(J=20, seed=3, preset="linear-gradient"):
    """Params, noise and path of a short run."""
    params = short_params(J)
    coeffs = make_noise(preset)
    return params, coeffs, sample_path(seed, coeffs.q, J, params.T)


def short_run(space, observers, J=20):
    params, coeffs, path = short_inputs(J)
    return run(spiral_m0(space), params, path, coeffs, space,
               observers=observers)


def l2_norm_sq(space, u):
    """Integral of |u|^2 for a nodal vector field (exact for P1)."""
    vals = space.values_at_qp(u)
    return space.integrate(np.sum(vals * vals, axis=-1))


def l1_norm(space, u):
    """Quadrature value of the integral of |u| for a nodal vector field."""
    return space.integrate(np.linalg.norm(space.values_at_qp(u), axis=-1))


def short_run_errors(space, J=20):
    """Interpolant errors of a short run, with its history and params."""
    errs_obs, errs = interpolant_errors(space, short_params(J).k)
    history = History()
    traj = short_run(space, [errs_obs, history], J=J)
    return errs, history, traj


# ---------------------------------------------------------- reconstruction

def test_reconstruct_identity_for_zero_noise():
    space = space8()
    field = init_rotation_field(space, make_noise("zero"))
    m = spiral_m0(space)
    np.testing.assert_array_equal(reconstruct_M(m, field), m)


def test_reconstruct_preserves_unit_norms():
    space = space8()
    coeffs = make_noise("linear-gradient")
    path = sample_path(5, 1, 50, 1.0)
    field = init_rotation_field(space, coeffs)
    m = spiral_m0(space)
    for j in range(path.J):
        field = evolve_step(field, path.increments[j], path.k)
    M = reconstruct_M(m, field)
    np.testing.assert_allclose(np.linalg.norm(M, axis=1), 1.0, atol=1e-12)


def test_reconstruct_closed_form_constant_axis():
    # m held at e1 under g = gamma e3: M precesses about e3 by -gamma W(t)
    gamma = 0.9
    space = space8()
    coeffs = make_noise("constant-z", amplitude=gamma)
    path = sample_path(6, 1, 300, 1.0)
    field = init_rotation_field(space, coeffs)
    for j in range(path.J):
        field = evolve_step(field, path.increments[j], path.k)
    w = path.increments.sum(axis=0)[0]
    m = np.tile([1.0, 0.0, 0.0], (space.N, 1))
    M = reconstruct_M(m, field)
    expected = np.array([np.cos(gamma * w), -np.sin(gamma * w), 0.0])
    np.testing.assert_allclose(M, np.tile(expected, (space.N, 1)),
                               atol=1e-12)


def test_reconstruct_round_trip():
    space = space8()
    coeffs = make_noise("linear-gradient")
    path = sample_path(7, 1, 40, 0.5)
    field = init_rotation_field(space, coeffs)
    for j in range(path.J):
        field = evolve_step(field, path.increments[j], path.k)
    m = spiral_m0(space)
    back = np.einsum("nba,nb->na", field.Z_nodes, reconstruct_M(m, field))
    np.testing.assert_allclose(back, m, atol=1e-12)


def test_reconstruct_M_isometry_and_inverse():
    space = small_space()
    path = sample_path(10, 2, 60, 1.0)
    field = evolve_field(space, pair_varying(), path)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal((space.N, 3))
        Zu = reconstruct_M(u, field)
        np.testing.assert_allclose(np.linalg.norm(Zu, axis=1),
                                   np.linalg.norm(u, axis=1), atol=1e-12)
    u = rng.standard_normal((space.N, 3))
    back = np.einsum("nba,nb->na", field.Z_nodes, reconstruct_M(u, field))
    np.testing.assert_allclose(back, u, atol=1e-12)


def test_reconstruct_M_cross_product_homomorphism():
    space = small_space()
    path = sample_path(12, 2, 60, 1.0)
    field = evolve_field(space, pair_varying(), path)
    rng = np.random.default_rng(13)
    for _ in range(100):
        u, v = rng.standard_normal((2, space.N, 3))
        lhs = reconstruct_M(np.cross(u, v), field)
        rhs = np.cross(reconstruct_M(u, field), reconstruct_M(v, field))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ------------------------------------------------------------ interpolants

def test_interpolant_errors_vanish_for_stationary_run():
    space = space8()
    m0 = np.tile([0.0, 1.0, 0.0], (space.N, 1))
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.5, J=10)
    errs_obs, errs = interpolant_errors(space, params.k)
    run(m0, params, sample_path(0, 1, 10, 0.5), make_noise("zero"), space,
        observers=[errs_obs])
    assert errs["m_minus_mleft_sq"] == 0.0
    assert errs["unit_defect_sq"] == 0.0
    assert errs["v_minus_dtm_l1"] == 0.0


def test_m_gap_matches_quadrature_oracle():
    # the closed form (k/3) sum |m^{j+1} - m^j|^2 must equal per-interval
    # 2-point Gauss quadrature of the quadratic integrand
    space = space8()
    errs, history, traj = short_run_errors(space)
    m = history.m
    k = traj.params.k
    nodes = (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6)
    oracle = 0.0
    for j in range(traj.J):
        for a in nodes:
            # linear minus left-constant interpolant at t_j + a k
            diff = (1.0 - a) * m[j] + a * m[j + 1] - m[j]
            oracle += 0.5 * k * l2_norm_sq(space, diff)
    assert errs["m_minus_mleft_sq"] == pytest.approx(oracle, rel=1e-12)


def test_unit_defect_matches_dense_time_sampling():
    space = space8()
    errs, history, traj = short_run_errors(space, J=10)
    m = history.m
    k = traj.params.k
    ts = np.linspace(0, 1, 401)             # composite Simpson per interval
    wts = np.ones(401)
    wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
    wts /= wts.sum() / 1.0
    oracle = 0.0
    for j in range(traj.J):
        for a, wgt in zip(ts, wts):
            m_lin = (1.0 - a) * m[j] + a * m[j + 1]
            norms = np.linalg.norm(space.values_at_qp(m_lin), axis=-1)
            oracle += k * wgt * space.integrate((norms - 1.0) ** 2)
    # 3-point Gauss is not exact here (the integrand has a square root);
    # its defect is a few 1e-4 relative, far below the measure's own size
    assert errs["unit_defect_sq"] == pytest.approx(oracle, rel=1e-3)


def test_v_dtm_gap_matches_direct_sum():
    space = space8()
    errs, history, traj = short_run_errors(space)
    m, v = history.m, history.v
    k = traj.params.k
    oracle = sum(k * l1_norm(space, v[j] - (m[j + 1] - m[j]) / k)
                 for j in range(traj.J))
    assert errs["v_minus_dtm_l1"] == pytest.approx(oracle, rel=1e-14)


# -------------------------------------------------------------- test fields

def test_field_time_profile_compact_support():
    for T in (1.0, 0.4):
        assert time_profile(0.15 * T, T) == 0.0
        assert time_profile(0.85 * T, T) == 0.0
        assert time_profile(0.0, T) == 0.0
        assert time_profile(T, T) == 0.0
        assert time_profile(0.2 * T, T) > 0.0
        assert time_profile(0.5 * T, T) == pytest.approx(np.exp(-2.0))


def test_field_spatial_gradient_matches_finite_differences():
    f = make_test_field(1)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, size=(30, 2))
    _, g = f.evaluate(x)
    eps = 1e-6
    for d in range(2):
        xp, xm = x.copy(), x.copy()
        xp[:, d] += eps
        xm[:, d] -= eps
        fd = (f.evaluate(xp)[0] - f.evaluate(xm)[0]) / (2 * eps)
        np.testing.assert_allclose(g[:, d, :], fd, atol=1e-7)


# ------------------------------------------------------------ weak residual

def test_weak_residual_zero_for_stationary_state():
    space = space8()
    m0 = np.tile([0.0, 0.0, 1.0], (space.N, 1))
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=1.0, J=20)
    path = sample_path(0, 1, 20, 1.0)
    observe, residual = weak_residual(space, params, path,
                                      [make_test_field(0)])
    run(m0, params, path, make_noise("zero"), space, observers=[observe])
    assert residual[0] == 0.0


def test_weak_residual_is_linear_in_psi():
    space = space8()
    params, _, path = short_inputs(J=25)
    f = make_test_field(0)
    neg = TestField(f1=f.f1, f2=f.f2, amps=tuple(-a for a in f.amps))
    obs, r = weak_residual(space, params, path, [f])
    obs_neg, r_neg = weak_residual(space, params, path, [neg])
    short_run(space, [obs, obs_neg], J=25)
    assert r[0] != 0.0
    assert r_neg[0] == -r[0]


def test_weak_residual_batch_matches_singles():
    space = space8()
    params, _, path = short_inputs(J=25)
    fields = [make_test_field(i) for i in range(3)]
    batch_obs, batch = weak_residual(space, params, path, fields)
    singles = [weak_residual(space, params, path, [f]) for f in fields]
    short_run(space, [batch_obs, *(obs for obs, _ in singles)], J=25)
    np.testing.assert_array_equal(batch, [r[0] for _, r in singles])


def test_weak_residual_replays_in_lockstep():
    # the replayed rotation field must stay at the step's own index
    space = space8()
    params, _, path = short_inputs(J=12)
    fields = [make_test_field(i) for i in range(3)]
    observe, totals = weak_residual(space, params, path, fields)
    seen = []

    def check(step):
        seen.append(step.j)
        observe(step)

    short_run(space, [check], J=12)
    assert seen == list(range(12)) and np.all(totals != 0.0)
    observe, _ = weak_residual(space, params, path, fields)
    with pytest.raises(TimeMismatchError):
        short_run(space, [lambda step: step.j > 0 and observe(step)], J=12)


def _per_field_terms(space, params, step, f):
    """The four terms k (lambda1 t1, -lambda2 t2, -mu t3, -mu F) of one
    interval for one test field, written out field by field with F
    through grad(Z v) at the quadrature points."""
    t_mid = (step.j + 0.5) * params.k
    mesh, field, w = space.mesh, step.field, space.quad_weights
    qp = space.quad_points.reshape(-1, mesh.dim)
    m_mid = 0.5 * (step.m + step.m_next)
    m_qp = space.values_at_qp(m_mid)
    gm = np.broadcast_to(space.grads_at_qp(m_mid)[:, None],
                         (mesh.n_cells, space.n_qp, mesh.dim, 3))
    dtm_qp = space.values_at_qp((step.m_next - step.m) / params.k)
    bump = time_profile(t_mid, params.T)
    psi_qp, grad_psi_qp = f.evaluate(qp)
    psi = (bump * psi_qp).reshape(m_qp.shape)
    gpsi = (bump * grad_psi_qp).reshape(gm.shape)
    v = np.cross(m_qp, psi)                                   # m x psi
    gv = np.cross(gm, psi[:, :, None]) + np.cross(m_qp[:, :, None], gpsi)
    t1 = np.einsum("cq,cqa,cqa->", w, np.cross(m_qp, dtm_qp), v)
    t2 = np.einsum("cq,cqa,cqa->", w, dtm_qp, v)
    t3 = np.einsum("cq,cqda,cqda->", w, gm, gv)

    def grad_Z(u, gu):
        return (np.einsum("cqadb,cqb->cqda", field.xi_quad, u)
                + np.einsum("cqab,cqdb->cqda", field.Z_quad, gu))

    F = np.einsum("cq,cqda,cqda->", w, grad_Z(m_qp, gm), grad_Z(v, gv)) - t3
    return params.k * np.array([params.lambda1 * t1, -params.lambda2 * t2,
                                -params.mu * t3, -params.mu * F])


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 3)])
@pytest.mark.parametrize("noise", ["pair-noncommuting", "linear-gradient",
                                   "pair-varying"])
def test_contracted_weak_residual_matches_per_field_form(dim, n, noise):
    space = P1Space(build_structured_mesh(dim, n))
    params = SchemeParams(lambda1=1.3, lambda2=0.7, theta=1.0, T=0.4, J=8)
    coeffs = pair_varying() if noise == "pair-varying" else make_noise(noise)
    path = sample_path(11, coeffs.q, params.J, params.T)
    fields = [make_test_field(i) for i in range(3)]
    observe, totals = weak_residual(space, params, path, fields)
    steps = []
    run(spiral_m0(space), params, path, coeffs, space,
        observers=[observe, steps.append])
    terms = np.array([[_per_field_terms(space, params, step, f)
                       for step in steps] for f in fields])
    if noise != "pair-noncommuting":    # spatially varying g: xi, F nonzero
        assert np.abs(steps[-1].field.xi_quad).max() > 0.1
        assert np.all(np.abs(terms[:, :, 3]).sum(axis=1) > 1e-6)
    expected = terms.sum(axis=(1, 2))
    scale = np.abs(terms).sum(axis=(1, 2))
    assert np.all(np.abs(totals - expected) <= 1e-12 * scale)


def test_weak_residual_evaluates_each_test_field_once(monkeypatch):
    # 28 of the 40 steps lie in the bump's support; the residual sums them
    # and pairs each test field with the sum, so Psi is evaluated 3 times
    calls = []
    evaluate = TestField.evaluate

    def spy(self, points):
        calls.append(self)
        return evaluate(self, points)

    monkeypatch.setattr(TestField, "evaluate", spy)
    space = P1Space(build_structured_mesh(2, 32))
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.1, J=40)
    coeffs = make_noise("linear-gradient")
    path = sample_path(7, coeffs.q, params.J, params.T)
    fields = [make_test_field(i) for i in range(3)]
    observe, totals = weak_residual(space, params, path, fields)
    run(spiral_m0(space), params, path, coeffs, space, observers=[observe])
    assert sum(time_profile((j + 0.5) * params.k, params.T) > 0.0
               for j in range(params.J)) == 28
    assert calls == fields and np.all(totals != 0.0)


# ---------------------------------------------------------------- solve_phi

def test_solve_phi_reduces_to_scaling():
    psi = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(solve_phi(2.0, 0.0, [0, 0, 1], psi),
                               psi / 2.0, atol=1e-15)
    zeta = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(solve_phi(0.5, 3.0, zeta, 4.0 * zeta),
                               8.0 * zeta, atol=1e-13)


def test_solve_phi_axis_example():
    phi = solve_phi(1.0, 1.0, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(phi, [0.5, 0.5, 0.0], atol=1e-15)


def test_solve_phi_matches_matrix_solve():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lam1 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        lam2 = rng.uniform(0.0, 3.0)
        zeta = rng.standard_normal(3)
        zeta /= np.linalg.norm(zeta)
        psi = rng.standard_normal(3)
        # matrix of phi -> lam1 phi + lam2 (phi x zeta); phi x zeta = -C(zeta) phi
        C = np.array([[0, -zeta[2], zeta[1]],
                      [zeta[2], 0, -zeta[0]],
                      [-zeta[1], zeta[0], 0]])
        A = lam1 * np.eye(3) - lam2 * C
        np.testing.assert_allclose(solve_phi(lam1, lam2, zeta, psi),
                                   np.linalg.solve(A, psi), atol=1e-12)


def test_solve_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_phi(0.0, 1.0, [0, 0, 1], [1, 0, 0])
    with pytest.raises(ValueError):
        solve_phi(1.0, 1.0, [0, 0, 2], [1, 0, 0])


@settings(max_examples=300, deadline=None)
@given(
    lam1=st.floats(0.05, 20.0),
    sign=st.sampled_from([-1.0, 1.0]),
    lam2=st.floats(0.0, 20.0),
    zraw=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
         .filter(lambda u: sum(x * x for x in u) > 1e-4),
    psi=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
)
def test_solve_phi_back_substitution_property(lam1, sign, lam2, zraw, psi):
    lam1 *= sign
    zeta = np.asarray(zraw) / np.linalg.norm(zraw)
    psi = np.asarray(psi)
    phi = solve_phi(lam1, lam2, zeta, psi)
    resid = lam1 * phi + lam2 * np.cross(phi, zeta) - psi
    assert np.linalg.norm(resid) <= 1e-12 * (1.0 + np.linalg.norm(psi))
