"""Reconstruction, interpolant errors, weak residual, and the phi solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem.errors import TimeMismatchError
from sllgfem.fem import P1Space, interpolate_nodal, normalize_nodal
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import NoiseCoefficients, NoiseComponent, make_noise
from sllgfem.reconstruct import (_CELL_BLOCK, _GAUSS_A, _GAUSS_W, TestField,
                                 _contracted_residual, interpolant_errors,
                                 make_test_field, reconstruct_M, solve_phi,
                                 time_profile, weak_residual)
from sllgfem.rotation import (F_pairing, RotationField, compute_F_identity,
                              evolve_step, init_rotation_field)
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
    for j in range(traj.params.J):
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
    for j in range(traj.params.J):
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
                 for j in range(traj.params.J))
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
        return (np.einsum("cqadb,cqb->cqda", field.xi_quad(), u)
                + np.einsum("cqab,cqdb->cqda", field.Z_quad(), gu))

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
        assert np.abs(steps[-1].field.xi_quad()).max() > 0.1
        assert np.all(np.abs(terms[:, :, 3]).sum(axis=1) > 1e-6)
    expected = terms.sum(axis=(1, 2))
    scale = np.abs(terms).sum(axis=(1, 2))
    assert np.all(np.abs(totals - expected) <= 1e-12 * scale)


@pytest.mark.parametrize("dim,n", [(2, 48), (3, 8)])
def test_blocked_residual_matches_whole_array_form(dim, n):
    # 4608 and 3072 cells: three and two blocks, the last one partial. The
    # blocks, as the observer forms them, equal one call over all cells
    # bit for bit
    space = P1Space(build_structured_mesh(dim, n))
    params = SchemeParams(lambda1=1.3, lambda2=0.7, theta=1.0, T=0.4, J=8)
    coeffs = make_noise("linear-gradient")
    path = sample_path(5, coeffs.q, params.J, params.T)
    field = evolve_field(space, coeffs, path, J=3)
    assert np.abs(field.xi).max() > 0.01
    m = spiral_m0(space)
    m_next = normalize_nodal(m + 0.05 * np.roll(m, 1, axis=1))
    m_mid = 0.5 * (m + m_next)
    samples = (space.values_at_qp(m_mid), space.grads_at_qp(m_mid),
               space.values_at_qp((m_next - m) / params.k),
               space.quad_weights)
    AB, rows = field.invariants(), field.qp_rows()
    blocks = []
    for c0 in range(0, space.mesh.n_cells, _CELL_BLOCK):
        cells = slice(c0, c0 + _CELL_BLOCK)
        blocks.append(_contracted_residual(
            params, AB, rows[cells], *(x[cells] for x in samples)))
    assert len(blocks) == -(-space.mesh.n_cells // _CELL_BLOCK) > 1
    R, S = _contracted_residual(params, AB, rows, *samples)
    np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), R)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), S)


def test_residual_forms_the_invariants_once_per_active_step(monkeypatch):
    # 2D 48^2 has three blocks; steps 2..7 of 10 lie in the bump's support,
    # and each forms the replayed field's invariants once, not per block
    space = P1Space(build_structured_mesh(2, 48))
    params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.05, J=10)
    coeffs = make_noise("linear-gradient")
    path = sample_path(9, coeffs.q, params.J, params.T)
    steps = []
    run(spiral_m0(space), params, path, coeffs, space,
        observers=[steps.append])
    calls = []
    invariants = RotationField.invariants

    def spy(self):
        calls.append(self.j)
        return invariants(self)

    monkeypatch.setattr(RotationField, "invariants", spy)
    observe, totals = weak_residual(space, params, path,
                                    [make_test_field(0)])
    for step in steps:
        observe(step)
    active = [j for j in range(params.J)
              if time_profile((j + 0.5) * params.k, params.T) != 0.0]
    assert space.mesh.n_cells > 2 * _CELL_BLOCK
    assert active == list(range(2, 8))
    assert calls == active and totals[0] != 0.0


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


# ------------------------------------------- many-row oracles, sample counts

def many_row_noise():
    """Two components that vary with every coordinate of the point, so
    that nearly every quadrature point and vertex has a row of its own."""
    def g1(x):
        s = x.sum(axis=1)
        return np.stack([np.sin(2.0 * x[:, 0] + x[:, 1]), np.cos(s),
                         x[:, 0] * x[:, 1] + 0.5 * s], axis=1)

    def j1(x):
        dim = x.shape[1]
        out = np.zeros((len(x), 3, dim))
        out[:, 0, 0] = 2.0 * np.cos(2.0 * x[:, 0] + x[:, 1])
        out[:, 0, 1] = np.cos(2.0 * x[:, 0] + x[:, 1])
        out[:, 1, :] = -np.sin(x.sum(axis=1))[:, None]
        out[:, 2, :] = 0.5
        out[:, 2, 0] += x[:, 1]
        out[:, 2, 1] += x[:, 0]
        return out

    def g2(x):
        return np.stack([x[:, 1], 0.5 + 0 * x[:, 0], x[:, 0] ** 2], axis=1)

    def j2(x):
        out = np.zeros((len(x), 3, x.shape[1]))
        out[:, 0, 1] = 1.0
        out[:, 2, 0] = 2.0 * x[:, 0]
        return out

    return NoiseCoefficients((NoiseComponent(g1, j1),
                              NoiseComponent(g2, j2)))


def _oracle_interpolant_errors(space, k, steps):
    """The interpolant errors with each Gauss point's interpolant sampled
    as a (c, q, 3) array and v sampled apart from m and m_next."""
    errors = dict.fromkeys(("m_minus_mleft_sq", "unit_defect_sq",
                            "v_minus_dtm_l1"), 0.0)
    for step in steps:
        m_qp = space.values_at_qp(step.m)
        m_next_qp = space.values_at_qp(step.m_next)
        diff_qp = m_next_qp - m_qp
        errors["m_minus_mleft_sq"] += (k / 3.0) * space.integrate(
            np.sum(diff_qp * diff_qp, axis=-1))
        for a, wgt in zip(_GAUSS_A, _GAUSS_W):
            norms = np.linalg.norm((1.0 - a) * m_qp + a * m_next_qp, axis=-1)
            errors["unit_defect_sq"] += (k * wgt
                                         * space.integrate((norms - 1.0) ** 2))
        gap = space.values_at_qp(step.v) - diff_qp / k
        errors["v_minus_dtm_l1"] += k * space.integrate(
            np.linalg.norm(gap, axis=-1))
    return errors


def _oracle_F_pairing(AB, rows, u_qp, gu):
    """(a, b) of rotation.F_pairing with per-point gathers of A and B and
    einsum products."""
    c, dim = len(gu), gu.shape[1]
    R = len(AB) // (1 + dim)
    A = np.take(AB[:R].reshape(R, 3, 3), rows, axis=0)
    B = np.take(AB[R:].reshape(R, 3 * dim, 3), rows, axis=0)
    a = np.einsum("cqab,cqb->cqa", A, u_qp)
    a += np.einsum("cqkb,ck->cqb", B, gu.reshape(c, 3 * dim))
    b = np.einsum("cqkb,cqb->cqk", B, u_qp)
    return a, b.reshape(b.shape[:2] + (dim, 3))


def _oracle_weak_residual(space, params, steps, fields):
    """The weak residual's totals with (R, S) formed by np.cross on
    (c, q, 3) and (c, q, dim, 3) broadcasts, over all cells at once."""
    mu, k = params.mu, params.k
    w = space.quad_weights
    acc_R, acc_S = 0.0, 0.0
    for step in steps:
        bump = time_profile((step.j + 0.5) * k, params.T)
        if bump == 0.0:
            continue
        m_mid = 0.5 * (step.m + step.m_next)
        m_qp, gm = space.values_at_qp(m_mid), space.grads_at_qp(m_mid)
        dtm_qp = space.values_at_qp((step.m_next - step.m) / k)
        a, b = _oracle_F_pairing(step.field.invariants(),
                                 step.field.qp_rows(), m_qp, gm)
        b_x_gm = np.cross(b, gm[:, None]).sum(axis=2)
        R = (np.cross(params.lambda1 * np.cross(m_qp, dtm_qp)
                      - params.lambda2 * dtm_qp - mu * a, m_qp)
             - mu * b_x_gm)
        S = -mu * np.cross(gm[:, None] + b, m_qp[:, :, None])
        acc_R = acc_R + k * bump * w[:, :, None] * R
        acc_S = acc_S + k * bump * w[:, :, None, None] * S
    qp = space.quad_points.reshape(-1, space.mesh.dim)
    totals = []
    for f in fields:
        psi, grad_psi = f.evaluate(qp)
        totals.append(psi.ravel() @ acc_R.ravel()
                      + grad_psi.ravel() @ acc_S.ravel())
    return np.array(totals)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 4)])
def test_monitors_match_oracles_on_a_many_row_field(dim, n):
    # 1089 rows in 2D (one per distinct point: the quadrature points are
    # the edge midpoints) and about 1600 in 3D: the componentwise kernels
    # against the kernels they replaced, and F_pairing against the
    # identity form of F on the last step's field
    space = P1Space(build_structured_mesh(dim, n))
    params = SchemeParams(lambda1=1.3, lambda2=0.7, theta=1.0, T=0.2, J=6)
    coeffs = many_row_noise()
    path = sample_path(13, coeffs.q, params.J, params.T)
    fields = [make_test_field(i) for i in range(3)]
    errs_obs, errs = interpolant_errors(space, params.k)
    residual_obs, totals = weak_residual(space, params, path, fields)
    steps = []
    run(spiral_m0(space), params, path, coeffs, space,
        observers=[errs_obs, residual_obs, steps.append])
    field = steps[-1].field
    assert len(field.Z) > 1000
    assert np.abs(field.xi).max() > 0.1

    oracle = _oracle_interpolant_errors(space, params.k, steps)
    for key, value in oracle.items():
        assert value > 0.0
        assert abs(errs[key] - value) <= 1e-12 * value, key
    expected = _oracle_weak_residual(space, params, steps, fields)
    assert np.all(np.abs(expected) > 1e-6)
    assert np.all(np.abs(totals - expected) <= 1e-12 * np.abs(expected))

    u, v = steps[-1].m, steps[-1].v
    a, b = F_pairing(field.invariants(), field.qp_rows(),
                     space.values_at_qp(u), space.grads_at_qp(u))
    w = space.quad_weights
    paired = (np.einsum("cq,cqa,cqa->", w, space.values_at_qp(v), a)
              + np.einsum("cq,cda,cqda->", w, space.grads_at_qp(v), b))
    F = compute_F_identity(field, u, v)
    assert abs(F) > 1e-3
    assert abs(paired - F) <= 1e-12 * abs(F)


def test_monitors_sample_each_state_once(monkeypatch):
    # J = 6 with steps 1..4 in the bump's support. The interpolant errors
    # sample m^0, each m_next and each step's v - (m_next - m)/k; the
    # residual samples m_mid twice and (m_next - m)/k once per active step
    space = space8()
    params, coeffs, path = short_inputs(J=6)
    steps = []
    run(spiral_m0(space), params, path, coeffs, space,
        observers=[steps.append])
    calls = []
    for name in ("values_at_qp", "grads_at_qp"):
        def spy(self, u, sample=getattr(P1Space, name), name=name):
            calls.append(name)
            return sample(self, u)
        monkeypatch.setattr(P1Space, name, spy)

    observe, _ = interpolant_errors(space, params.k)
    for step in steps:
        observe(step)
    assert calls == ["values_at_qp"] * (2 * params.J + 1)

    calls.clear()
    observe, _ = weak_residual(space, params, path, [make_test_field(0)])
    for step in steps:
        observe(step)
    active = [j for j in range(params.J)
              if time_profile((j + 0.5) * params.k, params.T) != 0.0]
    assert active == [1, 2, 3, 4]
    assert calls == ["values_at_qp", "grads_at_qp",
                     "values_at_qp"] * len(active)


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
