"""Rotation process: exponential steps, gradient process, F functional."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sllgfem.fem import P1Space, interpolate_nodal
from sllgfem.mesh import (Mesh, build_structured_mesh, read_mesh_text,
                          write_mesh_text)
from sllgfem.noise import (NoiseComponent, NoiseCoefficients, make_noise)
from sllgfem.rotation import (
    F_pairing, assemble_rotated_stiffness, compute_F_direct,
    compute_F_identity, cross_matrix, evolve_point_rotation, evolve_step,
    _group_points, _kz_operator, _rotated_gradient, init_rotation_field,
    rodrigues_exp)
from sllgfem.wiener import coarsen, sample_path


def small_space(divisions=4):
    return P1Space(build_structured_mesh(2, divisions))


def evolve_field(space, coeffs, path, J=None):
    field = init_rotation_field(space, coeffs)
    for j in range(path.J if J is None else J):
        field = evolve_step(field, path.increments[j], path.k)
    return field


def grad_Z(field, u):
    """grad(Z u) at the quadrature points through the oracles' kernel,
    (n_cells, n_qp, dim, 3) with row d for direction d."""
    space = field.space
    grad = _rotated_gradient(field.Z_quad(), field.xi_quad(),
                             space.values_at_qp(u), space.grads_at_qp(u))
    return np.swapaxes(grad, -1, -2)


def per_qp_points(space):
    """Every cell-major quadrature point, then every vertex."""
    return np.vstack([space.quad_points.reshape(-1, space.mesh.dim),
                      space.mesh.vertices])


def pair_varying(a=1.0):
    """Two spatially varying components with non-commuting values."""
    def g1(x):
        out = np.zeros((len(x), 3))
        out[:, 0] = a * x[:, 0]
        out[:, 2] = a * (1.0 - x[:, 0])
        return out

    def j1(x):
        out = np.zeros((len(x), 3, x.shape[1]))
        out[:, 0, 0] = a
        out[:, 2, 0] = -a
        return out

    def g2(x):
        out = np.zeros((len(x), 3))
        out[:, 1] = a * x[:, 1]
        out[:, 2] = a * (1.0 - x[:, 1])
        return out

    def j2(x):
        out = np.zeros((len(x), 3, x.shape[1]))
        out[:, 1, 1] = a
        out[:, 2, 1] = -a
        return out

    return NoiseCoefficients((NoiseComponent(g1, j1),
                              NoiseComponent(g2, j2)))


def smooth_u(space):
    return interpolate_nodal(
        lambda x: np.stack([np.sin(2 * np.pi * x[:, 0]),
                            np.cos(2 * np.pi * x[:, 1]),
                            0.3 + 0 * x[:, 0]], axis=1), space)


def smooth_v(space):
    return interpolate_nodal(
        lambda x: np.stack([x[:, 0] * x[:, 1],
                            np.cos(np.pi * x[:, 0]),
                            np.sin(np.pi * x[:, 1])], axis=1), space)


# ---------------------------------------------------------------- kernels

def test_cross_matrix_reproduces_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, u = rng.standard_normal((2, 3))
        np.testing.assert_allclose(cross_matrix(a) @ u, np.cross(a, u),
                                   atol=1e-15)


def test_cross_matrix_is_skew():
    rng = np.random.default_rng(1)
    A = cross_matrix(rng.standard_normal(3))
    np.testing.assert_allclose(A + A.T, 0.0, atol=0)


def test_rodrigues_matches_expm():
    rng = np.random.default_rng(2)
    for scale in (1e-8, 1e-5, 0.1, 1.0, 10.0):
        w = scale * rng.standard_normal(3)
        np.testing.assert_allclose(rodrigues_exp(w), expm(cross_matrix(w)),
                                   atol=1e-12)


@pytest.mark.parametrize("theta", [1e-6, 9.9e-5, 1.01e-4, 1e-2, 3.0])
def test_rodrigues_matches_expm_on_both_sides_of_the_series_branch(theta):
    # the small-angle series takes over below |w| = 1e-4
    rng = np.random.default_rng(int(theta * 1e6) + 7)
    axes = rng.standard_normal((50, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    R = rodrigues_exp(theta * axes)
    for w, Rw in zip(theta * axes, R):
        np.testing.assert_allclose(Rw, expm(cross_matrix(w)), rtol=0,
                                   atol=1e-14)


def test_rodrigues_of_zero_is_exactly_identity():
    np.testing.assert_array_equal(rodrigues_exp(np.zeros(3)), np.eye(3))
    np.testing.assert_array_equal(rodrigues_exp(np.zeros((4, 3))),
                                  np.tile(np.eye(3), (4, 1, 1)))


def test_rodrigues_batched():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((7, 3))
    R = rodrigues_exp(w)
    assert R.shape == (7, 3, 3)
    for i in range(7):
        np.testing.assert_allclose(R[i], rodrigues_exp(w[i]), atol=0)


def test_single_step_is_rodrigues_rotation():
    # one exponential step about axis g/|g| with angle -|g| dW
    g = np.array([[0.4, -1.1, 0.7]])
    dW = 0.31
    Z = evolve_point_rotation(g, np.array([[dW]]))
    np.testing.assert_allclose(Z, rodrigues_exp(-dW * g[0]), atol=1e-15)
    np.testing.assert_allclose(Z, expm(-dW * cross_matrix(g[0])), atol=1e-12)


# ------------------------------------------------------- point evolution

def test_point_rotation_zero_g_stays_identity():
    g = np.zeros((1, 3))
    inc = np.random.default_rng(4).standard_normal((20, 1)) * 0.1
    Z = evolve_point_rotation(g, inc)
    np.testing.assert_allclose(Z, np.eye(3), atol=0)


def test_point_rotation_constant_axis_closed_form():
    # q=1, g = gamma e3: e3 fixed, e1 precesses clockwise by gamma W(t)
    gamma = 1.7
    g = np.array([[0.0, 0.0, gamma]])
    path = sample_path(5, 1, 200, 1.0)
    Z = evolve_point_rotation(g, path.increments)
    w = path.increments.sum(axis=0)[0]
    np.testing.assert_allclose(Z @ [0, 0, 1], [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(Z @ [1, 0, 0],
                               [np.cos(gamma * w), -np.sin(gamma * w), 0.0],
                               atol=1e-12)


def test_point_rotation_stays_orthogonal():
    g = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    path = sample_path(6, 2, 500, 1.0)
    Z = evolve_point_rotation(g, path.increments)
    np.testing.assert_allclose(Z.T @ Z, np.eye(3), atol=1e-12)
    assert np.linalg.det(Z) == pytest.approx(1.0, abs=1e-12)


def test_point_rotation_strong_order_at_least_half():
    # fixed-realization study: 100 paths, 64x-finer self-reference;
    # the seed base pins one draw of the order estimator (its sampling
    # scatter is about +-0.04 around the theoretical 1/2)
    gvals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    errs = []
    for J in (8, 16, 32):
        paths = [sample_path(1800 + p, 2, J * 64, 1.0) for p in range(100)]
        Zf = evolve_point_rotation(
            gvals, np.stack([p.increments for p in paths]))
        Zc = evolve_point_rotation(
            gvals, np.stack([coarsen(p, 64).increments for p in paths]))
        errs.append(float(np.linalg.norm(Zf - Zc, axis=(1, 2)).mean()))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 0.5, f"measured strong order {order:.3f}, errors {errs}"


# --------------------------------------------------------- field process

# entries that compare equal as floats but not bit for bit (0.0 and -0.0,
# NaNs), and a few that do not
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, np.inf,
                            np.nan])


@st.composite
def _coefficient_arrays(draw):
    """(g, jac) of shapes (q, n, 3) and (q, n, 3, dim) whose n points are
    copies of a few drawn points, so that repeats are planted."""
    q, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    dim = draw(st.sampled_from([2, 3]))
    size = 3 * q * (1 + dim)
    points = draw(st.lists(st.lists(_ENTRIES, min_size=size, max_size=size),
                           min_size=1, max_size=6))
    pick = draw(st.lists(st.integers(0, len(points) - 1), min_size=n,
                         max_size=n))
    flat = np.array(points)[pick]
    g = flat[:, :3 * q].reshape(n, q, 3).transpose(1, 0, 2)
    jac = flat[:, 3 * q:].reshape(n, q, 3, dim).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(g), np.ascontiguousarray(jac)


def _check_grouping(g, jac):
    # reference: np.unique over each point's entries as int64 bits
    n = g.shape[1]
    bits = np.hstack([np.moveaxis(x, 1, 0).reshape(n, -1).view(np.int64)
                      for x in (g, jac)])
    _, ref = np.unique(bits, axis=0, return_inverse=True)
    index, first = _group_points(g, jac)
    groups = len(first)
    np.testing.assert_array_equal(index[first], np.arange(groups))
    # the same partition: each group of one is a group of the other
    assert groups == ref.max() + 1
    assert len(np.unique(np.stack([index, ref.ravel()]), axis=1)[0]) == groups


@settings(max_examples=60, deadline=None)
@given(_coefficient_arrays())
def test_group_points_matches_unique_on_the_bits(arrays):
    _check_grouping(*arrays)


def test_group_points_keeps_signed_zeros_apart():
    g = np.zeros((1, 4, 3))
    g[0, 1, 2] = g[0, 3, 2] = -0.0
    jac = np.ones((1, 4, 3, 2))
    index, first = _group_points(g, jac)
    assert len(first) == 2 and index[0] == index[2] != index[1] == index[3]
    _check_grouping(g, jac)


def test_initial_field_is_identity():
    space = small_space()
    field = init_rotation_field(space, make_noise("pair-noncommuting"))
    assert field.j == 0
    np.testing.assert_array_equal(field.Z_nodes,
                                  np.tile(np.eye(3), (space.N, 1, 1)))
    assert np.all(field.xi_quad() == 0.0)
    assert field.orthogonality_defect() <= 1e-15


def test_zero_noise_field_stays_identity():
    space = small_space()
    path = sample_path(7, 1, 50, 1.0)
    field = evolve_field(space, make_noise("zero"), path)
    assert field.j == 50
    np.testing.assert_allclose(field.Z_nodes,
                               np.tile(np.eye(3), (space.N, 1, 1)), atol=0)
    assert np.all(field.xi_quad() == 0.0)


def test_constant_g_keeps_xi_zero():
    # I_i = H_i = 0 and xi0 = 0: the gradient process never leaves 0
    space = small_space()
    path = sample_path(8, 1, 100, 1.0)
    field = evolve_field(space, make_noise("constant-z", amplitude=2.0), path)
    assert np.all(field.xi_quad() == 0.0)


def test_field_orthogonality_drift_under_varying_noise():
    space = small_space()
    path = sample_path(9, 2, 400, 1.0)
    coeffs = pair_varying()
    field = init_rotation_field(space, coeffs)
    worst = field.orthogonality_defect()
    for j in range(path.J):
        field = evolve_step(field, path.increments[j], path.k)
        worst = max(worst, field.orthogonality_defect())
    assert worst <= 1e-12


def test_q1_varying_g_matches_analytic_solution():
    # a single component commutes with itself in time, so
    # Z_t(x) = exp(-W(t) C(g(x))) exactly and xi is its spatial gradient
    space = small_space()
    coeffs = make_noise("linear-gradient", amplitude=1.3)
    path = sample_path(0, 1, 1024, 0.25)
    field = evolve_field(space, coeffs, path)
    WT = path.increments.sum(axis=0)[0]
    X = space.mesh.vertices
    Z_exact = rodrigues_exp(-WT * coeffs.g_at(X)[0])
    assert np.linalg.norm(field.Z_nodes - Z_exact, axis=(1, 2)).max() <= 1e-12

    # xi at every cell-major quadrature point
    X = space.quad_points.reshape(-1, 2)
    xi = field.xi_quad().reshape(len(X), 3, 2, 3)
    delta = 1e-5
    for d in range(2):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, d] += delta
        Xm[:, d] -= delta
        fd = (rodrigues_exp(-WT * coeffs.g_at(Xp)[0])
              - rodrigues_exp(-WT * coeffs.g_at(Xm)[0])) / (2 * delta)
        err = np.linalg.norm(xi[:, :, d] - fd, axis=(1, 2)).max()
        assert err <= 2e-2  # Euler-Maruyama error at k = 0.25/1024


def test_evolve_step_rejects_bad_increments():
    space = small_space()
    field = init_rotation_field(space, make_noise("pair-noncommuting"))
    with pytest.raises(ValueError):
        evolve_step(field, np.array([0.1]), 0.01)  # q mismatch
    with pytest.raises(ValueError):
        evolve_step(field, np.array([0.1, np.nan]), 0.01)
    with pytest.raises(ValueError):
        evolve_step(field, np.array([0.1, 0.2]), 0.0)


def rotated_order_mesh(tmp_path):
    """The 2D 3^2 mesh with each cell's vertices rotated by its index
    modulo 3, written to a file and read back."""
    mesh = build_structured_mesh(2, 3)
    shift = np.arange(mesh.n_cells) % 3
    cells = np.array([np.roll(c, s) for c, s in zip(mesh.cells, shift)])
    path = tmp_path / "mesh.txt"
    write_mesh_text(Mesh(mesh.vertices, cells), path)
    back = read_mesh_text(path)
    assert np.array_equal(back.cells, cells)
    return back


# distinct rows of linear-gradient, one per distinct first coordinate
_LINEAR_ROWS = {(2, 32): 65, (3, 8): 66}


@pytest.mark.parametrize("noise", ["zero", "constant-z", "pair-noncommuting",
                                   "linear-gradient", "pair-varying"])
@pytest.mark.parametrize("dim, divisions", [(2, 1), (2, 3), (2, "rotated"),
                                            (2, 32), (3, 2), (3, 8)])
def test_every_point_reads_its_coefficients_through_the_index(
        dim, divisions, noise, tmp_path):
    mesh = (rotated_order_mesh(tmp_path) if divisions == "rotated"
            else build_structured_mesh(dim, divisions))
    space = P1Space(mesh)
    coeffs = pair_varying() if noise == "pair-varying" else make_noise(noise)
    cache = init_rotation_field(space, coeffs)._cache
    points = per_qp_points(space)
    index = cache["index"]
    assert index.shape == (len(points),)
    np.testing.assert_array_equal(cache["g"][:, index].view(np.int64),
                                  coeffs.g_at(points).view(np.int64))
    dg = np.moveaxis(coeffs.jac_at(points), -1, 2)
    np.testing.assert_array_equal(cache["dg"][:, index].view(np.int64),
                                  dg.view(np.int64))
    rows = len(cache["g"][0])
    assert np.array_equal(np.unique(index), np.arange(rows))
    if noise in ("zero", "constant-z", "pair-noncommuting"):
        assert rows == 1
    elif noise == "linear-gradient" and (dim, divisions) in _LINEAR_ROWS:
        assert rows == _LINEAR_ROWS[dim, divisions]


@pytest.mark.parametrize("dim, divisions", [(2, 4), (3, 2)])
def test_evolve_step_matches_per_component_update(dim, divisions):
    # reference: the step written out per noise component i, with the
    # drift and noise matrices contracted against xi and Z one i at a time,
    # at every cell-major quadrature point and then every vertex
    space = P1Space(build_structured_mesh(dim, divisions))
    coeffs = pair_varying()
    path = sample_path(31, 2, 6, 0.3)
    points = per_qp_points(space)
    nq = space.mesh.n_cells * space.n_qp
    g = coeffs.g_at(points)
    A = -cross_matrix(g)
    Ii = -cross_matrix(np.moveaxis(coeffs.jac_at(points), -1, 2))
    A2 = A @ A
    Hi = Ii @ A[:, :, None] + A[:, :, None] @ Ii
    Z = np.tile(np.eye(3), (len(points), 1, 1))
    xi = np.zeros((len(points), 3, dim, 3))
    field = init_rotation_field(space, coeffs)
    k = path.k
    for dW in path.increments:
        drift = 0.5 * k * (np.einsum("ipab,pbdc->padc", A2, xi)
                           + np.einsum("ipdab,pbc->padc", Hi, Z))
        noise = (np.einsum("i,ipab,pbdc->padc", dW, A, xi)
                 + np.einsum("i,ipdab,pbc->padc", dW, Ii, Z))
        a = np.einsum("i,ipa->pa", dW, g)
        Z, xi = rodrigues_exp(-a) @ Z, xi + drift + noise
        field = evolve_step(field, dW, k)
        got_Z = np.concatenate([field.Z_quad().reshape(-1, 3, 3),
                                field.Z_nodes])
        got_xi = field.xi_quad().reshape(xi[:nq].shape)
        assert np.abs(got_Z - Z).max() <= 1e-12 * np.abs(Z).max()
        assert np.abs(got_xi - xi[:nq]).max() <= 1e-12 * np.abs(xi).max()
    assert np.abs(xi).max() > 0.1


@pytest.mark.parametrize("noise", ["linear-gradient", "pair-varying"])
@pytest.mark.parametrize("dim, divisions", [(2, 4), (3, 2), (2, 48), (3, 8)])
def test_field_matches_per_qp_layout(dim, divisions, noise):
    # oracle: the same update over every point at once, in the kernel's
    # operation order, evolved at every cell-major quadrature point (each
    # shared 2D edge midpoint once per adjacent triangle) and at every
    # vertex, with xi at the vertices too; bit-exact, since the arithmetic
    # per point is the same. 2D 48^2 with pair-varying noise stands for a
    # field with many rows: 9409, one per distinct coefficient value
    space = P1Space(build_structured_mesh(dim, divisions))
    coeffs = (pair_varying() if noise == "pair-varying"
              else make_noise("linear-gradient", amplitude=1.3))
    path = sample_path(33, coeffs.q, 6, 0.3)
    points = per_qp_points(space)
    P = len(points)
    g = coeffs.g_at(points)
    dg = np.moveaxis(coeffs.jac_at(points), -1, 2)
    G2 = np.einsum("ipa,ipb->pab", g, g)
    gg = np.einsum("ipa,ipa->p", g, g)
    gdg = np.einsum("ipa,ipda->pd", g, dg)
    T = np.einsum("ipa,ipdb->padb", g, dg)
    H = T + T.transpose(0, 3, 2, 1)
    for a in range(3):
        G2[:, a, a] -= gg
        H[:, a, :, a] -= 2.0 * gdg
    Z = np.tile(np.eye(3), (P, 1, 1))
    xi = np.zeros((P, 3, dim, 3))
    field = init_rotation_field(space, coeffs)
    k = path.k
    for dW in path.increments:
        a = -np.einsum("i,ipa->pa", dW, g)
        M = 0.5 * k * G2
        M += cross_matrix(a)
        N = 0.5 * k * H
        N += np.moveaxis(cross_matrix(-np.tensordot(dW, dg, 1)), 1, 2)
        flat = xi.reshape(P, 3, 3 * dim)
        xi = ((M @ flat + (N.reshape(P, 3 * dim, 3) @ Z).reshape(flat.shape))
              + flat).reshape(xi.shape)
        Z = rodrigues_exp(a) @ Z
        field = evolve_step(field, dW, k)
    nq = space.mesh.n_cells * space.n_qp
    np.testing.assert_array_equal(field.Z_quad().reshape(-1, 3, 3), Z[:nq])
    np.testing.assert_array_equal(field.Z_nodes, Z[nq:])
    np.testing.assert_array_equal(field.xi_quad().reshape(xi[:nq].shape),
                                  xi[:nq])
    assert np.abs(xi).max() > 0.1


# ---------------------------------------------------------- applications

def test_rotated_gradient_at_time_zero_is_plain_gradient():
    space = small_space()
    field = init_rotation_field(space, pair_varying())
    u = smooth_u(space)
    gu = grad_Z(field, u)
    expected = np.transpose(space.grads_at_qp(u), (0, 1, 2, 3)) \
        if space.grads_at_qp(u).ndim == 4 else space.grads_at_qp(u)
    # grads_at_qp returns (c, dim, 3) per cell (P1 gradients are constant
    # within a cell); broadcast over quadrature points
    gu_ref = np.broadcast_to(space.grads_at_qp(u)[:, None, :, :], gu.shape)
    np.testing.assert_allclose(gu, gu_ref, atol=1e-14)


def test_constant_g_preserves_gradient_energy():
    # xi = 0 and Z constant in x: |grad(Z u)|^2 integrates to u^T K u
    space = small_space()
    path = sample_path(14, 2, 80, 1.0)
    field = evolve_field(space, make_noise("pair-noncommuting"), path)
    K = space.stiffness()
    for u in (smooth_u(space), smooth_v(space)):
        gu = grad_Z(field, u)
        energy = np.einsum("cq,cqda,cqda->", space.quad_weights, gu, gu)
        base = float(np.sum(u * (K @ u)))
        assert energy == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_grad_of_constant_field_is_xi_u():
    space = small_space()
    path = sample_path(15, 2, 120, 0.5)
    field = evolve_field(space, pair_varying(), path)
    u0 = np.array([0.3, -0.4, 0.8])
    u = np.tile(u0, (space.N, 1))
    gu = grad_Z(field, u)
    expected = np.einsum("cqadb,b->cqda", field.xi_quad(), u0)
    np.testing.assert_allclose(gu, expected, atol=1e-13)
    assert np.linalg.norm(gu) > 0.0  # nonzero once W wanders off 0


# -------------------------------------------------------- F functional

def test_F_identity_zero_at_time_zero():
    space = small_space()
    field = init_rotation_field(space, pair_varying())
    assert compute_F_identity(field, smooth_u(space), smooth_v(space)) == 0.0


def test_F_identity_zero_for_zero_noise():
    space = small_space()
    path = sample_path(16, 1, 40, 1.0)
    field = evolve_field(space, make_noise("zero"), path)
    F = compute_F_identity(field, smooth_u(space), smooth_v(space))
    assert abs(F) <= 1e-12


def test_F_identity_vanishes_for_constant_g():
    # spatially constant Z commutes with the gradient: the rotated
    # Dirichlet form equals the plain one and F degenerates to zero
    space = small_space()
    path = sample_path(17, 2, 90, 1.0)
    field = evolve_field(space, make_noise("pair-noncommuting",
                                           amplitude=1.5), path)
    rng = np.random.default_rng(18)
    for _ in range(5):
        u = rng.standard_normal((space.N, 3))
        v = rng.standard_normal((space.N, 3))
        assert abs(compute_F_identity(field, u, v)) <= 1e-10


@pytest.mark.parametrize("noise", ["linear-gradient", "pair-varying"])
@pytest.mark.parametrize("dim, divisions", [(2, 8), (3, 3)])
def test_rotated_gradient_pairing_is_F(dim, divisions, noise):
    # F(t, u, w) = sum_qp w (w . a + sum_d d_d w . b_d) with (a, b) from
    # the rows' invariants, the form the weak residual pairs with m x psi,
    # against the identity form
    space = P1Space(build_structured_mesh(dim, divisions))
    coeffs = (pair_varying() if noise == "pair-varying"
              else make_noise("linear-gradient"))
    field = evolve_field(space, coeffs, sample_path(34, coeffs.q, 10, 0.5))
    u, w = np.random.default_rng(35).standard_normal((2, space.N, 3))
    a, b = F_pairing(field.invariants(), field.qp_rows(),
                     space.values_at_qp(u), space.grads_at_qp(u))
    weights = space.quad_weights
    paired = (np.einsum("cq,cqa,cqa->", weights, space.values_at_qp(w), a)
              + np.einsum("cq,cda,cqda->", weights, space.grads_at_qp(w), b))
    F = compute_F_identity(field, u, w)
    assert abs(F) > 1e-3
    assert abs(paired - F) <= 1e-10 * abs(F)


def test_F_direct_zero_horizon():
    space = small_space()
    coeffs = pair_varying()
    path = sample_path(19, 2, 30, 1.0)
    F = compute_F_direct(path, coeffs, smooth_u(space), smooth_v(space),
                         0, space)
    assert F == 0.0


def test_F_direct_rejects_horizon_overrun():
    space = small_space()
    path = sample_path(19, 2, 30, 1.0)
    with pytest.raises(ValueError):
        compute_F_direct(path, pair_varying(), smooth_u(space),
                         smooth_v(space), 31, space)


def test_F_direct_symmetry_and_additivity():
    space = small_space()
    coeffs = pair_varying()
    path = sample_path(20, 2, 40, 0.5)
    u, v = smooth_u(space), smooth_v(space)
    rng = np.random.default_rng(21)
    w = rng.standard_normal((space.N, 3))
    Fuv = compute_F_direct(path, coeffs, u, v, 40, space)
    Fvu = compute_F_direct(path, coeffs, v, u, 40, space)
    assert Fuv == pytest.approx(Fvu, abs=1e-10)
    Fsum = compute_F_direct(path, coeffs, u, v + w, 40, space)
    Fw = compute_F_direct(path, coeffs, u, w, 40, space)
    assert Fsum == pytest.approx(Fuv + Fw, abs=1e-10)


def test_F_identity_additivity_through_assembly():
    space = small_space()
    path = sample_path(22, 2, 60, 0.5)
    field = evolve_field(space, pair_varying(), path)
    u, v = smooth_u(space), smooth_v(space)
    rng = np.random.default_rng(23)
    w = rng.standard_normal((space.N, 3))
    lhs = compute_F_identity(field, u, v + w)
    rhs = (compute_F_identity(field, u, v)
           + compute_F_identity(field, u, w))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rotated_stiffness_matches_F_identity():
    space = small_space()
    path = sample_path(24, 2, 50, 0.5)
    field = evolve_field(space, pair_varying(), path)
    KZ = assemble_rotated_stiffness(field)
    K = space.stiffness()
    u, v = smooth_u(space), smooth_v(space)
    quad = np.einsum("cq,cqda,cqda->", space.quad_weights,
                     grad_Z(field, u), grad_Z(field, v))
    via_matrix = float(u.ravel() @ (KZ @ v.ravel()))
    assert via_matrix == pytest.approx(quad, rel=1e-12, abs=1e-12)
    F_matrix = via_matrix - float(np.sum(u * (K @ v)))
    assert F_matrix == pytest.approx(compute_F_identity(field, u, v),
                                     abs=1e-11)


@pytest.mark.parametrize("dim, divisions", [(2, 4), (3, 2)])
def test_rotated_stiffness_at_time_zero_is_exactly_K_kron_I(dim, divisions):
    # Z = I and xi = 0, so KZ = K (x) I + Kxi has Kxi = 0 exactly; a
    # misaligned add of K onto the 3x3 block diagonals shows here
    space = P1Space(build_structured_mesh(dim, divisions))
    field = init_rotation_field(space, pair_varying())
    KZ = assemble_rotated_stiffness(field)
    assert np.array_equal(KZ.toarray(),
                          sp.kron(space.stiffness(), np.eye(3)).toarray())


@pytest.mark.parametrize("noise", ["pair-varying", "linear-gradient"])
@pytest.mark.parametrize("dim, divisions", [(2, 4), (3, 2), (3, 3)])
def test_rotated_stiffness_matches_cellwise_coo_assembly(dim, divisions,
                                                         noise):
    # reference: cell matrices by one three-operand einsum, scattered as
    # COO triplets onto the global (3N, 3N) matrix. pair-varying has one
    # field row per distinct point, linear-gradient a few rows
    space = P1Space(build_structured_mesh(dim, divisions))
    coeffs = (pair_varying() if noise == "pair-varying"
              else make_noise("linear-gradient"))
    field = evolve_field(space, coeffs,
                         sample_path(32, coeffs.q, 20, 0.5))
    gphi_dl = np.transpose(space.grad_phi, (0, 2, 1))
    T = (space.phi_qp[None, :, None, None, :, None]
         * np.moveaxis(field.xi_quad(), 3, 2)[:, :, :, :, None, :]
         + gphi_dl[:, None, :, None, :, None]
         * field.Z_quad()[:, :, None, :, None, :])
    local = np.einsum("cq,cqdalb,cqdame->clbme", space.quad_weights, T, T)
    d1 = dim + 1
    gdof = (3 * space.mesh.cells[:, :, None]
            + np.arange(3)).reshape(-1, 3 * d1)
    rows = np.repeat(gdof[:, :, None], 3 * d1, axis=2)
    cols = np.transpose(rows, (0, 2, 1))
    ref = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(3 * space.N, 3 * space.N)).toarray()
    KZ = assemble_rotated_stiffness(field)
    assert KZ.shape == ref.shape
    dense = KZ.toarray()
    scale = np.abs(ref).max()
    assert np.abs(dense - ref).max() <= 1e-12 * scale
    assert np.array_equal(dense, dense.T)


def test_fields_of_one_run_share_one_kz_operator():
    # the operator depends only on the mesh and the row index, so the
    # first assembly of a run builds it and every later field reuses it
    space = small_space()
    path = sample_path(33, 2, 10, 0.5)
    first = evolve_field(space, pair_varying(), path, J=1)
    later = first
    for j in range(1, 5):
        later = evolve_step(later, path.increments[j], path.k)
    assert later.j == 5
    assemble_rotated_stiffness(first)
    operator = _kz_operator(first)
    assemble_rotated_stiffness(later)
    assert _kz_operator(later) is operator


def test_F_oracle_agreement_under_k_refinement():
    # fixed-realization ladder on one Brownian path (seed pinned): the
    # identity form is exact given Z, xi; the direct form carries the
    # O(sqrt(k)) strong error of its left-endpoint Ito sum
    space = small_space()
    coeffs = pair_varying()
    u, v = smooth_u(space), smooth_v(space)
    fine = sample_path(30, 2, 200, 1.0)
    errs = []
    for J in (50, 100, 200):
        path = coarsen(fine, 200 // J)
        field = evolve_field(space, coeffs, path)
        f_id = compute_F_identity(field, u, v)
        f_dir = compute_F_direct(path, coeffs, u, v, J, space)
        errs.append(abs(f_id - f_dir))
    assert errs[0] > errs[1] > errs[2], errs
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 0.5, f"measured order {order:.3f}, errors {errs}"
