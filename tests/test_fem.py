"""P1 space, assembly, the off-diagonal sign condition, nodal operations."""

import numpy as np
import pytest

from sllgfem import (Mesh, NormalizationError, P1Space, assemble_lumped_mass,
                     assemble_stiffness, build_structured_mesh,
                     check_offdiag_condition, discrete_lp_norm,
                     interpolate_nodal, normalize_nodal)


@pytest.fixture(scope="module")
def space2():
    return P1Space(build_structured_mesh(2, 4))


@pytest.fixture(scope="module")
def space3():
    return P1Space(build_structured_mesh(3, 2))


def test_partition_of_unity(space2, space3):
    for sp in (space2, space3):
        assert np.allclose(sp.phi_qp.sum(axis=1), 1.0)


def test_quadrature_weights_sum_to_measure(space2, space3):
    for sp in (space2, space3):
        assert np.allclose(sp.quad_weights.sum(axis=1), sp.mesh.volumes)


def test_quadrature_degree_two_2d(space2):
    x = space2.quad_points
    # exact moments of x^2, x*y, y^2 on the unit square
    for f, exact in ((x[..., 0] ** 2, 1.0 / 3.0),
                     (x[..., 0] * x[..., 1], 1.0 / 4.0),
                     (x[..., 1] ** 2, 1.0 / 3.0)):
        assert abs(space2.integrate(f) - exact) < 1e-14


def test_quadrature_degree_two_3d(space3):
    x = space3.quad_points
    for f, exact in ((x[..., 0] ** 2, 1.0 / 3.0),
                     (x[..., 0] * x[..., 2], 1.0 / 4.0)):
        assert abs(space3.integrate(f) - exact) < 1e-14


def test_stiffness_symmetric_and_conservative(space2):
    K = assemble_stiffness(space2)
    assert abs(K - K.T).max() <= 1e-14
    ones = np.ones(space2.N)
    assert np.abs(K @ ones).max() <= 1e-12


def test_stiffness_positive_semidefinite(space2):
    K = assemble_stiffness(space2).toarray()
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-12


def test_linear_field_energy():
    space = P1Space(build_structured_mesh(2, 3))
    K = assemble_stiffness(space)
    u = space.mesh.vertices[:, 0]          # u = x, |grad u|^2 = 1
    assert abs(u @ (K @ u) - 1.0) < 1e-13


def test_2d_stiffness_scale_invariance():
    base = build_structured_mesh(2, 3)
    K1 = assemble_stiffness(P1Space(base)).toarray()
    scaled = Mesh(2.5 * base.vertices, base.cells)
    K2 = assemble_stiffness(P1Space(scaled)).toarray()
    assert np.allclose(K1, K2, atol=1e-13)


def test_offdiag_structured_holds(space2):
    report = check_offdiag_condition(space2)
    assert report.holds
    assert report.worst_value <= 1e-12


def test_offdiag_obtuse_fails():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.05]])
    space = P1Space(Mesh(vertices, np.array([[0, 1, 2]])))
    report = check_offdiag_condition(space)
    assert not report.holds
    assert report.worst_value > 0
    # the positive entry sits opposite the obtuse angle, between nodes 0, 1
    assert set(report.worst_pair) == {0, 1}


def test_offdiag_single_acute_cell():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    space = P1Space(Mesh(vertices, np.array([[0, 1, 2]])))
    assert check_offdiag_condition(space).holds


def test_lumped_mass_trace(space2, space3):
    for sp in (space2, space3):
        M = assemble_lumped_mass(sp)
        diag = M.diagonal()
        assert (diag > 0).all()
        assert abs(diag.sum() - 1.0) < 1e-13


def test_lumped_mass_single_triangle():
    vertices = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    space = P1Space(Mesh(vertices, np.array([[0, 1, 2]])))
    diag = assemble_lumped_mass(space).diagonal()
    assert np.allclose(diag, 2.0 / 3.0)     # area 2, one third per vertex


def test_lumped_norm_of_constant(space2):
    diag = assemble_lumped_mass(space2).diagonal()
    u = np.tile([1.0, 0.0, 0.0], (space2.N, 1))
    assert abs(np.sum(diag * np.sum(u * u, axis=1)) - 1.0) < 1e-13


def test_interpolate_constant(space2):
    u = interpolate_nodal(lambda x: np.broadcast_to([1.0, 2.0, 3.0],
                                                    x.shape[:-1] + (3,)),
                          space2)
    assert np.allclose(u, [1.0, 2.0, 3.0])


def test_interpolate_pointwise_callback(space2):
    u = interpolate_nodal(lambda p: (p[0], p[1], 0.0), space2)
    assert np.allclose(u[:, 0], space2.mesh.vertices[:, 0])


def test_interpolate_propagates_callback_errors(space2):
    calls = []

    def f(x):
        calls.append(np.shape(x))
        raise KeyError("missing parameter")

    with pytest.raises(KeyError, match="missing parameter"):
        interpolate_nodal(f, space2)
    assert calls == [space2.mesh.vertices.shape]     # no pointwise retry


def test_interpolate_linear_exact_at_barycenters(space2):
    u = interpolate_nodal(lambda x: np.stack(
        [2 * x[..., 0] - x[..., 1], x[..., 1], np.zeros_like(x[..., 0])],
        axis=-1), space2)
    qp = space2.quad_points
    expect = np.stack([2 * qp[..., 0] - qp[..., 1], qp[..., 1],
                       np.zeros_like(qp[..., 0])], axis=-1)
    assert np.allclose(space2.values_at_qp(u), expect)


def test_interpolate_sup_norm_bound(space2):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(1, 5, size=2)
        c = rng.standard_normal(3)

        def f(x):
            s = np.sin(a * x[..., 0]) * np.cos(b * x[..., 1])
            return s[..., None] * c

        u = interpolate_nodal(f, space2)
        samples = np.vstack([rng.uniform(0, 1, size=(500, 2)),
                             space2.mesh.vertices])
        sup_f = np.linalg.norm(f(samples), axis=1).max()
        sup_u = np.linalg.norm(u, axis=1).max()
        assert sup_u <= sup_f + 1e-12


def test_interpolate_nonfinite_named(space2):
    def f(x):
        out = np.zeros(x.shape[:-1] + (3,))
        with np.errstate(divide="ignore"):
            out[..., 0] = 1.0 / x[..., 0]   # inf at the x=0 edge
        return out

    with pytest.raises(ValueError, match="node 0"):
        interpolate_nodal(f, space2)


def test_normalize_basic():
    u = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    out = normalize_nodal(u)
    assert np.allclose(out, [[1, 0, 0], [0, 1, 0]])
    unit = np.array([[0.0, 0.0, 1.0]])
    assert np.array_equal(normalize_nodal(unit), unit)


def test_normalize_zero_named():
    u = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NormalizationError, match="node 1"):
        normalize_nodal(u)


def test_normalization_energy_decrease(space2):
    """Renormalizing nodal values >= 1 cannot raise the Dirichlet energy on
    a mesh whose stiffness off-diagonals are nonpositive."""
    K = assemble_stiffness(space2)
    rng = np.random.default_rng(23)
    for _ in range(200):
        u = rng.standard_normal((space2.N, 3))
        u = normalize_nodal(u) * rng.uniform(1.0, 3.0, size=(space2.N, 1))
        before = np.sum(u * (K @ u))
        w = normalize_nodal(u)
        after = np.sum(w * (K @ w))
        assert after <= before + 1e-10


def test_discrete_lp_norm_values():
    u = np.array([[3.0, 4.0, 0.0], [1.0, 0.0, 0.0]])
    assert discrete_lp_norm(u, np.inf, 0.5) == 5.0
    assert discrete_lp_norm(np.zeros((4, 3)), 2, 0.1) == 0.0
    # p = 1: h^2 * (5 + 1)
    assert abs(discrete_lp_norm(u, 1, 0.5) - 0.25 * 6.0) < 1e-15


def test_discrete_lp_norm_comparable_to_l2():
    n = 8
    mesh = build_structured_mesh(2, n)
    u = np.tile([1.0, 0.0, 0.0], (mesh.n_vertices, 1))
    val = discrete_lp_norm(u, 2, mesh.h, dim=2)
    # continuous L2 norm is 1; nodal rule with h = max diameter stays within
    # mesh-independent constant factors (observed ratio sqrt(2)*(n+1)/n)
    ratio = val / 1.0
    assert 0.5 <= ratio <= 2.0


def test_discrete_lp_norm_bad_p():
    with pytest.raises(ValueError):
        discrete_lp_norm(np.zeros((2, 3)), 0.5, 0.1)
