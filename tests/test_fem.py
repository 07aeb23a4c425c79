"""P1 space, assembly, the off-diagonal sign condition, nodal operations."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import bsr_matrix

from sllgfem import (Mesh, NormalizationError, P1Space, assemble_lumped_mass,
                     assemble_stiffness, build_structured_mesh,
                     check_offdiag_condition, interpolate_nodal,
                     normalize_nodal)
from sllgfem.fem import SUPERLU_PANEL_SIZE, SUPERLU_RELAX
from sllgfem.mesh import edge_determinants


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


@pytest.mark.parametrize("dim, divisions", [(2, 4), (2, 32), (3, 3),
                                             (3, 8)])
def test_quad_points_match_the_gathered_cell_vertices(dim, divisions):
    # bit for bit: the same terms summed in the same order as from the
    # (M, d+1, d) array of each cell's vertices
    space = P1Space(build_structured_mesh(dim, divisions))
    x = np.take(space.mesh.vertices, space.mesh.cells, axis=0)
    expect = np.empty_like(space.quad_points)
    for q, weights in enumerate(space.phi_qp):
        point = weights[0] * x[:, 0]
        for a in range(1, dim + 1):
            point += weights[a] * x[:, a]
        expect[:, q] = point
    np.testing.assert_array_equal(space.quad_points, expect)


def test_stiffness_symmetric_and_conservative(space2):
    K = assemble_stiffness(space2)
    assert abs(K - K.T).max() <= 1e-14
    ones = np.ones(space2.N)
    assert np.abs(K @ ones).max() <= 1e-12


@pytest.mark.parametrize("dim, divisions", [(2, 5), (3, 3)])
def test_stiffness_is_exactly_symmetric_on_the_cell_pair_pattern(dim,
                                                                 divisions):
    space = P1Space(build_structured_mesh(dim, divisions))
    K = space.stiffness()
    indptr, indices, _, transpose = space.cell_pair_pattern()
    np.testing.assert_array_equal(K.indptr, indptr)
    np.testing.assert_array_equal(K.indices, indices)
    assert np.array_equal(K.data, K.data[transpose])


@pytest.mark.parametrize("dim, divisions", [(2, 5), (3, 3)])
def test_stiffness_scatters_the_mesh_cell_blocks(dim, divisions):
    # the mesh forms each cell's block once; K is their sum on the pattern
    mesh = build_structured_mesh(dim, divisions)
    blocks = mesh.cell_stiffness
    assert blocks.shape == (mesh.n_cells, dim + 1, dim + 1)
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
    g = mesh.grad_lambda
    np.testing.assert_allclose(
        blocks, mesh.volumes[:, None, None] * (g @ g.transpose(0, 2, 1)),
        rtol=1e-14, atol=1e-14 * np.abs(blocks).max())
    space = P1Space(mesh)
    _, indices, slots, _ = space.cell_pair_pattern()
    expect = np.bincount(slots, blocks.ravel(), len(indices))
    assert space.stiffness().data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dim, divisions", [(2, 4), (3, 3)])
def test_step_layout_matches_block_matrix_in_csc(dim, divisions):
    # reference: K without its explicit zeros, random 2x2 blocks on its
    # slots as a BSR matrix, converted to CSC by scipy
    space = P1Space(build_structured_mesh(dim, divisions))
    layout = space.step_layout()
    K = space.stiffness().copy()
    K.eliminate_zeros()
    assert K.nnz < space.stiffness().nnz        # right-angle edges
    rows = np.repeat(np.arange(space.N), np.diff(K.indptr))
    np.testing.assert_array_equal(layout.rows, rows)
    np.testing.assert_array_equal(layout.cols, K.indices)
    np.testing.assert_array_equal(layout.values, K.data)
    np.testing.assert_array_equal(layout.diagonal,
                                  np.flatnonzero(rows == K.indices))
    # the layout's matrix is the reference's A[p][:, p], p = layout.order,
    # rows sorted in each column
    p = layout.order
    np.testing.assert_array_equal(np.sort(p), np.arange(2 * space.N))
    np.testing.assert_array_equal(p[layout.inverse], np.arange(2 * space.N))
    np.testing.assert_array_equal(p.reshape(-1, 2) % 2, [[0, 1]] * space.N)
    blocks = np.random.default_rng(3).standard_normal((K.nnz, 2, 2))
    shape = (2 * space.N, 2 * space.N)
    ref = bsr_matrix((blocks, K.indices, K.indptr), shape=shape).tocsc()
    ref = ref[p][:, p].sorted_indices()
    A = layout.matrix(blocks)
    assert A.shape == ref.shape
    assert A.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(A, name), getattr(ref, name))


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
    assert report.worst_value == space.stiffness()[0, 1]


def test_offdiag_single_acute_cell():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    space = P1Space(Mesh(vertices, np.array([[0, 1, 2]])))
    assert check_offdiag_condition(space).holds


def test_lumped_mass_trace(space2, space3):
    for sp in (space2, space3):
        diag = assemble_lumped_mass(sp)
        assert diag.shape == (sp.N,)
        assert (diag > 0).all()
        assert abs(diag.sum() - 1.0) < 1e-13


def test_lumped_mass_single_triangle():
    vertices = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    space = P1Space(Mesh(vertices, np.array([[0, 1, 2]])))
    diag = assemble_lumped_mass(space)
    assert np.allclose(diag, 2.0 / 3.0)     # area 2, one third per vertex


def test_lumped_norm_of_constant(space2):
    diag = assemble_lumped_mass(space2)
    u = np.tile([1.0, 0.0, 0.0], (space2.N, 1))
    assert abs(np.sum(diag * np.sum(u * u, axis=1)) - 1.0) < 1e-13


def test_interpolate_constant(space2):
    u = interpolate_nodal(lambda x: np.broadcast_to([1.0, 2.0, 3.0],
                                                    x.shape[:-1] + (3,)),
                          space2)
    assert np.allclose(u, [1.0, 2.0, 3.0])


def test_interpolate_rejects_pointwise_callback(space2):
    # given the (N, 2) array, this callback builds a ragged tuple
    with pytest.raises(ValueError):
        interpolate_nodal(lambda p: (p[0], p[1], 0.0), space2)


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


def _edge_matrix(x):
    return x[:, 1:] - x[:, :1]


@st.composite
def _shapely_cells(draw):
    """One triangle or tetrahedron and its mirror image (the last two
    vertices swapped), well shaped: its measure is at least a tenth of
    the product of its edge lengths from vertex 0."""
    dim = draw(st.sampled_from([2, 3]))
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(coords, min_size=dim * (dim + 1),
                               max_size=dim * (dim + 1)))).reshape(dim + 1,
                                                                   dim)
    lengths = np.linalg.norm(_edge_matrix(x[None])[0], axis=1)
    assume(lengths.min() > 1e-3)
    assume(abs(np.linalg.det(_edge_matrix(x[None])[0]))
           >= 0.1 * np.prod(lengths))
    mirror = x[[*range(dim - 1), dim, dim - 1]]
    return np.stack([x, mirror])


@settings(max_examples=60, deadline=None)
@given(_shapely_cells())
def test_closed_form_geometry_matches_lapack(x):
    # both orientations: signed determinants and cofactor rows against
    # np.linalg.det and np.linalg.inv of the edge matrix, and the mesh's
    # measures and gradients of the reoriented cell
    dim = x.shape[2]
    E = _edge_matrix(x)
    cof = np.empty((2, dim, dim))
    det = edge_determinants(x, cofactors=cof)
    ref_det = np.linalg.det(E)
    np.testing.assert_allclose(det, ref_det, rtol=1e-12, atol=0)
    assert det[0] == -det[1]
    ref_grad = np.swapaxes(np.linalg.inv(E), 1, 2)
    for c in range(2):
        scale = np.abs(ref_grad[c]).max()
        assert np.abs(cof[c] / det[c] - ref_grad[c]).max() <= 1e-12 * scale
    fact = 2.0 if dim == 2 else 6.0
    for c in range(2):
        space = P1Space(Mesh(x[c], np.arange(dim + 1)[None]))
        oriented = space.mesh.vertices[space.mesh.cells]
        np.testing.assert_allclose(space.mesh.volumes, abs(ref_det[c]) / fact,
                                   rtol=1e-12, atol=0)
        grads = np.swapaxes(np.linalg.inv(_edge_matrix(oriented)), 1, 2)[0]
        scale = np.abs(grads).max()
        assert np.abs(space.grad_phi[0, 1:] - grads).max() <= 1e-12 * scale
        assert np.abs(space.grad_phi[0].sum(axis=0)).max() <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3]), divisions=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_stiffness_exactly_symmetric_with_zero_row_sums(dim, divisions,
                                                        seed):
    # structured meshes with every vertex moved by up to 15% of a division
    mesh = build_structured_mesh(dim, divisions)
    jitter = np.random.default_rng(seed).uniform(-0.15, 0.15,
                                                 mesh.vertices.shape)
    space = P1Space(Mesh(mesh.vertices + jitter / divisions, mesh.cells))
    K = assemble_stiffness(space)
    assert (K != K.T).nnz == 0
    assert np.abs(K @ np.ones(space.N)).max() <= 1e-13 * np.abs(K.data).max()


# Assembles and solves step 0 of a spiral state with linear-gradient noise
# on a structured mesh: the layout's ordering factorization and the step's
# factorization both use the supernode constants
_FACTOR_STEP = """\
import sys
import numpy as np
from sllgfem import scheme
from sllgfem.fem import P1Space
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import make_noise
from sllgfem.rotation import init_rotation_field
space = P1Space(build_structured_mesh(int(sys.argv[1]), int(sys.argv[2])))
angle = 2.0 * np.pi * space.mesh.vertices[:, 0]
m = np.column_stack([np.cos(angle), np.sin(angle), np.full(space.N, 0.3)])
m /= np.linalg.norm(m, axis=1)[:, None]
params = scheme.SchemeParams(lambda1=1.0, lambda2=1.0, T=0.1, J=40)
field = init_rotation_field(space, make_noise("linear-gradient"))
system = scheme.assemble_step_system(m, scheme.build_tangent_frame(m),
                                     field, params, space)
print(scheme.solve_step(system, params).residual)
"""


@pytest.mark.parametrize("dim, divisions", [(2, 32), (3, 6)])
def test_step_factors_with_the_supernode_constants(dim, divisions):
    # relax=32 with panel_size=16 crashed the interpreter inside SuperLU on
    # scipy 1.17.1; in a child process a crash fails this test, not the
    # suite
    assert 1 <= SUPERLU_RELAX <= SUPERLU_PANEL_SIZE
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _FACTOR_STEP, str(dim),
                           str(divisions)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) <= 1e-12
