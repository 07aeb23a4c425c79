"""Mesh construction, validation, and the text round-trip."""

import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem import Mesh, MeshError, P1Space, build_structured_mesh
from sllgfem import fem as fem_module
from sllgfem import mesh as mesh_module
from sllgfem.mesh import read_mesh_text, write_mesh_text


def test_one_square_split():
    mesh = build_structured_mesh(2, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_2d_counts():
    mesh = build_structured_mesh(2, 4)
    assert mesh.n_vertices == 25
    assert mesh.n_cells == 32
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_3d_counts():
    mesh = build_structured_mesh(3, 2)
    assert mesh.n_vertices == 27
    assert mesh.n_cells == 48
    assert np.isclose(mesh.volumes.sum(), 1.0)


def test_zero_divisions_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(2, 0)


def test_bad_dim_rejected():
    with pytest.raises(ValueError):
        build_structured_mesh(4, 2)


def test_all_measures_positive():
    for dim, n in ((2, 3), (3, 2)):
        mesh = build_structured_mesh(dim, n)
        assert (mesh.volumes > 0).all()


def test_h_is_max_diameter():
    assert np.isclose(build_structured_mesh(2, 4).h, np.sqrt(2.0) / 4)
    assert np.isclose(build_structured_mesh(3, 2).h, np.sqrt(3.0) / 2)


def test_negative_cell_reoriented():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(vertices, np.array([[0, 2, 1]]))  # clockwise on input
    assert mesh.volumes[0] > 0


def test_degenerate_cell_named():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError, match="cell 0"):
        Mesh(vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vertex", [1, 3])
def test_non_finite_vertex_named(value, vertex):
    # vertex 3 belongs to no cell: the coordinates are checked first
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    vertices[vertex, 1] = value
    with pytest.raises(MeshError, match=rf"vertex {vertex} has a "
                                        rf"non-finite coordinate"):
        Mesh(vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("dim, flip", [(2, False), (2, True), (3, False)])
def test_overflowing_measure_named(dim, flip):
    # cell 1, a unit simplex scaled by 1e160, has a measure beyond the
    # floats (-inf when flipped); no overflow warning escapes (the suite
    # makes them errors)
    unit = np.vstack([np.zeros(dim), np.eye(dim)])
    if flip:
        unit[[1, 2]] = unit[[2, 1]]
    vertices = np.vstack([unit, 1e160 * unit])
    cells = np.arange(2 * (dim + 1)).reshape(2, dim + 1)
    with pytest.raises(MeshError, match="cell 1 has a non-finite measure"):
        Mesh(vertices, cells)


def test_overflowing_diameter_named():
    # measure 0.5, but the squared edge length 1e320 overflows
    vertices = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 1e-160]])
    with pytest.raises(MeshError, match="cell 0 has a non-finite diameter"):
        Mesh(vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("vertices", [
    # measure 5e-156 and gradients up to 1e155: the stiffness block's
    # products overflow
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-155]],
    # subnormal measure: the gradients overflow
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-320]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-320]],
], ids=["2d-1e-155", "2d-subnormal", "3d-subnormal"])
def test_sliver_named(vertices):
    # cell 1 of two: the unit simplex is accepted, the sliver named; no
    # overflow warning escapes (the suite makes them errors)
    sliver = np.array(vertices)
    dim = sliver.shape[1]
    unit = np.vstack([np.zeros(dim), np.eye(dim)]) + 2.0
    cells = np.arange(2 * (dim + 1)).reshape(2, dim + 1)
    with pytest.raises(MeshError, match="cell 1 is too thin: its "
                                        "barycentric gradients or stiffness "
                                        "would overflow"):
        Mesh(np.vstack([unit, sliver]), cells)


@pytest.mark.parametrize("dim", [2, 3])
def test_sliver_gate_is_exact_at_its_edge(dim):
    # the unit simplex with its last axis squashed to height 1.5e-154 has
    # gradients up to 1/height and a stiffness diagonal up to about
    # 1/height: finite, so it is accepted; at 5e-155 the squared gradient
    # overflows and the cell is named. No warning escapes either way.
    unit = np.vstack([np.zeros(dim), np.eye(dim)]) + 2.0
    cells = np.arange(2 * (dim + 1)).reshape(2, dim + 1)
    sliver = np.vstack([np.zeros(dim), np.eye(dim)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sliver[-1, -1] = 1.5e-154
        space = P1Space(Mesh(np.vstack([unit, sliver]), cells))
        assert np.isfinite(space.stiffness().data).all()
        sliver[-1, -1] = 5e-155
        with pytest.raises(MeshError, match="cell 1 is too thin"):
            Mesh(np.vstack([unit, sliver]), cells)


def test_space_forms_edge_determinants_once(monkeypatch):
    # the mesh forms the cell geometry and the space reads it
    calls = []
    original = mesh_module.edge_determinants

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "edge_determinants", counting)
    # a module that imported the name itself would bypass the first patch
    monkeypatch.setattr(fem_module, "edge_determinants", counting,
                        raising=False)
    P1Space(build_structured_mesh(3, 2))
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [2.7, np.nan, 2**70],
                         ids=["fraction", "nan", "beyond-int64"])
def test_non_integer_cell_id_named(bad):
    # truncated, 2.7 would make cell 1 the valid triangle (1, 3, 2)
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    with pytest.raises(MeshError, match="cell 1 has a vertex id that is "
                                        "not an integer in int64's range"):
        Mesh(vertices, [[0, 1, 2], [1, 3, bad]])


@pytest.mark.parametrize("dim, scale", [(2, 1e-150), (2, 1e150),
                                        (3, 1e-100), (3, 1e100)])
def test_tiny_and_huge_well_shaped_cells_accepted(dim, scale):
    # the sliver bound scales with the cell: unit simplices scaled by
    # 1e-150 to 1e150 (2D) and 1e-100 to 1e100 (3D) pass, with a finite
    # stiffness
    unit = np.vstack([np.zeros(dim), np.eye(dim)])
    space = P1Space(Mesh(scale * unit, [list(range(dim + 1))]))
    assert np.isfinite(space.stiffness().data).all()


@pytest.mark.parametrize("vertices, cells, message", [
    # one triangle listed twice, the second reoriented to the first
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 2, 1]],
     r"facet \(1, 2\) has both its cells on one side"),
    # vertex 3 inside triangle 0, which the other three cells cover again
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.3]],
     [[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]],
     r"facet \(1, 2\) has both its cells on one side"),
    # one tetrahedron listed twice
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
     [[0, 1, 2, 3], [1, 0, 2, 3]],
     r"facet \(1, 2, 3\) has both its cells on one side"),
    # two folded pairs, one one-sided facet each: the pair with the larger
    # ids comes first in cell order, and its facet is named
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.2], [5, 5], [6, 5], [5, 6],
      [5.2, 5.2]],
     [[4, 5, 6], [5, 6, 7], [0, 1, 2], [1, 2, 3]],
     r"facet \(5, 6\) has both its cells on one side"),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.1, 0.1, 0.1],
      [5, 5, 5], [6, 5, 5], [5, 6, 5], [5, 5, 6], [5.1, 5.1, 5.1]],
     [[5, 6, 7, 8], [6, 7, 8, 9], [0, 1, 2, 3], [1, 2, 3, 4]],
     r"facet \(6, 7, 8\) has both its cells on one side"),
], ids=["repeated-triangle", "overlapping-triangles", "repeated-tetrahedron",
        "folded-triangle-pairs", "folded-tetrahedron-pairs"])
def test_cells_on_one_side_of_a_facet_rejected(vertices, cells, message):
    with pytest.raises(MeshError, match=message):
        Mesh(np.array(vertices, dtype=float), np.array(cells))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_relabelled_mesh_is_conforming_with_permuted_assembly(data):
    # relabel the vertices, shuffle the cells and rotate each cell's list:
    # the same mesh, so it passes the conformity check, and K and the
    # lumped mass are the originals up to the relabelling
    dim, n = data.draw(st.sampled_from([(2, 3), (3, 2)]))
    base = build_structured_mesh(dim, n)
    N, M = base.n_vertices, base.n_cells
    perm = np.array(data.draw(st.permutations(range(N))))
    shuffle = np.array(data.draw(st.permutations(range(M))))
    shifts = data.draw(st.lists(st.integers(0, dim), min_size=M,
                                max_size=M))
    cells = np.array([np.roll(perm[base.cells[c]], shifts[c])
                      for c in shuffle])
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    mesh = Mesh(vertices, cells)
    K0, K1 = (P1Space(m).stiffness().toarray() for m in (base, mesh))
    np.testing.assert_allclose(K1[perm][:, perm], K0, rtol=0,
                               atol=1e-14 * np.abs(K0).max())
    L0, L1 = (P1Space(m).lumped_mass_diagonal() for m in (base, mesh))
    np.testing.assert_allclose(L1[perm], L0, rtol=1e-14)


_COORDS = st.sampled_from(["0", "1", "-1", "0.5", "1e160", "1e-160"])
_BAD = st.sampled_from(["nan", "1e400", "x", "99999999999999999999", "-1"])


@st.composite
def _mesh_texts(draw):
    """A header of small counts, then about as many coordinates and cell
    ids as it asks for."""
    d = draw(st.sampled_from([2, 3]))
    nv, nc = draw(st.integers(-1, d + 2)), draw(st.integers(-1, 2))
    nx, ni = max(0, nv * d), max(0, nc * (d + 1))
    coords = draw(st.lists(_COORDS, min_size=nx, max_size=nx))
    ids = draw(st.lists(st.integers(0, max(nv - 1, 0)).map(str),
                        min_size=ni, max_size=ni))
    tokens = coords + ids
    for _ in range(draw(st.integers(0, 1))):     # a bad token, or one more
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_BAD))
    return " ".join([str(d), str(nv), str(nc)] + tokens)


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("meshes")


@settings(max_examples=200, deadline=None)
@given(st.one_of(_mesh_texts(), st.lists(st.one_of(_COORDS, _BAD),
                                         max_size=12).map(" ".join)))
def test_mesh_text_is_a_mesh_or_a_mesh_error(mesh_dir, text):
    path = mesh_dir / "mesh.txt"
    path.write_text(text)
    try:
        mesh = read_mesh_text(path)
    except MeshError:
        return
    assert isinstance(mesh, Mesh)


def test_integer_beyond_int64_is_a_mesh_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n")
    with pytest.raises(MeshError, match="bad.txt"):    # not OverflowError
        read_mesh_text(p)


def test_index_out_of_range():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="out of range"):
        Mesh(vertices, np.array([[0, 1, 3]]))


def test_overshared_facet_rejected():
    # three triangles hanging off one edge
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                         [1.0, 1.0], [-1.0, 0.5]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="more than two"):
        Mesh(vertices, cells)


def _loop_cells(dim, n):
    """The structured cells, built one sub-square or sub-cube at a time."""
    if dim == 2:
        def vid(i, j):
            return j * (n + 1) + i
        cells = []
        for j in range(n):
            for i in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
                cells += [(v00, v10, v11), (v00, v11, v01)]
        return np.array(cells)

    def vid3(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in permutations(range(3)):
                    corner = [i, j, k]
                    ids = [vid3(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        ids.append(vid3(*corner))
                    # odd permutations: swap the last two vertices
                    inversions = sum(perm[a] > perm[b] for a in range(3)
                                     for b in range(a + 1, 3))
                    if inversions % 2:
                        ids[2], ids[3] = ids[3], ids[2]
                    cells.append(tuple(ids))
    return np.array(cells)


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (2, 16),
                                   (3, 1), (3, 2), (3, 4)])
def test_structured_mesh_matches_loop_construction(dim, n):
    mesh = build_structured_mesh(dim, n)
    cells = Mesh(mesh.vertices, _loop_cells(dim, n)).cells
    assert mesh.cells.dtype == cells.dtype
    assert np.array_equal(mesh.cells, cells)


def test_overshared_facet_named_in_cell_order():
    # edge (1, 2) is over-shared first in cell order, edge (0, 1) sorts first
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0],
                         [0.0, 2.0], [0.0, 1.0], [2.0, 0.0], [-1.0, 0.5],
                         [0.5, -1.0]])
    cells = np.array([[1, 2, 5], [1, 2, 6], [1, 2, 3], [0, 1, 7],
                      [0, 1, 5], [0, 1, 8]])
    with pytest.raises(MeshError, match=r"facet \(1, 2\) shared by more"):
        Mesh(vertices, cells)


def test_overshared_facet_named_before_an_earlier_one_sided_facet():
    # a repeated triangle, whose facet (1, 2) is one-sided, comes first in
    # cell order; then three triangles hang off edge (3, 4)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 0.0],
                         [6.0, 0.0], [5.5, 1.0], [5.5, -1.0], [5.5, 2.0]])
    cells = np.array([[0, 1, 2], [0, 2, 1], [3, 4, 5], [3, 4, 6],
                      [3, 4, 7]])
    with pytest.raises(MeshError,
                       match=r"facet \(3, 4\) shared by more than two"):
        Mesh(vertices, cells)


# key values with many ties, int64's extremes among them
_KEY_VALUES = st.sampled_from((-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2,
                               2**63 - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(*[_KEY_VALUES] * k), min_size=1, max_size=40)))
def test_group_keys_matches_np_unique(rows):
    keys = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    first, group = mesh_module.group_keys(*keys)
    # np.unique sorts rows lexicographically, so the last key goes first
    _, index, inverse = np.unique(np.stack(keys[::-1], axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    assert np.array_equal(first, index)
    assert np.array_equal(group, inverse.ravel())


def test_arrays_read_only():
    mesh = build_structured_mesh(2, 2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.cells[0, 0] = 0
    with pytest.raises(ValueError):
        mesh.grad_lambda[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        mesh.cell_stiffness[0, 0, 0] = 0.0


def test_text_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    mesh = build_structured_mesh(2, 3)
    jitter = rng.uniform(-0.01, 0.01, size=mesh.vertices.shape)
    inner = (mesh.vertices[:, 0] > 0) & (mesh.vertices[:, 0] < 1) \
        & (mesh.vertices[:, 1] > 0) & (mesh.vertices[:, 1] < 1)
    verts = mesh.vertices + jitter * inner[:, None]
    mesh = Mesh(verts, mesh.cells)

    p = tmp_path / "mesh.txt"
    write_mesh_text(mesh, p)
    back = read_mesh_text(p)
    assert back.dim == mesh.dim
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)

    header = p.read_text().splitlines()[0].split()
    assert header == ["2", str(mesh.n_vertices), str(mesh.n_cells)]


def test_text_round_trip_3d(tmp_path):
    mesh = build_structured_mesh(3, 2)
    p = tmp_path / "mesh3.txt"
    write_mesh_text(mesh, p)
    back = read_mesh_text(p)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 4 2\n0 0\n1 0\n")
    with pytest.raises(MeshError, match="tokens"):
        read_mesh_text(p)
