"""Trilinear hex FEM assembly on the unit cube and its ensemble systems."""

import numpy as np
import pytest
import scipy.sparse.linalg

from uqgroup import (
    FemError,
    FieldError,
    StructuredMesh,
    assemble,
    build_field,
    ensemble_pcg,
    qoi,
)

from _oracles import (
    center_dof,
    gather_mesh_tables,
    interior_node_coords,
    kron_stiffness,
    laplacian_row_stencil,
    poisson_cube_center,
)


@pytest.fixture(scope="module")
def lap_field():
    """Constant unit coefficient: the plain Laplacian."""
    return build_field(sigma0=0.0, n_modes=1, a_min=0.0)


@pytest.fixture(scope="module")
def kl_field():
    return build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)


def assemble_lanes(mesh, field, samples):
    """`assemble` with the mode values the harness computes once per mesh."""
    return assemble(mesh, field, samples, field.mode_values(mesh.quad_axes))


def solve_one(mesh, field, sample, tol=1e-10, maxit=4000):
    system = assemble_lanes(mesh, field, np.asarray(sample)[None, :])
    res = ensemble_pcg(system.matrix, system.rhs, tol=tol, maxit=maxit)
    assert res.converged_per_lane.all()
    return res.solution[0]


# ---------------------------------------------------------------------------
# mesh bookkeeping


def test_mesh_counts_and_center():
    mesh = StructuredMesh(16)
    assert mesh.n_dofs == 15**3
    assert mesh.nnz == 79507
    assert len(mesh.quad_points) == 16**3 * 8
    coords = interior_node_coords(16)
    assert len(coords) == mesh.n_dofs
    center = coords[center_dof(16)]
    np.testing.assert_array_equal(center, [0.5, 0.5, 0.5])


@pytest.mark.parametrize("cells", [2, 3, 5, 8, 16, 33])
def test_mesh_tables_equal_the_element_gather_oracle(cells):
    mesh = StructuredMesh(cells)
    expected = gather_mesh_tables(cells)
    tables = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert tables.keys() == expected.keys()
    for name, ref in expected.items():
        got = tables[name]
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("cells", [2, 5])
def test_quad_axes_broadcast_to_the_quad_points(cells):
    mesh = StructuredMesh(cells)
    assert len(mesh.quad_axes) == 3
    grid = np.broadcast_arrays(*mesh.quad_axes)
    assert grid[0].shape == (cells,) * 3 + (2,) * 3
    assert np.stack(grid, axis=-1).reshape(-1, 3).tobytes() == mesh.quad_points.tobytes()


def test_mesh_validation():
    with pytest.raises(FemError):
        StructuredMesh(1)


def test_qoi_basics():
    assert qoi(np.zeros(7)) == 0.0
    e = np.zeros(7)
    e[3] = 1.0
    assert qoi(e) == 1.0
    assert qoi(np.array([1.0, 2.0])) == 5.0
    with pytest.raises(FemError):
        qoi(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# assembly against independent references


def test_constant_coefficient_matrix_matches_kronecker_oracle(lap_field):
    # a = 1.5 + exp(0) = 2.5 against the unit y and z coefficients
    aniso = build_field(sigma0=0.0, n_modes=1, a_min=1.5)
    mesh = StructuredMesh(8)
    system = assemble_lanes(mesh, aniso, np.array([[0.0]]))
    ref, rhs_ref = kron_stiffness(8, (2.5, 1.0, 1.0))
    diff = abs(system.matrix.lane(0) - ref)
    assert diff.max() < 1e-12 if diff.nnz else True
    np.testing.assert_allclose(system.rhs[0], rhs_ref, rtol=0, atol=1e-16)


def test_interior_laplacian_row_matches_hand_stencil(lap_field):
    m = 16
    mesh = StructuredMesh(m)
    system = assemble_lanes(mesh, lap_field, np.array([[0.0]]))
    mat = system.matrix.lane(0).tocsr()
    n = m - 1
    mid = n // 2

    def dof(ix, iy, iz):
        return (ix * n + iy) * n + iz

    stencil = laplacian_row_stencil()
    row = mat.getrow(dof(mid, mid, mid)).toarray().ravel()
    h = mesh.h
    patch = set()
    for (dx, dy, dz), entry in stencil.items():
        j = dof(mid + dx, mid + dy, mid + dz)
        patch.add(j)
        assert row[j] == pytest.approx(h * entry, abs=1e-14)
    # nothing outside the 27-point patch is touched (face-neighbour entries
    # themselves only vanish up to quadrature-summation roundoff)
    assert set(np.flatnonzero(row)) <= patch


def test_laplacian_face_neighbour_entry_vanishes():
    # the classic trilinear-hex quirk: face neighbours decouple
    assert laplacian_row_stencil()[(1, 0, 0)] == pytest.approx(0.0, abs=1e-15)


def test_matrix_exactly_symmetric(kl_field):
    mesh = StructuredMesh(8)
    system = assemble_lanes(mesh, kl_field, np.array([[0.6, -0.3, 0.9, -0.8]]))
    a = system.matrix.lane(0)
    assert abs(a - a.T).max() == 0.0


def test_matrix_positive_definite(kl_field):
    mesh = StructuredMesh(8)
    system = assemble_lanes(mesh, kl_field, np.array([[0.9, 0.9, -0.9, 0.9]]))
    a = system.matrix.lane(0)
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.standard_normal(mesh.n_dofs)
        assert v @ (a @ v) > 0.0


def test_nonpositive_coefficient_rejected():
    # exp underflows to 0 at every point: the ground mode is positive, and
    # sigma0 = 1e8 drives its exponent below -745 at y = -1
    degenerate = build_field(sigma0=1e8, n_modes=1, a_min=0.0)
    mesh = StructuredMesh(4)
    mode_vals = degenerate.mode_values(mesh.quad_axes)
    assert np.all(degenerate.eval_a_batch(mesh.quad_points, np.array([[-1.0]]), mode_vals) == 0.0)
    with pytest.raises(FemError):
        assemble_lanes(mesh, degenerate, np.array([[-1.0]]))


def test_nan_coefficient_rejected(kl_field):
    mesh = StructuredMesh(4)
    samples = np.zeros((2, 4))
    samples[1, 0] = np.nan
    with pytest.raises(FemError, match="NaN"):
        assemble_lanes(mesh, kl_field, samples)


def test_identical_samples_assemble_bitwise_equal_lanes(kl_field):
    mesh = StructuredMesh(8)
    y = np.array([0.25, -0.75, 0.5, 1.0])
    system = assemble_lanes(mesh, kl_field, np.vstack([y, y]))
    assert np.array_equal(system.matrix.values[0], system.matrix.values[1])
    res = ensemble_pcg(system.matrix, system.rhs, tol=1e-9, maxit=3000)
    assert np.array_equal(res.solution[0], res.solution[1])
    assert res.iterations_per_lane[0] == res.iterations_per_lane[1]


def test_assembly_fills_the_packed_slots_on_the_mesh_graph(kl_field):
    # The kernel assembles the diagonal and upper entries straight into the
    # (slots, S) storage the solve reads, one slot per row's diagonal and
    # upper entry, and the matrix reads it through the mesh's packed graph
    # as it is, copying nothing.
    samples = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.0, 0.5, 1.0], [0.9, -0.9, 0.0, 0.2]])
    mesh = StructuredMesh(4)
    matrix = assemble_lanes(mesh, kl_field, samples).matrix
    assert matrix.packed.shape == ((mesh.nnz + mesh.n_dofs) // 2, 3) == (mesh.n_slots, 3)
    assert matrix.packed.flags.c_contiguous
    for name in ("row_offsets", "col_indices", "split", "hrow", "lmap"):
        assert getattr(matrix, name) is getattr(mesh, name), name
    assert np.asarray(matrix.values).shape == (3, mesh.nnz)


def test_precomputed_mode_values_change_nothing(kl_field):
    # The per-axis values of the mesh's tensor grid and those of its
    # quadrature points one by one assemble the same matrix.
    mesh = StructuredMesh(4)
    y = np.array([[0.1, 0.2, 0.3, 0.4]])
    per_axis = assemble(mesh, kl_field, y, kl_field.mode_values(mesh.quad_axes))
    pointwise = assemble(mesh, kl_field, y, kl_field.mode_values(tuple(mesh.quad_points.T)))
    assert per_axis.matrix.packed.tobytes() == pointwise.matrix.packed.tobytes()


@pytest.mark.parametrize("values_cells, mesh_cells", [(4, 8), (8, 4)])
def test_mode_values_of_another_mesh_are_refused(kl_field, values_cells, mesh_cells):
    # Too few values once read past the coefficient buffer; too many
    # silently assembled another coefficient.
    mode_vals = kl_field.mode_values(StructuredMesh(values_cells).quad_axes)
    with pytest.raises(FieldError, match="mode_vals must have shape"):
        assemble(StructuredMesh(mesh_cells), kl_field, np.zeros((2, 4)), mode_vals)


# ---------------------------------------------------------------------------
# solutions


def test_zero_rhs_yields_zero_solution(lap_field):
    mesh = StructuredMesh(4)
    system = assemble_lanes(mesh, lap_field, np.array([[0.0]]))
    res = ensemble_pcg(system.matrix, np.zeros_like(system.rhs))
    assert res.iterations_per_lane[0] == 0
    assert np.array_equal(res.solution, np.zeros_like(system.rhs))


def test_qoi_against_direct_sparse_solve(kl_field):
    mesh = StructuredMesh(16)
    y = np.array([0.5, -0.25, 0.75, -1.0])
    u = solve_one(mesh, kl_field, y, tol=1e-12)
    system = assemble_lanes(mesh, kl_field, y[None, :])
    u_ref = scipy.sparse.linalg.spsolve(system.matrix.lane(0).tocsc(), system.rhs[0])
    assert abs(qoi(u) - qoi(u_ref)) <= 1e-8 * qoi(u_ref)


def test_laplacian_center_value_and_mesh_convergence(lap_field):
    exact = poisson_cube_center()
    u8 = solve_one(StructuredMesh(8), lap_field, np.array([0.0]))
    u16 = solve_one(StructuredMesh(16), lap_field, np.array([0.0]))
    c8 = u8[center_dof(8)]
    c16 = u16[center_dof(16)]
    assert c16 == pytest.approx(0.056550, abs=2e-6)
    err8, err16 = abs(c8 - exact), abs(c16 - exact)
    assert err16 < err8 / 3.0  # second-order convergence gives a factor ~4
    assert err16 < 1e-3
