"""Lane-array CSR systems and the grouped PCG solver.

The load-bearing property is lane equivalence: lane s of an ensemble solve
runs exactly the arithmetic of a scalar solve of lane s's system, so
iteration counts match a sequential solver exactly and duplicated lanes are
bit-identical.
"""

import copy
import ctypes
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from uqgroup import (
    EnsembleCsrMatrix,
    EnsembleError,
    NumericalBreakdownError,
    StructuredMesh,
    assemble,
    build_field,
    ensemble_pcg,
)

from uqgroup import _kernels as kernel_module
from uqgroup import ensemble as ensemble_module

from _oracles import fixed_order_dot, lockstep_pcg, random_spd_system, scalar_pcg

def diag_ensemble(diags):
    """Ensemble of diagonal matrices from per-lane diagonal value rows."""
    diags = np.atleast_2d(np.asarray(diags, dtype=float))
    n = diags.shape[1]
    offsets = np.arange(n + 1, dtype=np.int32)
    cols = np.arange(n, dtype=np.int32)
    return EnsembleCsrMatrix(offsets, cols, diags.copy())


# ---------------------------------------------------------------------------
# matrix container


def test_lane_view_matches_source_matrices():
    rng = np.random.default_rng(3)
    lanes, _ = random_spd_system(rng, 12, 3)
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    for s in range(3):
        assert np.array_equal(ens.lane(s).toarray(), lanes[s].toarray())


def lanes_last_system(rng, n, width):
    """Random CSR graph with an empty row, values in a C-contiguous (nnz, S) buffer."""
    graph = sp.random(n, n, density=0.2, format="csr", random_state=rng)
    graph.data[graph.indptr[3]:graph.indptr[4]] = 0.0
    graph.eliminate_zeros()  # row 3 has no entries
    graph.sort_indices()
    buf = rng.standard_normal((graph.nnz, width))
    return graph.indptr, graph.indices, buf


def test_constructor_packs_its_own_copy_of_the_values():
    # The matrix keeps only its packed slots: the caller's buffer may change
    # afterwards, and every lane still reads its values as given.
    rng = np.random.default_rng(8)
    rp, ci, buf = lanes_last_system(rng, 20, 5)
    want = buf.copy()
    ens = EnsembleCsrMatrix(rp, ci, buf.T)
    assert not np.shares_memory(ens.packed, buf)
    assert ens.packed.shape[1] == 5 and ens.packed.flags.c_contiguous
    buf[:] = np.nan
    assert np.asarray(ens.values).tobytes() == np.ascontiguousarray(want.T).tobytes()
    for s in range(5):
        assert ens.values[s].tobytes() == want[:, s].tobytes()
    assert np.array_equal(ens.values[1:4:2], want[:, 1:4:2].T)


def test_from_packed_takes_storage_only_where_its_graph_indexes_it():
    rng = np.random.default_rng(10)
    lanes, _ = random_spd_system(rng, 30, 2)
    mat = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    parts = {name: getattr(mat, name)
             for name in ("row_offsets", "col_indices", "split", "hrow", "lmap", "packed")}
    again = EnsembleCsrMatrix.from_packed(**parts)
    assert all(getattr(again, name) is array for name, array in parts.items())
    hrow = parts["hrow"].copy()
    hrow[1] = hrow[0]  # row 1's run overlaps row 0's
    lmap = parts["lmap"].copy()
    lmap[3] = len(parts["packed"])
    for change, message in [
        ({"packed": parts["packed"][:-1]}, "packed must be"),
        ({"packed": np.asfortranarray(parts["packed"])}, "packed must be"),
        ({"lmap": lmap}, "one slot range"),
        ({"hrow": hrow}, "one slot range"),
        ({"lmap": parts["lmap"].astype(np.int64)}, "int32"),
        ({"split": parts["split"][:-1]}, "one entry per row"),
        ({"col_indices": parts["col_indices"] + 30}, "column index out of range"),
    ]:
        with pytest.raises(EnsembleError, match=message):
            EnsembleCsrMatrix.from_packed(**{**parts, **change})


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))]
)
def test_copied_matrix_multiplies_with_its_own_arrays(duplicate):
    rng = np.random.default_rng(9)
    lanes, rhs = random_spd_system(rng, 70, 4)
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    twin = duplicate(ens)
    expected = ensemble_pcg(ens, rhs, tol=1e-12)
    assert twin.packed.flags.c_contiguous
    assert all(getattr(twin, name).dtype == np.int32
               for name in ("row_offsets", "col_indices", "split", "hrow", "lmap"))
    if not np.shares_memory(twin.packed, ens.packed):
        ens.packed[:] = 0.0  # the twin must not read the original's values
    got = ensemble_pcg(twin, rhs, tol=1e-12)
    assert got.solution.tobytes() == expected.solution.tobytes()
    assert np.array_equal(got.iterations_per_lane, expected.iterations_per_lane)


def test_kernel_library_is_keyed_by_the_resolved_target(tmp_path, monkeypatch):
    source = tmp_path / "tiny.c"
    source.write_text("int tiny(void) { return 1; }\n")
    real_gcc = kernel_module._gcc
    libs = []
    for cpu in ("first-cpu", "second-cpu"):
        def fake_target(args, cpu=cpu):
            return cpu if "--help=target" in args else real_gcc(args)
        monkeypatch.setattr(kernel_module, "_gcc", fake_target)
        libs.append(kernel_module._build_kernel(source, tmp_path / "build"))
    assert libs[0] != libs[1]
    assert sorted((tmp_path / "build").iterdir()) == sorted(libs)


def test_failing_kernel_build_names_command_and_stderr(tmp_path):
    real_build = sorted(kernel_module._BUILD_DIR.iterdir())
    source = tmp_path / "broken.c"
    source.write_text("#error broken kernel source\n")
    with pytest.raises(RuntimeError) as err:
        kernel_module._build_kernel(source, tmp_path / "build")
    message = str(err.value)
    assert "gcc" in message and str(source) in message
    assert "broken kernel source" in message  # the compiler's own diagnostic
    assert list((tmp_path / "build").iterdir()) == []
    assert sorted(kernel_module._BUILD_DIR.iterdir()) == real_build


def test_unusable_build_directory_raises_runtime_error(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(RuntimeError, match="build directory"):
        kernel_module._build_kernel(kernel_module._KERNEL_SOURCE, blocker / "build")


def test_diagonal_extraction():
    # Jacobi solves a diagonal system in one step, but only with each lane's
    # own diagonal.
    vals = np.array([[2.0, 5.0, 7.0], [1.0, 9.0, 4.0]])
    rhs = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    res = ensemble_pcg(diag_ensemble(vals), rhs, tol=1e-12)
    assert np.array_equal(res.iterations_per_lane, [1, 1])
    np.testing.assert_allclose(res.solution, rhs / vals, rtol=1e-15)


def test_from_scipy_lanes_leaves_the_inputs_unsorted():
    lane = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
    ens = EnsembleCsrMatrix.from_scipy_lanes([lane])
    assert np.array_equal(lane.indices, [1, 0, 1])
    assert np.array_equal(lane.data, [1.0, 2.0, 3.0])
    assert np.array_equal(ens.col_indices, [0, 1, 1])
    assert np.array_equal(ens.values, [[2.0, 1.0, 3.0]])


def test_mismatched_graphs_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(EnsembleError):
        EnsembleCsrMatrix.from_scipy_lanes([a, b])


def test_bad_graph_rejected():
    with pytest.raises(EnsembleError):
        EnsembleCsrMatrix(np.array([0, 1]), np.array([5]), np.array([[1.0]]))
    with pytest.raises(EnsembleError):
        EnsembleCsrMatrix(np.array([0, 2]), np.array([0]), np.array([[1.0]]))


def test_index_beyond_int32_rejected_before_the_cast():
    # Cast to int32 first, column 2**32 read as column 0 and row offset
    # 2**32 + 1 as 1: both graphs were accepted.
    with pytest.raises(EnsembleError, match="column index out of range"):
        EnsembleCsrMatrix(np.array([0, 1]), np.array([2**32], dtype=np.int64), np.array([[2.0]]))
    with pytest.raises(EnsembleError, match="row_offsets"):
        EnsembleCsrMatrix(np.array([0, 2**32 + 1], dtype=np.int64), np.array([0]), np.array([[2.0]]))


def test_non_integer_indices_rejected():
    # Cast to int32 first, column 0.7 read as column 0.
    with pytest.raises(EnsembleError, match="integer"):
        EnsembleCsrMatrix(np.array([0, 1]), np.array([0.7]), np.array([[2.0]]))
    with pytest.raises(EnsembleError, match="integer"):
        EnsembleCsrMatrix(np.array([0.0, 1.0]), np.array([0]), np.array([[2.0]]))


def test_empty_row_offsets_rejected():
    with pytest.raises(EnsembleError, match="row_offsets"):
        EnsembleCsrMatrix(np.array([], dtype=np.int32), np.array([], dtype=np.int32),
                          np.zeros((1, 0)))


def test_rhs_shape_checked():
    with pytest.raises(EnsembleError, match="rhs has shape"):
        ensemble_pcg(diag_ensemble([[1.0, 2.0]]), np.ones((2, 2)))


def test_jacobi_requires_positive_diagonal():
    with pytest.raises(EnsembleError, match="positive lane diagonals"):
        ensemble_pcg(diag_ensemble([[1.0, 0.0, 2.0]]), np.ones((1, 3)))


def test_nan_diagonal_rejected_up_front():
    with pytest.raises(EnsembleError, match="positive lane diagonals"):
        ensemble_pcg(diag_ensemble([[1.0, 2.0], [1.0, np.nan]]), np.ones((2, 2)))


# Row 1 stores nothing, or only its entry in column 0.
@pytest.mark.parametrize(
    "offsets, cols", [([0, 1, 1, 2], [0, 2]), ([0, 1, 2, 3], [0, 0, 2])],
    ids=["empty-row", "no-diagonal-entry"],
)
def test_row_without_diagonal_refused(offsets, cols):
    ens = EnsembleCsrMatrix(np.array(offsets), np.array(cols), np.ones((2, len(cols))))
    with pytest.raises(EnsembleError, match="positive lane diagonals"):
        ensemble_pcg(ens, np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_rhs_rejected_up_front(bad):
    rhs = np.ones((2, 2))
    rhs[1, 0] = bad
    with pytest.raises(EnsembleError, match="rhs must be finite"):
        ensemble_pcg(diag_ensemble(np.full((2, 2), 2.0)), rhs)


@pytest.mark.parametrize("maxit", [2.5, 3.0, "3", None, True, False])
def test_non_integer_maxit_rejected(maxit):
    with pytest.raises(EnsembleError, match="maxit"):
        ensemble_pcg(diag_ensemble([[2.0, 3.0]]), np.ones((1, 2)), maxit=maxit)


# ---------------------------------------------------------------------------
# solver behaviour on trivial systems


def test_zero_rhs_converges_at_iteration_zero():
    ens = diag_ensemble([[2.0, 3.0], [4.0, 5.0]])
    res = ensemble_pcg(ens, np.zeros((2, 2)))
    assert np.array_equal(res.iterations_per_lane, [0, 0])
    assert res.converged_per_lane.all()
    assert np.array_equal(res.solution, np.zeros((2, 2)))


def test_identity_system_takes_one_iteration():
    ens = diag_ensemble(np.ones((3, 5)))
    rhs = np.arange(15.0).reshape(3, 5)
    res = ensemble_pcg(ens, rhs)
    assert np.array_equal(res.iterations_per_lane, [1, 1, 1])
    np.testing.assert_allclose(res.solution, rhs, rtol=0, atol=0)


def test_diagonal_system_exact_solution():
    d = np.array([[2.0, 4.0, 8.0]])
    rhs = np.array([[2.0, 4.0, 8.0]])
    res = ensemble_pcg(ens := diag_ensemble(d), rhs, tol=1e-14)
    np.testing.assert_allclose(res.solution, np.ones((1, 3)), rtol=1e-13)
    assert res.ensemble_iterations == res.iterations_per_lane.max()


def test_maxit_zero_reports_unconverged():
    ens = diag_ensemble([[2.0, 3.0]])
    res = ensemble_pcg(ens, np.ones((1, 2)), maxit=0)
    assert not res.converged_per_lane.any()
    assert res.iterations_per_lane[0] == 0


def test_invalid_tolerance_rejected():
    ens = diag_ensemble([[1.0]])
    for tol in (0.0, -1.0, float("inf"), float("nan"), True, "1e-7", None,
                np.array([1e-7, 1e-7])):
        with pytest.raises(EnsembleError):
            ensemble_pcg(ens, np.ones((1, 1)), tol=tol)
    with pytest.raises(EnsembleError):
        ensemble_pcg(ens, np.ones((1, 1)), maxit=-1)


# ---------------------------------------------------------------------------
# lane equivalence


def test_iteration_counts_match_scalar_solver():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(15, 60))
        lanes, rhs = random_spd_system(rng, n, 4)
        ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
        res = ensemble_pcg(ens, rhs, tol=1e-11, maxit=2000)
        for s in range(4):
            x, it, converged, _ = scalar_pcg(lanes[s], rhs[s], tol=1e-11, maxit=2000)
            assert converged and res.converged_per_lane[s]
            assert it == res.iterations_per_lane[s]
            assert np.linalg.norm(x - res.solution[s]) <= 1e-10 * np.linalg.norm(x)


def test_duplicated_lanes_are_bitwise_identical():
    rng = np.random.default_rng(12)
    lanes, rhs = random_spd_system(rng, 40, 2)
    # four lanes: two copies of each distinct system, interleaved
    ens = EnsembleCsrMatrix.from_scipy_lanes([lanes[0], lanes[1], lanes[0], lanes[1]])
    rhs4 = np.vstack([rhs[0], rhs[1], rhs[0], rhs[1]])
    res = ensemble_pcg(ens, rhs4, tol=1e-10, maxit=2000)
    assert np.array_equal(res.solution[0], res.solution[2])
    assert np.array_equal(res.solution[1], res.solution[3])
    assert res.iterations_per_lane[0] == res.iterations_per_lane[2]
    assert res.iterations_per_lane[1] == res.iterations_per_lane[3]


def test_lane_results_independent_of_companions():
    """A lane's count and solution must not change when its ensemble partners change."""
    rng = np.random.default_rng(13)
    lanes, rhs = random_spd_system(rng, 35, 3)
    full = ensemble_pcg(EnsembleCsrMatrix.from_scipy_lanes(lanes), rhs, tol=1e-10, maxit=2000)
    for s in range(3):
        solo = ensemble_pcg(
            EnsembleCsrMatrix.from_scipy_lanes([lanes[s]]), rhs[s:s + 1], tol=1e-10, maxit=2000
        )
        assert solo.iterations_per_lane[0] == full.iterations_per_lane[s]
        # a lane stops at its own convergence, so its iterate is its own
        assert solo.solution[0].tobytes() == full.solution[s].tobytes()
    assert len(set(full.iterations_per_lane)) > 1


def test_determinism_of_repeated_solves():
    rng = np.random.default_rng(14)
    lanes, rhs = random_spd_system(rng, 50, 4)
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    r1 = ensemble_pcg(ens, rhs, tol=1e-9)
    r2 = ensemble_pcg(ens, rhs, tol=1e-9)
    assert np.array_equal(r1.solution, r2.solution)
    assert np.array_equal(r1.iterations_per_lane, r2.iterations_per_lane)


# ---------------------------------------------------------------------------
# freezing and breakdown


def test_subnormal_lane_freezes_and_others_finish():
    # Lane 1's p'Ap is 2 * (5e-161 * 1e-160) = 1e-320, subnormal, at iteration 1.
    ens = diag_ensemble(np.full((2, 2), 2.0))
    rhs = np.array([[1.0, 1.0], [1e-160, 1e-160]])
    res = ensemble_pcg(ens, rhs, tol=1e-8, maxit=50)
    assert res.ensemble_iterations == 1
    assert res.converged_per_lane[0] and not res.converged_per_lane[1]
    assert res.frozen_lanes[1] and not res.frozen_lanes[0]
    # the frozen lane's iterate never moved
    assert np.array_equal(res.solution[1], np.zeros(2))
    np.testing.assert_allclose(res.solution[0], 0.5 * np.ones(2))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_active_lane_raises_breakdown():
    d = np.array([[1.0, np.inf]])
    ens = diag_ensemble(d)
    with pytest.raises(NumericalBreakdownError):
        ensemble_pcg(ens, np.ones((1, 2)), maxit=5)


def test_residual_history_starts_at_rhs_norm():
    rng = np.random.default_rng(15)
    lanes, rhs = random_spd_system(rng, 25, 2)
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    res = ensemble_pcg(ens, rhs, tol=1e-9, record_history=True)
    hist = res.residual_history
    assert hist is not None
    np.testing.assert_allclose(hist[0], np.sqrt((rhs**2).sum(axis=1)), rtol=1e-15)
    assert len(hist) == res.ensemble_iterations + 1
    # converged lanes end below their threshold
    final = hist[-1]
    thresholds = 1e-9 * hist[0]
    assert (final[res.converged_per_lane] <= thresholds[res.converged_per_lane]).all()


# ---------------------------------------------------------------------------
# property: lane equivalence on small random SPD systems


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_counts_match_scalar(n, width, seed):
    rng = np.random.default_rng(seed)
    lanes, rhs = random_spd_system(rng, n, width)
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    res = ensemble_pcg(ens, rhs, tol=1e-10, maxit=500)
    for s in range(width):
        _, it, converged, _ = scalar_pcg(lanes[s], rhs[s], tol=1e-10, maxit=500)
        assert it == res.iterations_per_lane[s]
        assert converged == res.converged_per_lane[s]


# ---------------------------------------------------------------------------
# the compiled loop against the numpy lockstep loop, bit for bit


def assert_matches_lockstep(lanes, rhs, threads=None, **kwargs):
    """Solve with `ensemble_pcg` and with `lockstep_pcg`; compare bit for bit.

    `lanes` is a list of scalar CSR matrices, stacked by `from_scipy_lanes`,
    or an `EnsembleCsrMatrix` taken as built.  The oracle solves the lanes
    the ensemble stores, in their storage order.
    """
    ens = lanes if isinstance(lanes, EnsembleCsrMatrix) else EnsembleCsrMatrix.from_scipy_lanes(lanes)
    res = ensemble_pcg(ens, rhs, record_history=True, threads=threads, **kwargs)
    x, iterations, converged, frozen, history = lockstep_pcg(
        [ens.lane(s) for s in range(ens.width)], rhs, record_history=True, **kwargs)
    assert res.solution.tobytes() == x.tobytes()
    assert np.array_equal(res.iterations_per_lane, iterations)
    assert np.array_equal(res.converged_per_lane, converged)
    assert np.array_equal(res.frozen_lanes, frozen)
    assert len(res.residual_history) == len(history)
    for got, want in zip(res.residual_history, history):
        assert got.tobytes() == want.tobytes()
    return res


_DOT_LENGTHS = [*range(1, 100), 1000, 3375, 10_001, 29_791, 100_000]


def test_kernel_dot_is_the_fixed_order_oracle():
    # history[0] of a solve that runs no iteration holds each lane's
    # sqrt(b'b), the kernel's dot of b with itself; magnitudes spread over 12
    # decades make the sum's rounding depend on its order
    rng = np.random.default_rng(16)
    for n in _DOT_LENGTHS:
        b = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (3, n))
        res = ensemble_pcg(diag_ensemble(np.ones((3, n))), b, maxit=0, record_history=True)
        want = np.sqrt([fixed_order_dot(lane, lane) for lane in b])
        assert res.residual_history[0].tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n", [1, 31, 33, 1000, 100_000])
def test_diagonal_solve_dots_match_lockstep(n):
    # one Jacobi step solves a diagonal system up to rounding, so the
    # residual's dots add terms of both signs that cancel
    rng = np.random.default_rng(n)
    diags = rng.uniform(0.5, 2.0, (2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
    assert_matches_lockstep(diag_ensemble(diags), rng.standard_normal((2, n)), tol=1e-300, maxit=3)


def position(lane, row, col):
    """Storage position of the first (row, col) entry of a CSR matrix."""
    start = lane.indptr[row]
    return start + np.flatnonzero(lane.indices[start:lane.indptr[row + 1]] == col)[0]


def mirrored_lower_entry(lane, rng):
    """A stored (i, j) with i > j; the random SPD graphs also store (j, i)."""
    coo = lane.tocoo()
    k = rng.choice(np.flatnonzero(coo.row > coo.col))
    return int(coo.row[k]), int(coo.col[k])


def insert_entry(lanes, k, row, col, values):
    """The lanes with one more entry (row, col) at storage position k, lane s
    holding values[s]; k must lie in row's range of the shared graph."""
    indptr = lanes[0].indptr.copy()
    indptr[row + 1:] += 1
    return [
        sp.csr_matrix((np.insert(m.data, k, v), np.insert(m.indices, k, col), indptr), shape=m.shape)
        for m, v in zip(lanes, values)
    ]


# The scalar width 1, every chunk width alone (2, 4, 8, 16), and widths that
# run several chunks: 3, 5, 6 (4 + 2), 12 (8 + 4), 17, 24 (16 + 8),
# 31 (16 + 8 + 4 + 2 + 1), 32, 33 and 64; n crosses the kernel's 64-row tile.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24, 31, 32, 33, 64])
def test_pcg_bitwise_equals_lockstep_loop(width):
    rng = np.random.default_rng(100 + width)
    lanes, rhs = random_spd_system(rng, 70, width)
    res = assert_matches_lockstep(lanes, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


# The product inside the loop over one and three row tiles (n = 37, 130) on a
# non-symmetric graph with a one-entry row, at the scalar width, every chunk
# width alone and widths of two to five chunks: four iterations must be
# bitwise those of the lockstep loop, whose product is scipy's scalar one.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24, 31, 32, 33])
@pytest.mark.parametrize("n", [37, 130])
def test_kernel_bitwise_equals_scalar_product(width, n):
    rng = np.random.default_rng(width * 1000 + n)
    rp, ci, buf = lanes_last_system(rng, n, width)
    lanes = []
    for s in range(width):
        off = sp.csr_matrix((buf[:, s].copy(), ci, rp), shape=(n, n))
        # Dominant enough that the symmetric part is positive definite.
        weight = abs(off).sum(axis=0).A1 + abs(off).sum(axis=1).A1 + rng.uniform(1.0, 2.0, n)
        lanes.append((off + sp.diags(weight)).tocsr())
    assert lanes[0].indptr[4] - lanes[0].indptr[3] == 1
    assert_matches_lockstep(lanes, rng.standard_normal((width, n)), tol=1e-14, maxit=4)


def test_repeated_diagonal_entries_are_summed():
    # Row 0 stores (0, 0) twice: Jacobi must see 1 + 2, as scipy's product and
    # diagonal() of the lane do.
    lane = sp.csr_matrix((np.array([1.0, 2.0, 1.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                         shape=(2, 2))
    res = assert_matches_lockstep([lane], np.array([[1.0, 1.0]]), tol=1e-12)
    np.testing.assert_allclose(res.solution, [[1.0 / 3.0, 1.0]], rtol=1e-15)
    # A random system whose row 5 stores a second copy of its diagonal entry.
    rng = np.random.default_rng(24)
    lanes, rhs = random_spd_system(rng, 70, 4)
    doubled = insert_entry(lanes, position(lanes[0], 5, 5) + 1, 5, 5, [0.5] * 4)
    res = assert_matches_lockstep(doubled, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


def test_pcg_bitwise_with_a_freezing_lane():
    rng = np.random.default_rng(21)
    lanes, rhs = random_spd_system(rng, 60, 4)
    rhs[2] *= 1e-160  # p'Ap of this lane is subnormal at iteration 1
    res = assert_matches_lockstep(lanes, rhs, tol=1e-12, maxit=2000)
    assert np.array_equal(res.frozen_lanes, [False, False, True, False])
    assert res.converged_per_lane[[0, 1, 3]].all()


def test_pcg_bitwise_with_a_zero_rhs_lane():
    rng = np.random.default_rng(22)
    lanes, rhs = random_spd_system(rng, 60, 3)
    rhs[1] = 0.0
    res = assert_matches_lockstep(lanes, rhs, tol=1e-12, maxit=2000)
    assert res.iterations_per_lane[1] == 0 and res.converged_per_lane.all()


@pytest.mark.parametrize("maxit", [0, 5])
def test_pcg_bitwise_when_cut_off_at_maxit(maxit):
    rng = np.random.default_rng(23)
    lanes, rhs = random_spd_system(rng, 60, 4)
    res = assert_matches_lockstep(lanes, rhs, tol=1e-14, maxit=maxit)
    assert not res.converged_per_lane.any()
    assert np.array_equal(res.iterations_per_lane, [maxit] * 4)


# ---------------------------------------------------------------------------
# the packed values: a lower entry reads its mirror's slot only where the
# mirror holds bitwise its own values, and gets a slot of its own otherwise


# A one-ulp change of one entry is absorbed by the rounding of its row sums
# in about a third of such solves, so six systems are solved.
@pytest.mark.parametrize("seed", range(6))
def test_lower_entry_one_ulp_off_its_mirror_in_one_lane(seed):
    rng = np.random.default_rng(310 + seed)
    lanes, rhs = random_spd_system(rng, 70, 4)
    i, j = mirrored_lower_entry(lanes[0], rng)
    m = lanes[seed % 4]
    k = position(m, i, j)
    m.data[k] = np.nextafter(m.data[k], np.inf)
    assert [(lane != lane.T).nnz for lane in lanes].count(0) == 3
    res = assert_matches_lockstep(lanes, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


def test_mirror_pair_of_opposite_zeros():
    # +0.0 and -0.0 are equal numbers but not equal bytes: (i, j) keeps its
    # own slot, and the solve still matches the oracle.
    rng = np.random.default_rng(32)
    lanes, rhs = random_spd_system(rng, 70, 4)
    i, j = mirrored_lower_entry(lanes[0], rng)
    for m in lanes:
        m.data[position(m, i, j)] = -0.0
        m.data[position(m, j, i)] = 0.0
    ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
    assert np.signbit(np.asarray(ens.values)[:, position(lanes[0], i, j)]).all()
    res = assert_matches_lockstep(ens, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


def test_unsorted_rows_through_the_raw_constructor():
    rng = np.random.default_rng(33)
    lanes, rhs = random_spd_system(rng, 70, 4)
    indptr, indices = lanes[0].indptr, lanes[0].indices
    order = np.concatenate(
        [indptr[i] + rng.permutation(indptr[i + 1] - indptr[i]) for i in range(70)]
    )
    ens = EnsembleCsrMatrix(indptr, indices[order], np.stack([m.data[order] for m in lanes]))
    assert not ens.lane(0).has_sorted_indices
    res = assert_matches_lockstep(ens, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


def test_off_diagonal_entry_stored_twice():
    # (j, i) and (i, j) each get a second copy of 0.5 right after the first:
    # the first lower copy reads its mirror's slot, the second does not equal
    # the copy the cursor stops at and gets its own.  A_ij = A_ji still.
    rng = np.random.default_rng(34)
    lanes, rhs = random_spd_system(rng, 70, 4)
    i, j = mirrored_lower_entry(lanes[0], rng)
    lanes = insert_entry(lanes, position(lanes[0], j, i) + 1, j, i, [0.5] * 4)
    lanes = insert_entry(lanes, position(lanes[0], i, j) + 1, i, j, [0.5] * 4)
    res = assert_matches_lockstep(lanes, rhs, tol=1e-13, maxit=2000)
    assert res.converged_per_lane.all()


def test_entry_without_a_mirror():
    # A lower entry (i, j) whose (j, i) is not stored: the cursor of row j
    # passes column i without a match, and later rows still find theirs.
    rng = np.random.default_rng(35)
    lanes, rhs = random_spd_system(rng, 70, 4)
    dense, indptr = lanes[0].toarray(), lanes[0].indptr
    i, j = next((i, j) for i in range(35, 70) for j in range(i) if dense[i, j] == 0.0)
    k = indptr[i] + np.searchsorted(lanes[0].indices[indptr[i]:indptr[i + 1]], j)
    lanes = insert_entry(lanes, k, i, j, rng.uniform(0.01, 0.02, 4))
    assert all(m.has_sorted_indices and (m != m.T).nnz == 2 for m in lanes)
    assert_matches_lockstep(lanes, rhs, tol=1e-13, maxit=2000)


# The stiffness matrices of the 27-point mesh graph, whose lanes are bitwise
# symmetric, at the scalar width, one chunk of 4 and of 16, and three chunks.
@pytest.mark.parametrize("width", [1, 4, 16, 33])
def test_mesh_system_pcg_bitwise_equals_lockstep_loop(width):
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    samples = np.random.default_rng(40 + width).uniform(-1.0, 1.0, (width, 4))
    mesh = StructuredMesh(6)
    system = assemble(mesh, field, samples, field.mode_values(mesh.quad_axes))
    for s in range(width):
        lane = system.matrix.lane(s)
        mirror = lane.T.tocsr()
        mirror.sort_indices()
        assert np.array_equal(lane.indices, mirror.indices)
        assert lane.data.tobytes() == mirror.data.tobytes()
    res = assert_matches_lockstep(system.matrix, system.rhs, tol=1e-10, maxit=2000)
    assert res.converged_per_lane.all()


def _outcome(system, threads=None):
    """Bytes of everything a solve returns, for bitwise comparison."""
    res = ensemble_pcg(system.matrix, system.rhs, tol=1e-10, record_history=True, threads=threads)
    return (system.matrix.packed.tobytes(), res.solution.tobytes(),
            res.iterations_per_lane.tobytes(), res.converged_per_lane.tobytes(),
            res.frozen_lanes.tobytes(), np.array(res.residual_history).tobytes(),
            res.streamed_lane_iterations)


def test_kernels_release_the_gil():
    for kernel in (kernel_module._PCG, kernel_module._PACK, kernel_module._ASSEMBLE,
                   kernel_module._HAT_SUMS, kernel_module._FIND_NODES):
        assert not kernel._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_concurrent_solves_bitwise_equal_sequential_ones(monkeypatch):
    # Two threads each assemble and solve their own samples repeatedly, at
    # the scalar width, one chunk and three chunks, while the other thread's
    # kernels run on other buffers; every other round each solve runs on a
    # team of two on the 729 rows (twelve row tiles).
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    mesh = StructuredMesh(10)
    rng = np.random.default_rng(77)
    jobs = [[rng.uniform(-1.0, 1.0, (width, 4)) for width in (1, 4, 7)] for _ in range(2)]

    def run(samples, threads):
        system = assemble(mesh, field, samples, field.mode_values(mesh.quad_axes))
        return _outcome(system, threads)

    want = [[run(samples, 1) for samples in thread_jobs] for thread_jobs in jobs]
    start = threading.Barrier(2, timeout=60)

    def worker(thread_jobs):
        start.wait()
        return [[run(samples, threads) for samples in thread_jobs] for threads in (1, 2, 1, 2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often between kernel calls
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(worker, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for thread_want, thread_got in zip(want, got):
        assert all(rounds == thread_want for rounds in thread_got)


# ---------------------------------------------------------------------------
# a solve on a team of threads


@pytest.mark.parametrize("threads", [0, -1, 1.5, True, False])
def test_invalid_thread_count_rejected(threads):
    with pytest.raises(EnsembleError, match="threads"):
        ensemble_pcg(diag_ensemble([[2.0, 2.0]]), np.ones((1, 2)), threads=threads)


def _team_system(width, seed):
    """A width-lane stiffness system on the 343 rows (six row tiles) of an
    8^3 mesh; teams of up to four members split it into blocks of one to
    three tiles."""
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, (width, 4))
    mesh = StructuredMesh(8)
    return assemble(mesh, field, samples, field.mode_values(mesh.quad_axes))


# With the grain lowered to one lane-nonzero every solve forms its team; the
# widths below, between and above the team sizes split the lanes unevenly,
# leaving some members without lanes at S < 4, and 31 runs every chunk width
# (16 + 8 + 4 + 2 + 1) split across the team.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 16, 31, 33])
def test_team_solve_bitwise_equals_single_member(width, monkeypatch):
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(width, 60 + width)
    want = _outcome(system, threads=1)
    for threads in (2, 3, 4):
        assert _outcome(system, threads) == want
    res = assert_matches_lockstep(system.matrix, system.rhs, threads=4, tol=1e-10, maxit=2000)
    assert res.converged_per_lane.all()


@pytest.mark.parametrize("lane", ["freezing", "zero-rhs", "maxit"])
def test_team_solve_bitwise_with_special_lanes(lane, monkeypatch):
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(7, 70)
    rhs, maxit = system.rhs.copy(), 2000
    converged = np.ones(7, dtype=bool)
    if lane == "freezing":
        rhs[5] *= 1e-150  # this lane's p'Ap underflows: it freezes unconverged
        converged[5] = False
    elif lane == "zero-rhs":
        rhs[6] = 0.0
    else:
        maxit = 5
        converged[:] = False
    for threads in (1, 2, 3, 4):
        res = assert_matches_lockstep(system.matrix, rhs, threads=threads, tol=1e-10, maxit=maxit)
        assert np.array_equal(res.converged_per_lane, converged)
        assert res.frozen_lanes[5] == (lane == "freezing")
        assert (res.iterations_per_lane[6] == 0) == (lane == "zero-rhs")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_team_breakdown_at_the_same_iteration(monkeypatch):
    # Lane 2 gets a huge entry in the last row, far from the first row that
    # holds the only right-hand side: its residual turns non-finite only
    # once the Krylov space reaches that row.
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(4, 80)
    mat = system.matrix
    values = np.array(mat.values)
    values[2, mat.row_offsets[-2]] = 1e300
    mat = EnsembleCsrMatrix(mat.row_offsets, mat.col_indices, values)
    rhs = np.zeros((4, mat.n_rows))
    rhs[:, 0] = 1.0
    for threads in (1, 2, 3, 4):
        with pytest.raises(NumericalBreakdownError, match="at iteration 6$"):
            ensemble_pcg(mat, rhs, tol=1e-10, threads=threads)


# ---------------------------------------------------------------------------
# a lane stops at its own convergence, and the ensemble narrows to its open
# lanes


def _solo(mat, rhs, s, **kwargs):
    """Lane s of an ensemble solved on its own."""
    lane = EnsembleCsrMatrix(mat.row_offsets, mat.col_indices, mat.values[s:s + 1])
    return ensemble_pcg(lane, rhs[s:s + 1], tol=1e-10, record_history=True, threads=1, **kwargs)


def ladder_sum(width, closing, iterations):
    """Lane products of a solve that, before each iteration, narrows to the
    narrowest width of 16, 4 and 1 below its own that holds its open lanes;
    lane s is open in iterations 1 to closing[s]."""
    total = 0
    for it in range(1, iterations + 1):
        still = sum(c >= it for c in closing)
        width = min([w for w in (16, 4, 1) if still <= w < width], default=width)
        total += width
    return total


# Widths that narrow from every kind of start: from one chunk (2, 4, 16) and
# from several (3, 5, 7, 17, 31, 33), to 16, 4 and 1.  The special ensemble
# has a lane that freezes at iteration 1 and one with a zero right-hand side,
# and is cut off by maxit one iteration before its slowest regular lane
# converges, after the others have closed.
@pytest.mark.parametrize("special", [False, True], ids=["plain", "special"])
@pytest.mark.parametrize("width", [2, 3, 4, 5, 7, 16, 17, 31, 33])
def test_each_lane_is_its_solo_solve(width, special, monkeypatch):
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(width, 90 + width)
    mat, rhs, maxit = system.matrix, system.rhs.copy(), 2000
    if special:
        rhs[0] *= 1e-155  # p'Ap of this lane is subnormal at iteration 1
        rhs[-1] = 0.0
        if width > 2:
            maxit = max(_solo(mat, rhs, s).iterations_per_lane[0] for s in range(1, width - 1)) - 1
    solos = [_solo(mat, rhs, s, maxit=maxit) for s in range(width)]
    closing = [solo.iterations_per_lane[0] for solo in solos]
    for threads in (1, 2, 3, 4):
        res = ensemble_pcg(mat, rhs, tol=1e-10, maxit=maxit, record_history=True, threads=threads)
        history = np.array(res.residual_history)
        for s, solo in enumerate(solos):
            assert res.solution[s].tobytes() == solo.solution[0].tobytes()
            assert res.converged_per_lane[s] == solo.converged_per_lane[0]
            assert res.frozen_lanes[s] == solo.frozen_lanes[0]
            # a frozen lane's count is the ensemble's, as for every unconverged lane
            if not res.frozen_lanes[s]:
                assert res.iterations_per_lane[s] == solo.iterations_per_lane[0]
            # the lane's norms are its solo ones, then flat once it has stopped
            own = np.array(solo.residual_history)[:, 0]
            assert history[:len(own), s].tobytes() == own.tobytes()
            assert (history[len(own):, s] == own[-1]).all()
        assert res.streamed_lane_iterations == ladder_sum(width, closing, res.ensemble_iterations)
    if special:
        assert res.frozen_lanes[0] and not res.converged_per_lane[0]
        assert res.iterations_per_lane[-1] == 0 and res.converged_per_lane[-1]
        if width > 2:
            assert res.ensemble_iterations == maxit and not res.converged_per_lane.all()


def test_streamed_lane_iterations_equal_executed_without_narrowing():
    system = _team_system(4, 95)
    for s in range(4):
        res = _solo(system.matrix, system.rhs, s)
        assert res.streamed_lane_iterations == res.ensemble_iterations > 0
    # four copies of one lane close together: the width never narrows
    mat = EnsembleCsrMatrix(system.matrix.row_offsets, system.matrix.col_indices,
                            np.repeat(system.matrix.values[:1], 4, axis=0))
    res = ensemble_pcg(mat, np.repeat(system.rhs[:1], 4, axis=0), tol=1e-10)
    assert res.streamed_lane_iterations == 4 * res.ensemble_iterations


def test_streamed_lane_iterations_follow_the_width_ladder(monkeypatch):
    # 33 lanes, copies of three systems that converge at a < b < c: 20 copies
    # of the first, 10 of the second, 3 of the third.  After iteration a the
    # 13 open lanes fit width 16, after b the 3 open ones width 4, so
    # 33 a + 16 (b - a) + 4 (c - b) lane products are formed.
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(3, 96)
    counts = [_solo(system.matrix, system.rhs, s).iterations_per_lane[0] for s in range(3)]
    order = np.argsort(counts)
    a, b, c = np.array(counts)[order]
    assert a < b < c
    lanes = np.repeat(order, [20, 10, 3])
    mat = EnsembleCsrMatrix(system.matrix.row_offsets, system.matrix.col_indices,
                            system.matrix.values[lanes])
    for threads in (1, 2, 3, 4):
        res = ensemble_pcg(mat, system.rhs[lanes], tol=1e-10, threads=threads)
        assert res.ensemble_iterations == c
        assert res.streamed_lane_iterations == 33 * a + 16 * (b - a) + 4 * (c - b)


# ---------------------------------------------------------------------------
# a solve only reads its matrix, and never holds an nnz x S buffer


def _storage(mat):
    """Bytes of everything a matrix stores, and of every lane's CSR values."""
    arrays = (mat.row_offsets, mat.col_indices, mat.split, mat.hrow, mat.lmap, mat.packed)
    return [a.tobytes() for a in arrays] + [mat.values[s].tobytes() for s in range(mat.width)]


@pytest.mark.parametrize("threads", [1, 2])
def test_solve_never_writes_its_matrix(threads, monkeypatch):
    # Sixteen lanes, copies of three systems that converge at a < b < c: 12
    # of the first, 3 of the second, 1 of the third, so the solve narrows
    # 16 -> 4 after iteration a and 4 -> 1 after b, each a copy out of the
    # matrix, split over the team.
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    system = _team_system(3, 96)
    counts = [_solo(system.matrix, system.rhs, s).iterations_per_lane[0] for s in range(3)]
    order = np.argsort(counts)
    a, b, c = np.array(counts)[order]
    lanes = np.repeat(order, [12, 3, 1])
    mat = EnsembleCsrMatrix(system.matrix.row_offsets, system.matrix.col_indices,
                            system.matrix.values[lanes])
    before = _storage(mat)
    res = ensemble_pcg(mat, system.rhs[lanes], tol=1e-10, threads=threads)
    assert res.streamed_lane_iterations == 16 * a + 4 * (b - a) + (c - b)
    assert _storage(mat) == before
    # the assembled matrix, solved as it is, narrows from 3 lanes to 1
    before = _storage(system.matrix)
    ensemble_pcg(system.matrix, system.rhs, tol=1e-10, threads=threads)
    assert _storage(system.matrix) == before


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("threads", [1, 2])
def test_breakdown_leaves_the_matrix_unchanged(threads, monkeypatch):
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    mat = _team_system(4, 80).matrix
    values = np.array(mat.values)
    values[2, mat.row_offsets[-2]] = 1e300
    mat = EnsembleCsrMatrix(mat.row_offsets, mat.col_indices, values)
    rhs = np.zeros((4, mat.n_rows))
    rhs[:, 0] = 1.0
    before = _storage(mat)
    with pytest.raises(NumericalBreakdownError):
        ensemble_pcg(mat, rhs, tol=1e-10, threads=threads)
    assert _storage(mat) == before


def test_assembly_and_solve_allocate_no_nnz_by_lanes_buffer():
    # At 12^3, S=16 an nnz x S float64 buffer is 3.8 MB.  The assembly holds
    # the (S, 8E) coefficient values while it fills the (slots, S) packed
    # values, about half that; the solve's own buffers (work vectors, a
    # lanes-last x, the narrowed slots) are smaller still.  Either peak, above
    # what was held before, would reach the bound with such a buffer.
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    mesh = StructuredMesh(12)
    mode_vals = field.mode_values(mesh.quad_axes)
    samples = np.random.default_rng(5).uniform(-1.0, 1.0, (16, 4))
    full = mesh.nnz * 16 * 8
    coefficient = 16 * len(mesh.quad_points) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        system = assemble(mesh, field, samples, mode_vals)
        assembly_peak = tracemalloc.get_traced_memory()[1] - base
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = ensemble_pcg(system.matrix, system.rhs, tol=1e-10, threads=1)
        solve_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert res.converged_per_lane.all()
    assert res.streamed_lane_iterations < 16 * res.ensemble_iterations  # it narrowed
    assert assembly_peak < coefficient + full
    assert solve_peak < full
