"""KL eigenpairs of the exponential kernel and the diffusion-field wrapper."""

from fractions import Fraction

import numpy as np
import pytest

from uqgroup import FieldError, StructuredMesh, anisotropy_indicator, build_field, eigenpairs_1d
from uqgroup.random_field import CORRELATION_LENGTH, NYSTROM_POINTS

from _oracles import (
    anisotropy_indicator_max,
    l2_distance_signed,
    nystrom_eigenpairs_dense,
    pointwise_mode_values,
)

DELTA = CORRELATION_LENGTH


@pytest.fixture(scope="module")
def pairs():
    return eigenpairs_1d(DELTA, 8, 513)


def a_at(field, points, samples):
    """The coefficient of each sample row at (P, 3) points."""
    return field.eval_a_batch(points, samples, field.mode_values(tuple(points.T)))


# ---------------------------------------------------------------------------
# 1D eigenpairs


def test_eigenvalues_positive_descending(pairs):
    lams = np.array([p.eigenvalue for p in pairs])
    assert (lams > 0).all()
    assert (np.diff(lams) <= 0).all()


def test_eigenfunctions_orthonormal_under_trapezoid(pairs):
    x = pairs[0].grid
    w = np.full_like(x, x[1] - x[0])
    w[0] = w[-1] = w[0] / 2.0
    F = np.stack([p.values for p in pairs])
    gram = (F * w) @ F.T
    np.testing.assert_allclose(gram, np.eye(len(pairs)), atol=1e-6)


def test_eigenfunctions_positive_at_zero(pairs):
    assert all(p.values[0] > 0 for p in pairs)


def test_eigenfunction_call_interpolates(pairs):
    p = pairs[2]
    np.testing.assert_array_equal(p(p.grid), p.values)
    mid = 0.5 * (p.grid[10] + p.grid[11])
    assert p(mid) == pytest.approx(0.5 * (p.values[10] + p.values[11]))


def test_trace_is_captured_by_leading_modes(pairs):
    # the kernel has unit diagonal, so the full 1D spectrum sums to 1
    lams = np.array([p.eigenvalue for p in eigenpairs_1d(DELTA, 60, 513)])
    assert lams.sum() == pytest.approx(1.0, abs=2e-2)
    assert lams[:20].sum() >= 0.95


def test_long_correlation_limit_is_near_degenerate():
    pair = eigenpairs_1d(100.0, 1, 257)[0]
    assert pair.eigenvalue >= 0.99
    # and the ground mode flattens out
    assert pair.values.std() < 0.05


def test_eigenpairs_converge_toward_finer_oracle(pairs_small=None):
    lib = eigenpairs_1d(DELTA, 6, 257)
    vals, x, funcs = nystrom_eigenpairs_dense(DELTA, 6, 1025)
    lams = np.array([p.eigenvalue for p in lib])
    assert np.abs(lams - vals).max() < 1e-4
    shared = funcs[:, ::4]  # the 257 grid is every 4th point of the 1025 grid
    for k in range(2):
        assert l2_distance_signed(lib[k].grid, lib[k].values, shared[k]) < 1e-3


@pytest.mark.parametrize(
    "delta, grid_points, count",
    [(0.05, 64, 64), (0.25, 513, 8), (0.25, 513, 513), (1.0, 257, 40), (0.1, 1025, 20),
     (2.0, 129, 129)],
)
def test_tridiagonal_eigenpairs_match_dense_oracle(delta, grid_points, count):
    pairs = eigenpairs_1d(delta, count, grid_points)
    lam_ref, x, funcs_ref = nystrom_eigenpairs_dense(delta, count, grid_points)
    lams = np.array([p.eigenvalue for p in pairs])
    funcs = np.stack([p.values for p in pairs])
    np.testing.assert_allclose(lams, lam_ref, rtol=1e-10, atol=0)
    # the dense solve's own eigenvectors of the clustered smallest
    # eigenvalues are good to about 1e-7, so only the leading ones are compared
    np.testing.assert_allclose(funcs[:8], funcs_ref[:8], rtol=0, atol=1e-9)
    # every pair, trailing ones included, solves the Nystrom equation
    # K W f = lambda f and is orthonormal under the trapezoid weights W
    w = np.full(grid_points, x[1] - x[0])
    w[0] = w[-1] = w[0] / 2.0
    kernel = np.exp(-np.abs(x[:, None] - x[None, :]) / delta)
    residual = kernel @ (w[:, None] * funcs.T) - funcs.T * lams
    assert np.abs(residual).max() <= 1e-10
    np.testing.assert_allclose((funcs * w) @ funcs.T, np.eye(count), rtol=0, atol=1e-12)


def test_eigenpairs_validation():
    with pytest.raises(FieldError):
        eigenpairs_1d(0.0, 4)
    with pytest.raises(FieldError):
        eigenpairs_1d(DELTA, 0)
    with pytest.raises(FieldError):
        eigenpairs_1d(DELTA, 600, 513)
    with pytest.raises(FieldError):
        eigenpairs_1d(DELTA, 4, 32)


# ---------------------------------------------------------------------------
# 3D mode selection


def test_single_mode_is_triple_ground_state():
    field = build_field(sigma0=1.0, n_modes=1, a_min=0.0)
    assert field.modes == ((0, 0, 0),)
    lam0 = eigenpairs_1d(DELTA, 1, 513)[0].eigenvalue
    assert field.eigenvalues[0] == pytest.approx(lam0**3, rel=1e-12)


def test_four_mode_selection_uses_first_two_1d_modes():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    assert field.modes == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    np.testing.assert_allclose(
        field.eigenvalues, [1.00882, 0.563383, 0.563383, 0.563383], atol=2e-4
    )


def test_mode_ordering_matches_brute_force_products():
    field = build_field(sigma0=1.0, n_modes=12, a_min=0.0)
    lams = [Fraction(p.eigenvalue) for p in eigenpairs_1d(DELTA, 6, 513)]
    # exact products: one index multiset's products tie whatever the order
    # of its factors, and the tie-break alone orders them
    products = sorted(
        ((lams[p] * lams[q] * lams[r], (p, q, r)) for p in range(6) for q in range(6) for r in range(6)),
        key=lambda t: (-t[0], t[1]),
    )
    np.testing.assert_allclose(field.eigenvalues, [float(v) for v, _ in products[:12]], rtol=1e-12)
    assert field.modes == tuple(m for _, m in products[:12])


def test_sigma0_conventions_scale_eigenvalues():
    # the kernel convention: sigma0 multiplies the covariance, so the eigenvalues
    kw = dict(n_modes=3, a_min=0.0)
    base = build_field(sigma0=1.0, **kw)
    ker = build_field(sigma0=3.0, **kw)
    assert ker.modes == base.modes
    np.testing.assert_allclose(ker.eigenvalues, 3.0 * base.eigenvalues, rtol=1e-12)


def test_mercer_partial_sums_bounded_by_kernel_diagonal():
    field = build_field(sigma0=1.0, n_modes=20, a_min=0.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, (40, 3))
    modes = field.mode_values(tuple(pts.T))  # (20, 40)
    diag = (field.eigenvalues[:, None] * modes**2).sum(axis=0)
    assert (diag <= 1.0 + 1e-3).all()


def test_adding_modes_grows_captured_variance():
    sums = [
        build_field(sigma0=1.0, n_modes=n, a_min=0.0).eigenvalues.sum()
        for n in (1, 4, 10, 20)
    ]
    assert all(b > a for a, b in zip(sums, sums[1:]))


# ---------------------------------------------------------------------------
# the diffusion coefficient


def test_zero_amplitude_field_is_constant():
    field = build_field(sigma0=0.0, n_modes=4, a_min=1.1)
    pts = np.array([[0.2, 0.5, 0.8], [0.0, 0.0, 0.0]])
    vals = a_at(field, pts, np.array([[1.0, -1.0, 0.5, 0.3]]))
    np.testing.assert_allclose(vals, 2.1, rtol=1e-15)


def test_log_expansion_positive_on_probe_lattice():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    axis = np.linspace(0.0, 1.0, 17)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    lattice = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    rng = np.random.default_rng(8)
    samples = rng.uniform(-1.0, 1.0, (1000, 4))
    mode_vals = field.mode_values(tuple(lattice.T))
    assert (field.eval_a_batch(lattice, samples, mode_vals) > 0).all()


@pytest.mark.parametrize("n_modes", [1, 4, 7])
@pytest.mark.parametrize("cells", [2, 5, 16])
def test_per_axis_mode_values_equal_pointwise_bitwise(cells, n_modes):
    # At 7 modes some modes multiply two non-constant factors.
    field = build_field(sigma0=np.sqrt(300.0), n_modes=n_modes, a_min=0.1)
    mesh = StructuredMesh(cells)
    expected = pointwise_mode_values(field, mesh.quad_points)
    for got in (field.mode_values(mesh.quad_axes), field.mode_values(tuple(mesh.quad_points.T))):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


def test_mode_values_refuse_malformed_points():
    field = build_field(sigma0=1.0, n_modes=2, a_min=0.0)
    axis = np.array([0.25, 0.75])
    # A (P, 3) array is refused too: the axes of arbitrary points are tuple(points.T).
    bad = [np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(3), [axis, axis, axis], (axis, axis),
           (axis, axis[:, None], np.zeros(3))]
    for points in bad:
        with pytest.raises(FieldError):
            field.mode_values(points)


def test_eval_a_batch_refuses_mode_values_of_other_points():
    field = build_field(sigma0=1.0, n_modes=4, a_min=0.1)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (10, 3))
    mode_vals = field.mode_values(tuple(pts.T))
    for bad in (mode_vals[:, :9], mode_vals[:3], mode_vals.T, mode_vals.ravel()):
        with pytest.raises(FieldError, match="mode_vals must have shape"):
            field.eval_a_batch(pts, np.zeros((1, 4)), bad)


@pytest.mark.parametrize("width", [1, 2, 4, 16])
def test_eval_a_batch_lanes_independent_of_width(width):
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    axis = (np.arange(16) + 0.5) / 16
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    mode_vals = field.mode_values(tuple(pts.T))
    samples = np.random.default_rng(width).uniform(-1.0, 1.0, (width, 4))
    batch = field.eval_a_batch(pts, samples, mode_vals)
    for row, y in zip(batch, samples):
        assert np.array_equal(row, field.eval_a_batch(pts, y[None, :], mode_vals)[0])


def test_eval_a_batch_checks_sample_width():
    field = build_field(sigma0=1.0, n_modes=4, a_min=0.0)
    with pytest.raises(FieldError):
        a_at(field, np.zeros((1, 3)), np.zeros((1, 3)))


def test_test2_amplitude_piecewise_with_boundaries():
    field = build_field(sigma0=1.0, n_modes=3, a_min=0.0, a_hat_mode="test2")
    d = np.sqrt(3.0)
    y = np.array([
        [0.0, 0.0, 0.0],          # r = 0 -> core
        [d / 4.0, 0.0, 0.0],      # r = d/4 exactly -> middle shell
        [0.3, 0.3, 0.3],          # r ~ 0.52 in (d/4, d/2)
        [d / 2.0, 0.0, 0.0],      # r = d/2 exactly -> outside
        [1.0, 1.0, 1.0],          # r = d -> outside
    ])
    np.testing.assert_array_equal(field.a_hat(y), [1.0, 100.0, 100.0, 10.0, 10.0])


def test_build_field_validation():
    with pytest.raises(FieldError):
        build_field(sigma0=-1.0, n_modes=2, a_min=0.0)
    with pytest.raises(FieldError):
        build_field(sigma0=1.0, n_modes=0, a_min=0.0)
    with pytest.raises(FieldError):
        build_field(sigma0=1.0, n_modes=2, a_min=-0.1)
    with pytest.raises(FieldError):
        build_field(sigma0=1.0, n_modes=2, a_min=0.0, a_hat_mode="test3")
    with pytest.raises(FieldError, match="cannot form"):
        build_field(sigma0=1.0, n_modes=NYSTROM_POINTS**3 + 1, a_min=0.0)


# ---------------------------------------------------------------------------
# anisotropy indicator


def indicator_at(field, y, points):
    """The indicator of sample y over the coefficient at the given points."""
    return anisotropy_indicator(a_at(field, points, np.asarray(y)[None, :])[0])


def test_indicator_isotropic_and_constant_cases():
    iso = build_field(sigma0=0.0, n_modes=2, a_min=0.0)
    pts = np.array([[0.1, 0.2, 0.3], [0.9, 0.9, 0.9]])
    assert indicator_at(iso, np.zeros(2), pts) == 1.0
    # a = 3 + exp(0) = 4 against the unit y and z coefficients
    skew = build_field(sigma0=0.0, n_modes=2, a_min=3.0)
    assert indicator_at(skew, np.zeros(2), pts) == 4.0


def test_indicator_ordering_matches_dense_grid_oracle():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    rng = np.random.default_rng(23)
    y1, y2 = rng.uniform(-1.0, 1.0, (2, 4))
    coarse = rng.uniform(0.0, 1.0, (512, 3))
    axis = np.linspace(0.0, 1.0, 64)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    dense = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def brute(y):
        a = a_at(field, dense, y[None, :])[0]
        hi = np.maximum(a, 1.0)
        lo = np.minimum(a, 1.0)
        return (hi / lo).max()

    lib = [indicator_at(field, y, coarse) for y in (y1, y2)]
    ref = [brute(y1), brute(y2)]
    assert (lib[0] < lib[1]) == (ref[0] < ref[1])


def test_indicator_at_central_sample_is_exact():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    pts = np.array([[0.25, 0.5, 0.75], [0.5, 0.5, 0.5]])
    # y = 0 kills the fluctuation: a = 0.1 + exp(0) = 1.1 against the unit y and z coefficients
    assert indicator_at(field, np.zeros(4), pts) == pytest.approx(1.1, rel=1e-15)


def test_indicator_matches_direct_recompute():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, 1.0, (64, 3))
    y = rng.uniform(-1.0, 1.0, 4)
    a = a_at(field, pts, y[None, :])[0]
    hi = np.maximum(a, 1.0)
    lo = np.minimum(a, 1.0)
    assert anisotropy_indicator(a) == pytest.approx((hi / lo).max(), rel=1e-14)


def test_indicator_grows_toward_the_corner():
    field = build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1)
    rng = np.random.default_rng(22)
    pts = rng.uniform(0.0, 1.0, (128, 3))
    h_center = indicator_at(field, np.zeros(4), pts)
    h_corner = indicator_at(field, np.ones(4), pts)
    assert h_corner > 10.0 * h_center


@pytest.mark.parametrize("a_min, sigma0", [(1.0, 1.0), (0.5, 3.0), (40.0, 2.0)])
def test_indicator_of_the_bounds_is_that_of_all_values(a_min, sigma0):
    """A row's least and greatest values give bitwise its indicator, row by row,
    whether the values straddle the unit y and z coefficients or lie above them."""
    field = build_field(sigma0=sigma0, n_modes=4, a_min=a_min)
    rng = np.random.default_rng(24)
    pts = rng.uniform(0.0, 1.0, (256, 3))
    a_vals = a_at(field, pts, rng.uniform(-1.0, 1.0, (64, 4)))
    bounds = np.stack([a_vals.min(axis=1), a_vals.max(axis=1)], axis=1)
    rows = anisotropy_indicator(a_vals)
    assert rows.shape == (64,)
    assert np.array_equal(anisotropy_indicator(bounds), rows)
    assert [anisotropy_indicator_max(a) for a in a_vals] == rows.tolist()


def test_indicator_refuses_non_positive_coefficients():
    with pytest.raises(FieldError, match="strictly positive"):
        anisotropy_indicator(np.array([1.0, 0.0]))
