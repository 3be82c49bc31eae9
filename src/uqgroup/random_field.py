"""Truncated Karhunen-Loeve diffusion coefficients on the unit cube.

The covariance sigma0 exp(-||x - x'||_1 / delta) on [0, 1]^3, with the
correlation length delta = 0.25, is separable, so its eigenpairs are
products of eigenpairs of the 1D kernel exp(-|x - x'|/delta) on [0, 1].  The
1D problems are solved numerically with a Nystrom discretisation (a uniform
513-point grid, trapezoid weights, symmetrised eigenproblem with a
tridiagonal inverse); eigenfunctions are tabulated and evaluated by linear
interpolation.  A 3D mode is evaluated from its three 1D factors, each
interpolated at one axis's coordinates, so on a tensor grid of points (a
mesh's quadrature points) only the grid's distinct coordinates per axis are
interpolated.

A field instance evaluates the diffusion coefficient in the first spatial
direction as the log expansion

    a(x, y) = a_min + a_hat(y) * exp(sum_n sqrt(lambda_n) b_n(x) y_n)

with unit coefficients in the second and third directions.  sigma0
multiplies the covariance itself (the kernel convention), so the 3D
eigenvalues carry a factor sigma0 and the amplitudes one of sqrt(sigma0).
a_hat is 1, or for the "test2" mode a piecewise constant of the sample's
radius.

`anisotropy_indicator`, the `par` grouping key, reads coefficient values
the caller formed (assembly returns it per lane) and evaluates no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "FieldError",
    "Eigenpair1D",
    "eigenpairs_1d",
    "KLDiffusionField",
    "build_field",
    "anisotropy_indicator",
]


# The correlation length of the covariance and the points of the Nystrom grid.
CORRELATION_LENGTH = 0.25
NYSTROM_POINTS = 513


# The amplitude modes `KLDiffusionField.a_hat` knows.
A_HAT_MODES = ("constant", "test2")


class FieldError(ValueError):
    """Invalid field configuration or evaluation input."""


@dataclass(frozen=True)
class Eigenpair1D:
    """One eigenpair of the 1D exponential kernel, tabulated on a uniform grid.

    The eigenfunction has unit L2 norm on [0, 1] and positive value at x = 0.
    """

    eigenvalue: float
    grid: np.ndarray
    values: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.values)


def eigenpairs_1d(delta: float, count: int, grid_points: int = 513) -> list[Eigenpair1D]:
    """Leading Nystrom eigenpairs of exp(-|x - x'|/delta) on [0, 1].

    With trapezoid weights W on a uniform grid they are the eigenpairs of
    A = W^(1/2) K W^(1/2), K[i, j] = rho^|i - j|, rho = exp(-h/delta).  K has
    the tridiagonal inverse (1 - rho^2) K^(-1) = tridiag(-rho; 1, 1 + rho^2,
    ..., 1 + rho^2, 1; -rho), so A^(-1) = W^(-1/2) K^(-1) W^(-1/2) is
    tridiagonal too, and its `count` smallest eigenvalues mu (LAPACK
    bisection and inverse iteration, whose bits do not depend on the BLAS
    thread count) give the largest, 1/mu, of A with the same eigenvectors.
    A^(-1) grows ill-conditioned with delta/h: against a dense solve of A
    the eigenvalues agree to 1e-11 relative at delta = 0.25 on 513 points
    and 1e-10 at delta = 100 on 257.  Eigenvalues come back in descending
    order; eigenfunctions are unit-L2 under the same quadrature.
    """
    if delta <= 0:
        raise FieldError(f"correlation length delta must be positive, got {delta}")
    if grid_points < 64:
        raise FieldError(f"grid_points must be >= 64, got {grid_points}")
    if not 1 <= count <= grid_points:
        raise FieldError(f"count must be in [1, {grid_points}], got {count}")
    x = np.linspace(0.0, 1.0, grid_points)
    h = x[1] - x[0]
    w = np.full(grid_points, h)
    w[0] = w[-1] = h / 2.0
    sqrt_w = np.sqrt(w)
    rho = math.exp(-h / delta)
    scale = -1.0 / math.expm1(-2.0 * h / delta)  # 1 / (1 - rho^2)
    k_inv_diag = np.full(grid_points, (1.0 + rho * rho) * scale)
    k_inv_diag[0] = k_inv_diag[-1] = scale
    # Bisection to full precision: the default abstol, eps * |A^(-1)|, left
    # 1e-11 relative that moved a mode's eigenvalue with `count`.
    try:
        mu, eigvecs = scipy.linalg.eigh_tridiagonal(
            k_inv_diag / w, -rho * scale / (sqrt_w[:-1] * sqrt_w[1:]),
            select="i", select_range=(0, count - 1), tol=2 * np.finfo(np.float64).tiny,
        )
    except scipy.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise FieldError(f"eigensolver failed: {err}") from err
    if not mu[0] > 0:
        raise FieldError(f"delta = {delta} is too long for a {grid_points}-point grid")
    out = []
    for k in range(count):
        func = eigvecs[:, k] / sqrt_w
        anchor = func[0] if func[0] != 0 else func[np.argmax(np.abs(func))]
        if anchor < 0:
            func = -func
        out.append(Eigenpair1D(float(1.0 / mu[k]), x, np.ascontiguousarray(func)))
    return out


@dataclass(frozen=True)
class KLDiffusionField:
    """Truncated 3D KL expansion driving the diffusion tensor diag(a, 1, 1).

    modes[n] = (p, q, r) selects the 1D factors of the n-th 3D eigenfunction
    b_n(x) = e_p(x0) e_q(x1) e_r(x2); eigenvalues already carry the sigma0
    scaling.
    """

    sigma0: float
    a_min: float
    a_hat_mode: str  # "constant" | "test2"
    eigenvalues: np.ndarray  # (N,)
    modes: tuple[tuple[int, int, int], ...]
    factors: tuple[Eigenpair1D, ...]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def a_hat(self, y: np.ndarray) -> np.ndarray:
        """Sample-dependent amplitude; rows of y are samples."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.a_hat_mode == "constant":
            return np.ones(len(y))
        if self.a_hat_mode == "test2":
            # Piecewise amplitude over the sample-space radius: small core,
            # large middle shell, intermediate outside.
            d = math.sqrt(3.0)
            r = np.sqrt((y**2).sum(axis=1))
            return np.where(r < d / 4.0, 1.0, np.where(r < d / 2.0, 100.0, 10.0))
        raise FieldError(f"unknown a_hat mode {self.a_hat_mode!r}")

    def mode_values(self, axes: tuple) -> np.ndarray:
        """3D eigenfunctions at spatial points: (N, P).

        `axes` is a tuple of three coordinate arrays (x, y, z) that broadcast
        to the point set, P being its size in C order: a tensor grid such as
        `StructuredMesh.quad_axes` costs one interpolation per distinct
        coordinate of an axis, and (P, 3) points are `tuple(points.T)`.  Each
        factor is interpolated at the coordinates as given and a mode's value
        is (x factor * y factor) * z factor at every point, so a point gets
        the same bits whichever grid it is given on.
        """
        if not (isinstance(axes, tuple) and len(axes) == 3):
            raise FieldError("mode values need a tuple of three coordinate arrays "
                             "(tuple(points.T) for (P, 3) points)")
        axes = [np.asarray(c, dtype=float) for c in axes]
        try:
            shape = np.broadcast_shapes(*(c.shape for c in axes))
        except ValueError as err:
            raise FieldError(f"per-axis coordinates do not broadcast: {err}") from err
        out = np.empty((self.n_modes, math.prod(shape)))
        for n, (p, q, r) in enumerate(self.modes):
            x, y, z = (self.factors[k](c) for k, c in zip((p, q, r), axes))
            np.multiply(x * y, z, out=out[n].reshape(shape))
        return out

    def eval_a_batch(self, points: np.ndarray, samples: np.ndarray, mode_vals: np.ndarray) -> np.ndarray:
        """Coefficient a(x, y) on a grid of points for many samples: (S, P).

        `points` is a (P, 3) array and `mode_vals` its `mode_values`, shape
        (N, P), computed once for all the calls on the same points; any other
        shape is refused.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != self.n_modes:
            raise FieldError(f"samples must have {self.n_modes} columns, got {samples.shape[1]}")
        if np.shape(mode_vals) != (self.n_modes, len(points)):
            raise FieldError(
                f"mode_vals must have shape {(self.n_modes, len(points))}, got {np.shape(mode_vals)}"
            )
        amplitudes = np.sqrt(self.eigenvalues)
        # One (1, M) @ (M, P) product per lane: a single (S, M) @ (M, P)
        # product rounds differently for one row than for several, which
        # would make a lane's coefficient depend on its ensemble width.
        fluct = np.matmul((samples * amplitudes)[:, None, :], mode_vals)[:, 0, :]  # (S, P)
        # Rebound, so the product is freed before the next (S, P) array is made.
        fluct = np.exp(fluct)
        return self.a_min + self.a_hat(samples)[:, None] * fluct


def build_field(sigma0: float, n_modes: int, a_min: float, a_hat_mode: str = "constant") -> KLDiffusionField:
    """Assemble the leading `n_modes` 3D KL modes from 1D Nystrom factors.

    Candidate 3D eigenvalues are sigma0 * (lambda_p lambda_q lambda_r); ties
    in the descending eigenvalue sort break lexicographically on (p, q, r).
    Enough 1D modes are computed that no excluded product could outrank a
    kept one.
    """
    if n_modes < 1:
        raise FieldError(f"n_modes must be >= 1, got {n_modes}")
    if sigma0 < 0:
        raise FieldError(f"sigma0 must be >= 0, got {sigma0}")
    if a_min < 0:
        raise FieldError(f"a_min must be >= 0, got {a_min}")
    if a_hat_mode not in A_HAT_MODES:
        raise FieldError(f"unknown a_hat mode {a_hat_mode!r}")

    if n_modes > NYSTROM_POINTS**3:
        raise FieldError(f"cannot form {n_modes} 3D modes on a {NYSTROM_POINTS}-point grid")
    n1 = min(max(2, n_modes), NYSTROM_POINTS)
    while True:
        factors = eigenpairs_1d(CORRELATION_LENGTH, n1, NYSTROM_POINTS)
        lams = np.array([f.eigenvalue for f in factors])
        # (p, q, r) rows in lexicographic order.  Each product is formed over
        # its sorted indices, so the products of one index multiset tie
        # exactly and the stable sort keeps them in that order.
        triples = np.indices((n1, n1, n1)).reshape(3, -1).T
        factor_rows = np.sort(triples, axis=1)
        products = lams[factor_rows[:, 0]] * lams[factor_rows[:, 1]] * lams[factor_rows[:, 2]]
        kept = np.argsort(-products, kind="stable")[:n_modes]
        # Any excluded product with an index >= n1 is at most lams[n1-1]*lams[0]^2.
        best_excluded_bound = lams[n1 - 1] * lams[0] ** 2
        if products[kept[-1]] >= best_excluded_bound or n1 == NYSTROM_POINTS:
            break
        n1 = min(n1 * 2, NYSTROM_POINTS)

    modes = tuple(tuple(int(i) for i in triples[k]) for k in kept)
    return KLDiffusionField(sigma0=sigma0, a_min=a_min, a_hat_mode=a_hat_mode,
                            eigenvalues=sigma0 * products[kept], modes=modes, factors=tuple(factors))


def anisotropy_indicator(a_vals: np.ndarray) -> np.ndarray:
    """Worst local anisotropy ratio of diag(a, 1, 1) over the last axis of a_vals.

    Each row of values of a, say at one sample's quadrature points, gives one
    indicator.  max(a, 1) / min(a, 1) falls with a below 1 and rises with it
    above, and correctly rounded division keeps that order, so a row's least
    and greatest values give its indicator bitwise.  Usable from level 1 on.
    """
    a_vals = np.asarray(a_vals, dtype=float)
    lo = np.minimum(a_vals, 1.0)
    if np.any(lo <= 0):
        raise FieldError("anisotropy indicator needs strictly positive coefficients")
    return np.max(np.maximum(a_vals, 1.0) / lo, axis=-1)
