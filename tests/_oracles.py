"""Reference routes used only by the tests.

Every function here recomputes something the library also computes, through
an independent path (direct formula, dense brute force, textbook loop), so
the comparisons in the test modules are real cross-checks rather than the
implementation agreeing with itself.  The mesh helpers `interior_node_coords`
and `center_dof` locate dofs for the tests alone.  Nothing imports from uqgroup.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

_TINY = np.finfo(np.float64).tiny
_DOT_SUMS = 32


# ---------------------------------------------------------------------------
# scalar preconditioned conjugate gradients


def fixed_order_dot(u, v):
    """u'v in the order the compiled PCG fixes for every inner product.

    32 partial sums, sum k adding the products u[i] * v[i] with
    i = k (mod 32) in index order from 0.0, then a halving tree: sum k adds
    sum k + h for h = 16, 8, 4, 2, 1.  The products are laid out 32 to a row
    under a row of zeros and padded with zeros; each partial sum is the last
    entry of a column's np.cumsum, which adds sequentially (np.sum adds
    pairwise).  A sum starts at +0.0, so it is never -0.0 and adding a
    padding zero leaves it as it is.
    """
    prod = np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64)
    table = np.zeros((1 + -(-prod.size // _DOT_SUMS), _DOT_SUMS))
    table.flat[_DOT_SUMS : _DOT_SUMS + prod.size] = prod
    sums = np.cumsum(table, axis=0)[-1]
    while len(sums) > 1:
        half = len(sums) // 2
        sums = sums[:half] + sums[half:]
    return sums[0]


def scalar_pcg(mat, b, inv_diag=None, tol=1e-7, maxit=1000):
    """Textbook Jacobi-PCG on one system, its dots `fixed_order_dot`.

    Returns (x, iterations, converged, frozen): `iterations` is the first
    iteration with ||r|| <= tol * ||b|| (0 for a zero right-hand side, maxit
    if never reached), `frozen` flags a p'Ap underflow below the smallest
    positive normal double.
    """
    mat = sp.csr_matrix(mat)
    mat.sort_indices()
    b = np.asarray(b, dtype=np.float64)
    if inv_diag is None:
        inv_diag = 1.0 / mat.diagonal()
    x = np.zeros_like(b)
    r = b.copy()
    threshold = tol * np.sqrt(fixed_order_dot(b, b))
    if np.sqrt(fixed_order_dot(r, r)) <= threshold:
        return x, 0, True, False
    z = inv_diag * r
    p = z.copy()
    rz = fixed_order_dot(r, z)
    it = 0
    while it < maxit:
        it += 1
        Ap = mat.dot(p)
        pAp = fixed_order_dot(p, Ap)
        if pAp <= _TINY:
            return x, it, False, True
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        r_norm = np.sqrt(fixed_order_dot(r, r))
        if not np.isfinite(r_norm):
            raise FloatingPointError(f"non-finite residual at iteration {it}")
        if r_norm <= threshold:
            return x, it, True, False
        z = inv_diag * r
        rz_new = fixed_order_dot(r, z)
        beta = rz_new / rz if rz > 0 else 0.0
        p = z + beta * p
        rz = rz_new
    return x, maxit, False, False


def lockstep_pcg(lanes, rhs, tol=1e-7, maxit=1000, record_history=False):
    """The numpy lockstep Jacobi-PCG over all lanes of an ensemble.

    Lane s is the scalar CSR matrix `lanes[s]` and right-hand side `rhs[s]`.
    Each lane's product is scipy's scalar product, which sums every row in
    storage order (the lanes are not sorted: an unsorted or duplicate-entry
    lane is multiplied as stored), each inner product a `fixed_order_dot`
    over that lane's row, and each update one numpy pass over the open
    lanes' rows.
    A lane is open until it converges or freezes (its p'Ap falls to the
    smallest positive normal or below, when its alpha is zero); from then on
    no step changes its vectors, so its solution and residual norm are those
    of a one-lane solve of its own system.  The loop runs until no lane is
    open or maxit.  Returns (x, iterations, converged, frozen, history) with
    the conventions of `LaneSolveResult`; history is a list of (S,) residual
    norms from iteration 0, or None.
    """
    mats = [sp.csr_matrix(m) for m in lanes]
    b = np.array(rhs, dtype=np.float64)
    S = b.shape[0]

    def lane_dot(u, v):
        return np.array([fixed_order_dot(u[s], v[s]) for s in range(S)])

    inv_diag = 1.0 / np.array([m.diagonal() for m in mats])
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = np.sqrt(lane_dot(b, b))
    r_norm = b_norm.copy()
    threshold = tol * b_norm
    iterations = np.zeros(S, dtype=int)
    converged = r_norm <= threshold
    frozen = np.zeros(S, dtype=bool)
    history = [r_norm.copy()] if record_history else None
    z = r * inv_diag
    p = z.copy()
    rz = lane_dot(r, z)
    it = 0
    while it < maxit and not np.all(converged | frozen):
        it += 1
        live = ~(converged | frozen)
        Ap = np.array([mats[s].dot(p[s]) for s in range(S)])
        pAp = lane_dot(p, Ap)
        frozen |= live & (pAp <= _TINY)
        active = live & ~frozen
        alpha = np.zeros(S)
        alpha[active] = rz[active] / pAp[active]
        x[live] += alpha[live, None] * p[live]
        r[live] -= alpha[live, None] * Ap[live]
        r_norm[live] = np.sqrt(lane_dot(r, r))[live]
        if history is not None:
            history.append(r_norm.copy())
        if not np.all(np.isfinite(r_norm[~frozen])):
            raise FloatingPointError(f"non-finite residual at iteration {it}")
        newly = active & (r_norm <= threshold)
        iterations[newly] = it
        converged |= newly
        live = ~(converged | frozen)
        if not live.any():
            break
        z = r * inv_diag
        rz_new = lane_dot(r, z)
        beta = np.zeros(S)
        safe = live & (rz > 0)
        beta[safe] = rz_new[safe] / rz[safe]
        p[live] = z[live] + beta[live, None] * p[live]
        rz[live] = rz_new[live]
    iterations[~converged] = it
    return x, iterations, converged, frozen, history


def random_spd_system(rng, n, width):
    """A diagonally dominant sparse SPD matrix and `width` right-hand sides.

    One shared sparsity graph; per-lane values differ by a positive scale so
    lanes have genuinely different conditioning.
    """
    density = min(1.0, 6.0 / n)
    mask = rng.random((n, n)) < density
    mask = np.triu(mask, 1)
    base = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    base = base + base.T
    lanes = []
    for s in range(width):
        vals = base * rng.uniform(0.2, 1.0)
        np.fill_diagonal(vals, np.abs(vals).sum(axis=1) + rng.uniform(1.0, 3.0, n))
        lanes.append(sp.csr_matrix(vals))
    rhs = rng.standard_normal((width, n))
    return lanes, rhs


# ---------------------------------------------------------------------------
# dense sparse-grid expansion


def dense_hats(levels, indices, points):
    """Tensor hats of every node at every canonical point, shape (points, nodes).

    `levels` and `indices` are (nodes, d) integer arrays.  In one dimension the
    hat of (l, i) is max(0, 1 - |y - (i h - 1)| / h) with h = 2^(1 - l); a node's
    hat is the product over dimensions.  Brute force over points x nodes x d.
    """
    h = 2.0 ** (1.0 - np.asarray(levels, dtype=float))
    centers = np.asarray(indices, dtype=float) * h - 1.0
    y = np.asarray(points, dtype=float)
    return np.maximum(1.0 - np.abs(y[:, None, :] - centers[None]) / h[None], 0.0).prod(axis=2)


def dense_hat_expansion(levels, indices, surpluses, points):
    """Sum of surplus times tensor hat over every node, at canonical points."""
    return dense_hats(levels, indices, points) @ np.asarray(surpluses, dtype=float)


def dense_cohort_surpluses(levels, indices, surpluses, values):
    """Fill the NaN entries of `surpluses` so the expansion equals `values` there.

    The NaN entries mark the cohort being fitted; `values` holds one function
    value per cohort node, in node order, and every other surplus stays as
    given.  Ordered by total level, the cohort's hats at its own nodes form
    a unit lower triangular matrix (a hat vanishes at every other node of
    equal or lower total level), so one triangular solve gives the cohort.
    """
    levels = np.asarray(levels)
    surpluses = np.asarray(surpluses, dtype=float)
    cohort = np.flatnonzero(np.isnan(surpluses))
    fixed = np.flatnonzero(~np.isnan(surpluses))
    nodes = np.asarray(indices, dtype=float) * 2.0 ** (1.0 - levels) - 1.0
    hats = dense_hats(levels, indices, nodes[cohort])
    rhs = np.asarray(values, dtype=float) - hats[:, fixed] @ surpluses[fixed]
    order = np.argsort(levels[cohort].sum(axis=1), kind="stable")
    block = hats[:, cohort][order][:, order]
    out = surpluses.copy()
    out[cohort[order]] = scipy.linalg.solve_triangular(block, rhs[order], lower=True, unit_diagonal=True)
    return out


def _hats_1d(y, level):
    """Candidate (compressed index, hat values) pairs of one dimension's level at y.

    A level-0 dimension has both boundary hats as candidates.  A level l >= 1
    has one: the odd index 2 * floor(t / 2) + 1 with t = (y + 1) * 2^(l-1),
    clipped to [1, 2^l - 1], whose support holds y when y is in the box.
    """
    if level == 0:
        return [(0, np.maximum(1.0 - np.abs(y + 1.0) / 2.0, 0.0)),
                (1, np.maximum(1.0 - np.abs(y - 1.0) / 2.0, 0.0))]
    h = 2.0 ** (1 - level)
    t_half = np.floor(np.clip((y + 1.0) * 2.0 ** (level - 2), 0.0, 2.0 ** (level - 1)))
    half = np.minimum(t_half.astype(np.int64), 2 ** (level - 1) - 1)
    center = (2 * half + 1) * h - 1.0
    return [(half, np.maximum(1.0 - np.abs(y - center) / h, 0.0))]


def term_order_hat_sums(levels, indices, columns, points, below_total=None, n_nodes=None):
    """Hat sums by lookup in numpy, term by term, in the order the compiled sums fix.

    The grid's nodes are the (n, d) `levels` and `indices` rows, in generation
    order, and `columns` holds one surplus vector per channel.  The terms run
    over the level vectors in order of their first node (only those of total
    level below `below_total`, if given), then over each one's candidate index
    vectors in `itertools.product` order of the per-dimension candidates of
    `_hats_1d`.  A candidate that is a node (its first copy, at a position below
    n_nodes) adds its hat, multiplied over dimensions in dimension order, times
    its surplus; each point's sum starts at 0.0.  Nodes are found by a
    searchsorted over each level vector's sorted keys, which pack one
    compressed index per dimension from bit 0.  Returns (channels, points).
    """
    levels, indices = np.asarray(levels, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    points = np.asarray(points, dtype=float)
    n_nodes = len(levels) if n_nodes is None else n_nodes
    out = np.zeros((len(columns), len(points)))
    if not len(levels):
        return out
    vectors, first = np.unique(levels, axis=0, return_index=True)
    for level in vectors[np.argsort(first)].tolist():
        if below_total is not None and sum(level) >= below_total:
            continue
        rows = np.flatnonzero((levels == level).all(axis=1))
        bits = [1 if l == 0 else l - 1 for l in level]
        shifts = np.array([0, *itertools.accumulate(bits[:-1])])
        keys = ((indices[rows] >> np.minimum(level, 1)) << shifts).sum(axis=1)
        order = np.argsort(keys, kind="stable")
        keys, positions = keys[order], rows[order]
        options = [_hats_1d(points[:, k], l) for k, l in enumerate(level)]
        for combo in itertools.product(*options):
            hats = combo[0][1]
            for _, hat in combo[1:]:
                hats = hats * hat
            key = np.zeros(len(points), dtype=np.int64)
            for (half, _), shift in zip(combo, shifts):
                key += half << shift
            j = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            found = np.where(keys[j] == key, positions[j], -1)
            hit = np.flatnonzero((found >= 0) & (found < n_nodes))
            for sums, column in zip(out, columns):
                sums[hit] += hats[hit] * np.asarray(column, dtype=float)[found[hit]]
    return out


def term_order_fit(levels, indices, columns, start, values):
    """The surplus columns with the cohort from position `start` on fitted.

    `values` holds one list of function values per column, one per cohort
    node.  The cohort is fitted in ascending total level: a node's surplus
    is its value minus the term-order hat sum over the level vectors of lower
    total level (`term_order_hat_sums`) at its canonical coordinates.
    """
    levels, indices = np.asarray(levels, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    columns = [np.array(c, dtype=float) for c in columns]
    totals = levels.sum(axis=1)
    for total in np.unique(totals[start:]):
        group = start + np.flatnonzero(totals[start:] == total)
        centers = indices[group] * 2.0 ** (1.0 - levels[group]) - 1.0
        sums = term_order_hat_sums(levels, indices, columns, centers, below_total=total)
        for column, vals, s in zip(columns, values, sums):
            column[group] = np.asarray(vals, dtype=float)[group - start] - s
    return columns


def refine_cohort(nodes, frontier, surpluses, tau, max_points):
    """The cohort one refinement step adds, straight from its definition.

    `nodes` lists the grid's nodes and `frontier` the frontier's, each as a
    (level tuple, index tuple) pair; `surpluses` holds one driving surplus per
    frontier node.  Every frontier node with |surplus| >= tau contributes its
    children: in one dimension at a time a level-0 entry becomes (1, 1) and
    an entry (l, i) becomes (l+1, 2i-1) or (l+1, 2i+1).  Children already in
    the grid are dropped and the rest sorted by (total level, level, index)
    and cut to the max_points - len(nodes) free places.  Returns the cohort
    and whether the cut dropped any child.
    """
    present = set(nodes)
    found = set()
    for (level, index), surplus in zip(frontier, surpluses):
        if abs(surplus) < tau:
            continue
        for n, (l, i) in enumerate(zip(level, index)):
            for pair in [(1, 1)] if l == 0 else [(l + 1, 2 * i - 1), (l + 1, 2 * i + 1)]:
                child = (level[:n] + (pair[0],) + level[n + 1 :], index[:n] + (pair[1],) + index[n + 1 :])
                if child not in present:
                    found.add(child)
    ordered = sorted(found, key=lambda node: (sum(node[0]), node[0], node[1]))
    space = max(0, max_points - len(nodes))
    return ordered[:space], len(ordered) > space


# ---------------------------------------------------------------------------
# work-ratio accounting


def brute_force_R(groups, size):
    """Work ratio straight from its definition.

    `groups` is a sequence of (slot_values, n_real) pairs: the iteration
    count in every lane of one ensemble (replica slots included) and the
    number of leading non-replica slots.
    """
    num = 0.0
    den = 0.0
    for slot_values, n_real in groups:
        num += size * max(slot_values)
        den += sum(slot_values[:n_real])
    return num / den


def compute_R_per_ensemble(levels):
    """Per-level and total work ratios by a loop over each level's ensembles.

    The reference for `compute_R`'s sum order: each level pairs a plan (its
    `ensemble_size`, `ensembles` and `padding`) with one row of slot counts
    per ensemble.  The ensemble cost adds S * max(row) and the ideal cost the
    numpy sum of the row's real slots, ensemble after ensemble; an empty
    level gives NaN and stays out of the total.
    """
    per_level = []
    num_total = 0.0
    den_total = 0.0
    for plan, iters in levels:
        if not plan.ensembles:
            per_level.append(float("nan"))
            continue
        num = 0.0
        den = 0.0
        for pad, group_iters in zip(plan.padding, iters):
            vals = np.asarray(group_iters, dtype=float)
            num += plan.ensemble_size * float(vals.max())
            den += float(vals[: plan.ensemble_size - pad].sum())
        per_level.append(num / den)
        num_total += num
        den_total += den
    total = num_total / den_total if den_total > 0 else float("nan")
    return per_level, total


def min_sum_of_group_maxima(values, size):
    """Exhaustive minimum of the sum of chunk maxima over every ordering.

    Chunks are consecutive width-`size` slices of the permuted sequence; a
    short final chunk keeps its own maximum (replicating a member never
    changes it).  Intended for len(values) <= 8.
    """
    best = np.inf
    for perm in itertools.permutations(values):
        total = sum(max(perm[i : i + size]) for i in range(0, len(perm), size))
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# continuum references for the PDE side


def poisson_cube_center(terms=99):
    """Series solution of -lap(u) = 1 on the unit cube, u = 0 on the boundary,
    evaluated at the centre: (64/pi^5) sum over odd i,j,k of
    sin(i pi/2) sin(j pi/2) sin(k pi/2) / (i j k (i^2+j^2+k^2))."""
    k = np.arange(1, terms + 1, 2, dtype=float)
    sign = np.where(((k - 1) / 2).astype(int) % 2 == 0, 1.0, -1.0)
    i, j, l = np.meshgrid(k, k, k, indexing="ij")
    si, sj, sl = np.meshgrid(sign, sign, sign, indexing="ij")
    series = (si * sj * sl / (i * j * l * (i**2 + j**2 + l**2))).sum()
    return 64.0 / np.pi**5 * series


def interior_node_coords(cells):
    """Coordinates of the interior nodes of a `cells`^3 unit-cube mesh in
    dof order (lexicographic, z fastest), shape ((cells - 1)^3, 3)."""
    axis = np.arange(1, cells) * (1.0 / cells)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def center_dof(cells):
    """Dof index of the interior node nearest the cube centre (exact for even cells)."""
    coords = interior_node_coords(cells)
    return int(np.argmin(((coords - 0.5) ** 2).sum(axis=1)))


def anisotropy_indicator_max(a_vals):
    """The largest max(a, 1) / min(a, 1) over every given value a: diag(a, 1, 1)'s worst ratio."""
    a = np.asarray(a_vals, dtype=float).ravel()
    return float((np.maximum(a, 1.0) / np.minimum(a, 1.0)).max())


def kron_stiffness(m, a=(1.0, 1.0, 1.0)):
    """Constant-coefficient trilinear-hex stiffness via 1D Kronecker factors.

    On m cells per direction the interior 1D matrices are
    K = (1/h) tridiag(-1, 2, -1) and M = (h/6) tridiag(1, 4, 1); the operator
    for diffusion diag(a) is a0 KxMxM + a1 MxKxM + a2 MxMxK with the last
    factor acting on the fastest (z) index.  Returns (A, b) with the f = 1
    load b = h^3 per interior node.
    """
    n = m - 1
    h = 1.0 / m
    k1 = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) / h
    m1 = sp.diags([np.ones(n - 1), 4.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) * (h / 6.0)
    mat = (
        a[0] * sp.kron(sp.kron(k1, m1), m1)
        + a[1] * sp.kron(sp.kron(m1, k1), m1)
        + a[2] * sp.kron(sp.kron(m1, m1), k1)
    ).tocsr()
    mat.sort_indices()
    return mat, np.full(n**3, h**3)


def laplacian_row_stencil():
    """The 27 stiffness entries of one interior trilinear-hex Laplacian row,
    keyed by the (dx, dy, dz) neighbour offset, for mesh spacing h = 1.

    Scale by the actual h for other meshes (entries are linear in h under
    the (1/h) K and h M factor scalings combined per direction).
    """
    k1 = {-1: -1.0, 0: 2.0, 1: -1.0}
    m1 = {-1: 1.0 / 6.0, 0: 4.0 / 6.0, 1: 1.0 / 6.0}
    out = {}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                out[(dx, dy, dz)] = (
                    k1[dx] * m1[dy] * m1[dz]
                    + m1[dx] * k1[dy] * m1[dz]
                    + m1[dx] * m1[dy] * k1[dz]
                )
    return out


def _hex_gradients():
    """Reference gradients of the 8 trilinear shape functions at the 2x2x2
    Gauss points, shape (3, 8q, 8a); corners and points both in (x, y, z) bit
    order, z fastest.  dphi_a/dxi_d = s_d prod_{e != d} (1 + s_e xi_e) / 8."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    points = signs * (1.0 / np.sqrt(3.0))
    grads = np.empty((3, 8, 8))
    for q, xi in enumerate(points):
        factors = 1.0 + signs * xi  # (8 corners, 3 dims)
        for d in range(3):
            grads[d, q] = signs[:, d] * factors[:, [e for e in range(3) if e != d]].prod(axis=1) / 8.0
    return grads


def gather_mesh_tables(cells):
    """Every array table of a uniform `cells`^3 hex mesh, built element by element.

    The route the mesh tables took before they were built on the tensor
    grid: (E, 3) element indices, an (E, 8) corner-node gather into the
    interior-dof map, quadrature coordinates as element centres plus the
    scaled reference points, and the load vector as a bincount over the
    element corners.  The packed graph numbers the coupled (row, column)
    pairs with column >= row in row-major order; the slot of each corner
    pair a <= b is gathered through (E, 36) row and column dof tables from a
    dof-by-27 slot table, and a lower entry's lmap is the slot of its
    transposed position in that table.  The element matrices come from
    `_hex_gradients`, their pairs a <= b kept.  Returns {attribute name: array}.
    """
    m = cells
    h = 1.0 / m
    n1 = m - 1
    n_dofs = n1**3
    node_ids = np.arange((m + 1) ** 3).reshape(m + 1, m + 1, m + 1)
    dof = -np.ones((m + 1) ** 3, dtype=np.int64)
    dof[node_ids[1:m, 1:m, 1:m].ravel()] = np.arange(n_dofs)

    ex, ey, ez = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    elems = np.stack([ex.ravel(), ey.ravel(), ez.ravel()], axis=1)  # (E, 3)
    corners = np.array(list(itertools.product((0, 1), repeat=3)))
    conn = np.empty((len(elems), 8), dtype=np.int64)
    for a, c in enumerate(corners):
        conn[:, a] = node_ids[elems[:, 0] + c[0], elems[:, 1] + c[1], elems[:, 2] + c[2]]
    element_dofs = dof[conn]

    qref = (2.0 * corners - 1.0) * (1.0 / np.sqrt(3.0))
    centers = (elems + 0.5) * h
    quad_points = (centers[:, None, :] + qref[None, :, :] * (h / 2.0)).reshape(-1, 3)

    steps = np.array([-1, 0, 1])
    inside = (np.arange(n1)[:, None] + steps >= 0) & (np.arange(n1)[:, None] + steps < n1)
    coupled = (
        inside[:, None, None, :, None, None]
        & inside[None, :, None, None, :, None]
        & inside[None, None, :, None, None, :]
    ).reshape(n_dofs, 27)
    shifts = ((steps[:, None, None] * n1 + steps[None, :, None]) * n1 + steps[None, None, :]).ravel()
    col_indices = (np.arange(n_dofs, dtype=np.int32)[:, None] + shifts.astype(np.int32))[coupled]
    row_offsets = np.concatenate([[0], np.cumsum(coupled.sum(axis=1))]).astype(np.int32)

    offsets = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), axis=-1).reshape(27, 3)
    upper = coupled & (np.arange(27) >= 13)  # column >= row: the offset is 0 or later
    slot_of = np.where(upper, (np.cumsum(upper.ravel()) - 1).reshape(n_dofs, 27), -1)
    rows, offs = np.nonzero(coupled & ~upper)  # the lower entries in storage order
    cols = rows + shifts[offs]
    mirror_off = [np.flatnonzero((offsets == -offsets[o]).all(axis=1))[0] for o in range(27)]
    lmap = slot_of[cols, np.array(mirror_off)[offs]]
    split = row_offsets[:-1] + (coupled & ~upper).sum(axis=1)
    run = upper.sum(axis=1)
    hrow = np.concatenate([[0], np.cumsum(run)[:-1]])
    pairs = np.array(list(itertools.combinations_with_replacement(range(8), 2)))
    pair_a, pair_b = pairs[:, 0], pairs[:, 1]
    d = corners[pair_b] - corners[pair_a] + 1
    pair_offset = (d[:, 0] * 3 + d[:, 1]) * 3 + d[:, 2]
    rows, cols = element_dofs[:, pair_a], element_dofs[:, pair_b]
    pair_slots = np.where((rows >= 0) & (cols >= 0), slot_of[rows, pair_offset], -1)
    upper_pairs = 8 * pair_a + pair_b

    grads = _hex_gradients()
    elem_mats = grads[:, :, :, None] * grads[:, :, None, :] * (h / 2.0)
    nodes = element_dofs.ravel()
    inner = nodes >= 0
    load = np.bincount(nodes[inner], weights=np.full(nodes.size, h**3 / 8.0)[inner], minlength=n_dofs)
    return {
        "element_dofs": element_dofs,
        "quad_points": quad_points,
        "col_indices": col_indices,
        "row_offsets": row_offsets,
        "split": split.astype(np.int32),
        "hrow": hrow.astype(np.int32),
        "lmap": lmap.astype(np.int32),
        "_pair_slots": np.ascontiguousarray(pair_slots, dtype=np.int32),
        "_dx": np.ascontiguousarray(elem_mats[0].reshape(8, 64)[:, upper_pairs]),
        "_dyz_sum": elem_mats[1].sum(axis=0).reshape(64)[upper_pairs]
        + elem_mats[2].sum(axis=0).reshape(64)[upper_pairs],
        "_load": load,
    }


def pointwise_mode_values(field, points):
    """A KL field's (N, P) mode values at (P, 3) points, one mode at a time.

    Reads only `field.modes` and each factor's `grid` and `values`:
    row n is e_p(x) * e_q(y) * e_r(z) over all P points, each factor
    `np.interp` on its table.
    """
    points = np.asarray(points, dtype=float)
    out = np.empty((len(field.modes), len(points)))
    for n, modes in enumerate(field.modes):
        x, y, z = (np.interp(points[:, d], field.factors[k].grid, field.factors[k].values)
                   for d, k in enumerate(modes))
        out[n] = x * y * z
    return out


def einsum_assemble(mesh, a_vals):
    """The einsum + per-lane bincount assembly of trilinear hex stiffness.

    Reads only `mesh.element_dofs` ((E, 8) dofs, -1 on the boundary),
    `mesh.h` and `mesh.n_dofs`; `a_vals` is the (S, E*8) coefficient at each
    element's quadrature points.  Element matrices per lane are
    sum_q a_q Dx_q + sum_q Dy_q + sum_q Dz_q, formed with one einsum
    over all lanes; the graph comes from np.unique over every interior
    corner pair, and each lane's values are scattered with one np.bincount.
    Returns (row_offsets, col_indices, values (nnz, S), rhs (S, n_dofs)).
    """
    dofs = np.asarray(mesh.element_dofs)
    n_elem, n = len(dofs), mesh.n_dofs
    grads = _hex_gradients()
    mats = grads[:, :, :, None] * grads[:, :, None, :] * (mesh.h / 2.0)  # (3, 8q, 8a, 8b)
    a_vals = np.asarray(a_vals, dtype=float)
    S = len(a_vals)
    k_x = np.einsum("seq,qab->seab", a_vals.reshape(S, n_elem, 8), mats[0])
    k_yz = mats[1].sum(axis=0) + mats[2].sum(axis=0)
    k_all = (k_x + k_yz).reshape(S, -1)

    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    keys, slots = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    values = np.empty((len(keys), S))
    for s in range(S):
        values[:, s] = np.bincount(slots, weights=k_all[s][keep], minlength=len(keys))
    row_offsets = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])

    nodes = dofs.ravel()
    inner = nodes >= 0
    load = np.bincount(nodes[inner], weights=np.full(nodes.size, mesh.h**3 / 8.0)[inner], minlength=n)
    return row_offsets, keys % n, values, np.tile(load, (S, 1))


# ---------------------------------------------------------------------------
# dense Nystrom eigensolve for the exponential kernel


def nystrom_eigenpairs_dense(delta, count, grid_points):
    """Leading eigenpairs of exp(-|x-x'|/delta) on [0, 1] by dense Nystrom.

    Uniform grid, trapezoid weights, W^{1/2} symmetrisation, LAPACK eigh.
    Returns (eigenvalues, x, funcs) with funcs of shape (count, grid_points),
    unit L2 norm under the same quadrature, positive at x = 0.
    """
    x = np.linspace(0.0, 1.0, grid_points)
    h = x[1] - x[0]
    w = np.full(grid_points, h)
    w[0] = w[-1] = h / 2.0
    sw = np.sqrt(w)
    sym = sw[:, None] * np.exp(-np.abs(x[:, None] - x[None, :]) / delta) * sw[None, :]
    vals, vecs = scipy.linalg.eigh(sym)
    order = np.argsort(vals)[::-1][:count]
    funcs = np.empty((count, grid_points))
    for row, idx in enumerate(order):
        f = vecs[:, idx] / sw
        if f[0] < 0:
            f = -f
        funcs[row] = f
    return vals[order], x, funcs


def l2_distance_signed(x, f, g):
    """Trapezoid L2 distance between nodal functions, minimised over sign."""
    plus = np.trapezoid((f - g) ** 2, x)
    minus = np.trapezoid((f + g) ** 2, x)
    return float(np.sqrt(min(plus, minus)))
