/* The lockstep Jacobi-PCG loop of an ensemble solve, run in one call, the
 * lane-interleaved SpMV inside it, y[s] = A_s x[s] for all S lanes at once,
 * and the assembly of the lanes-last matrix values they read.  The library
 * exports ensemble_pcg, ensemble_pcg_scratch_size and ensemble_assemble; the
 * SpMV is called only by the loop.
 *
 * SpMV.
 *
 * The S lane matrices share one CSR graph (row_offsets, col_indices); their
 * values are stored lanes-last, values[jj * S + s].  Before its first
 * iteration the loop packs them once (pack_rows): each row's run of entries
 * from just after its last entry below the diagonal to its end (the diagonal
 * and upper entries of a sorted row) is copied to consecutive slots starting
 * at hrow[i]; the entries before the runs read their slots from lmap, one
 * int32 each, in storage order.  An entry (i, j) below the diagonal whose
 * mirror (j, i) sits in row j's run with all S lane values bitwise equal
 * reads the mirror's slot; any other entry gets a slot of its own, placed
 * just before its row's run.  A bitwise symmetric matrix thus stores about half its values,
 * and a non-symmetric, unsorted or duplicate-entry one only gets more slots
 * of its own.  Every entry reads a slot that holds bitwise its own S values.
 *
 * For each nonzero the column index is loaded once, then S contiguous
 * multiply-adds follow over the entry's packed slot and a lanes-last copy of
 * x.  The row is walked in storage order, the lmap slots first, then the run
 * from hrow[i].  Each lane therefore sums its row exactly as scipy's scalar
 * csr_matvec does: from 0.0, over the row's nonzeros in order, one rounded
 * multiply and one rounded add each.  Vectorising across lanes does not
 * reorder any lane's sum, and the build passes -ffp-contract=off so no
 * multiply-add is fused.  Lane s of the result is therefore bitwise the
 * scalar product of lane s.
 *
 * x and y are lanes-first (S, n).  For S > 1, x is first transposed into an
 * (n, S) scratch xt; results are gathered per block of TILE rows in a
 * (TILE, S) tile and written out lane by lane.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define TILE 64
#define STACK_LANES 32

/* The packed values and the maps that read them. */
typedef struct {
    const int32_t *row_offsets, *col_indices;
    const int32_t *split; /* split[i]: first entry of row i's run */
    const int32_t *hrow;  /* hrow[i]: slot of the entry split[i] */
    const int32_t *lmap;  /* slots of the entries before the runs, in order */
    const double *pack;   /* slot k holds S lane values at pack[k * S] */
} packed_csr;

static inline __attribute__((always_inline)) void spmv_body(
    const int64_t S, const int64_t n, const packed_csr m,
    double *restrict xt, double *restrict tile, const double *restrict x,
    double *restrict y)
{
    const int32_t *restrict row_offsets = m.row_offsets, *restrict col_indices = m.col_indices;
    const int32_t *restrict split = m.split, *restrict hrow = m.hrow, *restrict lmap = m.lmap;
    const double *restrict pack = m.pack;
    for (int64_t i0 = 0; i0 < n; i0 += TILE) {
        const int64_t rows = n - i0 < TILE ? n - i0 : TILE;
        for (int64_t s = 0; s < S; s++)
            for (int64_t r = 0; r < rows; r++)
                xt[(i0 + r) * S + s] = x[s * n + i0 + r];
    }
    for (int64_t i0 = 0; i0 < n; i0 += TILE) {
        const int64_t rows = n - i0 < TILE ? n - i0 : TILE;
        for (int64_t r = 0; r < rows; r++) {
            const int64_t i = i0 + r;
            /* Up to STACK_LANES lanes sum in a local array, which the
             * specialised widths keep in registers. */
            double stack_acc[STACK_LANES];
            double *restrict acc = S <= STACK_LANES ? stack_acc : tile + r * S;
            for (int64_t s = 0; s < S; s++)
                acc[s] = 0.0;
            for (int32_t jj = row_offsets[i]; jj < split[i]; jj++) {
                const double *restrict v = pack + (int64_t)*lmap++ * S;
                const double *restrict xc = xt + (int64_t)col_indices[jj] * S;
                for (int64_t s = 0; s < S; s++)
                    acc[s] += v[s] * xc[s];
            }
            const double *restrict v = pack + (int64_t)hrow[i] * S;
            for (int32_t jj = split[i]; jj < row_offsets[i + 1]; jj++, v += S) {
                const double *restrict xc = xt + (int64_t)col_indices[jj] * S;
                for (int64_t s = 0; s < S; s++)
                    acc[s] += v[s] * xc[s];
            }
            if (S <= STACK_LANES)
                for (int64_t s = 0; s < S; s++)
                    tile[r * S + s] = acc[s];
        }
        for (int64_t s = 0; s < S; s++)
            for (int64_t r = 0; r < rows; r++)
                y[s * n + i0 + r] = tile[r * S + s];
    }
}

/* A width fixed at compile time keeps the accumulators in registers.  Only
 * the widths the PDE preset (4) and the wide ensemble runs (16) use get their
 * own copy; there the product alone, on the packed values, is 2.7-3.9x
 * (16^3, S=4) and 1.5x (32^3, S=16) faster than the generic body.  Every
 * other width takes the generic body. */
#define SPECIALISED(W)                                                        \
    static void spmv_##W(int64_t n, const packed_csr m, double *xt,          \
                         double *tile, const double *x, double *y)            \
    {                                                                         \
        spmv_body(W, n, m, xt, tile, x, y);                                   \
    }

/* With one lane the two layouts coincide: scipy's scalar loop, in place. */
static void spmv_1(int64_t n, const packed_csr m, const double *restrict x,
                   double *restrict y)
{
    const int32_t *restrict row_offsets = m.row_offsets, *restrict col_indices = m.col_indices;
    const int32_t *restrict split = m.split, *restrict hrow = m.hrow, *restrict lmap = m.lmap;
    const double *restrict pack = m.pack;
    for (int64_t i = 0; i < n; i++) {
        double sum = 0.0;
        for (int32_t jj = row_offsets[i]; jj < split[i]; jj++)
            sum += pack[*lmap++] * x[col_indices[jj]];
        const double *restrict v = pack + hrow[i];
        for (int32_t jj = split[i]; jj < row_offsets[i + 1]; jj++)
            sum += *v++ * x[col_indices[jj]];
        y[i] = sum;
    }
}

SPECIALISED(4)
SPECIALISED(16)

static void ensemble_spmv(int64_t S, int64_t n, const packed_csr m, double *xt,
                          double *tile, const double *x, double *y)
{
    switch (S) {
    case 1: spmv_1(n, m, x, y); break;
    case 4: spmv_4(n, m, xt, tile, x, y); break;
    case 16: spmv_16(n, m, xt, tile, x, y); break;
    default: spmv_body(S, n, m, xt, tile, x, y);
    }
}

/* PCG.
 *
 * The loop is the numpy lockstep Jacobi-PCG it replaced, operation for
 * operation: every update is a separately rounded multiply and add per
 * entry, and every inner product is a call of the ddot that numpy's np.dot
 * calls, handed in by the caller.  PCG vectors are lanes-first (S, n), so
 * each lane's dot is over contiguous memory as in np.dot(x[s], y[s]).  Each
 * lane therefore computes bitwise what that loop computed for it.
 */

/* CBLAS ddot with 64-bit lengths and strides (numpy's ILP64 OpenBLAS). */
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* np.dot of two 1-D float64 vectors: a one-entry vector is multiplied as a
 * scalar (keeping the sign of a zero product); longer ones add the BLAS ddot
 * to a sum that starts at 0.0. */
static double lane_dot(ddot_fn ddot, int64_t n, const double *x, const double *y)
{
    return n == 1 ? x[0] * y[0] : 0.0 + ddot(n, x, 1, y, 1);
}

/* Packs the values row by row as the SpMV header describes, and in the same
 * pass forms the Jacobi preconditioner: inv_diag[s, i] = 1.0 / d, where d sums
 * lane s's copies of the diagonal entry of row i in storage order from 0.0,
 * as scipy's diagonal() of lane s does.
 *
 * Rows are packed in order, so the rows i > j that look up a mirror in row j
 * come in increasing i; cursor[j] walks row j's run once, past the columns
 * below i, and finds the mirror where a sorted run holds it.  Returns 0 if
 * some d is not > 0 (zero, negative, NaN, or no copy stored), 1 otherwise. */
static int pack_rows(int64_t S, int64_t n, const int32_t *restrict row_offsets,
                     const int32_t *restrict col_indices, const double *restrict values,
                     double *restrict pack, int32_t *restrict split, int32_t *restrict hrow,
                     int32_t *restrict lmap, int32_t *restrict cursor,
                     double *restrict inv_diag)
{
    const size_t bytes = (size_t)S * sizeof(double);
    int32_t slot = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t start = row_offsets[i], end = row_offsets[i + 1];
        int32_t mid = start; /* the row's run starts here */
        for (int64_t s = 0; s < S; s++)
            inv_diag[s * n + i] = 0.0;
        for (int32_t jj = start; jj < end; jj++) {
            if (col_indices[jj] < i)
                mid = jj + 1;
            else if (col_indices[jj] == i)
                for (int64_t s = 0; s < S; s++)
                    inv_diag[s * n + i] += values[(int64_t)jj * S + s];
        }
        for (int64_t s = 0; s < S; s++) {
            const double d = inv_diag[s * n + i];
            if (!(d > 0.0))
                return 0;
            inv_diag[s * n + i] = 1.0 / d;
        }
        for (int32_t jj = start; jj < mid; jj++) {
            const double *v = values + (int64_t)jj * S;
            const int32_t j = col_indices[jj];
            if (j < i) {
                int32_t c = cursor[j];
                while (c < row_offsets[j + 1] && col_indices[c] < i)
                    c++;
                cursor[j] = c;
                if (c < row_offsets[j + 1] && col_indices[c] == i
                    && memcmp(v, values + (int64_t)c * S, bytes) == 0) {
                    *lmap++ = hrow[j] + (c - split[j]);
                    continue;
                }
            }
            memcpy(pack + (int64_t)slot * S, v, bytes);
            *lmap++ = slot++;
        }
        split[i] = cursor[i] = mid;
        hrow[i] = slot;
        memcpy(pack + (int64_t)slot * S, values + (int64_t)mid * S, (size_t)(end - mid) * bytes);
        slot += end - mid;
    }
    return 1;
}

/* The scratch of ensemble_pcg, in doubles: the packed values (at most one
 * slot per nonzero), the SpMV's xt and tile, then the int32 maps and
 * cursors. */
int64_t ensemble_pcg_scratch_size(int64_t S, int64_t n, int64_t nnz)
{
    return (nnz + n + TILE) * S + (nnz + 3 * n + 1) / 2;
}

/* Returned by ensemble_pcg when a lane's diagonal is not strictly positive;
 * no iteration count or breakdown code can equal it. */
#define BAD_DIAGONAL INT64_MIN

/* Runs until every lane has converged (||r|| <= tol ||b||) or frozen
 * (p'Ap <= DBL_MIN, after which its alpha and beta are zero), or maxit
 * iterations have run.
 *
 * On entry x is zero, both (S, n); work holds four (S, n) vectors, r, Ap, p
 * and the inverse diagonal in that order, with r set to the right-hand sides
 * (z shares Ap's storage: it is dead once p is updated, and the next SpMV
 * rewrites Ap).  scratch holds ensemble_pcg_scratch_size(S, n, nnz) doubles
 * and lane 3 * S doubles of work.  iterations, converged and frozen are
 * zeroed S-vectors; on return iterations[s] is the iteration at which lane s
 * converged, or the number run if it did not.  history, when not NULL, holds
 * (maxit + 1) * S doubles and receives the lane residual norms of iterations
 * 0, 1, ...
 *
 * Returns the number of iterations run, -it if an active (not frozen) lane's
 * residual norm was not finite after iteration it, or BAD_DIAGONAL, before
 * any iteration, if the Jacobi preconditioner does not exist. */
int64_t ensemble_pcg(int64_t S, int64_t n, const int32_t *row_offsets,
                     const int32_t *col_indices, const double *values,
                     double *scratch, ddot_fn ddot, double tol, int64_t maxit,
                     double *restrict x, double *restrict work, double *restrict lane,
                     int64_t *iterations, uint8_t *converged, uint8_t *frozen,
                     double *history)
{
    const int64_t nnz = row_offsets[n];
    double *restrict r = work, *restrict apz = work + S * n; /* Ap, then z */
    double *restrict p = work + 2 * S * n, *restrict inv_diag = work + 3 * S * n;
    double *threshold = lane, *r_norm = lane + S, *rz = lane + 2 * S;
    double *xt = scratch + nnz * S, *tile = xt + n * S;
    int32_t *lmap = (int32_t *)(tile + TILE * S), *split = lmap + nnz;
    int32_t *hrow = split + n, *cursor = hrow + n;
    if (!pack_rows(S, n, row_offsets, col_indices, values, scratch, split, hrow, lmap,
                   cursor, inv_diag))
        return BAD_DIAGONAL;
    const packed_csr m = {row_offsets, col_indices, split, hrow, lmap, scratch};
    int64_t open = 0; /* lanes neither converged nor frozen */
    for (int64_t s = 0; s < S; s++) {
        const double *rs = r + s * n;
        r_norm[s] = sqrt(lane_dot(ddot, n, rs, rs));
        threshold[s] = tol * r_norm[s];
        converged[s] = r_norm[s] <= threshold[s]; /* zero right-hand sides */
        open += !converged[s];
    }
    if (history)
        for (int64_t s = 0; s < S; s++)
            history[s] = r_norm[s];
    for (int64_t i = 0; i < S * n; i++) {
        apz[i] = r[i] * inv_diag[i];
        p[i] = apz[i];
    }
    for (int64_t s = 0; s < S; s++)
        rz[s] = lane_dot(ddot, n, r + s * n, apz + s * n);

    int64_t it = 0;
    while (it < maxit && open > 0) {
        it++;
        ensemble_spmv(S, n, m, xt, tile, p, apz);
        for (int64_t s = 0; s < S; s++) {
            double *restrict xs = x + s * n, *restrict rs = r + s * n;
            const double *restrict ps = p + s * n, *restrict aps = apz + s * n;
            const double pap = lane_dot(ddot, n, ps, aps);
            if (pap <= DBL_MIN)
                frozen[s] = 1;
            const double alpha = frozen[s] ? 0.0 : rz[s] / pap;
            for (int64_t i = 0; i < n; i++)
                xs[i] += alpha * ps[i];
            for (int64_t i = 0; i < n; i++)
                rs[i] -= alpha * aps[i];
            r_norm[s] = sqrt(lane_dot(ddot, n, rs, rs));
        }
        if (history)
            for (int64_t s = 0; s < S; s++)
                history[it * S + s] = r_norm[s];
        open = 0;
        for (int64_t s = 0; s < S; s++) {
            if (frozen[s])
                continue;
            if (!isfinite(r_norm[s]))
                return -it;
            if (!converged[s] && r_norm[s] <= threshold[s]) {
                iterations[s] = it;
                converged[s] = 1;
            }
            open += !converged[s];
        }
        if (open == 0)
            break;
        for (int64_t s = 0; s < S; s++) {
            const double *restrict rs = r + s * n, *restrict dinv = inv_diag + s * n;
            double *restrict zs = apz + s * n, *restrict ps = p + s * n;
            for (int64_t i = 0; i < n; i++)
                zs[i] = rs[i] * dinv[i];
            const double rz_new = lane_dot(ddot, n, rs, zs);
            const double beta = !frozen[s] && rz[s] > 0 ? rz_new / rz[s] : 0.0;
            for (int64_t i = 0; i < n; i++)
                ps[i] = zs[i] + beta * ps[i];
            rz[s] = rz_new;
        }
    }
    for (int64_t s = 0; s < S; s++)
        if (!converged[s])
            iterations[s] = it;
    return it;
}


/* Assembly.
 *
 * The stiffness matrix of lane s on element e is, for the 64 corner pairs
 * p = 8 a + b,
 *
 *     K[p] = (0.0 + sum_q a[s, e, q] * dx[q, p]) + kyz[p],
 *
 * where a (S, n_elem, 8) holds the sampled coefficient at the element's 8
 * quadrature points, dx (8, 64) the x-direction element matrices of those
 * points and kyz (64) the constant y and z part.  The q sum runs in order,
 * one rounded multiply and add per term.  Pairs are added into the zeroed
 * lanes-last values[slot * S + s] in element order; a pair whose slot
 * (n_elem, 64) is -1 has a boundary corner and is skipped.  The pairs of one
 * element have distinct slots, so each value receives its terms in element
 * order.  That is the order of an einsum over q followed by one np.bincount
 * per lane (the reference the tests compare with), so each lane is bitwise
 * that assembly of its own coefficient, whatever the width S.
 *
 * Up to ASSEMBLE_LANES lanes of an element are formed first, vectorised
 * over p, then added pair by pair into each slot's contiguous run of lanes;
 * 8 lanes at a time ran about 10% faster than 32 at S = 4 (16^3) and
 * S = 16 (32^3). */
#define ASSEMBLE_LANES 8

void ensemble_assemble(int64_t S, int64_t n_elem, const double *restrict a,
                       const double *restrict dx, const double *restrict kyz,
                       const int32_t *restrict slots, double *restrict values)
{
    for (int64_t e = 0; e < n_elem; e++) {
        const int32_t *restrict slot = slots + e * 64;
        for (int64_t s0 = 0; s0 < S; s0 += ASSEMBLE_LANES) {
            const int64_t lanes = S - s0 < ASSEMBLE_LANES ? S - s0 : ASSEMBLE_LANES;
            double k[ASSEMBLE_LANES][64];
            for (int64_t c = 0; c < lanes; c++) {
                const double *restrict aq = a + ((s0 + c) * n_elem + e) * 8;
                for (int p = 0; p < 64; p++) {
                    double sum = 0.0;
                    for (int q = 0; q < 8; q++)
                        sum += aq[q] * dx[q * 64 + p];
                    k[c][p] = sum + kyz[p];
                }
            }
            for (int p = 0; p < 64; p++) {
                if (slot[p] < 0)
                    continue;
                double *restrict v = values + (int64_t)slot[p] * S + s0;
                for (int64_t c = 0; c < lanes; c++)
                    v[c] += k[c][p];
            }
        }
    }
}
