/* The compiled kernels of the package, one library built from this file.
 *
 * For the ensemble solve: the Jacobi-PCG loop, which solves an ensemble's
 * blocks of lanes on up to `threads` threads in one call, the
 * lane-interleaved SpMV inside it, y[s] = A_s x[s] for the lanes s a block
 * still needs, the assembly of stiffness matrices straight into the packed
 * storage that SpMV reads, and the pack of any other matrix into it.  For
 * the sparse grid (at the end of the file): the hat sums of a cohort of
 * points, with which hier_grid fits and evaluates its surrogates, and the
 * node lookup of its refinement.  The library exports ensemble_pcg,
 * ensemble_pcg_scratch_size, ensemble_assemble, ensemble_pack, hat_sums and
 * find_nodes; the SpMV is called only by the loop.
 *
 * Packed storage.
 *
 * The S lane matrices share one CSR graph (row_offsets, col_indices).  Their
 * values sit in slots of lane values, one slot layout for all lanes.  Each
 * row's run of entries from just after its last entry below the diagonal to
 * its end (the diagonal and upper entries of a sorted row) has consecutive
 * slots starting at hrow[i]; the entries before the runs read their slots
 * from lmap, one int32 each, in storage order.  An entry (i, j) below the
 * diagonal whose mirror (j, i) sits in row j's run with all S lane values
 * bitwise equal reads the mirror's slot; any other entry has a slot of its
 * own, just before its row's run.  So the slots of row i are those from the
 * end of row i - 1's run to the end of its own, and a bitwise symmetric
 * matrix stores about half its values.  Every entry reads a slot that holds
 * bitwise its own S values.  A stiffness matrix is assembled straight into
 * this layout, its graph packed once per mesh (ensemble_assemble); any other
 * matrix is packed once from lanes-last values (ensemble_pack).  The solve
 * only reads it.
 *
 * The lanes are stored, and solved, as independent blocks of at most BLOCK
 * lanes: block g holds lanes [lo, lo + w) with lo = g * BLOCK and w =
 * min(BLOCK, S - lo), as `slots` slots of w values, lane lo + s of slot k at
 * pack[lo * slots + k * w + s].  The blocks follow each other, so an
 * ensemble of up to BLOCK lanes is one (slots, S) array.
 *
 * SpMV.
 *
 * A slot holds the values of W lanes, the packed width: W = w in the
 * block's own storage, and 1 in the solve's own slots, gathered from the
 * block's once the block's solve has only one lane open (see ensemble_pcg).
 * The packed lanes are the block's lanes [first, first + W): all of them,
 * or the open one once narrowed.
 *
 * Each packed width W from 1 to BLOCK has its own compiled copy of the
 * product, which walks the rows once for all W lanes: for each nonzero the
 * column index is loaded once, then W contiguous multiply-adds follow over
 * the entry's packed slot and a lanes-last copy of x into W sums held in
 * registers.  The row is walked in storage order, the lmap slots first, then
 * the run from hrow[i].  Each lane therefore sums its row exactly as scipy's
 * scalar csr_matvec does: from 0.0, over the row's nonzeros in order, one
 * rounded multiply and one rounded add each.  Vectorising across lanes does
 * not reorder any lane's sum, and the build passes -ffp-contract=off so no
 * multiply-add is fused.  Lane first + k of the result is therefore bitwise
 * the scalar product of that lane, whatever W and k are.  A 3-lane block
 * that ran as a 2-lane and a 1-lane walk of its rows took 77.2 us per
 * iteration at 16^3 and 722 at 32^3; its own copy takes 55.3 and 518 (one
 * thread, medians of 9 and 3 alternating in-process rounds on a shared
 * 2-vCPU AVX-512 EPYC guest).
 *
 * x and y are lanes-first (S, n).  For W > 1, the rows of x's packed lanes
 * are first transposed into an (n, W) scratch xt; with one lane the two
 * layouts coincide, and xt is that lane's row of x itself.  The transpose and
 * the product run block by block of TILE rows.  The product gathers a row
 * block's results in a (TILE, W) tile and writes them out lane by lane;
 * storing each row's sums straight into y took 1.35-1.45x as long at 16^3,
 * S=4 to 33.
 */

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TILE 64
#define BLOCK 4 /* the lanes of a block, and the widest packed width */

/* The packed values and the graph that reads them. */
typedef struct {
    const int32_t *row_offsets, *col_indices;
    const int32_t *split; /* split[i]: first entry of row i's run */
    const int32_t *hrow;  /* hrow[i]: slot of the entry split[i] */
    const double *pack;   /* slot k holds W lane values at pack[k * W] */
} packed_csr;

/* xt[i * W + k] = x[k * n + i] for the lanes k < W and the rows i of the
 * block [i0, i0 + rows); x starts at the first packed lane. */
static inline __attribute__((always_inline)) void transpose_body(
    const int64_t W, const int64_t n, const int64_t i0, const int64_t rows,
    const double *restrict x, double *restrict xt)
{
    for (int64_t k = 0; k < W; k++) {
        const double *restrict xk = x + k * n + i0;
        for (int64_t r = 0; r < rows; r++)
            xt[(i0 + r) * W + k] = xk[r];
    }
}

/* The block of rows [i0, i0 + rows) of the product; lmap points at the lmap
 * slot of row i0's first entry before its run.  Returns where lmap stands for
 * the next block. */
static inline __attribute__((always_inline)) const int32_t *spmv_body(
    const int64_t W, const int64_t n, const packed_csr m, const int64_t i0,
    const int64_t rows, const int32_t *restrict lmap, const double *restrict xt,
    double *restrict tile, double *restrict y)
{
    const int32_t *restrict row_offsets = m.row_offsets, *restrict col_indices = m.col_indices;
    const int32_t *restrict split = m.split, *restrict hrow = m.hrow;
    const double *restrict pack = m.pack;
    for (int64_t r = 0; r < rows; r++) {
        const int64_t i = i0 + r;
        /* A copy uses W <= BLOCK of these sums.  With the array sized BLOCK,
         * gcc 12 allocates the loop's registers otherwise, and one-thread S=4
         * solves took 1.08x as long at 24^3 and 1.11x at 16^3 (21 alternating
         * in-process rounds, slower in all). */
        double acc[4 * BLOCK] = {0.0};
        for (int32_t jj = row_offsets[i]; jj < split[i]; jj++) {
            const double *restrict v = pack + (int64_t)*lmap++ * W;
            const double *restrict xc = xt + (int64_t)col_indices[jj] * W;
            for (int64_t k = 0; k < W; k++)
                acc[k] += v[k] * xc[k];
        }
        const double *restrict v = pack + (int64_t)hrow[i] * W;
        for (int32_t jj = split[i]; jj < row_offsets[i + 1]; jj++, v += W) {
            const double *restrict xc = xt + (int64_t)col_indices[jj] * W;
            for (int64_t k = 0; k < W; k++)
                acc[k] += v[k] * xc[k];
        }
        for (int64_t k = 0; k < W; k++)
            tile[r * W + k] = acc[k];
    }
    for (int64_t k = 0; k < W; k++) {
        double *restrict yk = y + k * n + i0;
        for (int64_t r = 0; r < rows; r++)
            yk[r] = tile[r * W + k];
    }
    return lmap;
}

/* One product copy per packed width, and one transpose copy per width above
 * one.  The product copies stay out of line, as the width-4 and width-16
 * copies they replace did, measured then.  Inlined into the loop, their code
 * depended on the rest of it: two builds of the loop that ran identical
 * arithmetic at S=4, differing only in a constant that S=4 never reaches,
 * ran 1.25x apart at 16^3, S=4 (16 alternating in-process rounds); out of
 * line, both matched the build before the lane list within noise.  The loop
 * with its product copies inlined took 1.26x the time of that build at 16^3,
 * S=4 (40 alternating rounds), and 0.96-0.97x with them out of line. */
#define SPMV_COPY(W)                                                            \
    static __attribute__((noinline)) const int32_t *spmv_##W(                   \
        int64_t n, const packed_csr m, int64_t i0, int64_t rows,                \
        const int32_t *lmap, const double *xt, double *tile, double *y)        \
    {                                                                           \
        return spmv_body(W, n, m, i0, rows, lmap, xt, tile, y);                 \
    }
#define TRANSPOSE_COPY(W)                                                       \
    static void transpose_##W(int64_t n, int64_t i0, int64_t rows, const double *x, \
                              double *xt)                                       \
    {                                                                           \
        transpose_body(W, n, i0, rows, x, xt);                                  \
    }

SPMV_COPY(1)
SPMV_COPY(2)
SPMV_COPY(3)
SPMV_COPY(4)
TRANSPOSE_COPY(2)
TRANSPOSE_COPY(3)
TRANSPOSE_COPY(4)

/* The copies by packed width W: spmv_copy[W - 1], transpose_copy[W - 2]. */
static __typeof__(spmv_1) *const spmv_copy[BLOCK] = {spmv_1, spmv_2, spmv_3, spmv_4};
static __typeof__(transpose_2) *const transpose_copy[BLOCK - 1] = {
    transpose_2, transpose_3, transpose_4};

/* PCG.
 *
 * The loop is the numpy Jacobi-PCG it replaced, operation for operation:
 * every update is a separately rounded multiply and add per entry, and every
 * inner product is lane_dot, in an order fixed by the length alone, so no
 * output depends on a BLAS or its thread count.  PCG vectors are lanes-first
 * (S, n), so each lane's dot is over contiguous memory.  A lane takes part in
 * the lane steps of an iteration only while it is open (neither converged nor
 * frozen), and its product is bitwise the same at every packed width.  Each
 * lane therefore computes bitwise what a one-lane solve of its own system
 * computes, whichever companions it has, whichever width its product runs
 * at and whichever thread solves its block (see ensemble_pcg).
 */

/* x'y as DOT_SUMS partial sums, sum k adding the x[i] * y[i] with
 * i = k (mod DOT_SUMS) in index order from 0.0, then a halving tree: sum k
 * adds sum k + h for h = DOT_SUMS / 2, ..., 1.  The sums vectorise; on one
 * core of a 2-vCPU AVX-512 Xeon guest, 32 kept pace with OpenBLAS's ddot at
 * 3,375 and 29,791 entries, where 16 and 8 took up to 8% longer. */
#define DOT_SUMS 32
static double halving_tree(double *sum)
{
    for (int h = DOT_SUMS / 2; h > 0; h /= 2)
        for (int k = 0; k < h; k++)
            sum[k] += sum[k + h];
    return sum[0];
}

static double lane_dot(int64_t n, const double *restrict x, const double *restrict y)
{
    double sum[DOT_SUMS] = {0.0};
    int64_t i = 0;
    for (; i + DOT_SUMS <= n; i += DOT_SUMS)
        for (int k = 0; k < DOT_SUMS; k++)
            sum[k] += x[i + k] * y[i + k];
    for (int k = 0; i + k < n; k++)
        sum[k] += x[i + k] * y[i + k];
    return halving_tree(sum);
}

/* The two fused lane passes of an iteration.  Each does its updates and
 * takes its inner product in one loop, summed in lane_dot's order, so it is
 * bitwise the separate passes it replaces, which read each vector once more.
 * On one thread of a shared 2-vCPU AVX-512 Xeon guest, a 16^3, S=4 solve took
 * 67.4 us per iteration against 70.8 with the passes apart (medians of 21
 * alternating in-process rounds, faster in 20), and a 32^3, S=16 solve 6.64
 * against 6.71 ms (7 rounds, faster in 5).
 *
 * x += alpha p and r -= alpha ap; returns r'r. */
static double update_xr(int64_t n, double alpha, const double *restrict p,
                        const double *restrict ap, double *restrict x, double *restrict r)
{
    double sum[DOT_SUMS] = {0.0};
    int64_t i = 0;
    for (; i + DOT_SUMS <= n; i += DOT_SUMS)
        for (int k = 0; k < DOT_SUMS; k++) {
            x[i + k] += alpha * p[i + k];
            r[i + k] -= alpha * ap[i + k];
            sum[k] += r[i + k] * r[i + k];
        }
    for (int k = 0; i + k < n; k++) {
        x[i + k] += alpha * p[i + k];
        r[i + k] -= alpha * ap[i + k];
        sum[k] += r[i + k] * r[i + k];
    }
    return halving_tree(sum);
}

/* z = r * dinv; returns r'z. */
static double precondition(int64_t n, const double *restrict r, const double *restrict dinv,
                           double *restrict z)
{
    double sum[DOT_SUMS] = {0.0};
    int64_t i = 0;
    for (; i + DOT_SUMS <= n; i += DOT_SUMS)
        for (int k = 0; k < DOT_SUMS; k++) {
            z[i + k] = r[i + k] * dinv[i + k];
            sum[k] += r[i + k] * z[i + k];
        }
    for (int k = 0; i + k < n; k++) {
        z[i + k] = r[i + k] * dinv[i + k];
        sum[k] += r[i + k] * z[i + k];
    }
    return halving_tree(sum);
}

/* Copies `count` entries of lanes-last values, S each from v, into slots
 * [slot, slot + count) of every block, the blocks written cap slots apart. */
static void put_slots(int64_t S, int64_t cap, int64_t slot, int64_t count, const double *v,
                      double *pack)
{
    for (int64_t lo = 0; lo < S; lo += BLOCK) {
        const int64_t w = S - lo < BLOCK ? S - lo : BLOCK;
        for (int64_t e = 0; e < count; e++)
            memcpy(pack + lo * cap + (slot + e) * w, v + e * S + lo, (size_t)w * sizeof(double));
    }
}

/* Packs lanes-last values[jj * S + s] row by row as the header describes,
 * filling split, hrow and lmap.  Rows are packed in order, so the rows i > j
 * that look up a mirror in row j come in increasing i; cursor[j] (n int32 of
 * scratch) walks row j's run once, past the columns below i, and finds the
 * mirror where a sorted run holds it.  The mirror test compares all S lanes.
 * pack holds nnz * S doubles: the blocks are first written nnz slots apart,
 * then moved together.  Returns the number of slots filled. */
int64_t ensemble_pack(int64_t S, int64_t n, const int32_t *restrict row_offsets,
                      const int32_t *restrict col_indices, const double *restrict values,
                      double *restrict pack, int32_t *restrict split, int32_t *restrict hrow,
                      int32_t *restrict lmap, int32_t *restrict cursor)
{
    const size_t bytes = (size_t)S * sizeof(double);
    const int64_t cap = row_offsets[n];
    int32_t slot = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t start = row_offsets[i], end = row_offsets[i + 1];
        int32_t mid = start; /* the row's run starts here */
        for (int32_t jj = start; jj < end; jj++)
            if (col_indices[jj] < i)
                mid = jj + 1;
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
            put_slots(S, cap, slot, 1, v, pack);
            *lmap++ = slot++;
        }
        split[i] = cursor[i] = mid;
        hrow[i] = slot;
        put_slots(S, cap, slot, end - mid, values + (int64_t)mid * S, pack);
        slot += end - mid;
    }
    for (int64_t lo = BLOCK; lo < S; lo += BLOCK)
        memmove(pack + lo * slot, pack + lo * cap,
                (size_t)((S - lo < BLOCK ? S - lo : BLOCK) * slot) * sizeof(double));
    return slot;
}

/* The Jacobi preconditioner: inv_diag[s, i] = 1.0 / d, where d sums lane s's
 * copies of the diagonal entry of row i, read from their slots, in storage
 * order from 0.0, as scipy's diagonal() of lane s does.  Returns 0 if some d
 * is not > 0 (zero, negative, NaN, or no copy stored), 1 otherwise. */
static int jacobi(int64_t S, int64_t n, const packed_csr m, const int32_t *restrict lmap,
                  double *restrict inv_diag)
{
    for (int64_t i = 0; i < n; i++) {
        const int32_t start = m.row_offsets[i], end = m.row_offsets[i + 1], mid = m.split[i];
        for (int64_t s = 0; s < S; s++)
            inv_diag[s * n + i] = 0.0;
        for (int32_t jj = start; jj < end; jj++) {
            if (m.col_indices[jj] != i)
                continue;
            const int64_t slot = jj < mid ? lmap[jj - start] : m.hrow[i] + (jj - mid);
            for (int64_t s = 0; s < S; s++)
                inv_diag[s * n + i] += m.pack[slot * S + s];
        }
        lmap += mid - start;
        for (int64_t s = 0; s < S; s++) {
            const double d = inv_diag[s * n + i];
            if (!(d > 0.0))
                return 0;
            inv_diag[s * n + i] = 1.0 / d;
        }
    }
    return 1;
}

/* The threads that run the blocks of a solve: at most one per block. */
static int64_t workers(int64_t blocks, int64_t threads)
{
    const int64_t size = threads < blocks ? threads : blocks;
    return size > 1 ? size : 1;
}

/* One thread's scratch, in doubles, for blocks of up to W lanes: the SpMV's
 * xt and tile, and the one-lane slots a block narrows to. */
static int64_t thread_scratch(int64_t W, int64_t n, int64_t slots)
{
    return (n + TILE) * W + (W > 1 ? slots : 0);
}

/* The scratch of ensemble_pcg, in doubles: one thread_scratch per thread,
 * then each block's iteration count and lane products, as int64. */
int64_t ensemble_pcg_scratch_size(int64_t S, int64_t n, int64_t slots, int64_t threads)
{
    const int64_t blocks = (S + BLOCK - 1) / BLOCK;
    return workers(blocks, threads) * thread_scratch(S < BLOCK ? S : BLOCK, n, slots) + 2 * blocks;
}

/* Returned by ensemble_pcg when a lane's diagonal is not strictly positive;
 * no iteration count or breakdown code can equal it. */
#define BAD_DIAGONAL INT64_MIN

/* The solve of one block: its S <= BLOCK lanes, their rows of the
 * ensemble's (S, n) vectors and their entries of its lane arrays. */
typedef struct {
    int64_t S, n, slots, maxit, open; /* open lanes at iteration 0 */
    int64_t width, first;             /* packed width; first packed lane */
    int64_t streamed;                 /* sum over the iterations of width */
    int64_t stride;                   /* lanes per history row: the ensemble's */
    double tol;
    packed_csr m;                     /* the slots the product reads */
    const int32_t *lmap;
    const double *matrix;             /* the block's slots, S lanes each */
    double *own;                      /* the one-lane slots once narrowed */
    double *x, *r, *apz, *p, *inv_diag, *xt, *tile;
    double *threshold, *r_norm, *rz, *history;
    int64_t *iterations;
    uint8_t *converged, *frozen;
} solve;

static int is_open(const solve *sv, int64_t s)
{
    return !sv->converged[s] && !sv->frozen[s];
}

/* Narrows the product to one lane once only one is open: its values are
 * copied out of the block's slots, which hold every lane and are never
 * written, into the solve's own.  Called at the top of an iteration. */
static void narrow(solve *sv, int64_t open)
{
    if (sv->width == 1 || open != 1)
        return;
    int64_t s = 0;
    while (!is_open(sv, s))
        s++;
    for (int64_t q = 0; q < sv->slots; q++)
        sv->own[q] = sv->matrix[q * sv->S + s];
    sv->first = s;
    sv->width = 1;
    sv->m.pack = sv->own;
}

/* Steps 1 and 2 of an iteration (see ensemble_pcg): Ap = A p for the packed
 * lanes.  For W > 1 the rows of p are transposed into xt, then the product
 * is formed, both block by block of TILE rows, by the copies of width W.
 * With one lane the two layouts coincide: the product reads p's row of that
 * lane in place, with no copy. */
static void product(solve *sv)
{
    const int64_t W = sv->width, n = sv->n;
    const int32_t *lmap = sv->lmap;
    const double *p = sv->p + sv->first * n, *xt = W == 1 ? p : sv->xt;
    double *ap = sv->apz + sv->first * n;
    for (int64_t i0 = 0; W > 1 && i0 < n; i0 += TILE)
        transpose_copy[W - 2](n, i0, n - i0 < TILE ? n - i0 : TILE, p, sv->xt);
    for (int64_t i0 = 0; i0 < n; i0 += TILE)
        lmap = spmv_copy[W - 1](n, sv->m, i0, n - i0 < TILE ? n - i0 : TILE, lmap, xt, sv->tile,
                                ap);
}

/* The iterations of one block. */
static int64_t iterate(solve *sv)
{
    const int64_t S = sv->S, n = sv->n;
    int64_t it = 0, open = sv->open;
    while (it < sv->maxit && open > 0) {
        narrow(sv, open);
        it++;
        product(sv);
        sv->streamed += sv->width;
        for (int64_t s = 0; s < S; s++) {
            if (!is_open(sv, s))
                continue;
            double *restrict xs = sv->x + s * n, *restrict rs = sv->r + s * n;
            const double *restrict ps = sv->p + s * n, *restrict aps = sv->apz + s * n;
            const double pap = lane_dot(n, ps, aps);
            if (pap <= DBL_MIN)
                sv->frozen[s] = 1;
            const double alpha = sv->frozen[s] ? 0.0 : sv->rz[s] / pap;
            sv->r_norm[s] = sqrt(update_xr(n, alpha, ps, aps, xs, rs));
            if (!sv->frozen[s] && sv->r_norm[s] <= sv->threshold[s]) {
                sv->iterations[s] = it;
                sv->converged[s] = 1;
            }
        }
        if (sv->history)
            memcpy(sv->history + it * sv->stride, sv->r_norm, (size_t)S * sizeof(double));
        open = 0;
        for (int64_t s = 0; s < S; s++) {
            if (sv->frozen[s])
                continue;
            if (!isfinite(sv->r_norm[s]))
                return -it;
            open += !sv->converged[s];
        }
        if (open == 0)
            break;
        for (int64_t s = 0; s < S; s++) {
            if (!is_open(sv, s))
                continue;
            const double *restrict rs = sv->r + s * n, *restrict dinv = sv->inv_diag + s * n;
            double *restrict zs = sv->apz + s * n, *restrict ps = sv->p + s * n;
            const double rz_new = precondition(n, rs, dinv, zs);
            const double beta = sv->rz[s] > 0 ? rz_new / sv->rz[s] : 0.0;
            for (int64_t i = 0; i < n; i++)
                ps[i] = zs[i] + beta * ps[i];
            sv->rz[s] = rz_new;
        }
    }
    return it;
}

/* One block's whole solve: the Jacobi inverse, the norms and p of
 * iteration 0, then the iterations.  Returns as ensemble_pcg does. */
static int64_t solve_block(solve *sv)
{
    const int64_t S = sv->S, n = sv->n;
    if (!jacobi(S, n, sv->m, sv->lmap, sv->inv_diag))
        return BAD_DIAGONAL;
    for (int64_t s = 0; s < S; s++) {
        const double *rs = sv->r + s * n;
        sv->r_norm[s] = sqrt(lane_dot(n, rs, rs));
        sv->threshold[s] = sv->tol * sv->r_norm[s];
        sv->converged[s] = sv->r_norm[s] <= sv->threshold[s]; /* zero right-hand sides */
        sv->open += !sv->converged[s];
    }
    if (sv->history)
        memcpy(sv->history, sv->r_norm, (size_t)S * sizeof(double));
    for (int64_t i = 0; i < S * n; i++) {
        sv->apz[i] = sv->r[i] * sv->inv_diag[i];
        sv->p[i] = sv->apz[i];
    }
    for (int64_t s = 0; s < S; s++)
        sv->rz[s] = lane_dot(n, sv->r + s * n, sv->apz + s * n);
    return iterate(sv);
}

/* The arguments of ensemble_pcg, shared by the threads that run its blocks;
 * next is the next block to take. */
typedef struct {
    int64_t S, n, slots, maxit, blocks, next;
    double tol;
    packed_csr m;
    const int32_t *lmap;
    double *x, *work, *lane, *history;
    int64_t *iterations, *results; /* results: each block's return, then its lane products */
    uint8_t *converged, *frozen;
} ensemble;

typedef struct {
    ensemble *e;
    double *scratch;
    pthread_t thread;
} worker;

/* Solves blocks, taking the next one from the shared counter until none is
 * left, with the worker's own scratch. */
static void *run_blocks(void *arg)
{
    const worker *me = arg;
    ensemble *e = me->e;
    const int64_t S = e->S, n = e->n, W = S < BLOCK ? S : BLOCK;
    for (int64_t g; (g = __atomic_fetch_add(&e->next, 1, __ATOMIC_RELAXED)) < e->blocks;) {
        const int64_t lo = g * BLOCK, w = S - lo < BLOCK ? S - lo : BLOCK;
        solve sv = {
            .S = w, .n = n, .slots = e->slots, .maxit = e->maxit, .width = w, .stride = S,
            .tol = e->tol, .m = e->m, .lmap = e->lmap, .matrix = e->m.pack + lo * e->slots,
            .xt = me->scratch, .tile = me->scratch + n * W, .own = me->scratch + (n + TILE) * W,
            .x = e->x + lo * n, .r = e->work + lo * n, .apz = e->work + (S + lo) * n,
            .p = e->work + (2 * S + lo) * n, .inv_diag = e->work + (3 * S + lo) * n,
            .threshold = e->lane + lo, .r_norm = e->lane + S + lo, .rz = e->lane + 2 * S + lo,
            .history = e->history ? e->history + lo : NULL, .iterations = e->iterations + lo,
            .converged = e->converged + lo, .frozen = e->frozen + lo,
        };
        sv.m.pack = sv.matrix;
        e->results[g] = solve_block(&sv);
        e->results[e->blocks + g] = sv.streamed;
    }
    return NULL;
}

/* Runs until every lane has converged (||r|| <= tol ||b||) or frozen
 * (p'Ap <= DBL_MIN, after which its alpha is zero), or maxit iterations have
 * run.  A lane stops at its own convergence or freezing: from then on it
 * leaves the lane steps, and its solution, residual norm and counts are
 * those of a one-lane solve of its system.
 *
 * The matrix is packed (see the header): `slots` slots per block at pack,
 * read through split, hrow and lmap.  The call only reads it.  On entry x is
 * zero, both (S, n); work holds four (S, n) vectors, r, Ap, p and the
 * inverse diagonal in that order, with r set to the right-hand sides (z
 * shares Ap's storage: it is dead once p is updated, and the next SpMV
 * rewrites Ap).  scratch holds ensemble_pcg_scratch_size(S, n, slots,
 * threads) doubles and lane 3 * S doubles.  iterations, converged and frozen
 * are zeroed S-vectors; on return iterations[s] is the iteration at which
 * lane s converged, or the number run if it did not, and *streamed is the
 * number of lane products formed: the sum over the iterations of each
 * block of its packed width.  history, when not NULL, holds (maxit + 1) * S
 * doubles and receives the lane residual norms of iterations 0, 1, ...; a
 * lane's norm stays at its last value once the lane has stopped.
 *
 * Each block is solved on its own, as if it were the whole ensemble: the
 * Jacobi inverse, the norms and p of iteration 0, then iterations of four
 * steps each, after narrowing the packed width to one lane once only one is
 * open:
 *   1. p's packed lanes are transposed into xt (W > 1; one lane's product
 *      reads its row of p in place);
 *   2. Ap is formed for the packed lanes by the product copy of their
 *      width, through the tile;
 *   3. p'Ap, then the x and r updates with r'r in one pass (update_xr), the
 *      residual norm and the convergence bookkeeping of each open lane, and
 *      the block's history row;
 *   4. z with r'z in one pass (precondition), then beta and p of each lane
 *      still open.
 * The (S, n) vectors stay where they are: only the product's input and its
 * write-back start at the first packed lane.  The blocks run on workers(blocks,
 * threads) threads, the caller included; each takes the next block from a
 * shared counter and solves it with scratch of its own, and no thread waits
 * for another until all are joined.  If a thread cannot be created, the
 * others take its blocks.  Every row sum and every lane's dot is thus
 * computed with the arithmetic, and in the order, of a one-lane solve, so
 * every output is bitwise independent of the thread count and of the
 * lane's companions.
 *
 * The blocks' results are then merged into what one lockstep solve of all
 * S lanes returns: the iterations run are the most any block ran, each
 * block's history columns repeat its last row up to that iteration, and
 * *streamed sums the blocks' lane products.  Returns the number of
 * iterations run, -it if an active (not frozen) lane's residual norm was not
 * finite after iteration it (the least such it over the blocks), or
 * BAD_DIAGONAL if the Jacobi preconditioner of some block does not exist. */
int64_t ensemble_pcg(int64_t S, int64_t n, const int32_t *row_offsets,
                     const int32_t *col_indices, const int32_t *split, const int32_t *hrow,
                     const int32_t *lmap, const double *pack, int64_t slots,
                     double *scratch, double tol, int64_t maxit,
                     int64_t threads, double *restrict x, double *restrict work,
                     double *restrict lane, int64_t *iterations, uint8_t *converged,
                     uint8_t *frozen, double *history, int64_t *streamed)
{
    const int64_t blocks = (S + BLOCK - 1) / BLOCK, size = workers(blocks, threads);
    const int64_t per = thread_scratch(S < BLOCK ? S : BLOCK, n, slots);
    ensemble e = {
        .S = S, .n = n, .slots = slots, .maxit = maxit, .blocks = blocks, .tol = tol,
        .m = {row_offsets, col_indices, split, hrow, pack}, .lmap = lmap,
        .x = x, .work = work, .lane = lane, .history = history, .iterations = iterations,
        .results = (int64_t *)(scratch + size * per), .converged = converged, .frozen = frozen,
    };
    worker first = {.e = &e, .scratch = scratch};
    worker *pool = size > 1 ? malloc((size_t)size * sizeof(worker)) : NULL;
    int64_t created = 1;
    for (; pool && created < size; created++) {
        pool[created] = (worker){.e = &e, .scratch = scratch + created * per};
        if (pthread_create(&pool[created].thread, NULL, run_blocks, &pool[created]) != 0)
            break;
    }
    run_blocks(&first);
    for (int64_t k = 1; k < created; k++)
        pthread_join(pool[k].thread, NULL);
    free(pool);

    int64_t total = 0, broke = 0;
    *streamed = 0;
    for (int64_t g = 0; g < blocks; g++) {
        const int64_t it = e.results[g];
        if (it == BAD_DIAGONAL)
            return BAD_DIAGONAL;
        broke = it < 0 && (broke == 0 || it > broke) ? it : broke;
        total = it > total ? it : total;
        *streamed += e.results[blocks + g];
    }
    if (broke)
        return broke;
    for (int64_t g = 0; history && g < blocks; g++) {
        const int64_t lo = g * BLOCK, w = S - lo < BLOCK ? S - lo : BLOCK;
        for (int64_t row = e.results[g] + 1; row <= total; row++)
            memcpy(history + row * S + lo, history + e.results[g] * S + lo,
                   (size_t)w * sizeof(double));
    }
    for (int64_t s = 0; s < S; s++)
        if (!converged[s])
            iterations[s] = total;
    return total;
}

/* Assembly.
 *
 * The stiffness matrix of lane s on element e is, for the 36 corner pairs p
 * = (a, b) with a <= b (a-major),
 *
 *     K[p] = (0.0 + sum_q a[s, e, q] * dx[q, p]) + kyz[p],
 *
 * where a (S, n_elem, 8) holds the sampled coefficient at the element's 8
 * quadrature points, dx (8, 36) the x-direction element matrices of those
 * points and kyz (36) the constant y and z part.  The q sum runs in order,
 * one rounded multiply and add per term.  Corner a's dof comes before corner
 * b's, so pair p is a diagonal or upper entry of corner a's row: its slot
 * (n_elem, 36) lies in that row's run of the packed storage (see the
 * header), or is -1 where a corner lies on the boundary and the pair is
 * skipped.  Pairs are added into the zeroed values of their slots in element
 * order.  The pairs of one element have distinct slots, so each value
 * receives its terms in element order.  That is the order of an einsum over
 * q followed by one np.bincount per lane (the reference the tests compare
 * with), so each lane is bitwise that assembly of its own coefficient,
 * whatever the width S.  The pairs a > b are not formed: each term is
 * bitwise its mirror's, since dx and kyz are bitwise symmetric element
 * matrices, so every lower entry of the full matrix is bitwise its mirror,
 * whose slot it reads.
 *
 * The values are stored by blocks of up to BLOCK lanes (see the header):
 * block g, lanes [lo, lo + w), holds n_slots slots of w values at
 * values + lo * n_slots.  The blocks are filled one after another, each by
 * one out-of-line call that walks every element: its lanes' element
 * matrices are formed first, vectorised over p, then added pair by pair
 * into each slot's contiguous run of the block's lanes.  Walking the
 * elements outermost and the blocks within took 13.8 ms against 9.4 at
 * 32^3, S=16, 31.3 against 10.9 at 24^3, S=48, 0.91-0.99x the time at 16^3,
 * S=16 and the same at S=4 (medians of 31 alternating in-process rounds on a
 * shared 2-vCPU AVX-512 Xeon guest); the block's loops inlined into the
 * block loop took 11.3 ms, 13.5 ms and 1.1-1.2x the time at S=4. */
#define PAIRS 36

/* The w lanes of one block: a points at its lanes' (w, n_elem, 8) values. */
static __attribute__((noinline)) void assemble_block(
    int64_t w, int64_t n_elem, const double *restrict a, const double *restrict dx,
    const double *restrict kyz, const int32_t *restrict slots, double *restrict block)
{
    for (int64_t e = 0; e < n_elem; e++) {
        const int32_t *restrict slot = slots + e * PAIRS;
        double k[BLOCK][PAIRS];
        for (int64_t c = 0; c < w; c++) {
            const double *restrict aq = a + (c * n_elem + e) * 8;
            for (int p = 0; p < PAIRS; p++) {
                double sum = 0.0;
                for (int q = 0; q < 8; q++)
                    sum += aq[q] * dx[q * PAIRS + p];
                k[c][p] = sum + kyz[p];
            }
        }
        for (int p = 0; p < PAIRS; p++) {
            if (slot[p] < 0)
                continue;
            double *restrict v = block + (int64_t)slot[p] * w;
            for (int64_t c = 0; c < w; c++)
                v[c] += k[c][p];
        }
    }
}

void ensemble_assemble(int64_t S, int64_t n_elem, int64_t n_slots, const double *restrict a,
                       const double *restrict dx, const double *restrict kyz,
                       const int32_t *restrict slots, double *restrict values)
{
    for (int64_t lo = 0; lo < S; lo += BLOCK)
        assemble_block(S - lo < BLOCK ? S - lo : BLOCK, n_elem, a + lo * n_elem * 8, dx, kyz,
                       slots, values + lo * n_slots);
}

/* Sparse-grid hat sums.
 *
 * A grid node has per-dimension levels l and indices i (see hier_grid.py).
 * The grid indexes its nodes by level vector: the nodes of level vector v
 * are entries [offsets[v], offsets[v + 1]) of keys and positions, their
 * index keys sorted, with the grid position of the node of keys[k] at
 * positions[k].  A key packs one compressed index per dimension, in
 * dimension order from bit 0: the index itself in a level-0 dimension
 * (1 bit), (i - 1) / 2 in a dimension of level l >= 1 (l - 1 bits).
 *
 * At a canonical point y, dimension k of level l has these candidates: at
 * level 0 both boundary indices, with hats max(1 - |y + 1| / 2, 0) and
 * max(1 - |y - 1| / 2, 0); at level l >= 1 the odd index 2 * half + 1 with
 * half = min(floor(clip((y + 1) 2^(l-2), 0, 2^(l-1))), 2^(l-1) - 1), whose
 * support holds y when y is in the box, with hat max(1 - |y - c| / h, 0),
 * h = 2^(1-l), c = (2 * half + 1) h - 1.  A level vector's candidate index
 * vectors are the products of its dimensions' candidates, in the order of
 * Python's itertools.product over the dimensions (the last level-0 dimension
 * varies fastest), and a candidate's hat is the product of its dimensions'
 * hats taken in dimension order, ((h_0 h_1) h_2) ...
 *
 * hat_sums forms, for each point and channel, the sum of hat * surplus over
 * the candidates that are grid nodes at positions below n_nodes, of the level
 * vectors listed in `use`, in list order, then candidate order; the sum
 * starts at 0.0 and every product and add is rounded on its own (the build
 * passes -ffp-contract=off).  That is bitwise the numpy term-order sum the
 * tests keep as its reference.  The hats of each (dimension, level) pair the
 * listed level vectors use are tabulated once per call, for every point.
 * The level vectors are the outer loop and the points the inner one, so one
 * level vector's keys stay in cache while every point looks its candidates
 * up in them: with the points outermost the 19 calls of a sg-refine
 * benchmark unit, replayed in one process on a shared 2-vCPU AVX-512 Xeon
 * guest, took 16.8-17.5 ms against 11.1-12.0 ms.  A lookup is a binary search of the sorted keys.  A
 * candidate whose hat is 0 is skipped before its lookup: its term would be a
 * signed zero, which leaves a sum of finite terms bitwise as it is (a sum
 * from 0.0 is never -0.0), and every caller passes finite surpluses.  On
 * that unit two thirds of the candidates are zero hats, and skipping them
 * took the calls from 17.2 to 10.8 ms. */

typedef struct {
    const int64_t *keys, *positions;
    int64_t count;
} level_nodes;

/* The position of the node with this key among a level vector's nodes, or -1.
 * Equal keys (a loaded grid's duplicate node) find the first of them. */
static int64_t find_key(const level_nodes nodes, int64_t key)
{
    const int64_t *keys = nodes.keys;
    int64_t n = nodes.count;
    if (n == 0)
        return -1;
    while (n > 1) {
        const int64_t half = n / 2;
        keys = keys[half - 1] < key ? keys + half : keys;
        n -= half;
    }
    return *keys == key ? nodes.positions[keys - nodes.keys] : -1;
}

/* The nodes of level vector v. */
static level_nodes nodes_of(const int64_t *offsets, const int64_t *keys, const int64_t *positions,
                            int64_t v)
{
    const level_nodes nodes = {keys + offsets[v], positions + offsets[v],
                               offsets[v + 1] - offsets[v]};
    return nodes;
}

/* The hats of dimension k at level l for the p points of y (p, d): at level
 * 0 the hats of indices 0 and 1, in hat[0, p) and hat[p, 2p); at level
 * l >= 1 the candidate's hat in hat[0, p) and its compressed index in
 * half[0, p), which shares hat's storage past p. */
static void tabulate_hats(int64_t p, int64_t d, int64_t k, int64_t l, const double *restrict y,
                          double *restrict hat)
{
    if (l == 0) {
        for (int64_t j = 0; j < p; j++) {
            const double h0 = 1.0 - fabs(y[j * d + k] + 1.0) / 2.0;
            const double h1 = 1.0 - fabs(y[j * d + k] - 1.0) / 2.0;
            hat[j] = h0 > 0.0 ? h0 : 0.0;
            hat[p + j] = h1 > 0.0 ? h1 : 0.0;
        }
        return;
    }
    int64_t *restrict half = (int64_t *)(hat + p);
    const double h = ldexp(1.0, (int)(1 - l)), scale = ldexp(1.0, (int)(l - 2));
    const double top = ldexp(1.0, (int)(l - 1));
    const int64_t last = ((int64_t)1 << (l - 1)) - 1;
    for (int64_t j = 0; j < p; j++) {
        const double yj = y[j * d + k];
        double t = (yj + 1.0) * scale;
        t = floor(t < 0.0 ? 0.0 : t > top ? top : t);
        const int64_t i = (int64_t)t < last ? (int64_t)t : last;
        const double center = (double)(2 * i + 1) * h - 1.0;
        const double v = 1.0 - fabs(yj - center) / h;
        hat[j] = v > 0.0 ? v : 0.0;
        half[j] = i;
    }
}

/* out[c * p + j] = the sum at point j (see above) over the n_use level
 * vectors use[u] (rows of level, (V, d), numbered as in the index) of
 * channel c, whose surplus at position q < n_nodes is surpluses[c * n_nodes
 * + q].  y is (p, d) canonical points.  Returns 0, or -1 if the hat tables
 * could not be allocated. */
int64_t hat_sums(int64_t d, int64_t p, const double *y, int64_t n_use, const int64_t *use,
                 const int64_t *level, const int64_t *offsets, const int64_t *keys,
                 const int64_t *positions, int64_t n_nodes, int64_t channels,
                 const double *surpluses, double *out)
{
    if (p == 0)
        return 0;
    int64_t top = 0;
    for (int64_t u = 0; u < n_use; u++)
        for (int64_t k = 0; k < d; k++)
            top = level[use[u] * d + k] > top ? level[use[u] * d + k] : top;
    double **tables = calloc((size_t)(d * (top + 1)), sizeof(double *));
    if (!tables)
        return -1;
    int64_t failed = 0;
    for (int64_t j = 0; j < channels * p; j++)
        out[j] = 0.0;
    for (int64_t u = 0; u < n_use && !failed; u++) {
        const int64_t *lv = level + use[u] * d;
        const level_nodes nodes = nodes_of(offsets, keys, positions, use[u]);
        const double *hat[d];
        const int64_t *half[d];
        int64_t shift[d], level0 = 0; /* level-0 dimensions */
        for (int64_t k = 0, bits = 0; k < d; k++) {
            double **tab = &tables[k * (top + 1) + lv[k]];
            if (!*tab) {
                *tab = malloc((size_t)(2 * p) * sizeof(double));
                if (!*tab) {
                    failed = 1;
                    break;
                }
                tabulate_hats(p, d, k, lv[k], y, *tab);
            }
            hat[k] = *tab;
            half[k] = lv[k] ? (const int64_t *)(*tab + p) : NULL;
            level0 += lv[k] == 0;
            shift[k] = bits;
            bits += lv[k] ? lv[k] - 1 : 1;
        }
        if (failed || nodes.count == 0)
            continue;
        for (int64_t j = 0; j < p; j++) {
            double f[2 * d]; /* dimension k's hats at the point: f[2k], and f[2k + 1] at level 0 */
            int64_t base = 0; /* the key bits of the dimensions of level >= 1 */
            int vanishes = 0; /* a hat of a dimension of level >= 1 is 0 */
            for (int64_t k = 0; k < d; k++) {
                f[2 * k] = hat[k][j];
                if (lv[k]) {
                    base += half[k][j] << shift[k];
                    vanishes |= f[2 * k] == 0.0;
                } else {
                    f[2 * k + 1] = hat[k][p + j];
                }
            }
            if (vanishes)
                continue;
            for (int64_t cand = 0; cand < (int64_t)1 << level0; cand++) {
                int64_t key = base, bit = level0;
                double prod = 1.0; /* 1.0 * h_0 is h_0 exactly */
                for (int64_t k = 0; k < d; k++) {
                    if (lv[k]) {
                        prod *= f[2 * k];
                    } else {
                        const int64_t b = (cand >> --bit) & 1;
                        prod *= f[2 * k + b];
                        key += b << shift[k];
                    }
                }
                if (prod == 0.0)
                    continue;
                const int64_t pos = find_key(nodes, key);
                if (pos < 0 || pos >= n_nodes)
                    continue;
                for (int64_t c = 0; c < channels; c++)
                    out[c * p + j] += prod * surpluses[c * n_nodes + pos];
            }
        }
    }
    for (int64_t t = 0; t < d * (top + 1); t++)
        free(tables[t]);
    free(tables);
    return failed ? -1 : 0;
}

/* found[r] = the grid position of the node with key wanted[r] among the
 * nodes of level vector ids[r], or -1 if there is none or ids[r] is -1. */
void find_nodes(int64_t m, const int64_t *ids, const int64_t *wanted, const int64_t *offsets,
                const int64_t *keys, const int64_t *positions, int64_t *found)
{
    for (int64_t r = 0; r < m; r++)
        found[r] = ids[r] < 0 ? -1
                              : find_key(nodes_of(offsets, keys, positions, ids[r]), wanted[r]);
}
