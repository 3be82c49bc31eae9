/* The compiled kernels of the package, one library built from this file.
 *
 * For the ensemble solve: the Jacobi-PCG loop, run in one call on a team of
 * threads, the lane-interleaved SpMV inside it, y[s] = A_s x[s] for the lanes
 * s the loop still needs, the assembly of stiffness matrices straight into
 * the packed storage that SpMV reads, and the pack of any other matrix into
 * it.  For the sparse grid (at the end of the file): the hat sums of a cohort
 * of points, with which hier_grid fits and evaluates its surrogates, and the
 * node lookup of its refinement.  The library exports ensemble_pcg,
 * ensemble_pcg_scratch_size, ensemble_assemble, ensemble_pack, hat_sums and
 * find_nodes; the SpMV is called only by the loop.
 *
 * Packed storage.
 *
 * The S lane matrices share one CSR graph (row_offsets, col_indices).  Their
 * values sit in slots of S lane values each, pack[k * S + s].  Each row's run
 * of entries from just after its last entry below the diagonal to its end
 * (the diagonal and upper entries of a sorted row) has consecutive slots
 * starting at hrow[i]; the entries before the runs read their slots from
 * lmap, one int32 each, in storage order.  An entry (i, j) below the diagonal
 * whose mirror (j, i) sits in row j's run with all S lane values bitwise
 * equal reads the mirror's slot; any other entry has a slot of its own, just
 * before its row's run.  So the slots of row i are those from the end of row
 * i - 1's run to the end of its own, and a bitwise symmetric matrix stores
 * about half its values.  Every entry reads a slot that holds bitwise its own
 * S values.  A stiffness matrix is assembled straight into this layout, its
 * graph packed once per mesh (ensemble_assemble); any other matrix is packed
 * once from lanes-last values (ensemble_pack).  The solve only reads it.
 *
 * SpMV.
 *
 * A slot holds the values of W lanes, the packed width: W = S in the
 * matrix's own storage, and narrower in the solve's own slots, gathered from
 * the matrix's once the loop has narrowed to the lanes it still needs (see
 * ensemble_pcg).  list[k] names the lane packed at position k; only the
 * product's input and its write-back read it.
 *
 * Every width runs the same product, in chunks of C = 16, 8, 4, 2 or 1 lanes,
 * taken from W's binary digits with 16 lanes at a time first
 * (33 = 16 + 16 + 1, 7 = 4 + 2 + 1, 1 = 1).  Each chunk width has its own
 * compiled copy, which walks the rows for lanes [c, c + C): for each nonzero
 * the column index is loaded once, then C contiguous multiply-adds follow
 * over the chunk's part of the entry's packed slot and of a lanes-last copy
 * of x, both read at the stride W, into C sums held in registers.  The row
 * is walked in storage order, the lmap slots first, then the run from
 * hrow[i].  Each lane therefore sums its row exactly as scipy's scalar
 * csr_matvec does: from 0.0, over the row's nonzeros in order, one rounded
 * multiply and one rounded add each.  Vectorising across lanes does not
 * reorder any lane's sum, and the build passes -ffp-contract=off so no
 * multiply-add is fused.  Lane list[k] of the result is therefore bitwise
 * the scalar product of that lane, whatever W, k and its chunk are.
 *
 * x and y are lanes-first (S, n).  For W > 1, the rows of x's lanes in the
 * list are first transposed into an (n, W) scratch xt; with one lane the two
 * layouts coincide, and xt is that lane's row of x itself.  The transpose and
 * the product run block by block of TILE rows, and chunk by chunk within a
 * block, so the block's graph and slots are still in cache when its next
 * chunk reads them: chunks that each walked all the rows took 1.07-1.12x
 * the time per lane-iteration of the single-walk body they replace at 16^3,
 * S=32 and 33, and 0.90-1.04x block by block (alternating in-process rounds
 * on a shared 2-vCPU guest).  A chunk gathers a block's results in a
 * (TILE, C) tile and writes them out lane by lane; storing each row's sums
 * straight into y took 1.35-1.45x as long at 16^3, S=4 to 33.  The PCG's
 * thread team splits both steps over ranges of whole TILE-row blocks: a
 * range starting at row lo reads lmap from the slot of row lo's first entry,
 * which the team finds once before the iterations.  A row's sum is the same
 * whichever range holds the row.
 */

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TILE 64
#define CHUNK 16 /* the widest chunk */

/* The packed values and the graph that reads them. */
typedef struct {
    const int32_t *row_offsets, *col_indices;
    const int32_t *split; /* split[i]: first entry of row i's run */
    const int32_t *hrow;  /* hrow[i]: slot of the entry split[i] */
    const double *pack;   /* slot k holds W lane values at pack[k * W] */
} packed_csr;

/* log2 of the chunk that starts with `left` of the W lanes still to go. */
#define chunk_log2(left) ((left) >= CHUNK ? 4 : 63 - __builtin_clzll((uint64_t)(left)))

/* xt[i * W + c + k] = x[list[c + k] * n + i] for the chunk's lanes k < C and
 * the rows i of the block [i0, i0 + rows). */
static inline __attribute__((always_inline)) void transpose_body(
    const int64_t C, const int64_t W, const int64_t c, const int64_t n, const int64_t i0,
    const int64_t rows, const int32_t *restrict list, const double *restrict x,
    double *restrict xt)
{
    for (int64_t k = 0; k < C; k++) {
        const double *restrict xk = x + list[c + k] * n + i0;
        for (int64_t r = 0; r < rows; r++)
            xt[(i0 + r) * W + c + k] = xk[r];
    }
}

/* Lanes [c, c + C) of the block of rows [i0, i0 + rows) of the product; lmap
 * points at the lmap slot of row i0's first entry before its run.  Returns
 * where lmap stands for the next block. */
static inline __attribute__((always_inline)) const int32_t *spmv_body(
    const int64_t C, const int64_t W, const int64_t c, const int64_t n, const packed_csr m,
    const int64_t i0, const int64_t rows, const int32_t *restrict lmap,
    const int32_t *restrict list, const double *restrict xt, double *restrict tile,
    double *restrict y)
{
    const int32_t *restrict row_offsets = m.row_offsets, *restrict col_indices = m.col_indices;
    const int32_t *restrict split = m.split, *restrict hrow = m.hrow;
    const double *restrict pack = m.pack + c;
    xt += c;
    for (int64_t r = 0; r < rows; r++) {
        const int64_t i = i0 + r;
        double acc[CHUNK] = {0.0};
        for (int32_t jj = row_offsets[i]; jj < split[i]; jj++) {
            const double *restrict v = pack + (int64_t)*lmap++ * W;
            const double *restrict xc = xt + (int64_t)col_indices[jj] * W;
            for (int64_t k = 0; k < C; k++)
                acc[k] += v[k] * xc[k];
        }
        const double *restrict v = pack + (int64_t)hrow[i] * W;
        for (int32_t jj = split[i]; jj < row_offsets[i + 1]; jj++, v += W) {
            const double *restrict xc = xt + (int64_t)col_indices[jj] * W;
            for (int64_t k = 0; k < C; k++)
                acc[k] += v[k] * xc[k];
        }
        for (int64_t k = 0; k < C; k++)
            tile[r * C + k] = acc[k];
    }
    for (int64_t k = 0; k < C; k++) {
        double *restrict yk = y + list[c + k] * n + i0;
        for (int64_t r = 0; r < rows; r++)
            yk[r] = tile[r * C + k];
    }
    return lmap;
}

/* One product copy and one transpose copy per chunk width.  The product
 * copies stay out of line, as the width-4 and width-16 copies they replace
 * did, measured then.  Inlined into the loop, their code depended on the
 * rest of it: two builds of the loop that ran identical arithmetic at
 * S=4, differing only in a constant that S=4 never reaches, ran 1.25x apart
 * at 16^3, S=4 (16 alternating in-process rounds); out of line, both
 * matched the build before the lane list within noise.  The loop with its
 * product copies inlined took 1.26x the time of that build at 16^3, S=4 (40
 * alternating rounds), and 0.96-0.97x with them out of line. */
#define CHUNK_COPIES(C)                                                       \
    static __attribute__((noinline)) const int32_t *chunk_spmv_##C(           \
        int64_t W, int64_t c, int64_t n, const packed_csr m, int64_t i0,      \
        int64_t rows, const int32_t *lmap, const int32_t *list,               \
        const double *xt, double *tile, double *y)                            \
    {                                                                         \
        return spmv_body(C, W, c, n, m, i0, rows, lmap, list, xt, tile, y);   \
    }                                                                         \
    static void chunk_transpose_##C(int64_t W, int64_t c, int64_t n, int64_t i0, \
        int64_t rows, const int32_t *list, const double *x, double *xt)       \
    {                                                                         \
        transpose_body(C, W, c, n, i0, rows, list, x, xt);                    \
    }

CHUNK_COPIES(1)
CHUNK_COPIES(2)
CHUNK_COPIES(4)
CHUNK_COPIES(8)
CHUNK_COPIES(16)

/* The copies by the log2 of their chunk width. */
static __typeof__(chunk_spmv_1) *const chunk_spmv[] = {
    chunk_spmv_1, chunk_spmv_2, chunk_spmv_4, chunk_spmv_8, chunk_spmv_16};
static __typeof__(chunk_transpose_1) *const chunk_transpose[] = {
    chunk_transpose_1, chunk_transpose_2, chunk_transpose_4, chunk_transpose_8, chunk_transpose_16};

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
 * at and whichever member of the solve's thread team does its steps (see
 * ensemble_pcg).
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

/* Packs lanes-last values[jj * S + s] row by row as the header describes,
 * filling split, hrow and lmap.  Rows are packed in order, so the rows i > j
 * that look up a mirror in row j come in increasing i; cursor[j] (n int32 of
 * scratch) walks row j's run once, past the columns below i, and finds the
 * mirror where a sorted run holds it.  Returns the number of slots filled. */
int64_t ensemble_pack(int64_t S, int64_t n, const int32_t *restrict row_offsets,
                      const int32_t *restrict col_indices, const double *restrict values,
                      double *restrict pack, int32_t *restrict split, int32_t *restrict hrow,
                      int32_t *restrict lmap, int32_t *restrict cursor)
{
    const size_t bytes = (size_t)S * sizeof(double);
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
            memcpy(pack + (int64_t)slot * S, v, bytes);
            *lmap++ = slot++;
        }
        split[i] = cursor[i] = mid;
        hrow[i] = slot;
        memcpy(pack + (int64_t)slot * S, values + (int64_t)mid * S, (size_t)(end - mid) * bytes);
        slot += end - mid;
    }
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

/* The members a team of up to `members` forms on n rows: one per TILE-row
 * block at most. */
static int64_t team_size(int64_t n, int64_t members)
{
    const int64_t blocks = (n + TILE - 1) / TILE;
    if (members > blocks)
        members = blocks;
    return members > 1 ? members : 1;
}

/* The narrowing ladder, widest rung first: the packed widths a solve narrows
 * down to (see ensemble_pcg).  A rung is one entry here; every width already
 * has its compiled chunks. */
#define LADDER(X) X(16) X(4) X(1)
#define RUNG(w) w,
static const int64_t ladder[] = {LADDER(RUNG)};
#define RUNGS (int64_t)(sizeof ladder / sizeof ladder[0])

/* The widest rung below S: the most lanes a solve of S lanes narrows to, 0 if
 * it never narrows. */
static int64_t first_narrow_width(int64_t S)
{
    for (int64_t k = 0; k < RUNGS; k++)
        if (ladder[k] < S)
            return ladder[k];
    return 0;
}

/* The scratch of ensemble_pcg, in doubles: the SpMV's xt, one tile per
 * member, the solve's own copy of the slots at the first narrowed width, then
 * the int32 lane list and each member's share of the lanes. */
int64_t ensemble_pcg_scratch_size(int64_t S, int64_t n, int64_t slots, int64_t members)
{
    members = team_size(n, members);
    return (n + members * TILE) * S + slots * first_narrow_width(S) + ((members + 1) * S + 1) / 2;
}

/* Returned by ensemble_pcg when a lane's diagonal is not strictly positive;
 * no iteration count or breakdown code can equal it. */
#define BAD_DIAGONAL INT64_MIN

/* The state of one solve, shared by its team. */
typedef struct {
    int64_t S, n, maxit, open, size; /* open lanes at iteration 0; members */
    int64_t width;                   /* packed width */
    int64_t streamed;                /* sum over the iterations of width */
    packed_csr m;                    /* the slots the product reads */
    const double *matrix;            /* the matrix's slots, S lanes each */
    double *own;                     /* the solve's slots once narrowed */
    int32_t *list;                   /* list[k]: the lane packed at k < width */
    double *x, *r, *apz, *p, *inv_diag, *xt;
    const double *threshold;
    double *r_norm, *rz, *history;
    int64_t *iterations;
    uint8_t *converged, *frozen;
    pthread_barrier_t barrier;
    pthread_mutex_t lock;
    pthread_cond_t go; /* signalled once the team is partitioned */
    int ready;
} solve;

/* One member's share: rows [row_lo, row_hi) of every product, and the lane
 * steps of the count open lanes in lanes. */
typedef struct {
    solve *sv;
    int64_t id, row_lo, row_hi, count;
    int64_t slot_lo, slot_hi; /* the slots of rows [row_lo, row_hi) */
    int32_t *lanes;
    const int32_t *lmap; /* lmap slot of row_lo's first entry */
    double *tile;
    pthread_t thread;
} member;

static void sync_team(solve *sv)
{
    if (sv->size > 1)
        pthread_barrier_wait(&sv->barrier);
}

static int is_open(const solve *sv, int64_t s)
{
    return !sv->converged[s] && !sv->frozen[s];
}

/* The first slot of row i: where the run of row i - 1 ends. */
static int64_t row_slot(const packed_csr m, int64_t i)
{
    return i == 0 ? 0 : m.hrow[i - 1] + (m.row_offsets[i] - m.split[i - 1]);
}

/* Cuts the rows into sv->size blocks at multiples of TILE, block k ending at
 * the first cut with at least (k + 1) / size of the nonzeros above it; finds
 * where each row block starts in lmap (past the entries before the runs of
 * the rows above it) and which slots its rows own. */
static void partition(solve *sv, member *team, const int32_t *lmap, double *tiles,
                      int32_t *shares)
{
    const int64_t n = sv->n, S = sv->S, size = sv->size;
    const int32_t *row_offsets = sv->m.row_offsets, *split = sv->m.split;
    const int64_t nnz = row_offsets[n];
    int64_t row = 0, lower = 0;
    for (int64_t k = 0; k < size; k++) {
        member *me = &team[k];
        const int64_t target = nnz * (k + 1) / size;
        me->row_lo = row;
        me->lmap = lmap + lower;
        while (row < n && (k == size - 1 || row_offsets[row] < target)) {
            const int64_t end = row + TILE < n ? row + TILE : n;
            for (; row < end; row++)
                lower += split[row] - row_offsets[row];
        }
        me->row_hi = row;
        me->slot_lo = row_slot(sv->m, me->row_lo);
        me->slot_hi = row_slot(sv->m, row);
        me->tile = tiles + k * TILE * S;
        me->lanes = shares + k * S;
    }
}

/* Gives the member the open lanes of ranks [id * open / size,
 * (id + 1) * open / size) in lane order.  Called where no member changes a
 * lane's flags: before the iterations and after step 3's barrier. */
static void share_lanes(member *me, int64_t open)
{
    const solve *sv = me->sv;
    const int64_t lo = me->id * open / sv->size, hi = (me->id + 1) * open / sv->size;
    int64_t rank = 0;
    me->count = 0;
    for (int64_t s = 0; s < sv->S && rank < hi; s++)
        if (is_open(sv, s) && rank++ >= lo)
            me->lanes[me->count++] = (int32_t)s;
}

/* Slots [lo, hi) of the matrix's S lane values, gathered to `to` lanes: lane
 * keep[k] of slot q goes to own[q * to + k].  `to` is a compile-time rung: a
 * repack with a run-time width (one memcpy per slot) took 1.3 ms against
 * 0.06 ms for the 41,441 slots of a 16^3, S=4 solve. */
static inline __attribute__((always_inline)) void move_slots(
    const int64_t to, const int64_t S, const int64_t lo, const int64_t hi,
    const int32_t *restrict keep, const double *restrict matrix, double *restrict own)
{
    for (int64_t q = lo; q < hi; q++)
        for (int64_t k = 0; k < to; k++)
            own[q * to + k] = matrix[q * S + keep[k]];
}

/* Narrows the product to the narrowest rung that holds the open lanes, if it
 * is below the packed width W.  It keeps the open lanes in list order, then
 * finished lanes as padding, whose products nobody reads.  Each member
 * gathers the kept lanes of its rows' slots out of the matrix's slots, which
 * hold every lane and are never written, into the solve's own; member 0 then
 * commits the new list and width between the two barriers, where no member
 * reads them.  Called by every member at the top of an iteration, once the
 * flags are settled and the last product is done. */
static void narrow(member *me, int64_t open)
{
    solve *sv = me->sv;
    const int64_t W = sv->width;
    int64_t to = W;
    for (int64_t k = 0; k < RUNGS && ladder[k] >= open; k++)
        to = ladder[k] < W ? ladder[k] : W;
    if (to == W)
        return;
    int32_t keep[to];
    int64_t k = 0;
    for (int64_t j = 0; j < W && k < to; j++)
        if (is_open(sv, sv->list[j]))
            keep[k++] = sv->list[j];
    for (int64_t j = 0; j < W && k < to; j++)
        if (!is_open(sv, sv->list[j]))
            keep[k++] = sv->list[j];
#define GATHER(w) \
    case w: move_slots(w, sv->S, me->slot_lo, me->slot_hi, keep, sv->matrix, sv->own); break;
    switch (to) { LADDER(GATHER) }
    sync_team(sv);
    if (me->id == 0) {
        memcpy(sv->list, keep, (size_t)to * sizeof(int32_t));
        sv->width = to;
        sv->m.pack = sv->own;
    }
    sync_team(sv);
}

/* Steps 1 and 2 of an iteration (see ensemble_pcg): the member's rows of
 * Ap = A p for the packed lanes.  For W > 1 the member transposes its rows
 * of p into xt and, once the barrier has all of p there, forms its rows of
 * the product, both chunk by chunk within each block of TILE rows.  With one
 * lane the two layouts coincide: the 1-lane chunk reads p's row of that lane
 * in place, with no copy and no barrier. */
static void product(member *me)
{
    solve *sv = me->sv;
    const int64_t W = sv->width, n = sv->n, lo = me->row_lo, hi = me->row_hi;
    const int32_t *list = sv->list, *lmap = me->lmap;
    const double *xt = W == 1 ? sv->p + list[0] * n : sv->xt;
    if (W > 1) {
        for (int64_t i0 = lo; i0 < hi; i0 += TILE) {
            const int64_t rows = hi - i0 < TILE ? hi - i0 : TILE;
            for (int64_t c = 0; c < W; c += (int64_t)1 << chunk_log2(W - c))
                chunk_transpose[chunk_log2(W - c)](W, c, n, i0, rows, list, sv->p, sv->xt);
        }
        sync_team(sv);
    }
    for (int64_t i0 = lo; i0 < hi; i0 += TILE) {
        const int64_t rows = hi - i0 < TILE ? hi - i0 : TILE;
        const int32_t *next = lmap;
        for (int64_t c = 0; c < W; c += (int64_t)1 << chunk_log2(W - c))
            next = chunk_spmv[chunk_log2(W - c)](W, c, n, sv->m, i0, rows, lmap, list, xt,
                                                 me->tile, sv->apz);
        lmap = next;
    }
}

/* The iterations, as run by one member; every member returns the same. */
static int64_t iterate(member *me)
{
    solve *sv = me->sv;
    const int64_t S = sv->S, n = sv->n;
    int64_t it = 0, open = sv->open;
    share_lanes(me, open);
    while (it < sv->maxit && open > 0) {
        narrow(me, open);
        it++;
        const int64_t W = sv->width;
        product(me);
        sync_team(sv);
        for (int64_t k = 0; k < me->count; k++) {
            const int64_t s = me->lanes[k];
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
        sync_team(sv);
        if (me->id == 0) {
            sv->streamed += W;
            if (sv->history)
                memcpy(sv->history + it * S, sv->r_norm, (size_t)S * sizeof(double));
        }
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
        share_lanes(me, open);
        for (int64_t k = 0; k < me->count; k++) {
            const int64_t s = me->lanes[k];
            const double *restrict rs = sv->r + s * n, *restrict dinv = sv->inv_diag + s * n;
            double *restrict zs = sv->apz + s * n, *restrict ps = sv->p + s * n;
            const double rz_new = precondition(n, rs, dinv, zs);
            const double beta = sv->rz[s] > 0 ? rz_new / sv->rz[s] : 0.0;
            for (int64_t i = 0; i < n; i++)
                ps[i] = zs[i] + beta * ps[i];
            sv->rz[s] = rz_new;
        }
        sync_team(sv);
    }
    return it;
}

/* A created member waits at the gate until the team is cut, and leaves if
 * it was cut out. */
static void *member_main(void *arg)
{
    member *me = arg;
    solve *sv = me->sv;
    pthread_mutex_lock(&sv->lock);
    while (!sv->ready)
        pthread_cond_wait(&sv->go, &sv->lock);
    pthread_mutex_unlock(&sv->lock);
    if (me->id < sv->size)
        iterate(me);
    return NULL;
}

/* Runs the iterations on a team of up to `members`, the caller being member
 * 0.  The team is cut for the threads that were created, and the barrier
 * sized for them, before any member starts. */
static int64_t run_team(solve *sv, int64_t members, const int32_t *lmap, double *tiles,
                        int32_t *shares)
{
    member single, *team = members > 1 ? malloc((size_t)members * sizeof(member)) : NULL;
    int64_t created = 1;
    if (team) {
        pthread_mutex_init(&sv->lock, NULL);
        pthread_cond_init(&sv->go, NULL);
        sv->ready = 0;
        for (; created < members; created++) {
            team[created].sv = sv;
            team[created].id = created;
            if (pthread_create(&team[created].thread, NULL, member_main, &team[created]) != 0)
                break;
        }
    } else {
        team = &single;
    }
    sv->size = created;
    if (created > 1 && pthread_barrier_init(&sv->barrier, NULL, (unsigned)created) != 0)
        sv->size = 1;
    team[0].sv = sv;
    team[0].id = 0;
    partition(sv, team, lmap, tiles, shares);
    if (team != &single) {
        pthread_mutex_lock(&sv->lock);
        sv->ready = 1;
        pthread_cond_broadcast(&sv->go);
        pthread_mutex_unlock(&sv->lock);
    }
    const int64_t it = iterate(&team[0]);
    if (team != &single) {
        for (int64_t k = 1; k < created; k++)
            pthread_join(team[k].thread, NULL);
        if (sv->size > 1)
            pthread_barrier_destroy(&sv->barrier);
        pthread_cond_destroy(&sv->go);
        pthread_mutex_destroy(&sv->lock);
        free(team);
    }
    return it;
}

/* Runs until every lane has converged (||r|| <= tol ||b||) or frozen
 * (p'Ap <= DBL_MIN, after which its alpha is zero), or maxit iterations have
 * run.  A lane stops at its own convergence or freezing: from then on it
 * leaves the lane steps, and its solution, residual norm and counts are
 * those of a one-lane solve of its system.
 *
 * The matrix is packed (see the header): `slots` slots of S lane values at
 * pack, read through split, hrow and lmap.  The call only reads it.  On
 * entry x is zero, both (S, n); work holds four (S, n) vectors, r, Ap, p
 * and the inverse diagonal in that order, with r set to the right-hand sides
 * (z shares Ap's storage: it is dead once p is updated, and the next SpMV
 * rewrites Ap).  scratch holds ensemble_pcg_scratch_size(S, n, slots,
 * members) doubles and lane 3 * S doubles of work.  iterations, converged
 * and frozen are zeroed S-vectors; on return iterations[s] is the iteration
 * at which lane s converged, or the number run if it did not, and *streamed
 * is the number of lane products formed: the sum over the iterations of the
 * packed width.  history, when not NULL, holds (maxit + 1) * S doubles and receives
 * the lane residual norms of iterations 0, 1, ...; a lane's norm stays at
 * its last value once the lane has stopped.
 *
 * The Jacobi inverse and the norms and p of iteration 0 are formed by the
 * caller alone.  The iterations then run on a team of
 * team_size(n, members) threads, the caller being member 0 (fewer if a
 * thread cannot be created: the team is cut only after its threads exist).
 * Each member owns a block of whole TILE-row blocks, cut to hold about the
 * same number of nonzeros, and a share of about open / size of the open
 * lanes.  An iteration is four steps, each ended by a barrier, after the
 * team has narrowed the packed width if the open lanes fit a narrower one:
 *   1. each member transposes its rows of p's packed lanes into xt (W > 1;
 *      one lane's product reads its row of p in place);
 *   2. each member forms its rows of Ap for the packed lanes, chunk by
 *      chunk, in its own tile;
 *   3. each member does p'Ap, then the x and r updates with r'r in one pass
 *      (update_xr), the residual norm and the convergence bookkeeping of its
 *      open lanes; after the barrier every member reads every lane's flags
 *      and norm, so all of them count the open lanes, leave on breakdown and
 *      take their new share alike, and member 0 writes the history row;
 *   4. each member forms z with r'z in one pass (precondition), then beta and
 *      p of its open lanes.
 * The packed width starts at S and narrows down the ladder of widths
 * (LADDER) before an iteration, to the narrowest rung that holds the open
 * lanes.  Every narrowing is the same gather: each member copies the kept
 * lanes of its rows' slots out of the matrix's slots, which hold every lane,
 * into the solve's own; after one more barrier member 0 rewrites the list
 * and the width, and every member reads the new ones after a second.  The
 * (S, n) vectors stay where they are: only the product's input and its
 * write-back go through the list.
 *
 * Every row sum and every lane's dot is thus computed by exactly one member
 * with the arithmetic, and in the order, of a one-lane, one-member solve, so
 * every output but *streamed is bitwise independent of the team size and of
 * the lane's companions.  The barriers block instead of spinning: on a
 * shared two-CPU host a spinning barrier was erratic, taking a 16^3, S=16
 * solve from 0.016 to 0.028 s in one round and from 0.015 to 0.007 s in the
 * next.
 *
 * Returns the number of iterations run, -it if an active (not frozen) lane's
 * residual norm was not finite after iteration it, or BAD_DIAGONAL, before
 * any iteration, if the Jacobi preconditioner does not exist. */
int64_t ensemble_pcg(int64_t S, int64_t n, const int32_t *row_offsets,
                     const int32_t *col_indices, const int32_t *split, const int32_t *hrow,
                     const int32_t *lmap, const double *pack, int64_t slots,
                     double *scratch, double tol, int64_t maxit,
                     int64_t members, double *restrict x, double *restrict work,
                     double *restrict lane, int64_t *iterations, uint8_t *converged,
                     uint8_t *frozen, double *history, int64_t *streamed)
{
    members = team_size(n, members);
    double *restrict r = work, *restrict apz = work + S * n; /* Ap, then z */
    double *restrict p = work + 2 * S * n, *restrict inv_diag = work + 3 * S * n;
    double *threshold = lane, *r_norm = lane + S, *rz = lane + 2 * S;
    double *xt = scratch, *tiles = xt + n * S, *own = tiles + members * TILE * S;
    int32_t *list = (int32_t *)(own + slots * first_narrow_width(S)), *shares = list + S;
    const packed_csr m = {row_offsets, col_indices, split, hrow, pack};
    if (!jacobi(S, n, m, lmap, inv_diag))
        return BAD_DIAGONAL;
    int64_t open = 0; /* lanes neither converged nor frozen */
    for (int64_t s = 0; s < S; s++) {
        const double *rs = r + s * n;
        r_norm[s] = sqrt(lane_dot(n, rs, rs));
        threshold[s] = tol * r_norm[s];
        converged[s] = r_norm[s] <= threshold[s]; /* zero right-hand sides */
        open += !converged[s];
        list[s] = (int32_t)s;
    }
    if (history)
        for (int64_t s = 0; s < S; s++)
            history[s] = r_norm[s];
    for (int64_t i = 0; i < S * n; i++) {
        apz[i] = r[i] * inv_diag[i];
        p[i] = apz[i];
    }
    for (int64_t s = 0; s < S; s++)
        rz[s] = lane_dot(n, r + s * n, apz + s * n);

    solve sv = {
        .S = S, .n = n, .maxit = maxit, .open = open, .width = S,
        .m = m, .matrix = pack, .own = own, .list = list,
        .x = x, .r = r, .apz = apz, .p = p, .inv_diag = inv_diag, .xt = xt,
        .threshold = threshold, .r_norm = r_norm, .rz = rz, .history = history,
        .iterations = iterations, .converged = converged, .frozen = frozen,
    };
    const int64_t it = run_team(&sv, members, lmap, tiles, shares);
    *streamed = sv.streamed;
    if (it < 0)
        return it;
    for (int64_t s = 0; s < S; s++)
        if (!converged[s])
            iterations[s] = it;
    return it;
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
 * skipped.  Pairs are added into the zeroed values[slot * S + s] in element
 * order.  The pairs of one element have distinct slots, so each value
 * receives its terms in element order.  That is the order of an einsum over
 * q followed by one np.bincount per lane (the reference the tests compare
 * with), so each lane is bitwise that assembly of its own coefficient,
 * whatever the width S.  The pairs a > b are not formed: each term is
 * bitwise its mirror's, since dx and kyz are bitwise symmetric element
 * matrices, so every lower entry of the full matrix is bitwise its mirror,
 * whose slot it reads.
 *
 * Up to ASSEMBLE_LANES lanes of an element are formed first, vectorised
 * over p, then added pair by pair into each slot's contiguous run of lanes;
 * 8 lanes at a time ran about 10% faster than 32 at S = 4 (16^3) and
 * S = 16 (32^3). */
#define ASSEMBLE_LANES 8
#define PAIRS 36

void ensemble_assemble(int64_t S, int64_t n_elem, const double *restrict a,
                       const double *restrict dx, const double *restrict kyz,
                       const int32_t *restrict slots, double *restrict values)
{
    for (int64_t e = 0; e < n_elem; e++) {
        const int32_t *restrict slot = slots + e * PAIRS;
        for (int64_t s0 = 0; s0 < S; s0 += ASSEMBLE_LANES) {
            const int64_t lanes = S - s0 < ASSEMBLE_LANES ? S - s0 : ASSEMBLE_LANES;
            double k[ASSEMBLE_LANES][PAIRS];
            for (int64_t c = 0; c < lanes; c++) {
                const double *restrict aq = a + ((s0 + c) * n_elem + e) * 8;
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
                double *restrict v = values + (int64_t)slot[p] * S + s0;
                for (int64_t c = 0; c < lanes; c++)
                    v[c] += k[c][p];
            }
        }
    }
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
