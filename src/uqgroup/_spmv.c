/* Lane-interleaved ensemble SpMV: y[s] = A_s x[s] for all S lanes at once.
 *
 * The S lane matrices share one CSR graph (row_offsets, col_indices); their
 * values are stored lanes-last, values[jj * S + s].  For each nonzero the
 * column index is loaded once, then S contiguous multiply-adds follow over
 * values[jj, 0:S] and a lanes-last copy of x.
 *
 * Each lane sums its row exactly as scipy's scalar csr_matvec does: from 0.0,
 * over the row's nonzeros in order, one rounded multiply and one rounded add
 * each.  Vectorising across lanes does not reorder any lane's sum, and the
 * build passes -ffp-contract=off so no multiply-add is fused.  Lane s of the
 * result is therefore bitwise the scalar product of lane s.
 *
 * x and y are lanes-first (S, n).  For S > 1, x is first transposed into the
 * first n rows of the caller's (n + TILE, S) scratch; results are gathered
 * per block of TILE rows in its last TILE rows and written out lane by lane.
 */

#include <stdint.h>

#define TILE 64
#define STACK_LANES 32

static inline __attribute__((always_inline)) void spmv_body(
    const int64_t S, const int64_t n, const int32_t *restrict row_offsets,
    const int32_t *restrict col_indices, const double *restrict values,
    double *restrict scratch, const double *restrict x, double *restrict y)
{
    double *restrict xt = scratch;
    double *restrict tile = scratch + n * S;
    for (int64_t i0 = 0; i0 < n; i0 += TILE) {
        const int64_t rows = n - i0 < TILE ? n - i0 : TILE;
        for (int64_t s = 0; s < S; s++)
            for (int64_t r = 0; r < rows; r++)
                xt[(i0 + r) * S + s] = x[s * n + i0 + r];
    }
    for (int64_t i0 = 0; i0 < n; i0 += TILE) {
        const int64_t rows = n - i0 < TILE ? n - i0 : TILE;
        for (int64_t r = 0; r < rows; r++) {
            /* Up to STACK_LANES lanes sum in a local array, which the
             * specialised widths keep in registers. */
            double stack_acc[STACK_LANES];
            double *restrict acc = S <= STACK_LANES ? stack_acc : tile + r * S;
            for (int64_t s = 0; s < S; s++)
                acc[s] = 0.0;
            for (int32_t jj = row_offsets[i0 + r]; jj < row_offsets[i0 + r + 1]; jj++) {
                const double *restrict v = values + (int64_t)jj * S;
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
 * own copy; there it is 2.6x (16^3, S=4) and 1.5x (32^3, S=16) faster than
 * the generic body.  Every other width takes the generic body. */
#define SPECIALISED(W)                                                        \
    static void spmv_##W(int64_t n, const int32_t *row_offsets,               \
                         const int32_t *col_indices, const double *values,    \
                         double *scratch, const double *x, double *y)       \
    {                                                                         \
        spmv_body(W, n, row_offsets, col_indices, values, scratch, x, y);     \
    }

/* With one lane the two layouts coincide: scipy's scalar loop, in place. */
static void spmv_1(int64_t n, const int32_t *restrict row_offsets,
                   const int32_t *restrict col_indices, const double *restrict values,
                   const double *restrict x, double *restrict y)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t end = row_offsets[i + 1];
        double sum = 0.0;
        for (int64_t jj = row_offsets[i]; jj < end; jj++)
            sum += values[jj] * x[col_indices[jj]];
        y[i] = sum;
    }
}

SPECIALISED(4)
SPECIALISED(16)

/* scratch must hold (n + ensemble_spmv_tile_rows()) * S doubles. */
void ensemble_spmv(int64_t S, int64_t n, const int32_t *row_offsets,
                   const int32_t *col_indices, const double *values,
                   double *scratch, const double *x, double *y)
{
    switch (S) {
    case 1: spmv_1(n, row_offsets, col_indices, values, x, y); break;
    case 4: spmv_4(n, row_offsets, col_indices, values, scratch, x, y); break;
    case 16: spmv_16(n, row_offsets, col_indices, values, scratch, x, y); break;
    default: spmv_body(S, n, row_offsets, col_indices, values, scratch, x, y);
    }
}

int64_t ensemble_spmv_tile_rows(void) { return TILE; }
