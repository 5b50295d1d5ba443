/* The package's native passes, each bit for bit the numpy code it stands in for.
 *
 * Importing dgpcyclegan.native compiles this file and loads it through
 * ctypes; where it does not build, every caller runs its numpy code
 * instead, which stays as the reference.  Each pass applies the same IEEE
 * operations as its numpy twin, to the same operands, in the same order,
 * so the two give the same bits.  That holds only under IEEE semantics:
 * compile without -ffast-math or -Ofast (they reassociate and flush
 * subnormals to zero) and with -ffp-contract=off (no fused multiply-add).
 * -fno-math-errno lets sqrt be the correctly rounded instruction, which is
 * what numpy's sqrt computes.  Vectorising across independent elements or
 * accumulators keeps every rounding, so -O3 may do it.
 */
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

/* One Adam update of n float64 values in a single pass: nets.adam_step.
 * Its numpy loop applies these ten operations to each element in this
 * order, each rounded once:
 *
 *     m = m * b1;  m = m + g;  gg = g * g;  v = v * b2;  v = v + gg;
 *     d = sqrt(v); d = d + eps_hat;  u = m / d;  u = u * step;  p = p - u;
 */
void dgp_adam_update(double *p, const double *g, double *m, double *v, size_t n,
                     double b1, double b2, double eps_hat, double step)
{
    for (size_t i = 0; i < n; i++) {
        double gi = g[i];
        double mi = m[i] * b1 + gi;
        double vi = v[i] * b2 + gi * gi;
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - mi / (sqrt(vi) + eps_hat) * step;
    }
}

/* np.add.reduce of n contiguous values as numpy forms it: its pairwise sum,
 * in order below 8 values; up to 128 values, eight strided accumulators
 * combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then the tail in
 * order; above 128, the two halves split at n/2 rounded down to a multiple
 * of 8.  The reduction adds that sum to its initial value 0.0.  Not inlined:
 * each inlined copy is vectorised again, which made the import-time build
 * about 0.1 s slower and the passes no faster. */
__attribute__((noinline)) static double pairwise_sum(const double *a, size_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (size_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        size_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static double sum(const double *a, size_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* d2 goes before e in argsort(kind="stable") order: NaN after every number. */
static inline int ranks_before(double d2, double e)
{
    return d2 < e || (e != e && d2 == d2);
}

/* gp_supervisor.knn_select: for each of the nq queries q (rows of dim values),
 * the ids of the k bank rows z (n rows of dim values) nearest to it, the
 * first k of argsort(sum((z - q)**2, axis=-1), kind="stable").  Each row's
 * squared distance is formed as numpy forms it; the k smallest are kept by
 * insertion into a ranked list, where a later row goes after every row of
 * equal d2, so ties keep the lower id first.  ids is (nq, k).  Returns -1
 * when out of memory. */
int dgp_knn_select(const double *z, size_t n, size_t dim, const double *q, size_t nq,
                   size_t k, ptrdiff_t *ids)
{
    double *best = malloc((k + dim) * sizeof *best), *sq = best + k;
    if (!best)
        return -1;
    for (size_t b = 0; b < nq; b++, q += dim, ids += k) {
        size_t kept = 0;
        for (size_t j = 0; j < n; j++) {
            for (size_t c = 0; c < dim; c++) {
                double d = z[j * dim + c] - q[c];
                sq[c] = d * d;
            }
            double d2 = sum(sq, dim);
            if (kept == k && !ranks_before(d2, best[k - 1]))
                continue;
            size_t lo = 0, hi = kept;  /* d2 goes at the first kept entry it ranks before */
            while (lo < hi) {
                size_t mid = lo + (hi - lo) / 2;
                if (ranks_before(d2, best[mid]))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            size_t last = kept < k ? kept++ : k - 1;  /* a full list drops its last entry */
            memmove(best + lo + 1, best + lo, (last - lo) * sizeof *best);
            memmove(ids + lo + 1, ids + lo, (last - lo) * sizeof *ids);
            best[lo] = d2;
            ids[lo] = (ptrdiff_t)j;
        }
    }
    free(best);
    return 0;
}

/* kernels.gram's first pass over the symmetric product prod = rows @ rows.T of
 * each of nb stacked (m, dim) row blocks: its upper triangle, diagonal
 * included, row by row into packed (nb, m (m + 1) / 2).  For lin the entries
 * are the products themselves; otherwise squared distances
 * (|r_i|^2 + |r_j|^2) - 2.0 * prod_ij clipped at 0, with a zero diagonal, each
 * squared norm the np.sum numpy forms.  Returns -1 when out of memory. */
int dgp_gram_pack(const double *prod, const double *rows, size_t nb, size_t m, size_t dim,
                  int lin, double *packed)
{
    double *sq = malloc((m + dim) * sizeof *sq), *x2 = sq + m;
    if (!sq)
        return -1;
    for (size_t b = 0; b < nb; b++, prod += m * m, rows += m * dim) {
        if (!lin)
            for (size_t i = 0; i < m; i++) {
                for (size_t c = 0; c < dim; c++)
                    x2[c] = rows[i * dim + c] * rows[i * dim + c];
                sq[i] = sum(x2, dim);
            }
        for (size_t i = 0; i < m; i++) {
            const double *p = prod + i * m;
            if (lin) {
                for (size_t j = i; j < m; j++)
                    *packed++ = p[j];
                continue;
            }
            *packed++ = 0.0;
            for (size_t j = i + 1; j < m; j++) {
                double t = (sq[i] + sq[j]) - 2.0 * p[j];
                *packed++ = t < 0.0 ? 0.0 : t;
            }
        }
    }
    free(sq);
    return 0;
}

/* kernels.gram's second pass: the depth recursion of kernels._recurse over
 * the packed layer-1 values k (nb, m (m + 1) / 2), in place, layer by
 * layer.  Layer l (l = 1 .. nl) takes c = 2 / gamma_l^2, bp2 = beta_{l-1}^2
 * and b2 = beta_l^2 from consts[3 (l - 1) ...] and computes
 *     radicand = 1.0 + c * (bp2 - k);  k = b2 / sqrt(radicand).
 * Then each packed triangle is written to out (nb, m, m) and mirrored into
 * the lower one.  Returns the first layer l whose radicand is <= 0 for some
 * entry, as _recurse checks each layer before the next, or 0. */
int dgp_gram_depth(double *k, size_t nb, size_t m, size_t nl, const double *consts, double *out)
{
    size_t len = nb * (m * (m + 1) / 2);
    for (size_t l = 0; l < nl; l++) {
        double c = consts[3 * l], bp2 = consts[3 * l + 1], b2 = consts[3 * l + 2];
        int bad = 0;
        for (size_t i = 0; i < len; i++) {
            double radicand = 1.0 + c * (bp2 - k[i]);
            bad |= radicand <= 0.0;
            k[i] = b2 / sqrt(radicand);
        }
        if (bad)
            return (int)l + 1;
    }
    for (size_t b = 0; b < nb; b++, out += m * m)
        for (size_t i = 0; i < m; k += m - i, i++) {
            memcpy(out + i * m + i, k, (m - i) * sizeof *k);
            for (size_t j = 0; j < i; j++)
                out[i * m + j] = out[j * m + i];
        }
    return 0;
}

/* --- dense stacks: nets.DenseStack's passes ---------------------------------
 *
 * Each matrix product goes to the same OpenBLAS entry point, with the same
 * arguments, as numpy's matmul would call for the same operands, so it gives
 * numpy's bits; numpy.libs' libscipy_openblas64_ (ILP64 CBLAS) supplies the
 * functions, whose addresses dgp_set_blas receives when the library loads.
 * Everything around the products (the bias add, the leaky map, tap-gradient
 * adds, the backward mask, the bias row sums) is elementwise C that rounds
 * as the numpy expressions do.
 *
 * A stack's parameters are numpy's flat vector: per stage its (fan_in,
 * fan_out) weights, then its fan_out biases.  widths[0 .. stages] are the
 * stage widths.  A block holds a row stack's activations (or gradients) of
 * stages 1 .. stages, stage i's (rows, widths[i]) array right after stage
 * i - 1's. */

typedef long long blasint;  /* the ILP64 interface's integer */
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };
typedef void (*gemm_fn)(int, int, int, blasint, blasint, blasint, double, const double *, blasint,
                        const double *, blasint, double, double *, blasint);
typedef void (*gemv_fn)(int, int, blasint, blasint, double, const double *, blasint, const double *, blasint,
                        double, double *, blasint);
typedef double (*dot_fn)(blasint, const double *, blasint, const double *, blasint);

static gemm_fn blas_gemm;
static gemv_fn blas_gemv;
static dot_fn blas_dot;

void dgp_set_blas(void *gemm, void *gemv, void *dot)
{
    blas_gemm = (gemm_fn)gemm;
    blas_gemv = (gemv_fn)gemv;
    blas_dot = (dot_fn)dot;
}

/* numpy's is_blasable2d, strides in elements: unit inner stride and an outer
 * stride that spans the row. */
static int blasable(ptrdiff_t outer, ptrdiff_t inner, size_t d2)
{
    return inner == 1 && outer >= (ptrdiff_t)d2;
}

/* numpy's gemv: op = ip1 @ ip2 for an (m, n) matrix ip1 and an n-vector ip2. */
static void matvec(const double *a, ptrdiff_t a_m, ptrdiff_t a_n, const double *x, ptrdiff_t x_n,
                   double *y, ptrdiff_t y_m, size_t m, size_t n)
{
    int col = blasable(a_m, a_n, n);
    blas_gemv(col ? COL_MAJOR : ROW_MAJOR, TRANS, (blasint)n, (blasint)m, 1.0, a, col ? a_m : a_n,
              x, x_n, 0.0, y, y_m);
}

/* c = a @ b for (m, n) a, (n, p) b and (m, p) c, each given by its pointer and
 * element strides, as numpy 2's matmul forms one such product:
 *   - M = N = 1: 0.0 plus one ddot;
 *   - M = 1 or N = 1, K at least 2: dgemv, ColMajor Trans when the matrix's
 *     rows are contiguous, RowMajor Trans when its columns are (for M = 1 the
 *     operands swap: c.T = b.T @ a.T);
 *   - every dimension at least 2: dgemm RowMajor, each Trans flag set from
 *     its operand's strides;
 *   - otherwise (K = 1, a zero dimension, an operand BLAS cannot take) its own
 *     loop, c = 0 then c += a * b over k.
 * numpy's dsyrk case needs a and b to be one buffer, which no caller here
 * passes. */
static void matmul(const double *a, ptrdiff_t a_m, ptrdiff_t a_n, const double *b, ptrdiff_t b_n, ptrdiff_t b_p,
                   double *c, ptrdiff_t c_m, ptrdiff_t c_p, size_t m, size_t n, size_t p)
{
    int a_c = blasable(a_m, a_n, n), a_ok = a_c || blasable(a_n, a_m, m);
    int b_c = blasable(b_n, b_p, p), b_ok = b_c || blasable(b_p, b_n, n);
    if (m == 1 && p == 1 && n > 0) {
        *c = 0.0 + blas_dot((blasint)n, a, a_n, b, b_n);
        return;
    }
    if (m == 1 && n > 1 && p > 0 && b_ok && a_n >= 1) {
        matvec(b, b_p, b_n, a, a_n, c, c_p, p, n);
        return;
    }
    if (p == 1 && n > 1 && m > 0 && a_ok && b_n >= 1) {
        matvec(a, a_m, a_n, b, b_n, c, c_m, m, n);
        return;
    }
    if (m > 1 && n > 1 && p > 1 && a_ok && b_ok && blasable(c_m, c_p, p)) {
        blas_gemm(ROW_MAJOR, a_c ? NO_TRANS : TRANS, b_c ? NO_TRANS : TRANS, (blasint)m, (blasint)p, (blasint)n,
                  1.0, a, a_c ? a_m : a_n, b, b_c ? b_n : b_p, 0.0, c, c_m);
        return;
    }
    for (size_t i = 0; i < m; i++)
        for (size_t j = 0; j < p; j++) {
            double acc = 0.0;
            for (size_t k = 0; k < n; k++)
                acc += a[i * a_m + k * a_n] * b[k * b_n + j * b_p];
            c[i * c_m + j * c_p] = acc;
        }
}

/* DenseStack._run: x (rows, widths[0]) through stages 0 .. stages - 1, each
 * stage's post-activation into its place in acts.  Each stage is
 * pre = a @ W + b and then np.where(pre > 0.0, pre, 0.2 * pre), except the
 * network's linear head, the last stage when head is set. */
void dgp_dense_forward(const double *params, const size_t *widths, size_t stages, int head,
                       const double *x, size_t rows, double *acts)
{
    const double *a = x;
    for (size_t i = 0; i < stages; i++) {
        size_t fan_in = widths[i], fan_out = widths[i + 1];
        const double *w = params, *bias = params + fan_in * fan_out;
        params = bias + fan_out;
        matmul(a, (ptrdiff_t)fan_in, 1, w, (ptrdiff_t)fan_out, 1, acts, (ptrdiff_t)fan_out, 1, rows, fan_in, fan_out);
        int linear = head && i == stages - 1;
        for (size_t r = 0; r < rows; r++)
            for (size_t j = 0; j < fan_out; j++) {
                double pre = acts[r * fan_out + j] + bias[j];
                acts[r * fan_out + j] = linear || pre > 0.0 ? pre : 0.2 * pre;
            }
        a = acts;
        acts += rows * fan_out;
    }
}

/* DenseStack._backprop's chain for a stack of `stages` stages whose forward
 * block is acts: from grad_out (rows, widths[stages]) down, each stage's
 * gradient g gets its tap gradient added (g = g + taps[i + 1], where that
 * pointer is not NULL), is masked by its leaky stage's post-activation
 * (dpre = g * np.where(act > 0.0, 1.0, 0.2); the head keeps dpre = g), goes
 * into dpres, and gives the stage below its g = dpre @ W.T.  The input's
 * gradient goes into grad_x unless that is NULL. */
void dgp_dense_backward(const double *params, const size_t *widths, size_t stages, size_t rows,
                        const double *acts, const double *grad_out, const double *const *taps,
                        double *dpres, double *grad_x)
{
    size_t w_off = 0, a_off = 0;  /* stage i's weights in params, its arrays in acts and dpres */
    for (size_t i = 0; i < stages; i++) {
        w_off += widths[i] * widths[i + 1] + widths[i + 1];
        a_off += rows * widths[i + 1];
    }
    memcpy(dpres + a_off - rows * widths[stages], grad_out, rows * widths[stages] * sizeof *grad_out);
    for (size_t i = stages; i-- > 0;) {
        size_t fan_in = widths[i], fan_out = widths[i + 1], len = rows * fan_out;
        w_off -= fan_in * fan_out + fan_out;
        a_off -= len;
        double *d = dpres + a_off;
        const double *t = taps ? taps[i + 1] : NULL;
        if (t)
            for (size_t e = 0; e < len; e++)
                d[e] = d[e] + t[e];
        if (i != stages - 1)
            for (size_t e = 0; e < len; e++)
                d[e] = d[e] * (acts[a_off + e] > 0.0 ? 1.0 : 0.2);
        double *below = i > 0 ? d - rows * fan_in : grad_x;
        if (below)
            matmul(d, (ptrdiff_t)fan_out, 1, params + w_off, 1, (ptrdiff_t)fan_out, below, (ptrdiff_t)fan_in, 1,
                   rows, fan_out, fan_in);
    }
}

/* DenseStack.param_grads_from over n caches, each given as four size_t
 * values in caches[4 c ...]: its rows, and the addresses of its input
 * (rows, widths[0]), its forward block and its dpres block.  Per stage the
 * caches' rows stack in order (np.concatenate); the weight gradient is
 * acts.T @ dpre and the bias gradient np.sum(dpre, axis=0): 0.0 plus each row
 * in turn, or, for a 1-wide stage, 0.0 plus numpy's pairwise sum of the
 * column.  Both go into out in the parameter vector's layout.  Returns -1
 * when out of memory. */
int dgp_dense_grads(const size_t *widths, size_t stages, size_t n, const size_t *caches, double *out)
{
    size_t total = 0, widest = 0;
    for (size_t c = 0; c < n; c++)
        total += caches[4 * c];
    for (size_t i = 0; i <= stages; i++)
        widest = widths[i] > widest ? widths[i] : widest;
    double *stack = NULL;
    if (n > 1 && !(stack = malloc(2 * total * widest * sizeof *stack)))
        return -1;
    size_t a_off = 0;  /* stage i's offset in each cache's blocks, in rows */
    for (size_t i = 0; i < stages; i++) {
        size_t fan_in = widths[i], fan_out = widths[i + 1];
        const double *acts, *dpre;
        if (n == 1) {
            const double *block = (const double *)caches[2], *dblock = (const double *)caches[3];
            acts = i == 0 ? (const double *)caches[1] : block + caches[0] * (a_off - fan_in);
            dpre = dblock + caches[0] * a_off;
        }
        else {
            double *sa = stack, *sd = stack + total * widest;
            acts = sa;
            dpre = sd;
            for (size_t c = 0; c < n; c++) {
                size_t rows = caches[4 * c];
                const double *block = (const double *)caches[4 * c + 2], *dblock = (const double *)caches[4 * c + 3];
                memcpy(sa, i == 0 ? (const double *)caches[4 * c + 1] : block + rows * (a_off - fan_in),
                       rows * fan_in * sizeof *sa);
                memcpy(sd, dblock + rows * a_off, rows * fan_out * sizeof *sd);
                sa += rows * fan_in;
                sd += rows * fan_out;
            }
        }
        double *w = out, *bias = out + fan_in * fan_out;
        out = bias + fan_out;
        matmul(acts, 1, (ptrdiff_t)fan_in, dpre, (ptrdiff_t)fan_out, 1, w, (ptrdiff_t)fan_out, 1, fan_in, total, fan_out);
        if (fan_out == 1)
            bias[0] = sum(dpre, total);
        else {
            for (size_t j = 0; j < fan_out; j++)
                bias[j] = 0.0;
            for (size_t r = 0; r < total; r++)
                for (size_t j = 0; j < fan_out; j++)
                    bias[j] = bias[j] + dpre[r * fan_out + j];
        }
        a_off += fan_out;
    }
    free(stack);
    return 0;
}
