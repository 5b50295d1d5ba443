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
