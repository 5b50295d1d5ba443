/* One Adam update of n float64 values in a single pass.
 *
 * nets.adam_step calls this through ctypes when it has compiled and loaded
 * it, and otherwise runs ten numpy passes block by block.  Both apply the
 * same ten operations to each element in the same order, each rounded once:
 *
 *     m = m * b1;  m = m + g;  gg = g * g;  v = v * b2;  v = v + gg;
 *     d = sqrt(v); d = d + eps_hat;  u = m / d;  u = u * step;  p = p - u;
 *
 * so the two paths give the same bits.  That holds only under IEEE
 * semantics: compile without -ffast-math or -Ofast (they reassociate and
 * flush subnormals to zero) and with -ffp-contract=off (no fused
 * multiply-add).  -fno-math-errno lets sqrt be the correctly rounded
 * instruction, which is what numpy's sqrt computes.
 */
#include <math.h>
#include <stddef.h>

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
