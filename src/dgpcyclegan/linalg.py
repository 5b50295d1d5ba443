"""Dense positive-definite linear algebra used by every GP computation.

Systems here are small (neighbor sets of at most a few dozen vectors), so
everything is dense, row-major, double precision.  Factorizations retry with
an escalating diagonal jitter because near-duplicate latent vectors can make
a kernel Gram matrix numerically singular.

The Cholesky factorization is the positive-definiteness test and picks the
jitter; the factor keeps the jittered matrix it factored, and solves go
through one LAPACK solve of that matrix for all right-hand sides.  numpy has
no triangular solve, so the two-triangle route would LU-factor each triangle
again.

Every function takes row stacks: (B, n, n) matrices are B systems, factored
and solved in one call, and a (B, n) operand holds one vector per system; no
leading axis is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Jitter ladder tried after a clean factorization fails.
JITTER_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular factor L with L @ L.T == matrix == A + jitter_used * I, per stacked item.

    Without jitter, matrix is the array that was factored itself, not a copy.
    """

    lower: np.ndarray
    jitter_used: float
    matrix: np.ndarray


def cholesky(a) -> CholFactor:
    """Lower Cholesky factors of a (stack of) symmetric positive-definite matrices.

    If the plain factorization fails, the diagonal is inflated by jitters of
    1e-8, 1e-6 and 1e-4 in turn; the jitter that finally succeeded is recorded
    on the returned factor.  The ladder steps for the whole stack (one failing
    item refactors every item), so jitter_used stays one JITTER_LADDER float.
    Raises NotPositiveDefinite when even the largest jitter does not help, and
    NotSymmetric when an item is skew beyond tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"expected a (stack of) square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix contains non-finite entries")
    if a.size:
        scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
        skew = np.max(np.abs(a - a.swapaxes(-2, -1)), axis=(-2, -1))
        if np.any(skew > SYMMETRY_TOL * scale):
            raise NotSymmetric("matrix is not symmetric within 1e-9")
    eye = np.eye(a.shape[-1])
    for jitter in JITTER_LADDER:
        matrix = a if jitter == 0.0 else a + jitter * eye
        try:
            lower = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            continue
        return CholFactor(lower=lower, jitter_used=jitter, matrix=matrix)
    raise NotPositiveDefinite(
        f"factorization failed even with jitter {JITTER_LADDER[-1]:g}"
    )


def solve_posdef(f: CholFactor, b):
    """Solve (A + jitter*I) x = b given the Cholesky factor of A.

    b holds one vector (one axis fewer than the factor) or one matrix per
    stacked factor; a vector gets an explicit trailing axis, so numpy 1.x and
    2.x read a stack of vectors alike.  One solve of the factored matrix for
    every right-hand side, no inverse.
    """
    b = np.asarray(b, dtype=float)
    vector = b.ndim == f.lower.ndim - 1
    if vector:
        b = b[..., None]
    if b.shape[:-1] != f.lower.shape[:-1]:
        raise DimensionMismatch(
            f"rhs rows {b.shape[:-1]} do not match factor rows {f.lower.shape[:-1]}"
        )
    x = np.linalg.solve(f.matrix, b)
    return x[..., 0] if vector else x


# Products of row stacks that keep the stack axes: vector . vector gives (...),
# vector @ matrix and matrix @ vector give (..., m).  Each row is one BLAS
# call, the same one a 1-D operand gets.
def row_dot(x, y):
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def vecmat(x, a):
    return (x[..., None, :] @ a)[..., 0, :]


def matvec(a, x):
    return (a @ x[..., :, None])[..., 0]

