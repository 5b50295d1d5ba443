"""Dense positive-definite linear algebra used by every GP computation.

Systems here are small (neighbor sets of at most a few dozen vectors), so
everything is dense, row-major, double precision.  Factorizations retry with
an escalating diagonal jitter because near-duplicate latent vectors can make
a kernel Gram matrix numerically singular.
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
    """Lower-triangular factor L with L @ L.T == A + jitter_used * I."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix contains non-finite entries")
    return a


def cholesky(a) -> CholFactor:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    If the plain factorization fails, the diagonal is inflated by jitters of
    1e-8, 1e-6 and 1e-4 in turn; the jitter that finally succeeded is recorded
    on the returned factor.  Raises NotPositiveDefinite when even the largest
    jitter does not help, and NotSymmetric when the input is skew beyond
    tolerance.
    """
    a = _as_square(a)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if a.size and float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-9")
    eye = np.eye(a.shape[0])
    for jitter in JITTER_LADDER:
        try:
            lower = np.linalg.cholesky(a if jitter == 0.0 else a + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return CholFactor(lower=lower, jitter_used=jitter)
    raise NotPositiveDefinite(
        f"factorization failed even with jitter {JITTER_LADDER[-1]:g}"
    )


def solve_posdef(f: CholFactor, b):
    """Solve (A + jitter*I) x = b given the Cholesky factor of A.

    Accepts a vector or a matrix right-hand side; two triangular solves,
    never an explicit inverse.
    """
    b = np.asarray(b, dtype=float)
    n = f.n
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {n}x{n}"
        )
    y = np.linalg.solve(f.lower, b)
    return np.linalg.solve(f.lower.T, y)

