"""Feature banks and GP pseudo-label supervision.

Each training epoch snapshots one bank per domain: the paired latent taps
(s, z) of every image under the epoch-start generator weights.  For a query
image the supervisor retrieves the nearest bank entries in z-space, then
conditions a GP over their paired s-vectors to predict a pseudo-label for
the query's z-tap together with a scalar posterior variance:

    z_pseudo = k(q, S) [K(S, S) + noise * I]^-1 Z
    var      = k(q, q) - k(q, S) [K(S, S) + noise * I]^-1 k(S, q) + noise

The pseudo loss is the Gaussian negative log-likelihood with that variance
broadcast over the z dimensions, so unreliable pseudo-labels are down-
weighted by 1/var:

    loss = ||z_pred - z_pseudo||^2 / var + dim(z) * log(var)

Queries are row stacks, the (B, dim) taps the generators return: one call
handles all B queries.  It evaluates one joint Gram stack over the rows
[S; q], shape (B, k+1, k+1) with the noise on the whole diagonal, and reads
K + noise * I, k(S, q) and k(q, q) + noise off its blocks; then one Cholesky
call and one solve for all right-hand sides.  A 1-D query is a stack of one,
and its results drop the leading axis.

knn_select scans the bank once per query stack.  Where the package's native
library built, that scan is one pass of _native.c that forms each squared
distance as numpy's sum does and ranks as a stable argsort does, so both
paths return the same ids.

Banks are frozen snapshots, so by default the pseudo-label, the variance and
the kernel terms in the query are treated as constants by the gradients; an
optional extra term differentiates through the query's kernel row for
callers that enable it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
from .data_metrics import _pixels
from .errors import DimensionMismatch, EmptyBank, EmptyDataset, NotPositiveDefinite
from .kernels import KernelSpec, gram, kernel_row_grad
# Not called here since k(q, q) comes off the joint Gram; perfbench/workloads.py
# still wraps this module's effective_kernel by name, so it stays imported.
from .kernels import effective_kernel  # noqa: F401
from .linalg import cholesky, matvec, row_dot, solve_posdef, vecmat


@dataclass
class FeatureBank:
    """Epoch-frozen store of paired latent taps for one domain.

    Row i of `s` and row i of `z` come from the same image's forward pass.
    Built once per epoch, then treated as read-only.
    """

    domain: str
    s: np.ndarray  # (n, s_dim)
    z: np.ndarray  # (n, z_dim)

    def __post_init__(self) -> None:
        self.s = np.atleast_2d(np.asarray(self.s, dtype=float))
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        if self.s.shape[0] != self.z.shape[0]:
            raise DimensionMismatch("s and z store a different number of entries")
        if self.domain not in ("clean", "weather"):
            raise ValueError(f"unknown domain {self.domain!r}")

    def __len__(self) -> int:
        return self.s.shape[0]


@dataclass
class GpPosterior:
    """Pseudo-label means (B, dz), scalar variances (B,) and neighbor ids (B, k) of B queries.

    One query drops the leading axis (variance is a float).  gp_condition also
    keeps alpha = K^-1 Z and w = K^-1 k(S, q) for the query gradient.
    """

    pseudo_label: np.ndarray
    variance: np.ndarray | float
    neighbor_ids: np.ndarray
    alpha: np.ndarray | None = None
    w: np.ndarray | None = None


def bank_build(images, generator, domain: str = "clean") -> FeatureBank:
    """Store the (s, z) taps of all images, from one stacked generator pass.

    The pass is Generator.taps: it runs only the stages up to the z-tap and
    keeps no cache, so the bank build holds its input stack, one stage's
    activations and the taps, and the stages after tap_z run on no bank
    row.  Its taps are bit for bit those of Generator.forward.
    """
    # A set stack is restacked too.  Reading it in place gives the same taps
    # but moves perfbench's reference scaling; ROADMAP item 5 drops the copy.
    images = list(images)
    if not images:
        raise EmptyDataset("cannot build a feature bank from zero images")
    s, z = generator.taps(_pixels(images))
    return FeatureBank(domain=domain, s=s, z=z)


def _queries(query, dim: int, what: str) -> np.ndarray:
    q = np.asarray(query, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != dim:
        raise DimensionMismatch(f"query shape {q.shape} does not match bank {what}-dim {dim}")
    return q


def knn_select(bank: FeatureBank, query_z, n: int) -> np.ndarray:
    """Indices of the min(n, |bank|) entries closest to each query row in z-space.

    (B, z_dim) queries give (B, k) indices.  Euclidean distance, ties broken
    toward the lower index, NaN distances last; deterministic.  With
    native.lib.knn_select loaded one native pass gives the same ids as the
    numpy sum and stable argsort.
    """
    if len(bank) == 0:
        raise EmptyBank("feature bank has no entries")
    if n < 1:
        raise ValueError("n must be at least 1")
    q = _queries(query_z, bank.z.shape[1], "z")
    k = min(n, len(bank))
    kernel = native.lib.knn_select
    if kernel is not None:
        z, qc = np.ascontiguousarray(bank.z), np.ascontiguousarray(q)
        ids = np.empty(q.shape[:-1] + (k,), dtype=np.intp)
        if kernel(z.ctypes.data, len(bank), z.shape[1], qc.ctypes.data, 1 if q.ndim == 1 else len(q), k, ids.ctypes.data):
            raise MemoryError("knn_select: no memory for the distances")
        return ids
    d2 = np.sum((bank.z - q[..., None, :]) ** 2, axis=-1)
    order = np.argsort(d2, axis=-1, kind="stable")
    return order[..., :k]


def _joint_rows(s_nbr: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rows [S; q]: each query's k neighbor s-vectors with the query appended, (..., k+1, ds)."""
    return np.concatenate([s_nbr, q[..., None, :]], axis=-2)


def joint_gram(spec: KernelSpec, s_nbr, q) -> np.ndarray:
    """Joint covariance (..., k+1, k+1) of the rows [S; q] with the noise on the whole diagonal.

    Its blocks are K(S, S) + noise * I, k(S, q) and k(q, q) + noise; exactly
    symmetric, since gram mirrors one triangle.
    """
    rows = _joint_rows(s_nbr, q)
    joint = gram(spec, rows, rows)
    diag = np.arange(joint.shape[-1])
    joint[..., diag, diag] += spec.noise_var
    return joint


def gp_condition(spec: KernelSpec, bank: FeatureBank, neighbor_ids, query_s) -> GpPosterior:
    """Condition the collapsed GP of each query row on its selected bank rows.

    The neighbor s-vectors are the GP inputs, their paired z-vectors the
    targets; each query contributes a single row, so its posterior covariance
    is the 1x1 scalar broadcast over z dimensions.  One joint Gram stack
    gives every kernel value; solved through one stacked Cholesky factor,
    never an explicit inverse.
    """
    ids = np.asarray(neighbor_ids, dtype=int)
    if ids.size == 0:
        raise EmptyBank("neighbor set is empty")
    q = _queries(query_s, bank.s.shape[1], "s")
    if ids.shape[:-1] != q.shape[:-1]:
        raise DimensionMismatch(f"neighbor ids {ids.shape} do not match queries {q.shape}")
    z_nbr = bank.z[ids]

    joint = joint_gram(spec, bank.s[ids], q)
    k = ids.shape[-1]
    factor = cholesky(joint[..., :k, :k])
    k_vec = joint[..., k, :k]
    # One solve for both right-hand sides: alpha = K^-1 Z and w = K^-1 k(S, q).
    sol = solve_posdef(factor, np.concatenate([z_nbr, k_vec[..., None]], axis=-1))
    alpha, w = sol[..., :-1], sol[..., -1]
    var = joint[..., k, k] - row_dot(k_vec, w)
    variance = float(var) if q.ndim == 1 else var
    return GpPosterior(vecmat(k_vec, alpha), variance, ids, alpha=alpha, w=w)


def _predictions(posterior: GpPosterior, z_pred) -> np.ndarray:
    z = np.asarray(z_pred, dtype=float)
    if z.shape != posterior.pseudo_label.shape:
        raise DimensionMismatch(
            f"z_pred shape {z.shape} vs pseudo-label {posterior.pseudo_label.shape}"
        )
    return z


def pseudo_loss(posterior: GpPosterior, z_pred):
    """Gaussian NLL of each z_pred row under its pseudo-label with isotropic variance.

    (B,) for a stack, a float for one query.  A variance <= 0 means the joint
    covariance of the neighbors and the query is not positive definite.
    """
    z = _predictions(posterior, z_pred)
    var = np.asarray(posterior.variance, dtype=float)
    if np.any(var <= 0):
        raise NotPositiveDefinite(
            f"posterior variance {np.min(var):g} <= 0: the joint covariance is not positive definite"
        )
    delta = z - posterior.pseudo_label
    loss = row_dot(delta, delta) / var + z.shape[-1] * np.log(var)
    return float(loss) if loss.ndim == 0 else loss


def pseudo_loss_grad(posterior: GpPosterior, z_pred) -> np.ndarray:
    """d pseudo_loss / d z_pred per row, with the pseudo-label and variance held fixed."""
    z = _predictions(posterior, z_pred)
    return 2.0 * (z - posterior.pseudo_label) / np.asarray(posterior.variance)[..., None]


def pseudo_loss_query_grad(
    spec: KernelSpec, bank: FeatureBank, posterior: GpPosterior, query_s, z_pred
) -> np.ndarray:
    """d pseudo_loss / d query_s per row when the posterior is a live function of the query.

    Off by default in training (banks are stale snapshots, pseudo-labels are
    targets); provided for the configuration that differentiates through the
    query's kernel row.  Reuses alpha and w from gp_condition, so it solves
    nothing itself.
    """
    if posterior.alpha is None or posterior.w is None:
        raise ValueError("the query gradient needs a posterior from gp_condition")
    z = _predictions(posterior, z_pred)
    q = np.asarray(query_s, dtype=float)
    # One kernel-row gradient over [S; q]: rows 0..k-1 are d k(q, S) / dq, the last is at k(q, q).
    jac_joint = kernel_row_grad(spec, q, _joint_rows(bank.s[posterior.neighbor_ids], q))
    jac = jac_joint[..., :-1, :]  # (..., k, ds)

    var = np.asarray(posterior.variance)[..., None]
    delta = z - posterior.pseudo_label
    maha = row_dot(delta, delta)[..., None]
    # d mean / d q = jac^T @ alpha; d var / d q = d k(q, q) / d q - 2 jac^T @ w, where
    # d k(q, q) / d q is twice the gradient in k's first argument (k is symmetric)
    grad_mean_term = -(2.0 / var) * vecmat(matvec(posterior.alpha, delta), jac)
    grad_var = 2.0 * (jac_joint[..., -1, :] - vecmat(posterior.w, jac))
    grad_var_term = (z.shape[-1] / var - maha / (var * var)) * grad_var
    return grad_mean_term + grad_var_term
