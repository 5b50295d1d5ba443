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

Banks are frozen snapshots, so by default the pseudo-label, the variance and
the kernel terms in the query are treated as constants by the gradients; an
optional extra term differentiates through the query's kernel row for
callers that enable it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import struct

import numpy as np

from .data_metrics import _pixels
from .errors import DimensionMismatch, EmptyBank, EmptyDataset, MalformedFile
from .kernels import LIN, LIN_BIAS, SE, KernelSpec, effective_kernel, gram
from .linalg import cholesky, solve_posdef

BANK_MAGIC = b"DGPBANK1"
_DOMAIN_CODES = {"clean": 0, "weather": 1}
_DOMAIN_NAMES = {v: k for k, v in _DOMAIN_CODES.items()}


@dataclass
class FeatureBank:
    """Epoch-frozen store of paired latent taps for one domain.

    Row i of `s` and row i of `z` come from the same image's forward pass.
    Built once per epoch, then treated as read-only.
    """

    domain: str
    s: np.ndarray  # (n, s_dim)
    z: np.ndarray  # (n, z_dim)
    epoch_stamp: int = 0

    def __post_init__(self) -> None:
        self.s = np.atleast_2d(np.asarray(self.s, dtype=float))
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        if self.s.shape[0] != self.z.shape[0]:
            raise DimensionMismatch("s and z store a different number of entries")
        if self.domain not in _DOMAIN_CODES:
            raise ValueError(f"unknown domain {self.domain!r}")

    def __len__(self) -> int:
        return self.s.shape[0]


@dataclass
class GpPosterior:
    """Pseudo-label mean, scalar variance and the bank rows that produced it."""

    pseudo_label: np.ndarray
    variance: float
    neighbor_ids: np.ndarray


def bank_build(images, generator, domain: str = "clean", epoch: int = 0) -> FeatureBank:
    """Run all images through the generator in one stacked call and store their (s, z) taps."""
    images = list(images)
    if not images:
        raise EmptyDataset("cannot build a feature bank from zero images")
    _, s, z, _ = generator.forward(_pixels(images))
    return FeatureBank(domain=domain, s=s, z=z, epoch_stamp=epoch)


def knn_select(bank: FeatureBank, query_z, n: int) -> np.ndarray:
    """Indices of the min(n, |bank|) entries closest to query_z in z-space.

    Euclidean distance, ties broken toward the lower index; deterministic.
    """
    if len(bank) == 0:
        raise EmptyBank("feature bank has no entries")
    if n < 1:
        raise ValueError("n must be at least 1")
    q = np.asarray(query_z, dtype=float)
    if q.shape != (bank.z.shape[1],):
        raise DimensionMismatch(
            f"query dim {q.shape} does not match bank z-dim {bank.z.shape[1]}"
        )
    d2 = np.sum((bank.z - q) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    return order[: min(n, len(bank))]


def gp_condition(spec: KernelSpec, bank: FeatureBank, neighbor_ids, query_s) -> GpPosterior:
    """Condition the collapsed GP on the selected bank rows.

    The neighbor s-vectors are the GP inputs, their paired z-vectors the
    targets; the query contributes a single row, so the posterior covariance
    is the 1x1 scalar broadcast over z dimensions.  Solved through a
    Cholesky factor, never an explicit inverse.
    """
    ids = np.asarray(neighbor_ids, dtype=int)
    if ids.size == 0:
        raise EmptyBank("neighbor set is empty")
    q = np.asarray(query_s, dtype=float)
    if q.shape != (bank.s.shape[1],):
        raise DimensionMismatch(
            f"query dim {q.shape} does not match bank s-dim {bank.s.shape[1]}"
        )
    s_nbr = bank.s[ids]
    z_nbr = bank.z[ids]

    k_mat = gram(spec, s_nbr, s_nbr)
    k_mat[np.diag_indices_from(k_mat)] += spec.noise_var
    factor = cholesky(k_mat)

    k_vec = gram(spec, q, s_nbr)[0]
    alpha = solve_posdef(factor, z_nbr)
    mean = k_vec @ alpha

    v = solve_posdef(factor, k_vec)
    var = float(effective_kernel(spec, q, q) - k_vec @ v + spec.noise_var)
    return GpPosterior(pseudo_label=mean, variance=var, neighbor_ids=ids)


def pseudo_loss(posterior: GpPosterior, z_pred) -> float:
    """Gaussian NLL of z_pred under the pseudo-label with isotropic variance."""
    z = np.asarray(z_pred, dtype=float)
    if z.shape != posterior.pseudo_label.shape:
        raise DimensionMismatch(
            f"z_pred shape {z.shape} vs pseudo-label {posterior.pseudo_label.shape}"
        )
    if posterior.variance <= 0:
        raise ValueError("posterior variance must be positive")
    delta = z - posterior.pseudo_label
    return float(delta @ delta / posterior.variance + z.size * np.log(posterior.variance))


def pseudo_loss_grad(posterior: GpPosterior, z_pred) -> np.ndarray:
    """d pseudo_loss / d z_pred with the pseudo-label and variance held fixed."""
    z = np.asarray(z_pred, dtype=float)
    if z.shape != posterior.pseudo_label.shape:
        raise DimensionMismatch(
            f"z_pred shape {z.shape} vs pseudo-label {posterior.pseudo_label.shape}"
        )
    return 2.0 * (z - posterior.pseudo_label) / posterior.variance


def _kernel_row_jacobian(spec: KernelSpec, s_nbr: np.ndarray, q: np.ndarray):
    """Cross-kernel row k(q, S) and its Jacobian d k / d q, shape (n, dim)."""
    family = spec.families[0]
    beta, g = spec.beta[0], spec.gamma[0]
    b2 = beta * beta
    diff = q[None, :] - s_nbr  # (n, dim)
    if family == SE:
        sq = np.sum(diff * diff, axis=1)
        k1 = b2 * np.exp(-sq / (2.0 * g * g))
        jac = -k1[:, None] * diff / (g * g)
    elif family == LIN:
        k1 = b2 * (s_nbr @ q) / q.size + LIN_BIAS
        jac = (b2 / q.size) * s_nbr
    else:  # SC
        r = np.sqrt(np.sum(diff * diff, axis=1))
        k1 = b2 * np.cos(r / g) ** 2
        safe_r = np.where(r > 0, r, 1.0)[:, None]
        unit = np.where(r[:, None] > 0, diff / safe_r, 0.0)
        jac = (-b2 * np.sin(2.0 * r / g) / g)[:, None] * unit
    # Push both through the depth recursion; each layer multiplies the
    # derivative by beta_l^2 * gamma_l^-2 * radicand^(-3/2).
    chain = np.ones_like(k1)
    k = k1
    for layer in range(1, spec.depth):
        b_prev = spec.beta[layer - 1]
        b = spec.beta[layer]
        gl = spec.gamma[layer]
        rad = 1.0 + (2.0 / (gl * gl)) * (b_prev * b_prev - k)
        chain = chain * (b * b) / (gl * gl) / rad ** 1.5
        k = (b * b) / np.sqrt(rad)
    return k, chain[:, None] * jac


def pseudo_loss_query_grad(
    spec: KernelSpec, bank: FeatureBank, posterior: GpPosterior, query_s, z_pred
) -> np.ndarray:
    """d pseudo_loss / d query_s when the posterior is a live function of the query.

    Off by default in training (banks are stale snapshots, pseudo-labels are
    targets); provided for the configuration that differentiates through the
    query's kernel row.  Uses d k(q,q)/dq = 0, which holds for all families
    at zero distance.
    """
    q = np.asarray(query_s, dtype=float)
    z = np.asarray(z_pred, dtype=float)
    ids = posterior.neighbor_ids
    s_nbr = bank.s[ids]
    z_nbr = bank.z[ids]

    k_mat = gram(spec, s_nbr, s_nbr)
    k_mat[np.diag_indices_from(k_mat)] += spec.noise_var
    factor = cholesky(k_mat)
    k_vec, jac = _kernel_row_jacobian(spec, s_nbr, q)

    alpha = solve_posdef(factor, z_nbr)  # (n, dz)
    w = solve_posdef(factor, k_vec)  # (n,)

    var = posterior.variance
    delta = z - posterior.pseudo_label
    maha = float(delta @ delta)
    # d mean / d q = jac^T @ alpha; d var / d q = -2 jac^T @ w
    grad_mean_term = -(2.0 / var) * ((alpha @ delta) @ jac)
    grad_var = -2.0 * (w @ jac)
    grad_var_term = (z.size / var - maha / (var * var)) * grad_var
    return grad_mean_term + grad_var_term


def write_bank(path, bank: FeatureBank) -> None:
    """Dump a bank to the flat binary layout documented in the README."""
    n, s_dim = bank.s.shape
    z_dim = bank.z.shape[1]
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<IIIIQ", _DOMAIN_CODES[bank.domain], n, s_dim, z_dim, bank.epoch_stamp))
        fh.write(np.ascontiguousarray(bank.s, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(bank.z, dtype="<f8").tobytes())


def read_bank(path) -> FeatureBank:
    """Read a bank dumped by write_bank; raises MalformedFile on bad layout."""
    raw = Path(path).read_bytes()
    header = len(BANK_MAGIC) + struct.calcsize("<IIIIQ")
    if len(raw) < header or raw[: len(BANK_MAGIC)] != BANK_MAGIC:
        raise MalformedFile(f"{path}: not a feature-bank file")
    code, n, s_dim, z_dim, epoch = struct.unpack_from("<IIIIQ", raw, len(BANK_MAGIC))
    if code not in _DOMAIN_NAMES:
        raise MalformedFile(f"{path}: unknown domain code {code}")
    need = header + 8 * n * (s_dim + z_dim)
    if len(raw) != need:
        raise MalformedFile(f"{path}: expected {need} bytes, found {len(raw)}")
    s = np.frombuffer(raw, dtype="<f8", count=n * s_dim, offset=header).reshape(n, s_dim)
    z = np.frombuffer(raw, dtype="<f8", count=n * z_dim, offset=header + 8 * n * s_dim).reshape(
        n, z_dim
    )
    return FeatureBank(domain=_DOMAIN_NAMES[code], s=s.copy(), z=z.copy(), epoch_stamp=epoch)
