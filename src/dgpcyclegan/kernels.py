"""Base kernels and the depth-collapsed effective kernel.

A stack of GP layers is never materialized: marginalizing the hidden layers
of an L-layer composition collapses it to a single GP whose kernel obeys

    k_eff_1(x, y) = base kernel of layer 1,
    k_eff_l(x, y) = beta_l**2 / sqrt(1 + 2 * gamma_l**-2
                                       * (beta_{l-1}**2 - k_eff_{l-1}(x, y)))

applied once per additional layer.  For the squared-exponential base the
radicand stays >= 1, so the recursion is always finite; other layer-1
families can push k above beta**2 and trip NonFiniteRecursion.

Heterogeneous compositions place the alternative family at layer 1 and keep
the recursion shape above for every later layer.

Every function takes row stacks: (B, dim) vectors give B kernel values, and
(B, n, dim) rows give a (B, n, m) Gram stack; no leading axis is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NonFiniteRecursion
from .linalg import matvec, row_dot

SE = "se"
LIN = "lin"
SC = "sc"
FAMILIES = (SE, LIN, SC)

# Small positive bias keeping the linear kernel's Gram matrix nonsingular.
LIN_BIAS = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Per-layer kernel configuration of a depth-L composition.

    families[l], beta[l], gamma[l] configure layer l (layer 0 is the input
    layer of the recursion).  noise_var is the additive observation noise on
    the joint covariance; the GP prior mean is zero.
    """

    families: tuple[str, ...] = (SE, SE, SE, SE)
    beta: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    gamma: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    noise_var: float = 0.01

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("kernel composition needs at least one layer")
        if not (len(self.beta) == len(self.gamma) == self.depth):
            raise ValueError("families, beta and gamma must have equal length")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown kernel family {fam!r}")
        if any(b <= 0 for b in self.beta) or any(g <= 0 for g in self.gamma):
            raise ValueError("beta and gamma must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be non-negative")

    @property
    def depth(self) -> int:
        return len(self.families)

    @property
    def signal_var(self) -> float:
        """Marginal prior variance beta_L**2 of the collapsed kernel."""
        return self.beta[-1] ** 2

    @staticmethod
    def homogeneous(
        family: str = SE,
        depth: int = 4,
        beta: float = 1.0,
        gamma: float = 1.0,
        noise_var: float = 0.01,
    ) -> "KernelSpec":
        """Depth-L stack of one family with shared beta/gamma (default ratio 1)."""
        return KernelSpec(
            families=(family,) * depth,
            beta=(beta,) * depth,
            gamma=(gamma,) * depth,
            noise_var=noise_var,
        )

    @staticmethod
    def heterogeneous(
        first_family: str, depth: int = 2, beta: float = 1.0, gamma: float = 1.0, noise_var: float = 0.01
    ) -> "KernelSpec":
        """First layer uses `first_family`, the remaining layers the SE form."""
        spec = KernelSpec.homogeneous(SE, depth, beta, gamma, noise_var)
        return replace(spec, families=(first_family,) + spec.families[1:])


def _scalar(k):
    return float(k) if np.ndim(k) == 0 else k


def _layer_kernel(spec: KernelSpec, layer: int, t, dim: int):
    """Layer `layer`'s kernel elementwise in t, the one place each family's formula is written.

    t is the squared distance for SE and SC, the inner product of two length-dim vectors for LIN.
    """
    family, beta, gamma = spec.families[layer], spec.beta[layer], spec.gamma[layer]
    b2 = beta * beta
    if family == LIN:
        return b2 * t / dim + LIN_BIAS
    if family == SE:
        return b2 * np.exp(-t / (2.0 * gamma * gamma))
    # SC: squared cosine of scaled distance
    return b2 * np.cos(np.sqrt(t) / gamma) ** 2


def base_kernel(spec: KernelSpec, layer: int, x, y):
    """Single-layer kernel value for the given layer's family and scales; (B,) for two (B, dim) stacks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise DimensionMismatch(f"vectors must share one dim, got {x.shape} vs {y.shape}")
    if not 0 <= layer < spec.depth:
        raise IndexError(f"layer {layer} out of range for depth {spec.depth}")
    d = x - y
    t = row_dot(x, y) if spec.families[layer] == LIN else row_dot(d, d)
    return _scalar(_layer_kernel(spec, layer, t, x.shape[-1]))


def _recurse(spec: KernelSpec, k, slope: bool = False):
    """Apply the depth recursion elementwise to layer-1 kernel values.

    With slope=True also returns d k_eff / d k_1: each layer multiplies it by
    beta_l^2 * gamma_l^-2 * radicand^(-3/2).
    """
    k = np.asarray(k, dtype=float)
    chain = np.ones_like(k) if slope else None
    for layer in range(1, spec.depth):
        b_prev = spec.beta[layer - 1]
        b = spec.beta[layer]
        g = spec.gamma[layer]
        radicand = 1.0 + (2.0 / (g * g)) * (b_prev * b_prev - k)
        if np.any(radicand <= 0.0):
            raise NonFiniteRecursion(
                f"radicand <= 0 at layer {layer + 1}; layer-1 kernel exceeds beta**2"
            )
        if slope:
            chain = chain * (b * b) / (g * g) / radicand ** 1.5
        k = (b * b) / np.sqrt(radicand)
    return (k, chain) if slope else k


def effective_kernel(spec: KernelSpec, x, y):
    """Collapsed kernel of the full depth-L composition at a pair, or at each row pair of two stacks."""
    return _scalar(_recurse(spec, base_kernel(spec, 0, x, y)))


def kernel_row_grad(spec: KernelSpec, q, rows) -> np.ndarray:
    """Gradient (..., n, dim) of k_eff(q, rows[..., j, :]) with respect to q (..., dim).

    The layer-1 derivative is pushed through the depth recursion by _recurse.
    """
    q = np.asarray(q, dtype=float)
    rows = np.asarray(rows, dtype=float)
    family, g, dim = spec.families[0], spec.gamma[0], q.shape[-1]
    b2 = spec.beta[0] * spec.beta[0]
    if family == LIN:
        k1 = _layer_kernel(spec, 0, matvec(rows, q), dim)
        jac = (b2 / dim) * rows
    else:
        diff = q[..., None, :] - rows
        sq = np.sum(diff * diff, axis=-1)
        k1 = _layer_kernel(spec, 0, sq, dim)
        if family == SE:
            jac = -k1[..., None] * diff / (g * g)
        else:  # SC
            r = np.sqrt(sq)
            safe_r = np.where(r > 0, r, 1.0)[..., None]
            unit = np.where(r[..., None] > 0, diff / safe_r, 0.0)
            jac = (-b2 * np.sin(2.0 * r / g) / g)[..., None] * unit
    _, chain = _recurse(spec, k1, slope=True)
    return chain[..., None] * jac


def _stack(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim < 2:
        raise DimensionMismatch(f"expected a list of vectors, got ndim {arr.ndim}")
    return arr


def _base_matrix(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray, same: bool) -> np.ndarray:
    t = rows @ cols.swapaxes(-2, -1)
    if spec.families[0] != LIN:
        # Squared distances via the Gram expansion, clipped against rounding.
        t = (
            np.sum(rows * rows, axis=-1)[..., :, None]
            + np.sum(cols * cols, axis=-1)[..., None, :]
            - 2.0 * t
        )
        np.maximum(t, 0.0, out=t)
        if same:
            diag = np.arange(t.shape[-1])
            t[..., diag, diag] = 0.0
    return _layer_kernel(spec, 0, t, rows.shape[-1])


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Effective-kernel matrix K[..., i, j] = k_eff(rows[..., i, :], cols[..., j, :]).

    A 1-D argument is one row.  When `rows` and `cols` are the same object the
    result is exactly symmetric with the zero-distance diagonal evaluated
    exactly.
    """
    same = rows is cols
    r = _stack(rows)
    c = r if same else _stack(cols)
    if r.shape[-1] != c.shape[-1]:
        raise DimensionMismatch(
            f"row vectors have dim {r.shape[-1]}, col vectors dim {c.shape[-1]}"
        )
    k = _recurse(spec, _base_matrix(spec, r, c, same))
    if same:
        # Mirror the upper triangle into the lower one.
        k = np.where(np.tri(k.shape[-1], k=-1, dtype=bool), k.swapaxes(-2, -1), k)
    return k
