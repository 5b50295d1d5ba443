"""Base kernels and the depth-collapsed effective kernel.

A stack of GP layers is never materialized: marginalizing the hidden layers
of an L-layer composition collapses it to a single GP whose kernel obeys

    k_eff_1(x, y) = base kernel of layer 1,
    k_eff_l(x, y) = beta_l**2 / sqrt(1 + 2 * gamma_l**-2
                                       * (beta_{l-1}**2 - k_eff_{l-1}(x, y)))

applied once per additional layer.  The family is chosen at layer 1 only;
every later layer has the SE form of the recursion.  For the SE base the
radicand stays >= 1, so the recursion is always finite; other layer-1
families can push k above beta**2 and trip NonFiniteRecursion.

Every function takes row stacks: (B, dim) vectors give B kernel values, and
(B, n, dim) rows give a (B, n, m) Gram stack; no leading axis is a stack of one.

The recursion is the collapsed deep-GP kernel of Lu et al., "Interpretable
Deep Gaussian Processes with Moments" (AISTATS 2020).  gram(spec, rows, rows),
the joint Gram every GP query builds, reads only the upper triangle of
rows @ rows.T and mirrors it, so the matrix is exactly symmetric.  Where the
package's native library built, two passes of _native.c do that work around
numpy's _layer_kernel: one packs the triangle's squared distances (inner
products for lin), the other runs the depth recursion and mirrors; the numpy
code gives the same bits and runs where the library did not build.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import native
from .errors import DimensionMismatch, NonFiniteRecursion
from .linalg import matvec, row_dot

SE = "se"
LIN = "lin"
SC = "sc"
FAMILIES = (SE, LIN, SC)

# Small positive bias keeping the linear kernel's Gram matrix nonsingular.
LIN_BIAS = 1e-6
# Smallest length scale: above it gamma**2 does not underflow and 2 / gamma**2 stays finite.
GAMMA_MIN = 1e-150
# Largest scale and noise: below them beta**2 + noise_var, each sigma^2's ceiling, stays below 2e300.
BETA_MAX = 1e150
NOISE_MAX = 1e300


@dataclass(frozen=True)
class KernelSpec:
    """Per-layer kernel configuration of a depth-L composition.

    families[l], beta[l], gamma[l] configure layer l (layer 0 is the input
    layer of the recursion).  families[0] is the layer-1 family; every later
    layer is SE, the one form the recursion has.  noise_var is the additive
    observation noise on the joint covariance; the GP prior mean is zero.
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
        if self.families[0] not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.families[0]!r}")
        if any(fam != SE for fam in self.families[1:]):
            raise ValueError("layers above the first must be se: the depth recursion has only that form")
        if any(not 0 < b <= BETA_MAX for b in self.beta) or any(g < GAMMA_MIN for g in self.gamma):
            raise ValueError(f"beta must be positive and at most {BETA_MAX:g}, and gamma at least {GAMMA_MIN:g}")
        if not 0 <= self.noise_var <= NOISE_MAX:
            raise ValueError(f"noise_var must be non-negative and at most {NOISE_MAX:g}")

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
        """Depth-L stack with `family` at layer 1, SE above it, and shared beta/gamma."""
        return KernelSpec(
            families=(family,) + (SE,) * (depth - 1),
            beta=(beta,) * depth,
            gamma=(gamma,) * depth,
            noise_var=noise_var,
        )


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


def _radicand_error(layer: int) -> NonFiniteRecursion:
    return NonFiniteRecursion(f"radicand <= 0 at layer {layer + 1}; layer-1 kernel exceeds beta**2")


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
            raise _radicand_error(layer)
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


def _distances(rows: np.ndarray, cols: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared distances from the products t = rows @ cols.T via the Gram expansion, clipped against rounding."""
    sq_rows = np.sum(rows * rows, axis=-1)
    sq_cols = sq_rows if cols is rows else np.sum(cols * cols, axis=-1)
    t = sq_rows[..., :, None] + sq_cols[..., None, :] - 2.0 * t
    np.maximum(t, 0.0, out=t)
    return t


def _symmetric_gram(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """gram(spec, rows, rows): the upper triangle's layer-1 arguments, mirrored, through the family and the depth.

    Only the upper triangle of the product is read, so the result is
    exactly symmetric, and the zero-distance diagonal is exact.  With
    native.lib.gram the triangle travels packed: one native pass forms it,
    numpy's _layer_kernel maps it, and a second native pass runs the depth
    recursion and mirrors it; the numpy path gives the same bits.
    """
    lin = spec.families[0] == LIN
    t = rows @ rows.swapaxes(-2, -1)
    m, dim = t.shape[-1], rows.shape[-1]
    passes = native.lib.gram
    if passes is not None:
        pack, depth = passes
        rows = np.ascontiguousarray(rows)
        nb = math.prod(t.shape[:-2])
        packed = np.empty(t.shape[:-2] + (m * (m + 1) // 2,))
        if pack(t.ctypes.data, rows.ctypes.data, nb, m, dim, lin, packed.ctypes.data):
            raise MemoryError("gram: no memory for the squared norms")
        k = _layer_kernel(spec, 0, packed, dim)
        consts = np.array([(2.0 / (spec.gamma[l] * spec.gamma[l]), spec.beta[l - 1] * spec.beta[l - 1],
                            spec.beta[l] * spec.beta[l]) for l in range(1, spec.depth)])
        layer = depth(k.ctypes.data, nb, m, spec.depth - 1, consts.ctypes.data, t.ctypes.data)
        if layer:
            raise _radicand_error(layer)
        return t
    if not lin:
        t = _distances(rows, rows, t)
        diag = np.arange(m)
        t[..., diag, diag] = 0.0
    # Mirror the upper triangle into the lower one.
    t = np.where(np.tri(m, k=-1, dtype=bool), t.swapaxes(-2, -1), t)
    return _recurse(spec, _layer_kernel(spec, 0, t, dim))


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Effective-kernel matrix K[..., i, j] = k_eff(rows[..., i, :], cols[..., j, :]).

    A 1-D argument is one row.  When `rows` and `cols` are the same object the
    result is exactly symmetric with the zero-distance diagonal evaluated
    exactly.
    """
    r = _stack(rows)
    if rows is cols:
        return _symmetric_gram(spec, r)
    c = _stack(cols)
    if r.shape[-1] != c.shape[-1]:
        raise DimensionMismatch(
            f"row vectors have dim {r.shape[-1]}, col vectors dim {c.shape[-1]}"
        )
    t = r @ c.swapaxes(-2, -1)
    if spec.families[0] != LIN:
        t = _distances(r, c, t)
    return _recurse(spec, _layer_kernel(spec, 0, t, r.shape[-1]))
