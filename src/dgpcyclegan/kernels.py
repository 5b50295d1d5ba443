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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteRecursion

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
        first_family: str,
        depth: int = 2,
        beta: float = 1.0,
        gamma: float = 1.0,
        noise_var: float = 0.01,
    ) -> "KernelSpec":
        """First layer uses `first_family`, the remaining layers the SE form."""
        return KernelSpec(
            families=(first_family,) + (SE,) * (depth - 1),
            beta=(beta,) * depth,
            gamma=(gamma,) * depth,
            noise_var=noise_var,
        )


def _check_dims(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vectors must share one dim, got {x.shape} vs {y.shape}")


def _base_value(family: str, beta: float, gamma: float, x: np.ndarray, y: np.ndarray) -> float:
    b2 = beta * beta
    if family == SE:
        d = x - y
        return b2 * float(np.exp(-(d @ d) / (2.0 * gamma * gamma)))
    if family == LIN:
        return b2 * float(x @ y) / x.size + LIN_BIAS
    # SC: squared cosine of scaled distance
    d = x - y
    return b2 * float(np.cos(np.sqrt(d @ d) / gamma)) ** 2


def base_kernel(spec: KernelSpec, layer: int, x, y) -> float:
    """Single-layer kernel value for the given layer's family and scales."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_dims(x, y)
    if not 0 <= layer < spec.depth:
        raise IndexError(f"layer {layer} out of range for depth {spec.depth}")
    return _base_value(spec.families[layer], spec.beta[layer], spec.gamma[layer], x, y)


def _recurse(spec: KernelSpec, k):
    """Apply the depth recursion elementwise to layer-1 kernel values."""
    k = np.asarray(k, dtype=float)
    for layer in range(1, spec.depth):
        b_prev = spec.beta[layer - 1]
        b = spec.beta[layer]
        g = spec.gamma[layer]
        radicand = 1.0 + (2.0 / (g * g)) * (b_prev * b_prev - k)
        if np.any(radicand <= 0.0):
            raise NonFiniteRecursion(
                f"radicand <= 0 at layer {layer + 1}; layer-1 kernel exceeds beta**2"
            )
        k = (b * b) / np.sqrt(radicand)
    return k


def effective_kernel(spec: KernelSpec, x, y) -> float:
    """Collapsed kernel of the full depth-L composition at a single pair."""
    return float(_recurse(spec, base_kernel(spec, 0, x, y)))


def _stack(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a list of vectors, got ndim {arr.ndim}")
    return arr


def _base_matrix(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray, same: bool) -> np.ndarray:
    family = spec.families[0]
    beta, gamma = spec.beta[0], spec.gamma[0]
    b2 = beta * beta
    if family == LIN:
        return b2 * (rows @ cols.T) / rows.shape[1] + LIN_BIAS
    # Squared distances via the Gram expansion, clipped against rounding.
    sq = (
        np.sum(rows * rows, axis=1)[:, None]
        + np.sum(cols * cols, axis=1)[None, :]
        - 2.0 * (rows @ cols.T)
    )
    np.maximum(sq, 0.0, out=sq)
    if same:
        np.fill_diagonal(sq, 0.0)
    if family == SE:
        return b2 * np.exp(-sq / (2.0 * gamma * gamma))
    return b2 * np.cos(np.sqrt(sq) / gamma) ** 2


def gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Effective-kernel matrix K[i, j] = k_eff(rows[i], cols[j]).

    When `rows` and `cols` are the same object the result is exactly
    symmetric with the zero-distance diagonal evaluated exactly.
    """
    same = rows is cols
    r = _stack(rows)
    c = r if same else _stack(cols)
    if r.shape[1] != c.shape[1]:
        raise DimensionMismatch(
            f"row vectors have dim {r.shape[1]}, col vectors dim {c.shape[1]}"
        )
    k = _recurse(spec, _base_matrix(spec, r, c, same))
    if same:
        k = np.triu(k) + np.triu(k, 1).T
    return k
