"""Synthetic weather-degradation data, image metrics and PGM file I/O.

Clean patches are smooth random bump fields in [0, 1]; degradation is the
additive streak model out = clamp(clean + streaks), with oriented Gaussian-
profile lines whose geometry is drawn deterministically from the degrade
seed.  The unpaired protocol generates the clean and weather training sets
from disjoint seed ranges so no degraded patch has its clean counterpart in
the training data; paired examples exist only in the held-out evaluation
split.

The data are fixed by their seeds, to the last bit.  Each patch takes its
random numbers in a fixed order (per bump: cx, cy, sig, amp; per streak:
offset, then amplitude factor), drawn as one rng.uniform row per bump or
streak, and its bumps or streaks are added in draw order, from one
(count, h, w) stack summed over its first axis; numpy adds those rows one
after another, exactly as a `field += term` loop does.  `verify` holds that
loop as the reference and checks the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MalformedFile, ShapeMismatch, TooSmall
from .fileio import atomic_open

PSNR_CAP = 99.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2

# Disjoint seed ranges for the clean set, the weather set and the eval split.
_SEED_STRIDE = 100003
# exp(x) is exactly 0.0 in double precision for every x below this.
_EXP_ZERO_BELOW = -746.0


@dataclass
class Patch:
    """One grayscale patch with pixel values in [0, 1]."""

    pixels: np.ndarray
    domain_tag: str = "clean"

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ShapeMismatch(f"patch must be 2-D, got shape {self.pixels.shape}")
        if self.pixels.size and (self.pixels.min() < -1e-9 or self.pixels.max() > 1 + 1e-9):
            raise ValueError("patch pixels must lie in [0, 1]")


@dataclass(frozen=True)
class DegradeSpec:
    """Additive streak model parameters; amplitude 0 is the identity."""

    streak_count: int = 16
    streak_amplitude: float = 0.8
    streak_angle: float = -1.1  # radians from the x-axis
    streak_width: float = 1.2  # pixels
    seed: int = 0


def _pixels(img) -> np.ndarray:
    """Pixel array of a Patch or an array; a list or tuple of them is stacked on a new first axis."""
    if isinstance(img, Patch):
        return img.pixels
    if isinstance(img, (list, tuple)):
        return np.stack([_pixels(i) for i in img])
    return np.asarray(img, dtype=float)


def make_clean(seed: int, n: int, side: int = 32) -> list:
    """Smooth random fields: 3-6 Gaussian bumps, min-max normalized to [0, 1].

    Per patch the generator draws the bump count with rng.integers(3, 7) and
    then one uniform row (cx, cy, sig, amp) per bump, in that order.  Bump i
    is amp_i * exp(-((x - cx_i)^2 + (y - cy_i)^2) / (2 sig_i^2)), and the
    bumps are added in draw order, so every pixel is the same double as a
    per-bump `field += bump` loop gives.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    xs = np.arange(side, dtype=float)
    ys = xs[:, None]
    lows = np.array([0.0, 0.0, side / 8.0, 0.3])
    highs = np.array([side, side, side / 3.0, 1.0])
    patches = []
    for _ in range(n):
        draws = rng.uniform(lows, highs, (int(rng.integers(3, 7)), 4))
        cx, cy, sig, amp = draws.T[:, :, None, None]
        # One (count, side, side) stack.  sig >= side / 8 keeps every
        # exponent above -64, so no exp here underflows.
        bumps = (xs - cx) ** 2 + (ys - cy) ** 2
        bumps /= -(2.0 * sig * sig)
        np.exp(bumps, out=bumps)
        bumps *= amp
        field = bumps.sum(axis=0)
        lo, hi = field.min(), field.max()
        field = (field - lo) / (hi - lo) if hi - lo > 1e-12 else np.zeros_like(field)
        patches.append(Patch(pixels=field, domain_tag="clean"))
    return patches


def streak_field(spec: DegradeSpec, shape) -> np.ndarray:
    """Non-negative additive streak layer for the given patch shape.

    A generator seeded with spec.seed draws one uniform row per streak: its
    offset from the patch centre in [-half diagonal, half diagonal), then
    its amplitude factor in [0.5, 1).  Streak i adds
    streak_amplitude * factor_i * exp(-dist_i^2 / (2 sigma^2)), with
    sigma = streak_width / 2 and dist_i the pixel's distance to the line,
    and the streaks are added in draw order, so every pixel is the same
    double as a per-streak `field += streak` loop gives.  A count of 0 or
    less gives a zero field.
    """
    h, w = shape
    if spec.streak_count <= 0:
        return np.zeros((h, w))
    rng = np.random.default_rng(spec.seed)
    ct, st = np.cos(spec.streak_angle), np.sin(spec.streak_angle)
    half_diag = 0.5 * np.hypot(h, w)
    sigma = max(spec.streak_width / 2.0, 1e-6)
    draws = rng.uniform([-half_diag, 0.5], [half_diag, 1.0], (spec.streak_count, 2))
    offset, factor = draws.T[:, :, None, None]
    # Signed distance to the line through the centre, shifted by each
    # streak's offset into one (count, h, w) stack; only its square is used.
    along = -st * (np.arange(w, dtype=float) - w / 2.0) + ct * (np.arange(h, dtype=float)[:, None] - h / 2.0)
    arg = along - offset
    np.multiply(arg, arg, out=arg)
    arg /= -(2.0 * sigma * sigma)
    # exp of anything below the cut-off is exactly 0.0, and numpy takes far
    # longer on such arguments than on ordinary ones, so skip them.
    streaks = np.exp(arg, out=np.zeros_like(arg), where=arg > _EXP_ZERO_BELOW)
    streaks *= spec.streak_amplitude * factor
    return streaks.sum(axis=0)


def degrade(p: Patch, spec: DegradeSpec) -> Patch:
    """clamp(clean + streak_field, 0, 1), deterministic per spec.seed."""
    out = np.clip(_pixels(p) + streak_field(spec, _pixels(p).shape), 0.0, 1.0)
    return Patch(pixels=out, domain_tag="weather")


def make_unpaired_sets(n_per_domain: int, spec: DegradeSpec, seed: int, side: int = 32):
    """Unpaired training sets: clean patches and independently degraded ones."""
    base = _SEED_STRIDE * seed
    clean = make_clean(base + 1, n_per_domain, side)
    weather_src = make_clean(base + 2, n_per_domain, side)
    weather = [
        degrade(p, replace(spec, seed=base + 1000 + i)) for i, p in enumerate(weather_src)
    ]
    return clean, weather


def make_eval_pairs(n: int, spec: DegradeSpec, seed: int, side: int = 32):
    """Held-out (weather, clean) pairs used only for PSNR/SSIM evaluation."""
    base = _SEED_STRIDE * seed
    clean = make_clean(base + 3, n, side)
    return [
        (degrade(p, replace(spec, seed=base + 500000 + i)), p) for i, p in enumerate(clean)
    ]


# --- metrics ---------------------------------------------------------------


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB for range-1 data, capped at 99.0; NaN pixels give NaN."""
    pa, pb = _pixels(a), _pixels(b)
    if pa.shape != pb.shape:
        raise ShapeMismatch(f"shapes differ: {pa.shape} vs {pb.shape}")
    mse = float(np.mean((pa - pb) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    return float(np.minimum(PSNR_CAP, -10.0 * np.log10(mse)))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size, dtype=float) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def _local_mean(a: np.ndarray, window: np.ndarray) -> np.ndarray:
    view = sliding_window_view(a, window.shape)
    return np.tensordot(view, window, axes=((2, 3), (0, 1)))


def ssim(a, b) -> float:
    """Mean local structural similarity, 11x11 Gaussian window, sigma 1.5."""
    pa, pb = _pixels(a), _pixels(b)
    if pa.shape != pb.shape:
        raise ShapeMismatch(f"shapes differ: {pa.shape} vs {pb.shape}")
    if min(pa.shape) < SSIM_WINDOW:
        raise TooSmall(f"ssim needs at least {SSIM_WINDOW}x{SSIM_WINDOW} images")
    w = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu1 = _local_mean(pa, w)
    mu2 = _local_mean(pb, w)
    var1 = _local_mean(pa * pa, w) - mu1 * mu1
    var2 = _local_mean(pb * pb, w) - mu2 * mu2
    cov = _local_mean(pa * pb, w) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu1 * mu1 + mu2 * mu2 + SSIM_C1) * (var1 + var2 + SSIM_C2)
    return float(np.mean(num / den))


# --- PGM I/O ----------------------------------------------------------------


def write_pgm(path, p: Patch) -> None:
    """Binary 8-bit PGM (P5) with header tokens P5, width, height, 255."""
    pix = _pixels(p)
    data = np.round(np.clip(pix, 0.0, 1.0) * 255.0).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path, domain_tag: str = "clean") -> Patch:
    """Read a binary PGM written by write_pgm (or any 8-bit P5 file)."""
    with open(path, "rb") as fh:
        raw = fh.read()

    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(raw):
            raise MalformedFile(f"{path}: truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise MalformedFile(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise MalformedFile(f"{path}: bad header tokens") from exc
    if maxval != 255:
        raise MalformedFile(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    if len(raw) - pos < width * height:
        raise MalformedFile(f"{path}: truncated pixel data")
    pix = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return Patch(pixels=pix.reshape(height, width) / 255.0, domain_tag=domain_tag)

