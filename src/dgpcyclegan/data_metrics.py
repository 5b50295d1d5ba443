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
offset, then amplitude factor), one row per bump or streak, and its bumps or
streaks are added in draw order.  A whole set is built as array stacks: the
draws of every patch go into one array in that order, the bumps or streaks
of a chunk of patches into one (term, patch, h, w) stack of at most
CHUNK_ELEMENTS values (or one patch's, if that is more), summed over its
first axis (numpy adds those rows one after another, exactly as a
`field += term` loop does).  A set is one float64 (n, h, w) array whose
rows are its patches, range-checked once as a whole; the training sets and
the evaluation split stay such stacks up to the train step and the scores.
Clean patches pad their bump rows to six with amplitude 0, which adds an
exact +0.0.  make_clean, streak_field and degrade are the one-row case of
the same code, and Patch wraps a single patch.  `verify` holds the
per-patch loops as the reference and checks the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Most bumps a clean patch draws; each patch's bump rows are padded to it.
_MAX_BUMPS = 6
# Most elements of one chunk's (term, patch, h, w) stack of bumps or streaks,
# 256 KiB of float64; a chunk holds at least one patch.  A set is built chunk
# by chunk, so its temporaries stay this size however many patches it holds.
# Chosen by measurement: larger chunks left set-up RSS higher, smaller ones
# made set-up slower.
CHUNK_ELEMENTS = 32768


@dataclass
class Patch:
    """One grayscale patch with pixel values in [0, 1]."""

    pixels: np.ndarray
    domain_tag: str = "clean"

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ShapeMismatch(f"patch must be 2-D, got shape {self.pixels.shape}")
        _in_range(self.pixels)


def _in_range(pixels: np.ndarray) -> np.ndarray:
    """pixels, after checking that every value lies in [0, 1] up to 1e-9; one check for a patch or a whole set."""
    if pixels.size and (pixels.min() < -1e-9 or pixels.max() > 1 + 1e-9):
        raise ValueError("patch pixels must lie in [0, 1]")
    return pixels


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


def _clean_stack(seed: int, n: int, side: int) -> np.ndarray:
    """The pixels of make_clean(seed, n, side) as one (n, side, side) array."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    # Each patch's bump rows (cx, cy, sig, amp), padded to _MAX_BUMPS rows
    # of (0, 0, side / 8, 0); a pad row adds an exact +0.0 to its
    # non-negative field.  The unit draws are scaled once per set, as
    # rng.uniform(low, high) scales them: low + (high - low) * u.
    draws = np.zeros((n, _MAX_BUMPS, 4))
    counts = np.empty(n, dtype=int)
    for i, row in enumerate(draws):
        counts[i] = rng.integers(3, 7)
        rng.random(out=row[: counts[i]])
    lows = np.array([0.0, 0.0, side / 8.0, 0.3])
    draws *= np.array([side, side, side / 3.0, 1.0]) - lows
    draws += lows
    draws[np.arange(_MAX_BUMPS) >= counts[:, None], 3] = 0.0
    xs = np.arange(side, dtype=float)
    ys = xs[:, None]
    out = np.empty((n, side, side))
    for rows, params in _chunks(draws, _MAX_BUMPS * side * side):
        cx, cy, sig, amp = params.T[:, :, :, None, None]
        # One (bump, patch, side, side) stack.  sig >= side / 8 keeps every
        # exponent above -64, so no exp here underflows.
        bumps = (xs - cx) ** 2 + (ys - cy) ** 2
        bumps /= -(2.0 * sig * sig)
        np.exp(bumps, out=bumps)
        bumps *= amp
        bumps.sum(axis=0, out=out[rows])
    lo = out.min(axis=(1, 2), keepdims=True)
    span = out.max(axis=(1, 2), keepdims=True) - lo
    out -= lo
    np.divide(out, span, out=out, where=span > 1e-12)
    out[span[:, 0, 0] <= 1e-12] = 0.0
    return out


def _add_streaks(fields: np.ndarray, spec: DegradeSpec, seeds) -> np.ndarray:
    """Adds streak_field(spec with seed seeds[i]) to row i of the (n, h, w) fields, in place; returns fields."""
    if spec.streak_count <= 0:
        return fields
    h, w = fields.shape[1:]
    ct, st = np.cos(spec.streak_angle), np.sin(spec.streak_angle)
    half_diag = 0.5 * np.hypot(h, w)
    sigma = max(spec.streak_width / 2.0, 1e-6)
    # Each patch's streak rows (offset, factor), from unit draws scaled once
    # per set as rng.uniform(low, high) scales them: low + (high - low) * u.
    draws = np.empty((len(fields), spec.streak_count, 2))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).random(out=row)
    lows = np.array([-half_diag, 0.5])
    draws *= np.array([half_diag, 1.0]) - lows
    draws += lows
    # Signed distance to the line through the centre; each streak shifts it
    # by its offset.  Only its square is used.
    along = -st * (np.arange(w, dtype=float) - w / 2.0) + ct * (np.arange(h, dtype=float)[:, None] - h / 2.0)
    # One scratch pair, as large as the largest chunk's stack, serves every chunk.
    per_patch = spec.streak_count * h * w
    scratch = np.empty((2, per_patch * min(_chunk_rows(per_patch), len(fields))))
    for rows, params in _chunks(draws, per_patch):
        offset, factor = params.T[:, :, :, None, None]
        # One (streak, patch, h, w) stack.
        shape = (spec.streak_count, len(params), h, w)
        arg, streaks = (buf[: per_patch * len(params)].reshape(shape) for buf in scratch)
        np.subtract(along, offset, out=arg)
        np.multiply(arg, arg, out=arg)
        arg /= -(2.0 * sigma * sigma)
        # exp of anything below the cut-off is exactly 0.0, and numpy takes far
        # longer on such arguments than on ordinary ones, so skip them.
        streaks.fill(0.0)
        np.exp(arg, out=streaks, where=arg > _EXP_ZERO_BELOW)
        streaks *= spec.streak_amplitude * factor
        fields[rows] += streaks.sum(axis=0)
    return fields


def _chunk_rows(elements_per_row: int) -> int:
    """Rows per chunk: as many as fit in CHUNK_ELEMENTS, and at least one."""
    return max(1, CHUNK_ELEMENTS // elements_per_row)


def _chunks(draws: np.ndarray, elements_per_row: int):
    """(slice, draws[slice]) over consecutive row ranges whose stacks hold at most CHUNK_ELEMENTS."""
    step = _chunk_rows(elements_per_row)
    for start in range(0, len(draws), step):
        rows = slice(start, start + step)
        yield rows, draws[rows]


def _degrade_rows(stack: np.ndarray, spec: DegradeSpec, seeds) -> np.ndarray:
    """clamp(row + streak field, 0, 1) of each row of stack, in place, row i's streaks drawn from seeds[i]."""
    return np.clip(_add_streaks(stack, spec, seeds), 0.0, 1.0, out=stack)


def make_clean(seed: int, n: int, side: int = 32) -> list:
    """Smooth random fields: 3-6 Gaussian bumps, min-max normalized to [0, 1].

    Per patch the generator draws the bump count with rng.integers(3, 7) and
    then one uniform row (cx, cy, sig, amp) per bump, in that order.  Bump i
    is amp_i * exp(-((x - cx_i)^2 + (y - cy_i)^2) / (2 sig_i^2)), and the
    bumps are added in draw order, so every pixel is the same double as a
    per-bump `field += bump` loop gives.
    """
    return [Patch(pixels=row, domain_tag="clean") for row in _clean_stack(seed, n, side)]


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
    return _add_streaks(np.zeros((1, *shape)), spec, [spec.seed])[0]


def degrade(p: Patch, spec: DegradeSpec) -> Patch:
    """clamp(clean + streak_field, 0, 1), deterministic per spec.seed."""
    return Patch(pixels=_degrade_rows(_pixels(p)[None].copy(), spec, [spec.seed])[0], domain_tag="weather")


def make_unpaired_sets(n_per_domain: int, spec: DegradeSpec, seed: int, side: int = 32):
    """Unpaired training sets as (clean, weather) float64 (n, side, side) stacks.

    Weather patch i is degrade(source patch i, spec with seed base + 1000 + i).
    Each stack is range-checked once, as a Patch is.
    """
    base = _SEED_STRIDE * seed
    clean = _clean_stack(base + 1, n_per_domain, side)
    weather = _degrade_rows(_clean_stack(base + 2, n_per_domain, side), spec,
                            range(base + 1000, base + 1000 + n_per_domain))
    return _in_range(clean), _in_range(weather)


def make_eval_pairs(n: int, spec: DegradeSpec, seed: int, side: int = 32):
    """Held-out pairs for PSNR/SSIM evaluation only, as (weather, clean) float64 (n, side, side) stacks.

    Row i of weather degrades row i of clean with the spec's seed set to
    base + 500000 + i.  Each stack is range-checked once, as a Patch is.
    """
    base = _SEED_STRIDE * seed
    clean = _clean_stack(base + 3, n, side)
    weather = _degrade_rows(clean.copy(), spec, range(base + 500000, base + 500000 + n))
    return _in_range(weather), _in_range(clean)


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

