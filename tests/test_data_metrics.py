import tracemalloc

import numpy as np
import pytest

from dgpcyclegan import data_metrics
from dgpcyclegan.data_metrics import (
    CHUNK_ELEMENTS,
    DegradeSpec,
    _clean_stack,
    _degrade_rows,
    make_eval_pairs,
    make_unpaired_sets,
    psnr,
    read_pgm,
    ssim,
    streak_field,
    write_pgm,
)
from dgpcyclegan.errors import MalformedFile, ShapeMismatch, TooSmall


# --- synthetic data ----------------------------------------------------------


def test_degrade_amplitude_zero_is_identity():
    clean = _clean_stack(1, 1, 32)
    out = _degrade_rows(clean.copy(), DegradeSpec(streak_amplitude=0.0, seed=3), [3])
    assert np.array_equal(out, clean)


@pytest.mark.parametrize("count", [0, -3])
def test_streak_field_without_streaks_is_zero(count):
    field = streak_field(DegradeSpec(streak_count=count, seed=4), (12, 14))
    assert field.shape == (12, 14)
    assert not field.any()


def test_degrade_additive_below_clamp():
    # Scale the clean patch down so clean + streaks never clips; then the
    # degradation is exactly the additive streak field.
    clean = _clean_stack(2, 1, 32) * 0.3
    spec = DegradeSpec(streak_count=5, streak_amplitude=0.15, seed=7)
    field = streak_field(spec, clean.shape[1:])
    assert field.min() >= 0.0
    assert field.max() + 0.3 <= 1.0
    out = _degrade_rows(clean.copy(), spec, [spec.seed])
    assert np.allclose(out[0] - clean[0], field, atol=1e-12)


def test_unpaired_sets_are_disjoint_and_eval_is_paired():
    clean, weather = make_unpaired_sets(10, DegradeSpec(seed=0), seed=1)
    assert len(clean) == len(weather) == 10
    eval_weather, eval_clean = make_eval_pairs(4, DegradeSpec(seed=0), seed=1)
    assert len(eval_weather) == len(eval_clean) == 4
    for w, c in zip(eval_weather, eval_clean):
        # paired: the weather image is a degradation of exactly this clean one
        assert np.all(w + 1e-12 >= c * 0 + w.min())
        assert psnr(w, c) < 99.0
    # unpaired: no clean training patch equals any eval clean patch
    for c_eval in eval_clean:
        assert all(not np.array_equal(c_eval, c) for c in clean)


def test_each_set_is_rows_of_one_stack():
    sets = (*make_unpaired_sets(7, DegradeSpec(seed=0), seed=2, side=12),
            *make_eval_pairs(3, DegradeSpec(seed=0), seed=2, side=12))
    for stack, n in zip(sets, (7, 7, 3, 3)):
        assert type(stack) is np.ndarray and stack.dtype == np.float64
        assert stack.shape == (n, 12, 12) and stack.flags.c_contiguous


@pytest.mark.parametrize("row", [0, -1], ids=["first_row", "last_row"])
@pytest.mark.parametrize("build", [make_unpaired_sets, make_eval_pairs])
def test_set_with_a_pixel_out_of_range_is_refused(monkeypatch, build, row):
    # The clean stacks are not clipped, so a bad bump sum reaches the range check.
    real = data_metrics._clean_stack

    def one_bad_pixel(seed, n, side):
        stack = real(seed, n, side)
        stack[row, -1, -1] = 1.5
        return stack

    monkeypatch.setattr(data_metrics, "_clean_stack", one_bad_pixel)
    with pytest.raises(ValueError, match=r"patch pixels must lie in \[0, 1\]"):
        build(5, DegradeSpec(seed=0), 1, 12)


# Per patch: its bump and streak draws (at most 448 B).
PATCH_OVERHEAD = 448


@pytest.mark.parametrize("n, side", [(400, 16), (200, 32)], ids=["gp_wide", "desk"])
def test_unpaired_sets_peak_memory_is_the_output_plus_a_few_chunks(n, side):
    make_unpaired_sets(2, DegradeSpec(), 1, side)  # warm numpy's caches first
    tracemalloc.start()
    try:
        clean, weather = make_unpaired_sets(n, DegradeSpec(), 1, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacks = 2 * n * side * side * 8
    assert peak <= stacks + 2 * n * PATCH_OVERHEAD + 4 * CHUNK_ELEMENTS * 8


# --- psnr --------------------------------------------------------------------


def test_psnr_of_nan_restoration_is_nan():
    # a diverged run must not score the cap
    assert np.isnan(psnr(np.full((16, 16), np.nan), np.zeros((16, 16))))


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# --- ssim --------------------------------------------------------------------


def test_ssim_self_is_exactly_one():
    img = np.random.default_rng(52).uniform(0, 1, (32, 32))
    assert ssim(img, img) == 1.0


def test_ssim_symmetry():
    rng = np.random.default_rng(53)
    a = rng.uniform(0, 1, (20, 20))
    b = rng.uniform(0, 1, (20, 20))
    assert ssim(a, b) == ssim(b, a)


def test_ssim_constant_images_closed_form():
    # mu1=0.2, mu2=0.8, zero variance: (2*0.16 + 1e-4) / (0.04 + 0.64 + 1e-4)
    a = np.full((16, 16), 0.2)
    b = np.full((16, 16), 0.8)
    expected = (2 * 0.2 * 0.8 + 1e-4) / (0.2 ** 2 + 0.8 ** 2 + 1e-4)
    assert abs(ssim(a, b) - expected) < 1e-12
    assert abs(ssim(a, b) - 0.4702) < 1e-3


def test_ssim_bounded():
    rng = np.random.default_rng(54)
    for _ in range(10):
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_too_small_and_shape_mismatch():
    with pytest.raises(TooSmall):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ShapeMismatch):
        ssim(np.zeros((16, 16)), np.zeros((16, 17)))


# --- pgm ---------------------------------------------------------------------


def test_pgm_roundtrip_within_quantization(tmp_path):
    p = _clean_stack(6, 1, 32)[0]
    path = tmp_path / "img.pgm"
    write_pgm(path, p)
    back = read_pgm(path)
    assert back.dtype == np.float64 and back.shape == p.shape
    assert np.max(np.abs(back - p)) <= 1.0 / 255.0


def test_write_pgm_refuses_a_stack(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_pgm(tmp_path / "img.pgm", np.zeros((2, 4, 4)))
    assert not list(tmp_path.iterdir())


def test_pgm_header_tokens(tmp_path):
    p = _clean_stack(7, 1, 32)[0]
    path = tmp_path / "img.pgm"
    write_pgm(path, p)
    head = path.read_bytes()[:64].split(b"\n")
    tokens = b" ".join(head[:3]).split()
    assert tokens == [b"P5", b"32", b"32", b"255"]


def test_pgm_truncated_rejected(tmp_path):
    p = _clean_stack(8, 1, 32)[0]
    path = tmp_path / "img.pgm"
    write_pgm(path, p)
    path.write_bytes(path.read_bytes()[: 15 + 100])
    with pytest.raises(MalformedFile):
        read_pgm(path)


def test_pgm_bad_magic_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(MalformedFile):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P5\n-2 2\n255\n", b"P5\n0 3\n255\n"], ids=["negative-width", "zero-width"])
def test_pgm_nonpositive_size_rejected(tmp_path, header):
    # Enough pixel bytes follow that only the size check can refuse the file.
    path = tmp_path / "img.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(MalformedFile, match="not positive"):
        read_pgm(path)


def test_pgm_comment_header_accepted(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    pixels = read_pgm(path)
    assert pixels.shape == (2, 2)
    assert pixels[0, 1] == 128 / 255
