import numpy as np
import pytest

from dgpcyclegan.fileio import atomic_open, write_csv
from dgpcyclegan.nets import Discriminator, load_checkpoint, save_checkpoint
from dgpcyclegan.trainer import write_metrics_csv


class Broken:
    """A history row or a network whose every attribute read raises."""

    def __getattr__(self, name):
        raise RuntimeError("fails part-way")


def test_atomic_open_replaces_the_file_only_when_the_block_ends_cleanly(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("first\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("second, half written")
            raise RuntimeError("fails part-way")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_metrics_and_checkpoint_writes_keep_the_earlier_files(tmp_path):
    csv, ckpt = tmp_path / "metrics.csv", tmp_path / "ckpt.bin"
    disc = Discriminator(16, hidden=(5,), rng=np.random.default_rng(0))
    write_metrics_csv(csv, [])
    save_checkpoint(ckpt, {"disc_c": disc}, step=3)
    before = csv.read_bytes(), ckpt.read_bytes()
    with pytest.raises(RuntimeError):
        write_metrics_csv(csv, [Broken()])
    with pytest.raises(RuntimeError):
        save_checkpoint(ckpt, {"disc_c": disc, "disc_w": Broken()}, step=4)  # raises after the first net
    assert (csv.read_bytes(), ckpt.read_bytes()) == before
    assert load_checkpoint(ckpt)[1] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "metrics.csv"]


def test_write_csv_writes_a_numpy_float_as_its_plain_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("pair", "psnr"), [(0, np.float64(0.1)), (1, 2.5)])
    assert path.read_text(encoding="utf-8") == "pair,psnr\n0,0.1\n1,2.5\n"
