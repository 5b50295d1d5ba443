"""Atomic file output shared by every writer of the package, and its one CSV writer.

A file is written under a temporary name in its own directory and then
renamed over the target with os.replace, so a reader sees either the old
file or the whole new one, and a write that fails part-way leaves the old
file as it was and no temporary file behind.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", encoding: str | None = None):
    """Open a temporary sibling of path for writing; replace path with it when the block ends cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows) -> None:
    """A header line of columns, then one comma-joined line per row; float cells as repr(float(v))."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n")
