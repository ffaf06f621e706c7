"""Crash-safe file replacement for the durable outputs (checkpoints, logs,
grid results, selected configs, evaluation reports, ROC curves, and the
NPY arrays and manifest of a synthesized dataset).

A writer opens a temporary file next to the target, and only a complete,
flushed and synced file is renamed over the target with ``os.replace``.
A reader therefore sees the old file or the whole new one, never a torn
write, even when the writing process dies partway.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open ``path`` for writing through a temporary sibling file.  On a
    clean exit the file replaces ``path``; on an exception the temporary
    file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
