"""Crash-safe file replacement for the durable outputs (checkpoints, logs,
grid results, selected configs, evaluation reports, ROC curves, and the
NPY arrays and manifest of a synthesized dataset), ``write_table``, the
one writer of the CSV tables among them, and ``read_json_object``, the one
reader of JSON inputs (manifests and config files).

A writer opens a temporary file next to the target, and only a complete,
flushed and synced file is renamed over the target with ``os.replace``.
A reader therefore sees the old file or the whole new one, never a torn
write, even when the writing process dies partway.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np


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


def write_table(path, header, rows) -> None:
    """Replace ``path`` atomically with a UTF-8 CSV of the ``header`` row and
    then ``rows``.  ``None`` is written as an empty field and a float, a
    numpy float included, as ``repr(float(v))``, so it reads back bit for
    bit; any other cell is written as it is."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None
                             else repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file ``path``.  Bytes that are not
    UTF-8, malformed JSON, or a JSON value other than an object raise
    ``ValueError`` naming the file."""
    try:  # UnicodeDecodeError and JSONDecodeError are both ValueErrors
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: must be a JSON object, got {type(obj).__name__}")
    return obj
