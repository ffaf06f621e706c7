"""Transformer encoder for multivariate sensor sequences with multi-task
pass/fail heads, built on a small self-contained autodiff core.

The usual entry points:

    synth_dataset / load_dataset   build or read train/val/test splits
    SstConfig, SstModel            configure and construct the model
    fit, grid_search               train with early stopping, sweep configs
    FitState                       fit's loop state, to drive epoch by epoch
    task_aucs, roc_curve           evaluate
    save_weights, load_weights     checkpoints

The ``sst`` console script wraps the same pipeline for the shell.
"""

import os

from sst.data import (
    Batch,
    derive_label_mask,
    label_counts,
    load_dataset,
    save_dataset,
    synth_dataset,
    time_split,
)
from sst.metrics import (
    RocCurve,
    SingleClassError,
    auc_score,
    format_report,
    multi_seed_report,
    roc_curve,
    roc_svg,
    task_aucs,
)
from sst.model import (
    CheckpointError,
    SstConfig,
    SstModel,
    load_weights,
    save_weights,
)
from sst.tensor import (
    DomainError,
    NumericsError,
    ShapeMismatchError,
    Tensor,
    grad_check,
)
from sst.training import (
    Adam,
    DivergenceError,
    FitState,
    LrSchedule,
    TaskWeights,
    TrainReport,
    class_weights,
    fit,
    grid_search,
    learning_rate,
    weighted_multitask_loss,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Batch",
    "CheckpointError",
    "DivergenceError",
    "DomainError",
    "FitState",
    "LrSchedule",
    "NumericsError",
    "RocCurve",
    "ShapeMismatchError",
    "SingleClassError",
    "SstConfig",
    "SstModel",
    "TaskWeights",
    "Tensor",
    "TrainReport",
    "auc_score",
    "class_weights",
    "derive_label_mask",
    "fit",
    "format_report",
    "grad_check",
    "grid_search",
    "label_counts",
    "learning_rate",
    "load_dataset",
    "load_weights",
    "multi_seed_report",
    "roc_curve",
    "roc_svg",
    "save_dataset",
    "save_weights",
    "synth_dataset",
    "task_aucs",
    "time_split",
    "__version__",
]


def _keep_heap() -> None:
    """Keep freed heap memory for the next training step or inference block.

    A training step allocates its tape, uses it and frees it, and the next
    step allocates the same sizes again.  glibc by default trims the top of
    the heap once more than twice its largest freed mmapped chunk is free
    there, so whether a step's pages are returned and faulted in again
    depends on which long-lived array happens to sit above them.  Arrays
    up to 32 MiB therefore come from the heap, and its top is trimmed only
    when more than 256 MiB is free.  An environment that sets either
    threshold keeps its own choice; other C libraries are left alone.
    """
    if "CS_GNU_LIBC_VERSION" not in os.confstr_names:
        return
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(f"MALLOC_{name.upper()}_" in os.environ or f"glibc.malloc.{name}" in tunables
           for name in ("mmap_threshold", "trim_threshold")):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_heap()
