"""Dataset preparation: scaling, imputation, padding, chronological splits,
label accounting, manifest-driven loading, and synthetic data generation.

Conventions used throughout:
  - inputs are rank-3 [n_sample, time_step, feature] arrays;
  - the LAST feature column is a padding indicator (1 on padded steps);
  - label arrays are [n_sample, 2m] with columns paired per task as
    (negative, positive); an all-zero pair means the task was not measured
    for that sample, which yields a 0 in the derived label-presence mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sst.fileio import atomic_write
from sst.npyio import read_npy, write_npy
from sst.tensor import NumericsError, Tensor


@dataclass
class Batch:
    """One split of a dataset, ready for the model."""

    x: Tensor           # [B, T, F]
    pad_mask: Tensor    # [B, T], 1 = padded
    labels: Tensor      # [B, 2m], (neg, pos) pairs
    label_mask: Tensor  # [B, m], 1 = task measured

    def __post_init__(self):
        b, t, _ = self.x.shape
        m2 = self.labels.shape[1]
        if self.pad_mask.shape != (b, t):
            raise ValueError(f"pad_mask shape {self.pad_mask.shape} != ({b}, {t})")
        if m2 % 2 != 0:
            raise ValueError(f"label width {m2} is odd, expected (neg, pos) pairs")
        if self.labels.shape[0] != b or self.label_mask.shape != (b, m2 // 2):
            raise ValueError("label/label_mask shapes inconsistent with batch size")

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def take(self, idx) -> "Batch":
        return Batch(
            x=Tensor(self.x.data[idx]),
            pad_mask=Tensor(self.pad_mask.data[idx]),
            labels=Tensor(self.labels.data[idx]),
            label_mask=Tensor(self.label_mask.data[idx]),
        )


def derive_label_mask(labels: np.ndarray) -> np.ndarray:
    """Presence mask from (neg, pos) pairs: sum 1 means measured, sum 0
    means absent; anything else is a malformed label row."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[1] % 2 != 0:
        raise ValueError(f"labels must be [B, 2m], got {labels.shape}")
    pairs = labels.reshape(labels.shape[0], -1, 2)
    sums = pairs.sum(axis=2)
    bad = (sums != 0.0) & (sums != 1.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"label pair for sample {i}, task {j} sums to {sums[i, j]}, expected 0 or 1"
        )
    return (sums == 1.0).astype(np.float64)


# -- scaling -----------------------------------------------------------


@dataclass
class ScalerState:
    min_: np.ndarray  # per feature
    max_: np.ndarray


def fit_scaler(train_x) -> ScalerState:
    """Per-feature min/max over every (sample, timestep) pair of the
    training split.  Fit on training data only; apply everywhere."""
    arr = np.asarray(train_x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot fit scaler on empty data")
    flat = arr.reshape(-1, arr.shape[-1])
    return ScalerState(min_=flat.min(axis=0), max_=flat.max(axis=0))


def apply_scaler(state: ScalerState, x) -> np.ndarray:
    """(x - min) / (max - min); constant features map to 0.  Out-of-range
    values (e.g. validation beyond the training envelope) pass through
    unclipped."""
    arr = np.asarray(x, dtype=np.float64)
    span = state.max_ - state.min_
    safe = np.where(span == 0.0, 1.0, span)
    out = (arr - state.min_) / safe
    return np.where(span == 0.0, 0.0, out)


# -- imputation --------------------------------------------------------


def feature_modes(train_x) -> np.ndarray:
    """Per-feature mode over all non-missing training values; ties break
    toward the smallest value."""
    arr = np.asarray(train_x, dtype=np.float64).reshape(-1, np.shape(train_x)[-1])
    modes = np.empty(arr.shape[1])
    for f in range(arr.shape[1]):
        col = arr[:, f]
        col = col[~np.isnan(col)]
        if col.size == 0:
            raise ValueError(f"feature {f} has no observed training values to take a mode from")
        values, counts = np.unique(col, return_counts=True)
        modes[f] = values[np.argmax(counts)]  # np.unique sorts, so ties pick the smallest
    return modes


def impute(x, stage_ids, modes: np.ndarray) -> np.ndarray:
    """Fill NaNs within each (sample, stage) group by forward fill then
    backward fill along time; anything still missing falls back to the
    training mode of that feature."""
    arr = np.array(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"impute expects [B, T, F], got shape {arr.shape}")
    stage_ids = np.asarray(stage_ids)
    if stage_ids.shape != (arr.shape[1],):
        raise ValueError(
            f"stage_ids must have one entry per timestep ({arr.shape[1]}), got {stage_ids.shape}"
        )
    for stage in np.unique(stage_ids):
        steps = np.flatnonzero(stage_ids == stage)
        block = arr[:, steps, :]
        # forward fill along the time axis
        for k in range(1, len(steps)):
            gap = np.isnan(block[:, k, :])
            block[:, k, :][gap] = block[:, k - 1, :][gap]
        # then backward fill
        for k in range(len(steps) - 2, -1, -1):
            gap = np.isnan(block[:, k, :])
            block[:, k, :][gap] = block[:, k + 1, :][gap]
        arr[:, steps, :] = block
    residual = np.isnan(arr)
    if np.any(residual):
        arr = np.where(residual, np.broadcast_to(modes, arr.shape), arr)
    return arr


# -- padding -----------------------------------------------------------


def percentile_length(lengths) -> int:
    """Nearest-rank 99th percentile (ceil variant): the smallest length with
    at least ceil(0.99*n) lengths at or below it."""
    lengths = sorted(int(n) for n in lengths)
    if not lengths:
        raise ValueError("no sequence lengths given")
    rank = max(1, math.ceil(0.99 * len(lengths)))
    return lengths[rank - 1]


def pad_sequences(sequences, t_star: int | None = None):
    """Pad/truncate variable-length [T_i, F] sequences to a common length.

    Returns (x [B, T*, F+1], pad_mask [B, T*], T*).  T* defaults to the
    99th-percentile length; longer sequences keep their earliest T* steps.
    The appended final feature column is the padding indicator.
    """
    sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not sequences:
        raise ValueError("pad_sequences needs at least one sequence")
    for i, s in enumerate(sequences):
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError(f"sequence {i} must be [T>=1, F], got shape {s.shape}")
    n_features = sequences[0].shape[1]
    if t_star is None:
        t_star = percentile_length([s.shape[0] for s in sequences])

    x = np.zeros((len(sequences), t_star, n_features + 1))
    pad_mask = np.ones((len(sequences), t_star))
    for i, s in enumerate(sequences):
        keep = min(s.shape[0], t_star)
        x[i, :keep, :n_features] = s[:keep]
        pad_mask[i, :keep] = 0.0
    x[:, :, -1] = pad_mask  # indicator column mirrors the mask
    return x, pad_mask, t_star


# -- splitting ---------------------------------------------------------


def split_sizes(n: int, ratios=(70, 14, 8)) -> tuple[int, int, int]:
    total = sum(ratios)
    if total <= 0 or len(ratios) != 3:
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    sizes = [math.floor(n * r / total) for r in ratios]
    sizes[0] += n - sum(sizes)  # remainder goes to train
    return tuple(sizes)


def time_split(items, ratios=(70, 14, 8)):
    """Chronological prefix/middle/suffix split; items must already be
    ordered by time.  No shuffling happens across the boundaries."""
    n = len(items)
    if n < 3:
        raise ValueError(f"need at least 3 samples to split, got {n}")
    n_train, n_val, _ = split_sizes(n, ratios)
    return (
        items[:n_train],
        items[n_train:n_train + n_val],
        items[n_train + n_val:],
    )


# -- label accounting --------------------------------------------------


def label_counts(labels, label_mask) -> np.ndarray:
    """Counts n[j][t] of measured samples per task j and label t (0 =
    negative, 1 = positive)."""
    labels = np.asarray(labels, dtype=np.float64)
    mask = np.asarray(label_mask, dtype=np.float64)
    pairs = labels.reshape(labels.shape[0], -1, 2)
    counts = (pairs * mask[:, :, None]).sum(axis=0)
    return counts.astype(np.int64)


# -- manifest ----------------------------------------------------------

MANIFEST_INT_KEYS = ("m", "n_features", "timesteps", "seed")
MANIFEST_KEYS = {*MANIFEST_INT_KEYS, "splits"}


def save_manifest(path, *, m: int, n_features: int, timesteps: int, seed: int,
                  splits: dict[str, dict[str, str]]) -> None:
    doc = {"m": m, "n_features": n_features, "timesteps": timesteps,
           "seed": seed, "splits": splits}
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> dict:
    """A manifest is a JSON object with exactly the ``MANIFEST_KEYS``: int
    (not bool) ``m``, ``n_features``, ``timesteps`` and ``seed``, and
    ``splits`` mapping each split name to an object of string ``x`` and
    ``y`` paths.  Anything else raises ``ValueError`` naming the file and
    the key."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    if set(doc) != MANIFEST_KEYS:
        raise ValueError(
            f"{path}: manifest must have exactly keys {sorted(MANIFEST_KEYS)}, got {sorted(doc)}"
        )
    for key in MANIFEST_INT_KEYS:
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValueError(f"{path}: manifest key '{key}' must be an integer, got {doc[key]!r}")
    if not isinstance(doc["splits"], dict):
        raise ValueError(
            f"{path}: manifest key 'splits' must be an object, got {type(doc['splits']).__name__}"
        )
    for split, entry in doc["splits"].items():
        if not (isinstance(entry, dict) and set(entry) == {"x", "y"}
                and all(isinstance(v, str) for v in entry.values())):
            raise ValueError(f"{path}: manifest split '{split}' must map to string x/y paths")
    return doc


def load_split(x_path, y_path, *, n_tasks: int) -> Batch:
    """Load one split from NPY files, deriving both masks.

    The padding mask comes from the indicator column (last feature); the
    label mask comes from (neg, pos) pair sums.  The indicator must be
    strictly 0/1; published files are validated, not trusted.
    """
    x_npy = read_npy(x_path)
    y_npy = read_npy(y_path)
    if x_npy.fortran_order or y_npy.fortran_order:
        raise ValueError("pipeline accepts C-order arrays only")
    x = x_npy.array.astype(np.float64, copy=False)
    y = y_npy.array.astype(np.float64, copy=False)
    if x.ndim != 3:
        raise ValueError(f"{x_path}: expected rank-3 [n, T, F], got shape {x.shape}")
    if y.ndim != 2 or y.shape[1] != 2 * n_tasks:
        raise ValueError(
            f"{y_path}: expected [n, {2 * n_tasks}] labels, got shape {y.shape}"
        )
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"sample count mismatch: {x_path} has {x.shape[0]}, {y_path} has {y.shape[0]}"
        )
    tensors = []
    for path, arr in ((x_path, x), (y_path, y)):
        try:  # the Tensor's own finiteness check is the only pass over the data
            tensors.append(Tensor(arr))
        except NumericsError as err:
            raise ValueError(f"{path}: contains NaN or Inf values") from err
    indicator = x[:, :, -1]
    if not np.all(np.isin(indicator, (0.0, 1.0))):
        raise ValueError(f"{x_path}: padding indicator column contains non-0/1 values")
    return Batch(
        x=tensors[0],
        pad_mask=Tensor(indicator),
        labels=tensors[1],
        label_mask=Tensor(derive_label_mask(y)),
    )


def load_dataset(manifest_path):
    """Load train/val/test Batches as named in a manifest; paths are
    resolved relative to the manifest file."""
    manifest = load_manifest(manifest_path)
    base = Path(manifest_path).parent
    batches = {}
    for split in ("train", "val", "test"):
        if split not in manifest["splits"]:
            raise ValueError(f"manifest lacks split '{split}'")
        entry = manifest["splits"][split]
        batches[split] = load_split(
            base / entry["x"], base / entry["y"], n_tasks=manifest["m"]
        )
    return batches["train"], batches["val"], batches["test"], manifest


# -- synthetic data ----------------------------------------------------


@dataclass
class SynthData:
    train: Batch
    val: Batch
    test: Batch
    latent_scores: np.ndarray  # [B, m] noiseless scores, generation order
    timesteps: int          # padded length T*


def synth_dataset(m: int, n_samples: int, timesteps: int, n_features: int,
                  separability: float, imbalance: float, seed: int,
                  ratios=(70, 14, 8), label_rate: float = 0.9) -> SynthData:
    """Generate a deterministic multi-task binary dataset.

    Each task draws a sparse linear rule over roughly half the features.
    A sample's task score is the rule applied to its time-averaged
    features; Gaussian noise with sd = std(score)/separability is added
    (infinite separability means none), and the top `imbalance` fraction
    becomes positive.  Labels are measured with probability label_rate.
    Sequence lengths vary (about a quarter are shorter than `timesteps`),
    and splits are chronological in generation order.

    The data is built with whole-array operations.  One ``rng.normal`` draw
    of ``[sum of lengths, F]`` gives the same numbers as one ``[t_i, F]``
    draw per sample in sample order, so every later draw is unchanged too.
    The time average is one mean per distinct length t, over exactly the
    first t steps of that length's samples.  Each sample's steps are then
    added in the order a mean of its own ``[t, F]`` array adds them; a sum
    over the padded length divided by t adds them in another order (numpy
    sums a ``[t, 1]`` array pairwise) and changes the last bit.
    """
    if min(m, n_samples, timesteps, n_features) < 1:
        raise ValueError("m, n_samples, timesteps, n_features must all be positive")
    if not 0.0 < imbalance < 1.0:
        raise ValueError(f"imbalance must lie in (0, 1), got {imbalance}")
    if not separability > 0:  # NaN fails this too
        raise ValueError(f"separability must be positive, got {separability}")
    if not 0.0 < label_rate <= 1.0:
        raise ValueError(f"label_rate must lie in (0, 1], got {label_rate}")
    expected_pos = n_samples * imbalance
    if expected_pos < 1:
        raise ValueError(
            f"infeasible imbalance: {imbalance} of {n_samples} samples yields no positives"
        )

    rng = np.random.default_rng(seed)
    lengths = np.where(
        rng.random(n_samples) < 0.75,
        timesteps,
        rng.integers(1, timesteps + 1, size=n_samples),
    )
    # boolean indexing walks the observed (sample, step) positions in
    # sample order, the order of the draw
    observed = np.arange(timesteps) < lengths[:, None]  # [B, T]
    x = np.zeros((n_samples, timesteps, n_features + 1))
    x[observed, :n_features] = rng.normal(size=(int(lengths.sum()), n_features))
    pad_mask = (~observed).astype(np.float64)
    x[:, :, -1] = pad_mask  # indicator column mirrors the mask

    support = max(1, n_features // 2)
    latent_w = np.zeros((m, n_features))
    for j in range(m):
        chosen = rng.choice(n_features, size=support, replace=False)
        latent_w[j, chosen] = rng.normal(size=support)

    pooled = np.empty((n_samples, n_features))  # [B, F]
    for t in np.unique(lengths):
        rows = np.flatnonzero(lengths == t)
        pooled[rows] = x[rows, :t, :n_features].mean(axis=1)
    scores = pooled @ latent_w.T  # [B, m]

    noisy = scores.copy()
    if math.isfinite(separability):
        sd = scores.std(axis=0) / separability
        noisy = noisy + rng.normal(size=scores.shape) * sd

    labels = np.zeros((n_samples, 2 * m))
    present = (rng.random((n_samples, m)) < label_rate).astype(np.float64)
    for j in range(m):
        threshold = np.quantile(noisy[:, j], 1.0 - imbalance)
        positive = noisy[:, j] > threshold
        if not positive.any():
            raise ValueError(f"infeasible imbalance: task {j} received no positive labels")
        labels[:, 2 * j] = np.where(present[:, j] == 1.0, ~positive, 0.0)
        labels[:, 2 * j + 1] = np.where(present[:, j] == 1.0, positive, 0.0)

    idx = np.arange(n_samples)
    parts = time_split(idx, ratios)
    full = Batch(
        x=Tensor(x),
        pad_mask=Tensor(pad_mask),
        labels=Tensor(labels),
        label_mask=Tensor(derive_label_mask(labels)),
    )
    train, val, test = (full.take(p) for p in parts)
    return SynthData(train=train, val=val, test=test,
                     latent_scores=scores, timesteps=timesteps)


def save_dataset(data: SynthData, out_dir, *, m: int, seed: int) -> Path:
    """Write the three splits as NPY pairs plus a manifest; returns the
    manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    splits = {}
    for name, batch in (("train", data.train), ("val", data.val), ("test", data.test)):
        write_npy(batch.x.data, out / f"{name}_x.npy")
        write_npy(batch.labels.data, out / f"{name}_y.npy")
        splits[name] = {"x": f"{name}_x.npy", "y": f"{name}_y.npy"}
    manifest_path = out / "manifest.json"
    save_manifest(
        manifest_path,
        m=m,
        n_features=data.train.x.shape[-1],
        timesteps=data.timesteps,
        seed=seed,
        splits=splits,
    )
    return manifest_path
