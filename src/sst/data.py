"""Dataset preparation: chronological splits, label accounting,
manifest-driven loading, and synthetic data generation.

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

from sst.fileio import atomic_write, read_json_object
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
    """Presence mask from (neg, pos) pairs of 0/1 entries: sum 1 means
    measured, sum 0 means absent; any other entry or sum is a malformed
    label row."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[1] % 2 != 0:
        raise ValueError(f"labels must be [B, 2m], got {labels.shape}")
    off = (labels != 0.0) & (labels != 1.0)
    if np.any(off):
        i, col = np.argwhere(off)[0]
        raise ValueError(
            f"label for sample {i}, task {col // 2} is {labels[i, col]}, expected 0 or 1"
        )
    pairs = labels.reshape(labels.shape[0], labels.shape[1] // 2, 2)
    sums = pairs.sum(axis=2)
    bad = (sums != 0.0) & (sums != 1.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"label pair for sample {i}, task {j} sums to {sums[i, j]}, expected 0 or 1"
        )
    return (sums == 1.0).astype(np.float64)


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
    pairs = labels.reshape(labels.shape[0], labels.shape[1] // 2, 2)
    counts = (pairs * mask[:, :, None]).sum(axis=0)
    return counts.astype(np.int64)


# -- manifest ----------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")

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
    (not bool) ``m``, ``n_features`` and ``timesteps`` of at least 1 and
    ``seed`` of at least 0, and ``splits`` mapping each split name to an
    object of string ``x`` and ``y`` paths.  Anything else raises
    ``ValueError`` naming the file and the key."""
    doc = read_json_object(path)
    if set(doc) != MANIFEST_KEYS:
        raise ValueError(
            f"{path}: manifest must have exactly keys {sorted(MANIFEST_KEYS)}, got {sorted(doc)}"
        )
    for key in MANIFEST_INT_KEYS:
        least = 0 if key == "seed" else 1
        if isinstance(doc[key], bool) or not isinstance(doc[key], int) or doc[key] < least:
            raise ValueError(
                f"{path}: manifest key '{key}' must be an integer of at least {least}, "
                f"got {doc[key]!r}"
            )
    if not isinstance(doc["splits"], dict):
        raise ValueError(
            f"{path}: manifest key 'splits' must be an object, got {type(doc['splits']).__name__}"
        )
    for split, entry in doc["splits"].items():
        if not (isinstance(entry, dict) and set(entry) == {"x", "y"}
                and all(isinstance(v, str) for v in entry.values())):
            raise ValueError(f"{path}: manifest split '{split}' must map to string x/y paths")
    return doc


def load_split(x_path, y_path, *, m: int, timesteps: int, n_features: int) -> Batch:
    """Load one split from NPY files, deriving both masks.

    ``x`` must have shape ``(n, timesteps, n_features)`` and ``y`` shape
    ``(n, 2m)``, with ``n`` the sample count of ``x``.  The padding mask
    is the indicator column (last feature), and every sample needs an
    unpadded step; the label mask comes from (neg, pos) pair sums.  The
    indicator and every label must be strictly 0/1; published files are
    validated, not trusted, and an error names the file.
    """
    tensors = []
    for path, tail in ((x_path, (timesteps, n_features)), (y_path, (2 * m,))):
        npy = read_npy(path)
        if npy.fortran_order:
            raise ValueError(f"{path}: pipeline accepts C-order arrays only")
        n = (tensors[0] if tensors else npy).shape[:1]  # y takes x's sample count
        want = (*n, *tail)
        if npy.shape != want:
            raise ValueError(f"{path}: expected shape {want} from the manifest, got {npy.shape}")
        try:  # the Tensor's own finiteness check is the only pass over the data
            tensors.append(Tensor(npy.array.astype(np.float64, copy=False)))
        except NumericsError as err:
            raise ValueError(f"{path}: contains NaN or Inf values") from err
    x, y = (t.data for t in tensors)
    indicator = x[:, :, -1]
    if not np.all(np.isin(indicator, (0.0, 1.0))):
        raise ValueError(f"{x_path}: padding indicator column contains non-0/1 values")
    all_padded = indicator.all(axis=1)
    if all_padded.any():
        raise ValueError(f"{x_path}: sample {int(np.argmax(all_padded))} is padded at every step")
    try:
        label_mask = derive_label_mask(y)
    except ValueError as err:
        raise ValueError(f"{y_path}: {err}") from err
    return Batch(
        x=tensors[0],
        pad_mask=Tensor(indicator),
        labels=tensors[1],
        label_mask=Tensor(label_mask),
    )


def load_splits(manifest_path, names=SPLIT_NAMES) -> tuple[list[Batch], dict]:
    """Load the named splits of a manifest, and only those, as Batches in
    the order named; paths are resolved relative to the manifest file.
    Returns ``(batches, manifest)``."""
    manifest = load_manifest(manifest_path)
    base = Path(manifest_path).parent
    batches = []
    for split in names:
        if split not in manifest["splits"]:
            raise ValueError(f"manifest lacks split '{split}'")
        entry = manifest["splits"][split]
        batches.append(load_split(base / entry["x"], base / entry["y"], m=manifest["m"],
                                  timesteps=manifest["timesteps"],
                                  n_features=manifest["n_features"]))
    return batches, manifest


def load_dataset(manifest_path):
    """Load the train/val/test Batches of a manifest; returns
    ``(train, val, test, manifest)``."""
    (train, val, test), manifest = load_splits(manifest_path)
    return train, val, test, manifest


# -- synthetic data ----------------------------------------------------


@dataclass
class SynthData:
    train: Batch
    val: Batch
    test: Batch
    latent_scores: np.ndarray  # [B, m] noiseless scores, generation order
    timesteps: int          # padded length T*


# samples per normal draw in synth_dataset; bounds its temporaries
_SYNTH_BLOCK_ROWS = 1024


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
    and splits are chronological in generation order; a sample count or
    ratio that leaves a split empty raises ``ValueError`` before anything
    is drawn.

    Each split's ``x`` is allocated once and filled in place, in blocks of
    ``_SYNTH_BLOCK_ROWS`` samples.  A block's ``rng.normal`` draw of
    ``[sum of its lengths, F]`` continues the one stream, so the blocks
    together give the same numbers as one ``[t_i, F]`` draw per sample in
    sample order, and every later draw is unchanged too.  The time average
    is one mean per distinct length t in a block, over exactly the first t
    steps of that length's samples.  Each sample's steps are then added in
    the order a mean of its own ``[t, F]`` array adds them; a sum over the
    padded length divided by t adds them in another order (numpy sums a
    ``[t, 1]`` array pairwise) and changes the last bit.
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
    spans = time_split(range(n_samples), ratios)
    for name, span in zip(SPLIT_NAMES, spans):
        if not span:
            raise ValueError(
                f"{name} split is empty: {n_samples} samples at ratios {tuple(ratios)} "
                f"give split sizes {tuple(len(s) for s in spans)}"
            )

    rng = np.random.default_rng(seed)
    lengths = np.where(
        rng.random(n_samples) < 0.75,
        timesteps,
        rng.integers(1, timesteps + 1, size=n_samples),
    )
    # the outputs are allocated before any temporary, so the temporaries
    # freed during the fill leave no holes between them on the heap
    xs = [np.zeros((len(span), timesteps, n_features + 1)) for span in spans]
    pad_mask = (np.arange(timesteps) >= lengths[:, None]).astype(np.float64)  # [B, T]
    pooled = np.empty((n_samples, n_features))  # [B, F]
    for x, span in zip(xs, spans):
        for lo in range(0, len(span), _SYNTH_BLOCK_ROWS):
            block = x[lo:lo + _SYNTH_BLOCK_ROWS]
            first = span.start + lo
            block_lengths = lengths[first:first + len(block)]
            # boolean indexing walks the observed (sample, step) positions
            # in sample order, the order of the draw
            observed = pad_mask[first:first + len(block)] == 0.0
            block[observed, :n_features] = rng.normal(
                size=(int(block_lengths.sum()), n_features))
            for t in np.unique(block_lengths):
                rows = np.flatnonzero(block_lengths == t)
                pooled[first + rows] = block[rows, :t, :n_features].mean(axis=1)
        x[:, :, -1] = pad_mask[span.start:span.stop]  # indicator column mirrors the mask

    support = max(1, n_features // 2)
    latent_w = np.zeros((m, n_features))
    for j in range(m):
        chosen = rng.choice(n_features, size=support, replace=False)
        latent_w[j, chosen] = rng.normal(size=support)

    scores = pooled @ latent_w.T  # [B, m]
    del pooled

    noisy = scores
    if math.isfinite(separability):
        sd = scores.std(axis=0) / separability
        noisy = scores + rng.normal(size=scores.shape) * sd

    labels = np.zeros((n_samples, 2 * m))
    present = (rng.random((n_samples, m)) < label_rate).astype(np.float64)
    for j in range(m):
        threshold = np.quantile(noisy[:, j], 1.0 - imbalance)
        positive = noisy[:, j] > threshold
        if not positive.any():
            raise ValueError(f"infeasible imbalance: task {j} received no positive labels")
        labels[:, 2 * j] = np.where(present[:, j] == 1.0, ~positive, 0.0)
        labels[:, 2 * j + 1] = np.where(present[:, j] == 1.0, positive, 0.0)

    train, val, test = (
        Batch(x=Tensor(x), pad_mask=Tensor(pad_mask[span.start:span.stop]),
              labels=Tensor(labels[span.start:span.stop]),
              label_mask=Tensor(present[span.start:span.stop]))
        for x, span in zip(xs, spans)
    )
    return SynthData(train=train, val=val, test=test,
                     latent_scores=scores, timesteps=timesteps)


def save_dataset(data: SynthData, out_dir, *, m: int, seed: int) -> Path:
    """Write the three splits as NPY pairs plus a manifest; returns the
    manifest path.  An existing manifest is removed before the first NPY
    is written, so an interrupted write leaves no manifest beside a mix of
    old and new files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    splits = {}
    for name in SPLIT_NAMES:
        batch = getattr(data, name)
        write_npy(batch.x.data, out / f"{name}_x.npy")
        write_npy(batch.labels.data, out / f"{name}_y.npy")
        splits[name] = {"x": f"{name}_x.npy", "y": f"{name}_y.npy"}
    save_manifest(manifest_path, m=m, n_features=data.train.x.shape[-1],
                  timesteps=data.timesteps, seed=seed, splits=splits)
    return manifest_path
