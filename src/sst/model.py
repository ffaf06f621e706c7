"""Full sequence classifier: embedding, positional encoding, a stack of
encoder blocks, mask-aware pooling, and a sigmoid MLP emitting one
(negative, positive) head pair per task.

``SstModel.infer`` is the one inference path: ``predict_proba``, and with
it ``sst eval``, and the validation loss and AUCs of training all call it.
It runs the tape-free forward in blocks of samples (see its docstring).

The checkpoint format is binary: magic, one version byte, an 8-byte
little-endian length, the config as canonical JSON, then every parameter
buffer as raw little-endian float64 in declaration order.  Round trips are
bit-exact; any mismatch fails loudly before a model is returned.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from sst import layers as L
from sst import tensor as T
from sst.fileio import atomic_write
from sst.tensor import DomainError, ShapeMismatchError, Tensor

CHECKPOINT_MAGIC = b"SSTCKPT"
CHECKPOINT_VERSION = 1

# Token rows (samples x T) of one inference block.  A whole-split forward
# builds activations of tens of MB, past glibc's 32 MiB mmap threshold, so
# every call maps and faults in fresh pages: a 2,560-sample score at c07's
# shape (T=2) took about 2,000 minor faults per call in one block, and none
# in blocks of 1,024 samples.  At long_seq's shape (T=48, 4 heads) a block
# is 42 samples, whose [42, 4, 48, 48] attention weights take 3.1 MB.
INFER_BLOCK_TOKENS = 2048


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent with its config."""


@dataclass
class SstConfig:
    """Hyperparameters for one model/training run.

    Defaults are the smallest values of the published search grid; the data
    extents (n_features, max_timesteps, n_tasks) have no sensible default
    and must be supplied.
    """

    n_features: int
    max_timesteps: int
    n_tasks: int
    n_layers: int = 2
    dmodel: int = 64
    dff: int = 32
    n_heads: int = 1
    dropout_rate: float = 0.1
    lr_factor: float = 0.1
    batch_size: int = 512
    warmup: int = 4000
    uncertainty_weighting: bool = True
    l2_factor: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        # the annotations are the strings "int", "float" and "bool" here; a
        # float field takes an int too, and no number field takes a bool
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = {"int": int, "float": (int, float), "bool": bool}[f.type]
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, kinds):
                raise ValueError(f"config field {f.name} must be of type {f.type}, got {value!r}")
        for field in ("n_features", "max_timesteps", "n_tasks", "n_layers",
                      "dmodel", "dff", "n_heads", "batch_size", "warmup"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"config field {field} must be a positive integer, got {value!r}")
        if self.dmodel % self.n_heads != 0:
            raise ValueError(
                f"dmodel {self.dmodel} must be divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.lr_factor < math.inf:
            raise ValueError(f"lr_factor must be positive and finite, got {self.lr_factor}")
        if not 0.0 <= self.l2_factor < math.inf:
            raise ValueError(f"l2_factor must be non-negative and finite, got {self.l2_factor}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, raw: dict) -> "SstConfig":
        known = set(cls.field_names())
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))


def pair_probabilities(raw: np.ndarray) -> np.ndarray:
    """[B, 2m] raw (negative, positive) head scores -> [B, m] positive
    probabilities pos / (pos + neg), in plain numpy: it only runs for
    inference and validation, without a tape.  Sigmoid heads are positive
    unless both underflow to 0, which raises ``DomainError``."""
    neg, pos = raw[:, 0::2], raw[:, 1::2]
    total = pos + neg
    if np.any(total == 0.0):
        raise DomainError("pair_probabilities: a head pair sums to zero")
    return pos / total


class SstModel(L.Module):
    """Encoder over [B, T, n_features] inputs producing [B, 2*n_tasks] raw
    sigmoid scores, two per task: column 2j is the negative head and 2j+1
    the positive head."""

    def __init__(self, config: SstConfig):
        self.config = config
        rng = np.random.default_rng([config.seed, 0])
        self.embedding = L.DenseLayer(config.n_features, config.dmodel, "none", rng)
        self.blocks = [
            L.EncoderBlock(config.dmodel, config.dff, config.n_heads,
                           config.dropout_rate, rng)
            for _ in range(config.n_layers)
        ]
        self.mlp = [
            L.DenseLayer(config.dmodel, config.dff, "sigmoid", rng),
            L.DenseLayer(config.dff, config.dff, "sigmoid", rng),
            L.DenseLayer(config.dff, 2 * config.n_tasks, "sigmoid", rng),
        ]

    def forward(self, x, pad_mask, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        pad_mask = _array(pad_mask)
        self._check_input(x.shape, pad_mask.shape)
        if training and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        rate, batch, length = self.config.dropout_rate, x.shape[0], x.shape[1]

        # the positional encoding, built for this input's length alone, and
        # each dropout run inside their layer's node
        keep = L.dropout_mask((batch, length, self.config.dmodel), rate, training, rng)
        h = self.embedding(x, L.positional_encoding_table(length, self.config.dmodel), keep, rate)
        for block in self.blocks:
            h = block(h, pad_mask, training, rng)
        pooled = L.global_average_pool(h, pad_mask)
        for layer in self.mlp[:-1]:
            keep = L.dropout_mask((batch, self.config.dff), rate, training, rng)
            pooled = layer(pooled, None, keep, rate)
        return self.mlp[-1](pooled)

    def _check_input(self, x_shape, mask_shape) -> None:
        cfg = self.config
        if len(x_shape) != 3 or x_shape[1] > cfg.max_timesteps or x_shape[-1] != cfg.n_features:
            raise ShapeMismatchError(
                f"expected input [B, T <= {cfg.max_timesteps}, {cfg.n_features}], got {x_shape}"
            )
        if mask_shape != x_shape[:2]:
            raise ShapeMismatchError(
                f"pad_mask shape {mask_shape} does not match input {x_shape[:2]}"
            )

    def infer(self, x, pad_mask) -> np.ndarray:
        """Raw [N, 2*n_tasks] head scores of an inference-mode forward, run
        without a tape in blocks of samples.

        A block holds as many samples as keep its ``rows * T`` token rows
        within ``INFER_BLOCK_TOKENS``, and at least two.  Shapes and padding
        are checked on the whole input before any block runs, so an error
        names a sample by its index in ``x``.

        Every op works on each sample's rows alone, so the scores equal
        those of one whole-input forward bit for bit.  That needs every
        block to hold two samples or more: numpy computes a one-row matrix
        product as a GEMV, which sums in another order than the GEMM of a
        taller one, so block starts stop before the last sample and a lone
        last sample joins the block before it.  A one-sample input is
        scored as a two-row block of that sample, and row 0 kept, so it gets
        the scores it gets as a row of a larger input.  An empty input runs
        one empty block."""
        cfg = self.config
        data, mask = _array(x), _array(pad_mask)
        self._check_input(data.shape, mask.shape)
        T.unpadded_counts(mask)
        n, length = data.shape[:2]
        if n == 1:
            data, mask = np.repeat(data, 2, axis=0), np.repeat(mask, 2, axis=0)
        rows = max(2, INFER_BLOCK_TOKENS // max(1, length))
        edges = [*range(0, max(len(data) - 1, 1), rows), len(data)]
        out = np.empty((len(data), 2 * cfg.n_tasks))
        with T.no_grad():
            for a, b in zip(edges, edges[1:]):
                out[a:b] = self.forward(data[a:b], mask[a:b]).data
        return out[:n]

    def predict_proba(self, x, pad_mask) -> Tensor:
        """Per-task positive probability: each (negative, positive) head pair
        of ``infer`` is normalized as pos / (pos + neg) by
        ``pair_probabilities``.  Runs without a tape, so the result has no
        parents and no intermediate outlives the call."""
        return Tensor(pair_probabilities(self.infer(x, pad_mask)))


def _array(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)


# -- checkpoint i/o ----------------------------------------------------


def save_weights(model: SstModel, path) -> None:
    """Write a checkpoint; an interrupted write leaves any previous file at
    ``path`` intact."""
    config_bytes = model.config.to_json().encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(len(config_bytes).to_bytes(8, "little"))
        fh.write(config_bytes)
        for _, p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _parameter_count(cfg: SstConfig) -> int:
    """Float64s in the parameters of ``SstModel(cfg)``: the embedding, per
    block four attention projections, the feed-forward pair and two layer
    norms, then the three MLP layers."""
    d, f, heads = cfg.dmodel, cfg.dff, 2 * cfg.n_tasks
    block = 4 * d * d + (d * f + f) + (f * d + d) + 2 * (2 * d)
    mlp = (d * f + f) + (f * f + f) + (f * heads + heads)
    return cfg.n_features * d + d + cfg.n_layers * block + mlp


def load_weights(path) -> SstModel:
    """Rebuild a model from a checkpoint; every ``CheckpointError`` names
    ``path``.  The embedded config fixes the byte length of the parameters,
    so a file of any other length is rejected as truncated or as having
    trailing data, and a NaN or Inf parameter by its name and byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = len(CHECKPOINT_MAGIC)
    if blob[:offset] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic at offset 0)")
    if len(blob) < offset + 9:
        raise CheckpointError(f"{path}: truncated checkpoint header at offset {len(blob)}")
    version = blob[offset]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    offset += 1
    config_len = int.from_bytes(blob[offset:offset + 8], "little")
    offset += 8
    if len(blob) < offset + config_len:
        raise CheckpointError(
            f"{path}: truncated checkpoint: config needs {config_len} bytes at offset {offset}"
        )
    try:
        raw = json.loads(blob[offset:offset + config_len].decode("utf-8"))
        config = SstConfig.from_dict(raw)
    except (ValueError, TypeError) as err:
        raise CheckpointError(f"{path}: invalid embedded config: {err}") from err
    offset += config_len

    # sized from the config alone, so a short file claiming large dims is
    # rejected before its model is built
    nbytes, have = 8 * _parameter_count(config), len(blob) - offset
    if have != nbytes:
        what = "truncated checkpoint" if have < nbytes else "trailing data in checkpoint"
        raise CheckpointError(
            f"{path}: {what}: parameters need {nbytes} bytes at offset {offset}, file has {have}")
    model = SstModel(config)
    params = model.parameters()
    ends = np.cumsum([p.data.size for _, p in params])  # in float64s
    flat = np.frombuffer(blob, dtype="<f8", offset=offset)
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite))
        name = params[int(np.searchsorted(ends, i, side="right"))][0]
        raise CheckpointError(
            f"{path}: non-finite value in parameter '{name}' at offset {offset + 8 * i}")
    model.load_state_arrays([chunk.reshape(p.data.shape)
                             for (_, p), chunk in zip(params, np.split(flat, ends[:-1]))])
    return model
