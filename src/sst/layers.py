"""Neural building blocks: dense layers, sinusoidal positional encoding,
multi-head self-attention with padding masks, layer normalization, dropout,
encoder blocks, and mask-aware average pooling.

Every layer with parameters is a :class:`Module`.  Parameter tensors are
created with requires_grad=True and found by one walk over the module's
attributes in declaration order: ``parameters()`` returns (dotted name,
tensor) pairs, descending into child modules (``attention.w_q``) and lists
of modules (``blocks.0.norm_ff.gain``).  The checkpoint format, the
optimizer and ``state_arrays()`` / ``load_state_arrays()`` all rely on that
order being stable.  ``l2_parameters()`` is the subset subject to weight
decay: the matrices (dense and projection weights), never the 1-D biases or
normalization gains.

Dense layers and layer normalization run as the fused ``tensor.linear`` and
``tensor.layer_norm`` ops, one tape node each (plus one for a dense layer's
activation) with hand-written backward passes.  Multi-head attention is one
``tensor.attention`` node: the three input projections, head split, scaled
scores, key padding penalty, softmax, weighted values, head merge and output
projection.  Pooling is one ``tensor.masked_mean`` node, dropout is one
``mul`` node and the residual connections are ``add`` nodes, so an encoder
block records ten nodes in training; apart from the loss, these and the
activations are the only ops on a training tape.  These layers check no
operand shapes themselves: the op each one calls is the one place that
raises ``ShapeMismatchError``.
"""

from __future__ import annotations

import math

import numpy as np

from sst import tensor as T
from sst.tensor import DomainError, ShapeMismatchError, Tensor

ACTIVATIONS = ("none", "relu", "sigmoid")

# Additive logit penalty for padded keys.  Large enough that exp underflows
# to exactly 0.0 after softmax max-subtraction, small enough to stay finite.
MASK_LOGIT = -1e9


def glorot_uniform(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class Module:
    """Base of every layer with parameters: one parameter walk, one weight
    decay rule and one state get/set for the whole model tree."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out.append((name, value))
            elif isinstance(value, Module):
                out.extend((f"{name}.{n}", p) for n, p in value.parameters())
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend((f"{name}.{i}.{n}", p) for n, p in item.parameters())
        return out

    def l2_parameters(self) -> list[Tensor]:
        return [p for _, p in self.parameters() if p.ndim == 2]

    def state_arrays(self) -> list[np.ndarray]:
        return [p.data.copy() for _, p in self.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(arrays)}")
        for (name, p), arr in zip(params, arrays):
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


class DenseLayer(Module):
    """Affine map with an optional fixed activation."""

    def __init__(self, n_in: int, n_out: int, activation: str, rng: np.random.Generator):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}', expected one of {ACTIVATIONS}")
        self.activation = activation
        self.weight = Tensor(glorot_uniform(n_in, n_out, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        out = T.linear(x, self.weight, self.bias)
        if self.activation == "relu":
            return T.relu(out)
        if self.activation == "sigmoid":
            return T.sigmoid(out)
        return out


def positional_encoding_table(max_len: int, dmodel: int) -> np.ndarray:
    """Sinusoidal table: row pos holds sin(pos/10000^(2i/dmodel)) in even
    columns and cos of the same angle in odd columns."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, dmodel, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / dmodel)
    table = np.zeros((max_len, dmodel))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dmodel // 2])
    return table


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention split across n_heads subspaces.

    Head i reads columns [i*d_k, (i+1)*d_k) of each projection, so the fused
    [dmodel, dmodel] projections are exactly h independent per-head matrices
    laid side by side.
    """

    def __init__(self, dmodel: int, n_heads: int, rng: np.random.Generator):
        if dmodel % n_heads != 0:
            raise ShapeMismatchError(
                f"dmodel {dmodel} not divisible by n_heads {n_heads}"
            )
        self.n_heads = n_heads
        self.w_q = Tensor(glorot_uniform(dmodel, dmodel, rng), requires_grad=True)
        self.w_k = Tensor(glorot_uniform(dmodel, dmodel, rng), requires_grad=True)
        self.w_v = Tensor(glorot_uniform(dmodel, dmodel, rng), requires_grad=True)
        self.w_o = Tensor(glorot_uniform(dmodel, dmodel, rng), requires_grad=True)

    def __call__(self, x: Tensor, pad_mask: np.ndarray, return_weights: bool = False):
        # padded keys get a -1e9 logit so softmax assigns them exactly zero
        penalty = np.asarray(pad_mask, dtype=np.float64) * MASK_LOGIT
        return T.attention(x, self.w_q, self.w_k, self.w_v, self.w_o, penalty,
                           self.n_heads, return_weights)


class LayerNorm(Module):
    """Normalize the trailing axis to zero mean and unit variance, then apply
    a learned affine transform."""

    EPS = 1e-9

    def __init__(self, width: int):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.EPS)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero each element with probability rate and scale
    survivors by 1/(1-rate) so the expected value is unchanged.  Identity
    when not training."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(keep)


class EncoderBlock(Module):
    """Self-attention sublayer plus position-wise feed-forward sublayer, each
    wrapped as layernorm(x + dropout(sublayer(x)))."""

    def __init__(self, dmodel: int, dff: int, n_heads: int, dropout_rate: float,
                 rng: np.random.Generator):
        self.attention = MultiHeadAttention(dmodel, n_heads, rng)
        self.ff_expand = DenseLayer(dmodel, dff, "relu", rng)
        self.ff_contract = DenseLayer(dff, dmodel, "none", rng)
        self.norm_attn = LayerNorm(dmodel)
        self.norm_ff = LayerNorm(dmodel)
        self.dropout_rate = dropout_rate

    def __call__(self, x: Tensor, pad_mask: np.ndarray, training: bool,
                 rng: np.random.Generator) -> Tensor:
        attended = self.attention(x, pad_mask)
        x = self.norm_attn(x + dropout(attended, self.dropout_rate, training, rng))
        ff = self.ff_contract(self.ff_expand(x))
        return self.norm_ff(x + dropout(ff, self.dropout_rate, training, rng))


def global_average_pool(x: Tensor, pad_mask: np.ndarray) -> Tensor:
    """Mean over real (unpadded) timesteps only: the ``tensor.masked_mean``
    op."""
    return T.masked_mean(x, pad_mask)
