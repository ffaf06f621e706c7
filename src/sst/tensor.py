"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a dynamic tape: the output tensor records its parents
and a closure that maps the output gradient to parent gradients.  Calling
``backward`` on a scalar walks the tape in reverse topological order and
accumulates gradients additively into the ``grad`` of every leaf it reaches:
a ``requires_grad`` tensor made by the caller rather than by an op, such as
a parameter.  Intermediate op outputs pass their gradients on and keep none.
Accumulation is deliberate: two backward passes over the same graph double
the gradients, so callers zero grads between optimizer steps.

Inside a ``with no_grad():`` block ops record no tape: their outputs have no
parents and no backward closure, so intermediates are freed as soon as
nothing refers to them.  Inference runs this way.

All values are 64-bit floats in row-major order.  Broadcasting follows the
conventional trailing-dimension alignment.  Any op that produces a NaN or Inf
raises :class:`NumericsError` immediately, naming the op, with or without a
tape; silent propagation would poison every downstream result.  One
registration, ``_op``, keeps that promise for every op in ``OPS``, the
registry of ops by name: it runs the op under ``np.errstate(all="ignore")``
and checks its output, and ``backward`` runs every backward closure under
one such ``errstate`` and checks each gradient, summed with the ones its
tensor already received, as ``backward[op]``.  The check is exact but
cheap: it sums the array first, and a finite sum proves every element
finite; only a non-finite sum (a NaN or Inf, or a sum that merely
overflows) pays for the elementwise test.  It reads values, not IEEE
status flags, which OpenBLAS loses for the rows a worker thread computes.

The registered ops are five fused ops, which the model and its training
loop call, and three generic ones, ``add``, ``mul`` and ``sum`` (the full
reduction to a scalar), which gradient checks, the benchmark's probes and
the demos compose.  The fused ops each record one tape node with a
hand-written backward in place of a chain of nodes: ``linear`` (a dense
layer's whole epilogue ``act(x @ w + b + shift) * keep / (1 - rate)``, with
a ``relu`` or ``sigmoid`` activation, a constant shift such as the
positional encoding and a dropout mask, each optional, as one 2-D GEMM over
``x``'s flattened leading axes, forward and backward), ``residual_norm``
(the post-norm residual connection: add a dropout-masked sublayer output,
normalize the trailing axis, then scale and shift),
``attention`` (multi-head self-attention from the input through the
query, key and value projections to the output projection),
``masked_mean`` (the mean over each sample's unpadded timesteps) and
``multitask_nll`` (the whole training objective: the class-weighted
multi-task loss with optional uncertainty weighting plus the L2 penalty).
Dropout masks reach ``linear`` and ``residual_norm`` as one-byte ``bool``
arrays with their rate.  A training step of a two-layer model with dropout
and L2 records 16 nodes.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "DomainError",
    "NumericsError",
    "OPS",
    "linear",
    "residual_norm",
    "attention",
    "multitask_nll",
    "add",
    "mul",
    "reduce_sum",
    "masked_mean",
    "unpadded_counts",
    "backward",
    "no_grad",
    "grad_check",
]


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the op."""


class NumericsError(ArithmeticError):
    """An op produced NaN or Inf."""


# The differentiable ops by name, each entered by its ``_op`` registration;
# the test suite sweeps them with grad_check so new ops cannot dodge
# verification.
OPS: dict[str, Callable[..., Tensor]] = {}

# multitask_nll clamps probabilities into [PROB_FLOOR, 1 - PROB_FLOOR]
PROB_FLOOR = 1e-12


# False inside ``no_grad``: ops then record no tape.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run the ops in the block without recording a tape.  Their outputs
    have no parents and no backward closure, so ``backward`` cannot reach
    through them; the finiteness check still runs on every output.  The
    previous setting is restored on exit, exceptions included.  The
    setting is one module flag, shared by every thread of the process."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(arr: np.ndarray, op: str) -> None:
    # A NaN or Inf anywhere makes the sum non-finite, so a finite sum proves
    # every element finite.  A non-finite sum may be mere overflow of finite
    # elements, which the elementwise test then tells apart.  Callers run it
    # inside their own ``np.errstate`` block, so an overflowing sum warns
    # nothing.
    total = np.add.reduce(arr, axis=None)  # arr.sum() without its Python wrapper
    if not math.isfinite(total) and not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``data`` is immutable by convention once the tensor participates in a
    graph; only the optimizer rewrites parameter data between steps, and only
    ``backward`` touches ``grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        with np.errstate(all="ignore"):
            _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op: str | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- basic properties ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def sum(self):
        return reduce_sum(self)

    def backward(self) -> None:
        backward(self)


def _ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# numpy reduces a trailing axis one row at a time, which for a short axis
# costs far more than the arithmetic.  Below this length its sum adds each
# row's elements in order onto +0.0, so adding whole columns in that order
# gives the same bits; the test suite checks that against ``ndarray.sum``
# at every length.  A short middle axis is the same: numpy adds its slices
# in order, and so does ``_axis1_sum``, which is faster below this length
# and slower above it.
_SHORT_AXIS = 8


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``, bit for bit."""
    n = a.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return a.sum(axis=-1, keepdims=True)
    total = a[..., :1] + 0.0
    for i in range(1, n):
        total += a[..., i:i + 1]
    return total


def _axis1_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, bit for bit."""
    n = a.shape[1]
    if not 0 < n < _SHORT_AXIS:
        return a.sum(axis=1)
    total = a[:, 0] + 0.0
    for i in range(1, n):
        total += a[:, i]
    return total


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``; a maximum is exact in any order."""
    n = a.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return a.max(axis=-1, keepdims=True)
    top = a[..., :1].copy()
    for i in range(1, n):
        np.maximum(top, a[..., i:i + 1], out=top)
    return top


def _op(name: str):
    """Register an op body under ``name`` in ``OPS``.

    The body checks its arguments and returns ``(output, parents, backward)``,
    optionally followed by extra values that the op returns after its output
    tensor.  It runs, together with the finiteness check of its output,
    inside one block with numpy's floating-point warnings off, so an
    overflow, invalid operation or division by zero reaches that check,
    which raises :class:`NumericsError` naming the op.
    The output records its parents and backward closure only while the tape
    is on and some parent requires a gradient."""
    def register(body):
        @functools.wraps(body)
        def op(*args, **kwargs):
            with np.errstate(all="ignore"):
                data, parents, bwd, *extra = body(*args, **kwargs)
                _check_finite(data, name)
            out = Tensor.__new__(Tensor)
            out.data = np.ascontiguousarray(data, dtype=np.float64)
            out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
            out.grad = None
            if out.requires_grad:
                out._op, out._parents, out._bwd = name, parents, bwd
            else:
                out._op, out._parents, out._bwd = None, (), None
            return (out, *extra) if extra else out

        OPS[name] = op
        return op

    return register


# -- linear algebra ----------------------------------------------------


def _weight_grad(a2: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The weight gradient ``a2.T @ g2`` of ``[rows, K]`` and ``[rows, N]``
    operands, with the shared ``rows`` axis zero-padded to a multiple of 32.

    OpenBLAS (measured on 0.3.31 with Haswell kernels) splits that axis
    across threads in a way that changes the bits of the product when it
    is not a multiple of 32; padded, the product is the same under one
    thread and two.  Zero rows add nothing, but at one thread the padded
    product can still differ in its last bits from the unpadded one for
    some row counts."""
    pad = -a2.shape[0] % 32
    if pad:
        a2 = np.concatenate((a2, np.zeros((pad, a2.shape[1]))))
        g2 = np.concatenate((g2, np.zeros((pad, g2.shape[1]))))
    return a2.T @ g2


# The activations ``linear`` can apply to its affine map.
ACTIVATIONS = ("none", "relu", "sigmoid")


@_op("linear")
def linear(x, w, b, act: str = "none", shift=None, keep=None, rate: float = 0.0):
    """A dense layer's whole epilogue ``act(x @ w + b + shift) * keep /
    (1 - rate)`` as one tape node, with ``x [.., K]``'s leading axes
    flattened so that forward and backward are each one 2-D GEMM and the
    weight gradient is the single product ``x2d.T @ g2d``.

    ``w`` is ``[K, N]`` and ``b`` is ``[N]``.  ``act`` is one of
    ``ACTIVATIONS``: ``relu`` or a numerically stable ``sigmoid``.
    ``shift`` is a constant array of the output's trailing shape, such as
    a slice of the positional-encoding table, or ``None``.  ``keep`` is the
    output's dropout mask as a one-byte ``bool`` array, or ``None``; the
    op rebuilds the float mask ``keep / (1 - rate)`` where forward or
    backward needs it.

    The arithmetic is that of the chain of affine, ``add``, activation and
    ``mul`` nodes in that order, so values and gradients match that chain
    bit for bit.  ``x @ w + b + shift`` is checked like an op output before
    the activation, which would turn an Inf into a finite value.  Backward
    keeps ``x``, the mask and the activation's output, which is the op's
    output unless a mask follows it.
    """
    x, w, b = _ensure_tensor(x), _ensure_tensor(w), _ensure_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}"
        )
    shape = x.shape[:-1] + (w.shape[1],)
    if ((shift is not None and np.shape(shift) != shape[len(shape) - np.ndim(shift):])
            or (keep is not None and np.shape(keep) != shape)):
        raise ShapeMismatchError(
            f"linear: output {shape} does not match shift {np.shape(shift)} "
            f"or keep {np.shape(keep)}"
        )
    if act not in ACTIVATIONS:
        raise DomainError(f"linear: unknown activation '{act}', expected one of {ACTIVATIONS}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data
    out = out.reshape(shape)
    if shift is not None:
        out += shift
    if act != "none":
        _check_finite(out, "linear")
    if act == "relu":
        np.maximum(out, 0.0, out=out)
        out += 0.0  # np.maximum may return -0.0 for -0.0; adding +0.0 makes every zero +0.0
    elif act == "sigmoid":
        # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
        # below; both are computed whole and selected elementwise, which is
        # cheaper than gathering and scattering through boolean masks.
        ex = np.exp(-np.abs(out))
        denom = 1.0 + ex
        out = np.where(out >= 0, 1.0 / denom, ex / denom)
    act_out = None if act == "none" else out
    if keep is not None:
        out = out * (keep / (1.0 - rate))

    def bwd(g: np.ndarray):
        if keep is not None:
            g = g * (keep / (1.0 - rate))
        if act == "relu":
            g = g * (act_out > 0)
        elif act == "sigmoid":
            g = g * act_out * (1.0 - act_out)
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, _weight_grad(x2, g2), g2.sum(axis=0)

    return out, (x, w, b), bwd


@_op("residual_norm")
def residual_norm(x, s, keep, gain, bias, eps: float, rate: float = 0.0):
    """The post-norm sublayer connection ``LayerNorm(x + s * k)`` of
    Vaswani et al. (2017, §5.4) as one tape node: add the sublayer output
    ``s``, masked by the dropout mask ``k = keep / (1 - rate)``, to the
    residual ``x``, normalize the trailing axis to zero mean and unit
    variance, then scale by ``gain`` and shift by ``bias`` (both of the
    trailing width).

    ``keep`` is a one-byte ``bool`` array of ``x``'s shape, or ``None`` for
    no dropout; the op keeps it at one byte and rebuilds ``k`` where
    forward or backward needs it.  With ``s`` also ``None`` the op is a
    plain layer norm of ``x``.  The arithmetic is that of the chain of
    ``mul``, ``add`` and the composite ``(z - mean) / sqrt(var + eps)`` with
    the biased variance, in that order, so values and gradients match that
    chain bit for bit: ``x`` gets the gradient ``gz`` of the sum ``z`` and
    ``s`` gets ``gz * k``.  The variance is checked like an op output; a
    NaN or Inf in ``z`` makes it non-finite too.
    """
    x, gain, bias = _ensure_tensor(x), _ensure_tensor(gain), _ensure_tensor(bias)
    s = None if s is None else _ensure_tensor(s)
    if (x.ndim < 1 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]
            or (s is not None and s.shape != x.shape)
            or (keep is not None and (s is None or np.shape(keep) != x.shape))):
        raise ShapeMismatchError(
            f"residual_norm: incompatible shapes x {x.shape}, "
            f"s {None if s is None else s.shape}, keep {np.shape(keep) if keep is not None else None}, "
            f"gain {gain.shape} and bias {bias.shape}"
        )
    if not eps > 0.0:
        raise DomainError(f"residual_norm: eps must be positive, got {eps}")
    if s is None:
        z = x.data
    elif keep is None:
        z = x.data + s.data
    else:
        z = s.data * (keep / (1.0 - rate))
        z += x.data  # IEEE addition commutes, so this is x + s * keep exactly
    # each mean is ndarray.mean's own arithmetic, a sum then a division by
    # the count, without its Python wrapper; the in-place steps compute the
    # same values as the composite's expressions with fewer temporaries
    n = x.shape[-1]
    normed = z - np.add.reduce(z, axis=-1, keepdims=True) / n
    var = np.add.reduce(normed * normed, axis=-1, keepdims=True) / n
    _check_finite(var, "residual_norm")
    std = np.sqrt(var + eps)
    normed /= std
    out = normed * gain.data
    out += bias.data

    def bwd(g: np.ndarray):
        gz = g * gain.data
        scratch = gz * normed
        g_dot = np.add.reduce(scratch, axis=-1, keepdims=True) / n
        gz -= np.add.reduce(gz, axis=-1, keepdims=True) / n
        gz -= np.multiply(normed, g_dot, out=scratch)
        gz /= std
        lead = tuple(range(g.ndim - 1))
        affine = (np.multiply(g, normed, out=scratch).sum(axis=lead), g.sum(axis=lead))
        if s is None:
            return (gz, *affine)
        gs = gz if keep is None else gz * (keep / (1.0 - rate))
        return (gz, gs, *affine)

    parents = (x, gain, bias) if s is None else (x, s, gain, bias)
    return out, parents, bwd


# Byte budget of one block of ``attention``'s backward: a block holds as
# many samples as keep one [samples, h, T, T] float64 array within it, and
# at least one.  At long_seq's shape (T=48, 4 heads, 64 samples) that is 14
# samples, and the backward took the same time at 256 KiB and about 10%
# less than in one whole-batch block (1 BLAS thread).
ATTENTION_BWD_BLOCK_BYTES = 1024 * 1024


@_op("attention")
def attention(x, w_q, w_k, w_v, w_o, penalty, n_heads: int, return_weights: bool = False):
    """Multi-head scaled dot-product self-attention, with its four
    projections, as one tape node.

    ``x [B, T, D]`` is projected by the ``[D, D]`` weights ``w_q``, ``w_k``
    and ``w_v``, each one 2-D GEMM over ``x``'s flattened rows.  The
    trailing axis of each projection holds ``n_heads`` heads of width
    ``d_k = D / n_heads`` side by side.  Per head the op computes
    ``softmax(q kᵀ / sqrt(d_k) + penalty) v``, where ``penalty [B, T]`` is a
    constant logit added to every query's score for that key (a large
    negative value masks a padded key), merges the heads back into
    ``[B, T, D]`` and returns that context times ``w_o``.  With
    ``return_weights`` it also returns a copy of the ``[B, h, T, T]``
    softmax weights.

    The arithmetic is that of the plain composite of projection GEMMs,
    split-head transposes, batched matmuls, scaling, the penalty add, a
    max-subtracted softmax and the output GEMM, in that order, so values
    match it bit for bit.  The scaled scores are checked like an op output.
    ``x`` is a parent three times, once per projection, so ``backward``
    adds its three gradient terms one at a time, in the order q, k, v, as
    it would for three separate projection nodes.  Backward keeps ``x``,
    the head-split projections, the softmax weights and the merged context.

    Backward works on one block of samples at a time, as many as keep one
    ``[samples, h, T, T]`` array within ``ATTENTION_BWD_BLOCK_BYTES``, and
    at least one.  Per block it computes the softmax weights' gradient, the
    softmax gradient and the query, key and value gradients, writing the
    last three into whole-batch ``[B, h, T, d_k]`` arrays; the context
    GEMM, the head merges and the projection GEMMs then run once over the
    whole batch, as do the forward and no-tape inference, and the context
    gradient and each head-split gradient are freed as soon as they have
    been merged and multiplied.  Each sample's
    matrix products and elementwise steps are the same in any block, so
    the gradients equal those of one whole-batch block bit for bit.
    """
    x, w_q, w_k, w_v, w_o = (_ensure_tensor(t) for t in (x, w_q, w_k, w_v, w_o))
    if x.ndim != 3 or x.shape[-1] % n_heads or any(
            w.shape != (x.shape[-1],) * 2 for w in (w_q, w_k, w_v, w_o)):
        raise ShapeMismatchError(
            f"attention: incompatible shapes {x.shape}, {w_q.shape}, {w_k.shape}, "
            f"{w_v.shape} and {w_o.shape} for {n_heads} heads"
        )
    batch, length, width = x.shape
    penalty = np.asarray(penalty, dtype=np.float64)
    if penalty.shape != (batch, length):
        raise ShapeMismatchError(
            f"attention: penalty shape {penalty.shape} does not match ({batch}, {length})"
        )
    d_k = width // n_heads
    c = 1.0 / math.sqrt(d_k)
    x2 = x.data.reshape(-1, width)

    def split(a2: np.ndarray, axes=(0, 2, 1, 3)) -> np.ndarray:  # [B*T, D] -> [B, h, T, d_k]
        return np.ascontiguousarray(a2.reshape(batch, length, n_heads, d_k).transpose(axes))

    def merge(a: np.ndarray) -> np.ndarray:  # [B, h, T, d_k] -> [B*T, D]
        return a.transpose(0, 2, 1, 3).reshape(-1, width)

    q4, v4 = split(x2 @ w_q.data), split(x2 @ w_v.data)
    # k is kept as the contiguous [B, h, d_k, T] operand that q @ kᵀ reads
    k4t = split(x2 @ w_k.data, (0, 2, 3, 1))
    w = np.matmul(q4, k4t)
    w *= c
    _check_finite(w, "attention")
    w += penalty[:, None, None, :]
    w -= _row_max(w)
    np.exp(w, out=w)
    w /= _row_sum(w)
    context = merge(np.matmul(w, v4))
    out = (context @ w_o.data).reshape(x.shape)

    def bwd(g: np.ndarray):
        g2 = g.reshape(-1, width)
        gc = (g2 @ w_o.data.T).reshape(batch, length, n_heads, d_k).transpose(0, 2, 1, 3)
        gq, gkt, gv = np.empty_like(q4), np.empty_like(k4t), np.empty_like(v4)
        rows = max(1, ATTENTION_BWD_BLOCK_BYTES // (8 * n_heads * length * length))
        for a in range(0, batch, rows):
            blk = slice(a, a + rows)
            wb = w[blk]
            np.matmul(wb.transpose(0, 1, 3, 2), gc[blk], out=gv[blk])
            # the softmax gradient w * (gw - rowsum(gw * w)) * c, in place
            gs = np.matmul(gc[blk], v4[blk].transpose(0, 1, 3, 2))
            gs -= _row_sum(gs * wb)
            gs *= wb
            gs *= c
            np.matmul(gs, k4t[blk].transpose(0, 1, 3, 2), out=gq[blk])
            np.matmul(q4[blk].transpose(0, 1, 3, 2), gs, out=gkt[blk])
        del gc
        split_grads = [gq, gkt.transpose(0, 1, 3, 2), gv]
        del gq, gkt, gv
        grads = []
        for wp in (w_q, w_k, w_v):
            gp2 = merge(split_grads.pop(0))
            grads += [(gp2 @ wp.data.T).reshape(x.shape) if x.requires_grad else None,
                      _weight_grad(x2, gp2)]
            del gp2
        return (*grads, _weight_grad(context, g2))

    parents = (x, w_q, x, w_k, x, w_v, w_o)
    if return_weights:
        return out, parents, bwd, w.copy()
    return out, parents, bwd


@_op("multitask_nll")
def multitask_nll(probs, labels, label_mask, w, log_var=None, l2=(), l2_factor: float = 0.0):
    """The whole training objective, the class-weighted multi-task negative
    log-likelihood plus an L2 penalty, as one tape node.

    ``probs`` and ``labels`` are ``[B, 2m]`` with (negative, positive)
    column pairs, ``label_mask [B, m]`` marks the measured tasks and
    ``w [m, 2]`` holds the class weights.  Each pair of ``probs`` is clamped
    to ``[PROB_FLOOR, 1 - PROB_FLOOR]`` and normalized to sum to 1.  For
    task j and label t, ``J_jt`` is the sum over the batch of
    ``-w_jt * label * mask * log p``, divided by the number of samples
    that measured task j (at least 1).  The loss is ``sum J``, or, with a
    ``log_var [m, 2]`` of s = log(sigma^2), the homoscedastic uncertainty
    weighting ``sum exp(-s) J + s/2`` of Kendall, Gal & Cipolla (2018).
    With ``l2_factor > 0`` it adds ``l2_factor * sum_i sum(t_i * t_i)`` over
    the tensors of ``l2``, the per-tensor sums in the given order.  Only
    ``probs``, ``log_var`` and the ``l2`` tensors receive gradients.

    Returns the loss and ``n_clamped``, the number of ``probs`` entries
    outside the clamp interval, whose gradient is zero.

    Forward and backward repeat, in order, the numpy expressions of the
    chain of clip, reshape, sum, div, log, mul, neg, exp and scale nodes
    and of the penalty's squares, factor and add that this op replaced, so
    values and gradients match that chain bit for bit.
    """
    probs = _ensure_tensor(probs)
    log_var = None if log_var is None else _ensure_tensor(log_var)
    l2 = tuple(_ensure_tensor(t) for t in l2) if l2_factor > 0.0 else ()
    labels, mask, w = (np.asarray(a, dtype=np.float64) for a in (labels, label_mask, w))
    if probs.ndim != 2 or probs.shape[1] % 2:
        raise ShapeMismatchError(f"multitask_nll: probs must be [B, 2m], got {probs.shape}")
    n, width = probs.shape
    m = width // 2
    if (labels.shape != (n, width) or mask.shape != (n, m) or w.shape != (m, 2)
            or (log_var is not None and log_var.shape != (m, 2))):
        raise ShapeMismatchError(
            f"multitask_nll: inconsistent shapes probs {probs.shape}, labels {labels.shape}, "
            f"label_mask {mask.shape}, w {w.shape}, "
            f"log_var {None if log_var is None else log_var.shape}"
        )
    inside = (probs.data >= PROB_FLOOR) & (probs.data <= 1.0 - PROB_FLOOR)
    pairs = np.clip(probs.data, PROB_FLOOR, 1.0 - PROB_FLOOR).reshape(n, m, 2)
    pair_sum = _row_sum(pairs)
    p = pairs / pair_sum
    coef = labels * np.repeat(mask, 2, axis=1) * w.reshape(-1)[None, :]
    present = np.repeat(np.maximum(mask.sum(axis=0), 1.0), 2)
    per_jt = -(np.log(p).reshape(n, width) * coef).sum(axis=0) / present
    if log_var is None:
        total = per_jt.sum()
    else:
        s = log_var.data.reshape(2 * m)
        e = np.exp(-s)
        total = (e * per_jt + s * 0.5).sum()
    if l2:
        total = total + sum((t.data * t.data).sum() for t in l2) * l2_factor

    def bwd(g: np.ndarray):
        if log_var is None:
            g_jt = g
        else:
            g_jt = g * e
            g_s = (g * 0.5 + -((g * per_jt) * e)).reshape(m, 2)
        g_p = (-(g_jt / present) * coef).reshape(n, m, 2) / p
        g_sum = _row_sum((-g_p * pairs) / (pair_sum * pair_sum))
        g_probs = (g_p / pair_sum + g_sum).reshape(n, width) * inside
        g_l2 = [(2.0 * (g * l2_factor)) * t.data for t in l2]
        return (g_probs, *g_l2) if log_var is None else (g_probs, g_s, *g_l2)

    parents = ((probs,) if log_var is None else (probs, log_var)) + l2
    return np.asarray(total), parents, bwd, inside.size - int(np.count_nonzero(inside))


# -- elementwise -------------------------------------------------------


# An operand of ``add`` or ``mul`` that needs no gradient, such as a
# constant, gets none computed.
@_op("add")
def add(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return (a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                       _unbroadcast(g, b.shape) if b.requires_grad else None))


@_op("mul")
def mul(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return (a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                       _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


# -- reductions --------------------------------------------------------


@_op("sum")
def reduce_sum(x):
    """Sum of every element, as a scalar."""
    x = _ensure_tensor(x)
    if x.size == 0:
        raise DomainError("sum: reduction over empty tensor")
    return (np.asarray(x.data.sum()), (x,),
            lambda g: (np.ascontiguousarray(np.broadcast_to(g, x.shape)),))


def unpadded_counts(pad_mask: np.ndarray) -> np.ndarray:
    """Number of unpadded timesteps of each row of a [B, T] mask (1.0 marks
    a padded step); a row with none raises ``DomainError`` naming its
    index."""
    counts = (1.0 - pad_mask).sum(axis=1)
    if np.any(counts == 0):
        bad = int(np.argmax(counts == 0))
        raise DomainError(f"sample {bad} has no unpadded timesteps to pool over")
    return counts


@_op("masked_mean")
def masked_mean(x, pad_mask):
    """Mean of ``x [B, T, D]`` over each sample's unpadded timesteps, where
    ``pad_mask [B, T]`` holds 1.0 at a padded step, as one tape node.
    Padded steps are zeroed before the sum, so they shift neither the sum
    nor the count.  Values and gradient equal those of the chain
    ``(x * keep).sum(axis=1) / counts`` bit for bit."""
    x = _ensure_tensor(x)
    pad_mask = np.asarray(pad_mask, dtype=np.float64)
    if x.ndim != 3 or pad_mask.shape != x.shape[:2]:
        raise ShapeMismatchError(
            f"masked_mean: expects x [B, T, D] and pad_mask [B, T], "
            f"got {x.shape} and {pad_mask.shape}"
        )
    counts = unpadded_counts(pad_mask)[:, None]
    keep = (1.0 - pad_mask)[:, :, None]
    out = _axis1_sum(x.data * keep) / counts
    return out, (x,), lambda g: ((g / counts)[:, None, :] * keep,)


# -- backward pass -----------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf ``t`` the
    tape reaches: a requires_grad tensor that no op produced, such as a
    parameter.  Op outputs hand their gradients to their parents and keep
    none, so their ``grad`` stays ``None``.

    ``loss`` must be scalar.  Gradients add onto whatever is already stored,
    so a second backward over the same graph doubles them; callers reset
    ``grad`` to ``None`` between steps.  A sum of gradients is checked like
    any gradient: one that overflows raises ``NumericsError`` naming the op
    whose contribution it took last, or ``backward[leaf]`` for the add onto
    a stored ``grad``, which then keeps its old value.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    order = _topo_order(loss)
    with np.errstate(all="ignore"):
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._bwd is None:
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    total = node.grad + g
                    _check_finite(total, "backward[leaf]")
                    node.grad = total
                continue
            parent_grads = node._bwd(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                # the accumulated sum is what gets checked: two finite
                # contributions can overflow, and a finite acc plus a
                # non-finite pg is non-finite
                acc = grads.get(id(parent))
                total = pg if acc is None else acc + pg
                _check_finite(total, f"backward[{node._op}]")
                grads[id(parent)] = total


# -- gradient checking -------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients,
    the differences taken with a step of 1e-5.

    ``f`` must be scalar-valued and deterministic.  The relative error per
    element is ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    epsilon = 1e-5
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ShapeMismatchError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.empty_like(x.data)
    base = x.data
    for idx in np.ndindex(base.shape):
        shifted = base.copy()
        shifted[idx] = base[idx] + epsilon
        f_plus = float(f(Tensor(shifted)).data.reshape(()))
        shifted[idx] = base[idx] - epsilon
        f_minus = float(f(Tensor(shifted)).data.reshape(()))
        numeric[idx] = (f_plus - f_minus) / (2.0 * epsilon)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
