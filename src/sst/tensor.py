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

The registered ops are the ones the model and its training loop call, six
fused ops, ``add``, ``mul``, ``sigmoid`` and ``relu``, plus ``sum``, the
full reduction to a scalar that gradient checks and the benchmark's layer
probes differentiate.  The fused ops each record one tape node with a
hand-written backward in place of a chain of nodes: ``linear``
(``x @ w + b`` as one 2-D GEMM over ``x``'s flattened leading axes, forward
and backward), ``layer_norm`` (normalize the trailing axis, then scale and
shift), ``sum_of_squares`` (the L2 penalty over a list of weight tensors),
``attention`` (multi-head self-attention from the input through the
query, key and value projections to the output projection),
``masked_mean`` (the mean over each sample's unpadded timesteps) and
``multitask_nll`` (the class-weighted multi-task loss with optional
uncertainty weighting).  A training step of a two-layer model with
dropout and L2 records 36 nodes.
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
    "layer_norm",
    "sum_of_squares",
    "attention",
    "multitask_nll",
    "add",
    "mul",
    "sigmoid",
    "relu",
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
    # elements, which the elementwise test then tells apart.
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
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


def _op(name: str):
    """Register an op body under ``name`` in ``OPS``.

    The body checks its arguments and returns ``(output, parents, backward)``,
    optionally followed by extra values that the op returns after its output
    tensor.  It runs with numpy's floating-point warnings off, so an
    overflow, invalid operation or division by zero reaches the finiteness
    check of the output, which raises :class:`NumericsError` naming the op.
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


@_op("linear")
def linear(x, w, b):
    """Affine map ``x [.., K] @ w [K, N] + b [N]`` as one tape node, with
    ``x``'s leading axes flattened so that forward and backward are each one
    2-D GEMM and the weight gradient is the single product ``x2d.T @ g2d``."""
    x, w, b = _ensure_tensor(x), _ensure_tensor(w), _ensure_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}"
        )
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def bwd(g: np.ndarray):
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return gx, x2.T @ g2, g2.sum(axis=0)

    return out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), bwd


@_op("layer_norm")
def layer_norm(x, gain, bias, eps: float):
    """Normalize the trailing axis to zero mean and unit variance, then scale
    by ``gain`` and shift by ``bias`` (both of the trailing width).

    The arithmetic is that of the composite ``(x - mean) / sqrt(var + eps)``
    with the biased variance, recorded as one tape node.  The variance is
    checked like an op output, so an overflow inside the op raises just as
    the composite's intermediate ops would.
    """
    x, gain, bias = _ensure_tensor(x), _ensure_tensor(gain), _ensure_tensor(bias)
    if x.ndim < 1 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeMismatchError(
            f"layer_norm: incompatible shapes {x.shape}, {gain.shape} and {bias.shape}"
        )
    if not eps > 0.0:
        raise DomainError(f"layer_norm: eps must be positive, got {eps}")
    # each mean is ndarray.mean's own arithmetic, a sum then a division by
    # the count, without its Python wrapper
    n = x.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    _check_finite(var, "layer_norm")
    std = np.sqrt(var + eps)
    normed = centered / std
    out = normed * gain.data + bias.data

    def bwd(g: np.ndarray):
        g_normed = g * gain.data
        gx = (
            g_normed
            - np.add.reduce(g_normed, axis=-1, keepdims=True) / n
            - normed * (np.add.reduce(g_normed * normed, axis=-1, keepdims=True) / n)
        ) / std
        lead = tuple(range(g.ndim - 1))
        return gx, (g * normed).sum(axis=lead), g.sum(axis=lead)

    return out, (x, gain, bias), bwd


@_op("sum_of_squares")
def sum_of_squares(tensors: Sequence[Tensor]):
    """Scalar ``sum_i sum(t_i * t_i)`` over several tensors as one tape node,
    with the per-tensor sums added in the given order."""
    tensors = tuple(_ensure_tensor(t) for t in tensors)
    if not tensors:
        raise DomainError("sum_of_squares: needs at least one tensor")
    total = sum((t.data * t.data).sum() for t in tensors)

    def bwd(g: np.ndarray):
        return tuple((2.0 * g) * t.data for t in tensors)

    return np.asarray(total), tensors, bwd


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
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    context = merge(np.matmul(w, v4))
    out = (context @ w_o.data).reshape(x.shape)

    def bwd(g: np.ndarray):
        g2 = g.reshape(-1, width)
        gc = (g2 @ w_o.data.T).reshape(batch, length, n_heads, d_k).transpose(0, 2, 1, 3)
        gw = np.matmul(gc, v4.transpose(0, 1, 3, 2))
        gv = np.matmul(w.transpose(0, 1, 3, 2), gc)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gs *= c
        gq = np.matmul(gs, k4t.transpose(0, 1, 3, 2))
        gk = np.matmul(q4.transpose(0, 1, 3, 2), gs).transpose(0, 1, 3, 2)
        grads = []
        for gp, wp in ((gq, w_q), (gk, w_k), (gv, w_v)):
            gp2 = merge(gp)
            grads += [(gp2 @ wp.data.T).reshape(x.shape) if x.requires_grad else None,
                      x2.T @ gp2]
        return (*grads, context.T @ g2)

    parents = (x, w_q, x, w_k, x, w_v, w_o)
    if return_weights:
        return out, parents, bwd, w.copy()
    return out, parents, bwd


@_op("multitask_nll")
def multitask_nll(probs, labels, label_mask, w, log_var=None):
    """Class-weighted multi-task negative log-likelihood as one tape node.

    ``probs`` and ``labels`` are ``[B, 2m]`` with (negative, positive)
    column pairs, ``label_mask [B, m]`` marks the measured tasks and
    ``w [m, 2]`` holds the class weights.  Each pair of ``probs`` is clamped
    to ``[PROB_FLOOR, 1 - PROB_FLOOR]`` and normalized to sum to 1.  For
    task j and label t, ``J_jt`` is the sum over the batch of
    ``-w_jt * label * mask * log p``, divided by the number of samples
    that measured task j (at least 1).  The result is ``sum J``, or, with a
    ``log_var [m, 2]`` of s = log(sigma^2), the homoscedastic uncertainty
    weighting ``sum exp(-s) J + s/2`` of Kendall, Gal & Cipolla (2018).
    Only ``probs`` and ``log_var`` receive gradients.

    Forward and backward repeat, in order, the numpy expressions of the
    chain of clip, reshape, sum, div, log, mul, neg, exp and scale nodes
    this op replaced, so values and gradients match that chain bit for bit.
    """
    probs = _ensure_tensor(probs)
    log_var = None if log_var is None else _ensure_tensor(log_var)
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
    pair_sum = pairs.sum(axis=2, keepdims=True)
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

    def bwd(g: np.ndarray):
        if log_var is None:
            g_jt = g
        else:
            g_jt = g * e
            g_s = (g * 0.5 + -((g * per_jt) * e)).reshape(m, 2)
        g_p = (-(g_jt / present) * coef).reshape(n, m, 2) / p
        g_sum = ((-g_p * pairs) / (pair_sum * pair_sum)).sum(axis=(2,), keepdims=True)
        g_probs = (g_p / pair_sum + g_sum).reshape(n, width) * inside
        return (g_probs,) if log_var is None else (g_probs, g_s)

    parents = (probs,) if log_var is None else (probs, log_var)
    return np.asarray(total), parents, bwd


# -- elementwise -------------------------------------------------------


@_op("add")
def add(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return (a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


@_op("mul")
def mul(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    return (a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


@_op("sigmoid")
def sigmoid(x):
    """Numerically stable logistic function; output lies in [0, 1]."""
    x = _ensure_tensor(x)
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below; both are computed whole and selected elementwise, which is
    # cheaper than gathering and scattering through boolean masks.
    ex = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return out, (x,), lambda g: (g * out * (1.0 - out),)


@_op("relu")
def relu(x):
    x = _ensure_tensor(x)
    mask = x.data > 0
    out = np.maximum(x.data, 0.0)
    out += 0.0  # np.maximum may return -0.0 for -0.0; adding +0.0 makes every zero +0.0
    return out, (x,), lambda g: (g * mask,)


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
    out = (x.data * keep).sum(axis=1) / counts
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
