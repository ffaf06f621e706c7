"""Autodiff core: forward oracles, gradient checks, error contracts."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import tensor as T
from sst.tensor import (
    DomainError,
    NumericsError,
    ShapeMismatchError,
    Tensor,
    grad_check,
)

RNG_SEED = 42
SRC = Path(__file__).resolve().parents[1] / "src"


def _random_attention_args(rng, batch, length, width):
    """An input ``x [B, T, D]`` and the four ``[D, D]`` projection weights."""
    return (Tensor(rng.normal(size=(batch, length, width))),
            *(Tensor(rng.normal(size=(width, width))) for _ in range(4)))


class TestForwardOracles:
    @staticmethod
    def _attention_weights(scores, penalty):
        """Weights of one head of width 4 whose every query scores the keys
        ``scores``: the softmax of ``scores + penalty``.  Step t reads
        ``(1, s_t, 0, 0)``, so every query is ``(1, 1, 0, 0)``, key t is
        ``(s_t, s_t, 0, 0)`` and the scaled score is ``2 s_t / sqrt(4)``."""
        length = len(scores)
        x = np.zeros((1, length, 4))
        x[0, :, 0], x[0, :, 1] = 1.0, scores
        w_q, w_k = np.zeros((4, 4)), np.zeros((4, 4))
        w_q[0, :2] = w_k[1, :2] = 1.0
        eye = Tensor(np.eye(4))
        _, w = T.attention(Tensor(x), Tensor(w_q), Tensor(w_k), eye, eye,
                           np.asarray(penalty).reshape(1, length), 1, return_weights=True)
        return w[0, 0]

    def test_softmax_frozen(self):
        """The softmax inside attention, against frozen values."""
        w = self._attention_weights([1.0, 2.0, 3.0], np.zeros(3))
        np.testing.assert_allclose(w, np.tile([0.09003057, 0.24472847, 0.66524096], (3, 1)),
                                   atol=1e-8)

    def test_softmax_shift_invariance(self):
        a = self._attention_weights([1.0, 2.0, 3.0], np.zeros(3))
        b = self._attention_weights([1.0, 2.0, 3.0], np.full(3, 1000.0))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(RNG_SEED)
        _, w = T.attention(*_random_attention_args(rng, 4, 7, 6), np.zeros((4, 7)), 3,
                           return_weights=True)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((4, 3, 7)), atol=1e-12)

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(T.reduce_sum(Tensor(x)).data, x.sum())
        np.testing.assert_allclose(T.masked_mean(Tensor(x), np.zeros((3, 4))).data,
                                   x.mean(axis=1))

    def test_elementwise_chain(self):
        x = Tensor([0.5, 1.5])
        out = (x + x) * x + x * x * -2.0
        np.testing.assert_allclose(out.data, [0.0, 0.0], atol=1e-12)


class TestGradients:
    def test_square_sum_gradient(self):
        """d/dx sum(x*x) = 2x, exactly."""
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_backward_twice_doubles_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_shared_subexpression_accumulates(self):
        # y = x + x uses x twice; grad must be 2, not 1
        x = Tensor(np.array(3.0), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_broadcast_add_unbroadcasts_grad(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, 3.0 * np.ones(4))

    def test_forward_is_pure(self):
        """Running the same graph twice yields bit-identical outputs."""
        rng = np.random.default_rng(RNG_SEED)
        x = Tensor(rng.normal(size=(4, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=4))

        def run():
            return T.sigmoid(T.linear(x, w, b)).sum().item()

        assert run() == run()

    def test_no_grad_tensors_stay_clean(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])

    def test_only_leaves_keep_grads(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        y = x * x
        y.sum().backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])


class TestNoGrad:
    def test_ops_record_no_tape_inside_the_block(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = x * x * x
        assert not y.requires_grad and y._parents == () and y._bwd is None
        np.testing.assert_array_equal(y.data, [1.0, 8.0])
        z = x * x
        assert z.requires_grad and z._parents == (x, x)

    def test_flag_restored_after_an_exception(self):
        """The finiteness check still runs without a tape, and the error it
        raises leaves the tape switched back on."""
        x = Tensor([1e200], requires_grad=True)
        with pytest.raises(NumericsError, match="'mul'"):
            with T.no_grad():
                x * x
        y = x * 2.0
        assert y.requires_grad and y._parents[0] is x
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_nested_blocks_restore_the_outer_setting(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad


def _anywhere(rng, shape=(3, 4)):
    return rng.normal(size=shape)


def _squared_sum(t):
    return (t * t).sum()


def _square(rng):
    return rng.normal(size=(3, 3))


# Fixed layer-norm gain and bias for the case that differentiates its input
_GAIN_BIAS = np.random.default_rng(RNG_SEED + 2).normal(size=(2, 4))

# Fixed input and projection weights for the attention grad cases: B=1,
# T=3, D=4 (two heads of width 2), with the last key padded.
_ATTN_ARGS = [t.data for t in
              _random_attention_args(np.random.default_rng(RNG_SEED + 1), 1, 3, 4)]
_ATTN_PENALTY = np.array([[0.0, 0.0, -1e9]])


def _attention_case(slot):
    """Attention differentiated through x (0) or one of w_q, w_k, w_v and
    w_o (1 to 4)."""
    def fn(t):
        args = [Tensor(a) for a in _ATTN_ARGS]
        args[slot] = t
        return _squared_sum(T.attention(*args, _ATTN_PENALTY, 2))
    return fn


# Pooling mask for the masked_mean grad case: sample 1 keeps one step.
_POOL_MASK = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


# multitask_nll inputs: B=3 samples, m=3 tasks; task 2 is measured by no
# sample and sample 2 measures only task 1.
_NLL_MASK = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_NLL_LABELS = np.array([[0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
_NLL_W = np.random.default_rng(RNG_SEED + 3).uniform(0.5, 3.0, size=(3, 2))
_NLL_LOG_VAR = np.random.default_rng(RNG_SEED + 4).normal(scale=0.5, size=(3, 2))


def _nll_probs(rng):
    """Head scores in (0, 1) with one entry far enough beyond 1 that it
    stays clamped under the finite-difference step."""
    probs = rng.uniform(0.05, 0.95, size=(3, 6))
    probs[0, 2] = 1.25
    return probs


def _nll_case(wrt):
    """multitask_nll differentiated through probs, without (``plain``) or
    with (``probs``) uncertainty weighting, or through ``log_var``."""
    probs = _nll_probs(np.random.default_rng(RNG_SEED + 5))

    def fn(x):
        if wrt == "log_var":
            return T.multitask_nll(Tensor(probs), _NLL_LABELS, _NLL_MASK, _NLL_W, x)
        log_var = None if wrt == "plain" else Tensor(_NLL_LOG_VAR)
        return T.multitask_nll(x, _NLL_LABELS, _NLL_MASK, _NLL_W, log_var)
    return fn


# (name, scalar-valued fn of one tensor, domain-safe input maker)
GRAD_CASES = [
    ("linear", lambda x: _squared_sum(T.linear(x, x, Tensor([0.5, -1.0, 2.0]))), _square),
    ("layer_norm", lambda x: (T.layer_norm(x, *_GAIN_BIAS, 1e-9) * x).sum(), _anywhere),
    ("sum_of_squares", lambda x: T.sum_of_squares([x, Tensor(np.ones(3)), x * 3.0]),
     _anywhere),
    ("attention", _attention_case(0), lambda rng: _anywhere(rng, (1, 3, 4))),
    ("attention", _attention_case(1), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(2), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(3), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(4), lambda rng: _anywhere(rng, (4, 4))),
    ("multitask_nll", _nll_case("plain"), _nll_probs),
    ("multitask_nll", _nll_case("probs"), _nll_probs),
    ("multitask_nll", _nll_case("log_var"), lambda rng: _anywhere(rng, (3, 2))),
    ("add", lambda x: (x + 2.0 * x).sum(), _anywhere),
    ("mul", lambda x: (x * x).sum(), _anywhere),
    ("sigmoid", lambda x: T.sigmoid(x).sum(), _anywhere),
    ("relu", lambda x: _squared_sum(T.relu(x)), _anywhere),
    ("sum", lambda x: _squared_sum(x.sum()), _anywhere),
    ("masked_mean", lambda x: _squared_sum(T.masked_mean(x, _POOL_MASK)),
     lambda rng: _anywhere(rng, (2, 3, 4))),
]


class TestGradCheck:
    @pytest.mark.parametrize("name,fn,maker", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_registered_op(self, name, fn, maker):
        rng = np.random.default_rng(RNG_SEED)
        x = Tensor(maker(rng))
        assert grad_check(fn, x) < 1e-6

    def test_every_op_has_a_grad_case(self):
        covered = {c[0] for c in GRAD_CASES}
        assert covered == set(T.OPS)

    def test_linear_flattens_leading_axes(self):
        """A 3-D input runs as one 2-D GEMM; check the values and all three
        gradients through that path."""
        rng = np.random.default_rng(RNG_SEED)
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=(5,))
        np.testing.assert_allclose(
            T.linear(Tensor(a), Tensor(w), Tensor(b)).data, np.matmul(a, w) + b, rtol=1e-12
        )
        assert grad_check(
            lambda x: _squared_sum(T.linear(x, Tensor(w), Tensor(b))), Tensor(a)
        ) < 1e-6
        assert grad_check(
            lambda x: _squared_sum(T.linear(Tensor(a), x, Tensor(b))), Tensor(w)
        ) < 1e-6
        assert grad_check(
            lambda x: _squared_sum(T.linear(Tensor(a), Tensor(w), x)), Tensor(b)
        ) < 1e-6

    def test_layer_norm_matches_composite(self):
        """The fused op against a plain-numpy forward on a batched input, and
        each of its three gradients against central differences."""
        rng = np.random.default_rng(RNG_SEED)
        x, gain, bias = rng.normal(size=(3, 2, 5)), rng.normal(size=5), rng.normal(size=5)
        upstream = Tensor(rng.normal(size=(3, 2, 5)))
        eps = 1e-9

        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        want = centered / np.sqrt(var + eps) * gain + bias
        got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        args = [x, gain, bias]
        for slot in range(3):
            def f(t, slot=slot):
                ops = [Tensor(a) for a in args]
                ops[slot] = t
                return (T.layer_norm(*ops, eps) * upstream).sum()
            assert grad_check(f, Tensor(args[slot])) < 1e-6

    def test_layer_norm_bits_equal_the_ndarray_mean_expressions(self):
        """Forward and all three gradients equal the op's formulas written
        with ``ndarray.mean`` bit for bit, at a transformer-block shape."""
        rng = np.random.default_rng(RNG_SEED)
        x, gain, bias = rng.normal(size=(8, 12, 64)), rng.normal(size=64), rng.normal(size=64)
        upstream = rng.normal(size=x.shape)
        eps = 1e-6

        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        std = np.sqrt(var + eps)
        normed = centered / std
        g_normed = upstream * gain
        want = (
            normed * gain + bias,
            (g_normed - g_normed.mean(axis=-1, keepdims=True)
             - normed * (g_normed * normed).mean(axis=-1, keepdims=True)) / std,
            (upstream * normed).sum(axis=(0, 1)),
            upstream.sum(axis=(0, 1)),
        )

        ops = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layer_norm(*ops, eps)
        (out * Tensor(upstream)).sum().backward()
        got = (out.data, *(t.grad for t in ops))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_relu_bits_equal_where(self):
        """Bitwise equal to ``np.where(x > 0, x, 0.0)``: ``-0.0`` and every
        negative give ``+0.0``."""
        rng = np.random.default_rng(RNG_SEED)
        x = np.concatenate([rng.normal(size=97), [-0.0, 0.0, -1e-300, 5e-324, -5e-324]])
        got = T.relu(Tensor(x)).data
        assert got.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert not np.signbit(got).any()

    def test_sum_of_squares_matches_composite(self):
        """The fused penalty adds the per-tensor sums in order, so its value
        equals the chain of mul, sum and add nodes it replaces bit for bit."""
        rng = np.random.default_rng(RNG_SEED)
        tensors = [Tensor(rng.normal(size=shape)) for shape in ((4, 3), (5,), (2, 3, 2))]
        composite = (tensors[0] * tensors[0]).sum()
        for t in tensors[1:]:
            composite = composite + (t * t).sum()
        assert T.sum_of_squares(tensors).item() == composite.item()
        with pytest.raises(DomainError):
            T.sum_of_squares([])

    def test_attention_matches_composite(self):
        """The fused op against a plain-numpy forward of projections, split
        heads, scaled scores, key penalty, softmax, merged context and
        output projection, with one padded key: values and weights bit for
        bit, and each of the five gradients against central differences."""
        rng = np.random.default_rng(RNG_SEED)
        batch, length, width, heads = 3, 5, 8, 2
        d_k = width // heads
        args = [t.data for t in _random_attention_args(rng, batch, length, width)]
        pad = np.zeros((batch, length))
        pad[1, -1] = 1.0
        penalty = pad * -1e9
        upstream = Tensor(rng.normal(size=(batch, length, width)))

        x2 = args[0].reshape(-1, width)
        q, k, v = ((x2 @ w).reshape(batch, length, heads, d_k).transpose(0, 2, 1, 3)
                   for w in args[1:4])
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(d_k))
        scores = scores + penalty[:, None, None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want_w = e / e.sum(axis=-1, keepdims=True)
        context = np.matmul(want_w, v).transpose(0, 2, 1, 3).reshape(-1, width)
        want = (context @ args[4]).reshape(batch, length, width)

        out, w = T.attention(*(Tensor(a) for a in args), penalty, heads, return_weights=True)
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(w, want_w)
        assert np.all(w[1, :, :, -1] == 0.0)

        for slot in range(5):
            def f(t, slot=slot):
                ops = [Tensor(a) for a in args]
                ops[slot] = t
                return (T.attention(*ops, penalty, heads) * upstream).sum()
            assert grad_check(f, Tensor(args[slot])) < 1e-6

    @staticmethod
    def _attention_chain(x, w_q, w_k, w_v, w_o, penalty, heads, upstream):
        """Output, weights and the gradients of x, w_q, w_k, w_v and w_o of
        ``sum((x + attention(x)) * upstream)`` with attention as the chain
        of five nodes the op replaced: three projection GEMMs, the
        attention arithmetic, and the output GEMM.  The tape adds x's
        terms as ((residual + q) + k) + v."""
        batch, length, width = x.shape
        d_k = width // heads
        c = 1.0 / math.sqrt(d_k)

        def project(a, w):  # the projection node: one GEMM on flattened rows
            a2 = a.reshape(-1, w.shape[0])
            return (a2 @ w).reshape(a.shape[:-1] + (w.shape[1],))

        def project_bwd(a, w, g):
            g2 = g.reshape(-1, w.shape[1])
            return (g2 @ w.T).reshape(a.shape), a.reshape(-1, w.shape[0]).T @ g2

        def split(a, axes=(0, 2, 1, 3)):
            return np.ascontiguousarray(a.reshape(batch, length, heads, d_k).transpose(axes))

        def merge(a):
            return a.transpose(0, 2, 1, 3).reshape(batch, length, width)

        q4, v4 = split(project(x, w_q)), split(project(x, w_v))
        k4t = split(project(x, w_k), (0, 2, 3, 1))
        w = np.matmul(q4, k4t)
        w *= c
        w += penalty[:, None, None, :]
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        context = merge(np.matmul(w, v4))
        out = project(context, w_o)

        g_context, g_wo = project_bwd(context, w_o, upstream)
        gc = g_context.reshape(batch, length, heads, d_k).transpose(0, 2, 1, 3)
        gw = np.matmul(gc, v4.transpose(0, 1, 3, 2))
        gv = np.matmul(w.transpose(0, 1, 3, 2), gc)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gs *= c
        gq = np.matmul(gs, k4t.transpose(0, 1, 3, 2))
        gk = np.matmul(q4.transpose(0, 1, 3, 2), gs).transpose(0, 1, 3, 2)
        (gx_q, g_wq), (gx_k, g_wk), (gx_v, g_wv) = (
            project_bwd(x, wp, merge(gp)) for gp, wp in ((gq, w_q), (gk, w_k), (gv, w_v)))
        gx = ((upstream + gx_q) + gx_k) + gx_v
        return out, w, gx, g_wq, g_wk, g_wv, g_wo

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_bits_equal_the_projection_chain(self, heads):
        """Output, weights and all five gradients equal the chain of
        projection GEMMs, attention and output GEMM bit for bit, with ``x``
        also feeding a residual add, as in an encoder block."""
        rng = np.random.default_rng(RNG_SEED)
        batch, length, width = 6, 5, 8
        args = [t.data for t in _random_attention_args(rng, batch, length, width)]
        pad = np.zeros((batch, length))
        pad[1, -1] = pad[4, -2:] = 1.0
        penalty = pad * -1e9
        upstream = rng.normal(size=(batch, length, width))

        ops = [Tensor(a, requires_grad=True) for a in args]
        out, w = T.attention(*ops, penalty, heads, return_weights=True)
        ((ops[0] + out) * Tensor(upstream)).sum().backward()
        got = (out.data, w, *(t.grad for t in ops))
        want = self._attention_chain(*args, penalty, heads, upstream)
        for g, v in zip(got, want):
            assert g.tobytes() == v.tobytes()

    def test_masked_mean_bits_equal_the_pooling_chain(self):
        """Forward and gradient equal the mul, sum and div chain the op
        replaced bit for bit: ``(x * keep).sum(axis=1) / counts``, then
        ``g / counts`` broadcast over the steps and times ``keep``."""
        rng = np.random.default_rng(RNG_SEED)
        x, upstream = rng.normal(size=(7, 6, 5)), rng.normal(size=(7, 5))
        pad = (rng.random((7, 6)) < 0.4).astype(float)
        pad[:, 0] = 0.0
        keep = (1.0 - pad)[:, :, None]
        counts = (1.0 - pad).sum(axis=1)[:, None]
        want_out = (x * keep).sum(axis=1) / counts
        g_sum = np.broadcast_to(np.expand_dims(upstream / counts, 1), x.shape)
        want_grad = g_sum * keep

        probe = Tensor(x, requires_grad=True)
        out = T.masked_mean(probe, pad)
        (out * Tensor(upstream)).sum().backward()
        assert out.data.tobytes() == want_out.tobytes()
        assert probe.grad.tobytes() == want_grad.tobytes()

    def test_composite_expression(self):
        rng = np.random.default_rng(RNG_SEED)
        w1, w2 = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4)))
        b1, b2 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))

        def f(x):
            h = T.sigmoid(T.linear(x, w1, b1))
            return (T.relu(T.linear(h, w2, b2)) * h).sum()

        assert grad_check(f, Tensor(rng.normal(size=(5, 4)))) < 1e-6


class TestErrorContracts:
    def test_overflow_names_op(self):
        with pytest.raises(NumericsError, match="'mul'"):
            T.mul(Tensor([1e200]), Tensor([1e200]))

    @pytest.mark.parametrize("name,fn", [
        ("add", lambda: Tensor([1e308]) + Tensor([1e308])),
    ], ids=["add"])
    def test_overflow_is_an_error_not_a_warning(self, name, fn):
        """Under the suite's warnings-as-errors, a numpy RuntimeWarning
        would surface first if the op ran with numpy's warnings on."""
        with pytest.raises(NumericsError, match=f"'{name}'"):
            fn()

    def test_backward_overflow_names_op(self):
        """Forward stays finite; x's gradient 1e300 * 1e100 overflows in
        linear's backward closure."""
        x = Tensor([[1e-200]], requires_grad=True)
        loss = (Tensor([1e300]) * T.linear(x, Tensor([[1e100]]), Tensor([0.0]))).sum()
        with pytest.raises(NumericsError, match=r"'backward\[linear\]'"):
            loss.backward()

    def test_backward_overflowing_sum_of_gradients_names_op(self):
        """Each of the two contributions to a's gradient, 1e308, is finite;
        their sum is not, and it must not reach ``a.grad``."""
        a = Tensor([1e-300], requires_grad=True)
        loss = (a * 1e308 + a * 1e308).sum()
        with pytest.raises(NumericsError, match=r"'backward\[mul\]'"):
            loss.backward()
        assert a.grad is None

    def test_backward_overflowing_leaf_accumulation_keeps_grad(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * 1e308).sum()
        loss.backward()
        with pytest.raises(NumericsError, match=r"'backward\[leaf\]'"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, [1e308])

    def test_gemm_overflow_in_a_worker_thread_names_op(self):
        """With two OpenBLAS threads, a worker thread computes the last
        rows of a [512, 256] @ [256, 256] GEMM, and the IEEE overflow flag
        it raises does not reach numpy: errstate(over="raise") misses it.
        The check reads values, so linear still names the overflow.  Runs
        in a subprocess because the thread count is fixed at import."""
        code = (
            "import numpy as np\n"
            "from sst import tensor as T\n"
            "x = np.ones((4, 128, 256))\n"
            "x[-1, -1] = 1e306\n"
            "try:\n"
            "    T.linear(T.Tensor(x), T.Tensor(np.ones((256, 256))), T.Tensor(np.zeros(256)))\n"
            "except T.NumericsError as err:\n"
            "    print(err)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "'linear'" in done.stdout

    def test_multitask_nll_overflow_names_op(self):
        """exp(-s) overflows for s = -1000; the op, not a numpy warning,
        reports it."""
        log_var = Tensor(np.full((3, 2), -1000.0), requires_grad=True)
        with pytest.raises(NumericsError, match="'multitask_nll'"):
            T.multitask_nll(Tensor(_nll_probs(np.random.default_rng(RNG_SEED))),
                            _NLL_LABELS, _NLL_MASK, _NLL_W, log_var)

    def test_multitask_nll_rejects_bad_shapes(self):
        probs = Tensor(np.full((3, 6), 0.5))
        with pytest.raises(ShapeMismatchError):
            T.multitask_nll(Tensor(np.full((3, 5), 0.5)), _NLL_LABELS, _NLL_MASK, _NLL_W)
        with pytest.raises(ShapeMismatchError):
            T.multitask_nll(probs, _NLL_LABELS, _NLL_MASK[:, :2], _NLL_W)
        with pytest.raises(ShapeMismatchError):
            T.multitask_nll(probs, _NLL_LABELS, _NLL_MASK, _NLL_W, Tensor(np.zeros((2, 3))))

    def test_attention_score_overflow_names_op(self):
        """A score of -1e400 overflows to -inf, which softmax would quietly
        turn into a zero weight and a finite output; the op must refuse it
        by name."""
        x = Tensor(np.array([[[1e200], [1.0]]]))
        one = Tensor([[1.0]])
        with pytest.raises(NumericsError, match="'attention'"):
            T.attention(x, one, Tensor([[-1.0]]), one, one, np.zeros((1, 2)), 1)

    def test_attention_rejects_bad_shapes(self):
        x, w = Tensor(np.ones((1, 2, 4))), Tensor(np.ones((4, 4)))
        with pytest.raises(ShapeMismatchError):
            T.attention(x, w, w, w, w, np.zeros((1, 2)), 3)
        with pytest.raises(ShapeMismatchError):
            T.attention(x, w, w, w, w, np.zeros((1, 3)), 2)
        with pytest.raises(ShapeMismatchError):
            T.attention(x, w, w, w, Tensor(np.ones((4, 2))), np.zeros((1, 2)), 2)
        with pytest.raises(ShapeMismatchError):
            T.attention(Tensor(np.ones((2, 4))), w, w, w, w, np.zeros((1, 2)), 2)

    def test_masked_mean_rejects_bad_shapes_and_empty_rows(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeMismatchError):
            T.masked_mean(Tensor(np.ones((2, 3))), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError):
            T.masked_mean(x, np.zeros((2, 4)))
        with pytest.raises(DomainError, match="sample 1"):
            T.masked_mean(x, np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))

    def test_finite_check_overflowing_sum_passes_silently(self):
        """[1e308, 1e308] sums to inf although both elements are finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Tensor([1e308, 1e308]) * 1.0
        np.testing.assert_array_equal(out.data, [1e308, 1e308])

    def test_finite_check_opposite_infinities_name_op(self):
        with pytest.raises(NumericsError, match="'probe'"):
            T._check_finite(np.array([np.inf, -np.inf]), "probe")

    def test_finite_check_lone_nan_names_op(self):
        with pytest.raises(NumericsError, match="'probe'"):
            T._check_finite(np.array([1.0, np.nan, 2.0]), "probe")

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(NumericsError):
            Tensor([np.nan])

    def test_backward_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            (x * x).backward()

    def test_empty_reduction_rejected(self):
        with pytest.raises(DomainError):
            Tensor(np.ones((0, 3))).sum()


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_softmax_is_a_distribution(self, batch, length, seed):
        """Every query's attention weights sum to 1 and a padded key weighs
        exactly 0."""
        rng = np.random.default_rng(seed)
        x, *weights = _random_attention_args(rng, batch, length, 4)
        pad = rng.random((batch, length)) < 0.4
        pad[:, 0] = False  # every sample keeps one real key
        _, w = T.attention(x * 3.0, *weights, pad * -1e9, 2, return_weights=True)
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((batch, 2, length)), atol=1e-9)
        assert np.all(w[np.broadcast_to(pad[:, None, None, :], w.shape)] == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_affine_chain_grad(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3,)))

        def f(x):
            return T.sigmoid(T.linear(x, w, b)).sum()

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-5
