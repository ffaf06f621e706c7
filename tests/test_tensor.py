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
        out = T.linear(Tensor([[-800.0], [0.0], [800.0]]), Tensor([[1.0]]), Tensor([0.0]),
                       "sigmoid")
        np.testing.assert_allclose(out.data.ravel(), [0.0, 0.5, 1.0], atol=1e-12)

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

    @pytest.mark.parametrize("clamped", [
        {}, {(1, 3): 0.0},
        {(0, 0): 1e-13, (0, 2): 1.25, (1, 1): -0.5, (2, 5): 1.0 - 1e-13},
    ], ids=["none", "one", "several"])
    def test_multitask_nll_counts_clamped_entries(self, clamped):
        """``n_clamped`` counts the probs entries outside [PROB_FLOOR, 1 -
        PROB_FLOOR], whose gradient is zero; the interval's ends do not
        count, and an entry of an unmeasured task counts like any other."""
        probs = np.random.default_rng(RNG_SEED).uniform(0.05, 0.95, size=(3, 6))
        probs[2, 0], probs[1, 2] = T.PROB_FLOOR, 1.0 - T.PROB_FLOOR
        for idx, value in clamped.items():
            probs[idx] = value
        p = Tensor(probs, requires_grad=True)
        loss, n_clamped = T.multitask_nll(p, _NLL_LABELS, _NLL_MASK, _NLL_W)
        assert n_clamped == len(clamped)
        loss.backward()
        assert all(p.grad[idx] == 0.0 for idx in clamped)


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
            return T.linear(x, w, b, "sigmoid").sum().item()

        assert run() == run()

    def test_no_grad_tensors_stay_clean(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0, 2.0])

    def test_leaf_gradients_never_share_memory(self):
        """``add`` hands both operands the same upstream gradient: each
        leaf stores its own copy, and a leaf that two ops use stores the
        sum of their terms."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        c = Tensor([1.0, -1.0], requires_grad=True)
        (c + c * 2.0).sum().backward()
        np.testing.assert_array_equal(c.grad, [3.0, 3.0])

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


# Fixed layer-norm gain and bias for the cases that differentiate its
# input, and a sublayer output with a dropout mask of rate 0.5 for the
# residual ones
_GAIN_BIAS = np.random.default_rng(RNG_SEED + 2).normal(size=(2, 4))
_RESIDUAL = np.random.default_rng(RNG_SEED + 6).normal(size=(3, 4))
_KEEP = np.random.default_rng(RNG_SEED + 7).random((3, 4)) >= 0.5


def _linear_case(act, shift=None, keep=None):
    """``linear`` of a [3, 3] input by itself as the weight, so that one
    check covers the input and weight gradients, through ``act`` with an
    optional shift and a dropout mask of rate 0.5."""
    return lambda x: _squared_sum(
        T.linear(x, x, Tensor([0.5, -1.0, 2.0]), act, shift, keep, 0.5))


def _layer_norm(x, gain, bias, eps):
    """A plain layer norm: ``residual_norm`` without a sublayer output."""
    return T.residual_norm(x, None, None, gain, bias, eps)


def _residual_case(slot):
    """``residual_norm`` with a masked sublayer output, differentiated
    through the residual ``x`` (0) or the sublayer output ``s`` (1)."""
    def fn(t):
        args = [Tensor(_RESIDUAL), Tensor(_RESIDUAL[::-1].copy())]
        args[slot] = t
        return _squared_sum(T.residual_norm(*args, _KEEP, *_GAIN_BIAS, 1e-9, 0.5))
    return fn

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
    with (``probs``) uncertainty weighting, through ``log_var``, or through
    an ``l2`` tensor that the penalty squares twice beside a constant."""
    probs = _nll_probs(np.random.default_rng(RNG_SEED + 5))

    def fn(x):
        if wrt == "log_var":
            return T.multitask_nll(Tensor(probs), _NLL_LABELS, _NLL_MASK, _NLL_W, x)[0]
        if wrt == "l2":
            return T.multitask_nll(Tensor(probs), _NLL_LABELS, _NLL_MASK, _NLL_W,
                                   Tensor(_NLL_LOG_VAR), [x, Tensor(np.ones(3)), x * 3.0],
                                   0.5)[0]
        log_var = None if wrt == "plain" else Tensor(_NLL_LOG_VAR)
        return T.multitask_nll(x, _NLL_LABELS, _NLL_MASK, _NLL_W, log_var)[0]
    return fn


# (name, scalar-valued fn of one tensor, domain-safe input maker), and for
# a variant of an op's options the variant's name, which joins the op's in
# the test id
GRAD_CASES = [
    ("linear", lambda x: _squared_sum(T.linear(x, x, Tensor([0.5, -1.0, 2.0]))), _square),
    ("linear", _linear_case("relu"), _square, "relu"),
    ("linear", _linear_case("sigmoid"), _square, "sigmoid"),
    ("linear", _linear_case("none", shift=_RESIDUAL[:, :3]), _square, "shift"),
    ("linear", _linear_case("sigmoid", keep=_KEEP[:, :3]), _square, "keep"),
    ("residual_norm", lambda x: (_layer_norm(x, *_GAIN_BIAS, 1e-9) * x).sum(), _anywhere),
    ("residual_norm", _residual_case(0), _anywhere),
    ("residual_norm", _residual_case(1), _anywhere),
    ("attention", _attention_case(0), lambda rng: _anywhere(rng, (1, 3, 4))),
    ("attention", _attention_case(1), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(2), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(3), lambda rng: _anywhere(rng, (4, 4))),
    ("attention", _attention_case(4), lambda rng: _anywhere(rng, (4, 4))),
    ("multitask_nll", _nll_case("plain"), _nll_probs),
    ("multitask_nll", _nll_case("probs"), _nll_probs),
    ("multitask_nll", _nll_case("log_var"), lambda rng: _anywhere(rng, (3, 2))),
    ("multitask_nll", _nll_case("l2"), _anywhere, "l2"),
    ("add", lambda x: (x + 2.0 * x).sum(), _anywhere),
    ("mul", lambda x: (x * x).sum(), _anywhere),
    ("sum", lambda x: _squared_sum(x.sum()), _anywhere),
    ("masked_mean", lambda x: _squared_sum(T.masked_mean(x, _POOL_MASK)),
     lambda rng: _anywhere(rng, (2, 3, 4))),
]


class TestGradCheck:
    @pytest.mark.parametrize("case", GRAD_CASES,
                             ids=["_".join(c[:1] + c[3:]) for c in GRAD_CASES])
    def test_registered_op(self, case):
        _, fn, maker = case[:3]
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
        got = _layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        args = [x, gain, bias]
        for slot in range(3):
            def f(t, slot=slot):
                ops = [Tensor(a) for a in args]
                ops[slot] = t
                return (_layer_norm(*ops, eps) * upstream).sum()
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
        out = _layer_norm(*ops, eps)
        (out * Tensor(upstream)).sum().backward()
        got = (out.data, *(t.grad for t in ops))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("masked", [True, False], ids=["keep", "no_keep"])
    def test_residual_norm_bits_equal_the_mul_add_layer_norm_chain(self, masked):
        """Output and the gradients of x, the sublayer's weight and bias,
        gain and bias equal those of the chain it replaces bit for bit, with
        the sublayer a linear map of x, so x also feeds a second consumer.
        The replica records ``mul`` and ``add`` on the tape, runs the layer
        norm in numpy with ``ndarray.mean``, and feeds the norm's input
        gradient back through the surrogate loss ``sum(z * gz)``."""
        rng = np.random.default_rng(RNG_SEED)
        arrays = (rng.normal(size=(4, 3, 8)), rng.normal(size=(8, 8)), rng.normal(size=8),
                  rng.normal(size=8), rng.normal(size=8))
        keep = rng.random((4, 3, 8)) >= 0.25 if masked else None
        upstream = rng.normal(size=(4, 3, 8))
        eps = 1e-9

        x, w, b, gain, bias = (Tensor(a, requires_grad=True) for a in arrays)
        out = T.residual_norm(x, T.linear(x, w, b), keep, gain, bias, eps, 0.25)
        (out * Tensor(upstream)).sum().backward()
        got = (out.data, x.grad, w.grad, b.grad, gain.grad, bias.grad)

        x, w, b = (Tensor(a, requires_grad=True) for a in arrays[:3])
        gain, bias = arrays[3:]
        s = T.linear(x, w, b)
        z = x + (s if keep is None else s * Tensor(keep / (1.0 - 0.25)))
        centered = z.data - z.data.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        std = np.sqrt(var + eps)
        normed = centered / std
        g_normed = upstream * gain
        gz = (g_normed - g_normed.mean(axis=-1, keepdims=True)
              - normed * (g_normed * normed).mean(axis=-1, keepdims=True)) / std
        (z * Tensor(gz)).sum().backward()
        want = (normed * gain + bias, x.grad, w.grad, b.grad,
                (upstream * normed).sum(axis=(0, 1)), upstream.sum(axis=(0, 1)))
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

    def test_residual_norm_rejects_bad_shapes_and_eps(self):
        x, ones = Tensor(np.ones((2, 3))), np.ones(3)
        with pytest.raises(ShapeMismatchError):
            T.residual_norm(x, Tensor(np.ones((2, 4))), None, ones, ones, 1e-9)
        with pytest.raises(ShapeMismatchError):
            T.residual_norm(x, x, np.ones(3), ones, ones, 1e-9)
        with pytest.raises(ShapeMismatchError):
            T.residual_norm(x, None, np.ones((2, 3)), ones, ones, 1e-9)
        with pytest.raises(ShapeMismatchError):
            T.residual_norm(x, x, None, np.ones(2), ones, 1e-9)
        with pytest.raises(DomainError, match="eps"):
            T.residual_norm(x, x, None, ones, ones, 0.0)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_row_sum_and_max_bits_equal_numpy(self, length):
        """The column-wise sum and maximum over a short trailing axis, and
        the slice-wise sum over a short middle axis, equal ``ndarray.sum``
        and ``ndarray.max`` bit for bit at every length, on values spanning
        30 orders of magnitude with signed zeros."""
        rng = np.random.default_rng(RNG_SEED + length)
        a = rng.normal(size=(5, 3, 7, length)) * 10.0 ** rng.integers(-15, 15, (5, 3, 7, length))
        a[0, 0, :, :] = -0.0
        a[1, 0, 0, 0] = 0.0
        assert T._row_sum(a).tobytes() == a.sum(axis=-1, keepdims=True).tobytes()
        assert T._row_max(a).tobytes() == a.max(axis=-1, keepdims=True).tobytes()
        b = np.ascontiguousarray(a.reshape(15, 7, length).transpose(0, 2, 1))
        assert T._axis1_sum(b).tobytes() == b.sum(axis=1).tobytes()

    def test_add_and_mul_compute_no_gradient_for_a_constant(self):
        """Neither op computes a gradient for an operand that needs none,
        such as a constant factor."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        for op in (T.add, T.mul):
            assert op(x, np.ones(3))._bwd(np.ones((2, 3)))[1] is None
            assert op(np.ones(3), x)._bwd(np.ones((2, 3)))[0] is None

    def test_relu_bits_equal_where(self):
        """``linear``'s relu is bitwise equal to ``np.where(z > 0, z, 0.0)``
        of its pre-activation ``z``: ``-0.0`` and every negative give
        ``+0.0``.  A row of tiny negatives times tiny positive weights
        underflows to ``-0.0`` in every product, and the GEMM keeps that
        sign; the bias ``-0.0`` adds nothing to any value."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(102, 4)) * 10.0 ** rng.integers(-310, 2, (102, 4))
        x[97] = -1e-300
        w, b = np.full((4, 3), 1e-300), np.full(3, -0.0)
        w[:, 1] = rng.normal(size=4)
        z = x @ w + b
        assert np.signbit(z[97, 0]) and z[97, 0] == 0.0
        got = T.linear(Tensor(x), Tensor(w), Tensor(b), "relu").data
        assert got.tobytes() == np.where(z > 0, z, 0.0).tobytes()
        assert not np.signbit(got).any()

    @staticmethod
    def _replica(data, parent, bwd):
        """A test-local tape node: ``data``, computed from ``parent``, with
        the backward closure ``bwd``."""
        out = Tensor(data)
        out.requires_grad = True
        out._op, out._parents, out._bwd = "replica", (parent,), bwd
        return out

    def _relu_node(self, x):
        """The ``relu`` node that ``linear``'s epilogue replaced."""
        mask = x.data > 0
        out = np.maximum(x.data, 0.0)
        out += 0.0
        return self._replica(out, x, lambda g: (g * mask,))

    def _sigmoid_node(self, x):
        """The ``sigmoid`` node that ``linear``'s epilogue replaced."""
        ex = np.exp(-np.abs(x.data))
        denom = 1.0 + ex
        out = np.where(x.data >= 0, 1.0 / denom, ex / denom)
        return self._replica(out, x, lambda g: (g * out * (1.0 - out),))

    @pytest.mark.parametrize("act,shifted,masked",
                             [("relu", False, False), ("sigmoid", False, True),
                              ("none", True, True)],
                             ids=["relu", "sigmoid_keep", "shift_keep"])
    def test_linear_epilogue_bits_equal_the_chain(self, act, shifted, masked):
        """Output and the gradients of x, w and b equal those of the chain
        ``linear``'s epilogue replaced bit for bit: linear then relu (the
        feed-forward expansion), linear, sigmoid and the dropout ``mul`` (a
        hidden head layer), and linear, the positional ``add`` and the
        dropout ``mul`` (the embedding), with x also feeding a residual
        add.  The replica's dropout ``mul`` takes the float mask that
        ``linear`` rebuilds from the one-byte mask and the rate."""
        rng = np.random.default_rng(RNG_SEED)
        arrays = (rng.normal(size=(4, 3, 8)) * 3.0, rng.normal(size=(8, 8)), rng.normal(size=8))
        table = rng.normal(size=(3, 8))
        keep, rate = rng.random((4, 3, 8)) >= 0.25, 0.25
        upstream = rng.normal(size=(4, 3, 8))
        shift = table if shifted else None

        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        out = T.linear(x, w, b, act, shift, keep if masked else None, rate)
        ((x + out) * Tensor(upstream)).sum().backward()
        got = (out.data, x.grad, w.grad, b.grad)

        x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
        h = T.linear(x, w, b)
        if shift is not None:
            h = h + shift
        if act == "relu":
            h = self._relu_node(h)
        elif act == "sigmoid":
            h = self._sigmoid_node(h)
        if masked:
            h = h * Tensor(keep / (1.0 - rate))
        ((x + h) * Tensor(upstream)).sum().backward()
        want = (h.data, x.grad, w.grad, b.grad)
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

    def test_multitask_nll_l2_bits_equal_the_chain(self):
        """The L2 penalty inside ``multitask_nll``: the loss and the
        gradients of probs, log_var and three weights equal those of the
        chain the op replaced bit for bit, the loss node, ``sum((t *
        t).sum())`` over the weights in order, the factor's ``mul`` and the
        ``add``.  Each weight also feeds a ``linear``, so it takes two
        gradient terms, and the
        objective is scaled so that its upstream gradient is not 1.  The
        replica adds the penalty on the left so that ``backward`` sums each
        square's two ``mul`` terms before the ``linear`` term, as it did for
        the single ``(2 g) * t`` term of the deleted penalty node."""
        rng = np.random.default_rng(RNG_SEED)
        probs = _nll_probs(rng)
        # the third weight is large, so that the order of the per-tensor
        # sums and the place of the factor show in the loss's bits
        arrays = (rng.normal(size=(4, 5)), rng.normal(size=(5, 3)),
                  rng.normal(size=(3, 3)) * 30.0)
        x = Tensor(rng.normal(size=(2, 4)))
        b0, b1 = Tensor(np.zeros(5)), Tensor(np.zeros(3))
        factor, scale = 0.1, 0.7

        def leaves():
            return (Tensor(probs, requires_grad=True), Tensor(_NLL_LOG_VAR, requires_grad=True),
                    *(Tensor(a, requires_grad=True) for a in arrays))

        def run(objective, params):
            ws = params[2:]
            hidden = T.linear(T.linear(x, ws[0], b0, "relu"), ws[1], b1, "relu")
            (objective * scale + T.linear(hidden, ws[2], b1).sum()).backward()
            return (objective.data, *(t.grad for t in params))

        p, s, *ws = params = leaves()
        fused, n_clamped = T.multitask_nll(p, _NLL_LABELS, _NLL_MASK, _NLL_W, s, ws, factor)
        got = run(fused, params)
        assert n_clamped == 1

        p, s, *ws = params = leaves()
        nll, _ = T.multitask_nll(p, _NLL_LABELS, _NLL_MASK, _NLL_W, s)
        squares = (ws[0] * ws[0]).sum()
        for w in ws[1:]:
            squares = squares + (w * w).sum()
        want = run(squares * factor + nll, params)
        for g, wanted in zip(got, want):
            assert g.tobytes() == wanted.tobytes()

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

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_backward_blocks_keep_the_bits(self, heads, monkeypatch):
        """A backward run in blocks of 3, 3 and 1 samples gives the output,
        weights and all five gradients of a one-block run bit for bit, with
        ``x`` also feeding a residual add.  The softmax row sums, one in the
        forward and one per backward block, show the block sizes."""
        rng = np.random.default_rng(RNG_SEED)
        batch, length, width = 7, 5, 8
        args = [t.data for t in _random_attention_args(rng, batch, length, width)]
        pad = np.zeros((batch, length))
        pad[1, -1] = pad[5, -2:] = 1.0
        upstream = rng.normal(size=(batch, length, width))
        row_sum, sizes = T._row_sum, []
        monkeypatch.setattr(T, "_row_sum", lambda a: sizes.append(len(a)) or row_sum(a))

        def run(budget):
            sizes.clear()
            monkeypatch.setattr(T, "ATTENTION_BWD_BLOCK_BYTES", budget)
            ops = [Tensor(a, requires_grad=True) for a in args]
            out, w = T.attention(*ops, pad * -1e9, heads, return_weights=True)
            ((ops[0] + out) * Tensor(upstream)).sum().backward()
            return (out.data, w, *(t.grad for t in ops))

        whole = run(batch * 8 * heads * length * length)
        assert sizes == [7, 7]
        blocked = run(3 * 8 * heads * length * length + 7)
        assert sizes == [7, 3, 3, 1]
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

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
            h = T.linear(x, w1, b1, "sigmoid")
            return (T.linear(h, w2, b2, "relu") * h).sum()

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

    @pytest.mark.parametrize("act", ["relu", "sigmoid"])
    def test_linear_checks_before_its_activation(self, act):
        """1e200 * -1e200 overflows to -inf, which relu and sigmoid would
        both turn into a finite 0; linear refuses it by name."""
        with pytest.raises(NumericsError, match="'linear'"):
            T.linear(Tensor([[1e200]]), Tensor([[-1e200]]), Tensor([0.0]), act)

    def test_linear_rejects_bad_epilogue_arguments(self):
        x, w, b = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5))
        T.linear(x, w, b, "none", np.ones((3, 5)), np.ones((2, 3, 5), dtype=bool), 0.5)
        with pytest.raises(ShapeMismatchError):
            T.linear(x, w, b, "none", np.ones((2, 5)))
        with pytest.raises(ShapeMismatchError):
            T.linear(x, w, b, "none", np.ones((1, 2, 3, 5)))
        with pytest.raises(ShapeMismatchError):
            T.linear(x, w, b, "none", None, np.ones((2, 3, 4), dtype=bool), 0.5)
        with pytest.raises(DomainError, match="tanh"):
            T.linear(x, w, b, "tanh")

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
        """The check runs inside its caller's ``errstate`` block, which
        silences the invalid sum inf + -inf."""
        with pytest.raises(NumericsError, match="'probe'"), np.errstate(all="ignore"):
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
            return T.linear(x, w, b, "sigmoid").sum()

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-5


class TestHeap:
    STEP = (
        "import resource, numpy as np\n"
        "import sst\n"
        "def step():\n"
        "    xs = [np.ones(8192) for _ in range(128)]\n"
        "    del xs\n"
        "step()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(4):\n"
        "    step()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )

    @pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in os.confstr_names,
                        reason="sets glibc's malloc thresholds only")
    @pytest.mark.parametrize("trim,kept", [(None, True), ("131072", False)],
                             ids=["default", "environment"])
    def test_step_memory_stays_on_the_heap(self, trim, kept):
        """A step that allocates 8 MiB in 64 KiB arrays and frees them all
        leaves those pages to the next step; glibc's default trims them, and
        each later step faults about 2,000 pages in again.  A trim threshold
        set in the environment is left as it is.  Runs in a subprocess
        because the thresholds are set when sst is imported."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(SRC)
        if trim is not None:
            env["MALLOC_TRIM_THRESHOLD_"] = trim
        done = subprocess.run([sys.executable, "-W", "error", "-c", self.STEP], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout)
        assert faults < 500 if kept else faults > 4000
