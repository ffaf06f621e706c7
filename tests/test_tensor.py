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


class TestForwardOracles:
    def test_matmul_small(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal((a @ b).data, [[17.0], [39.0]])

    @staticmethod
    def _attention_weights(scores, penalty):
        """Weights of one head of width 1 whose every query scores the keys
        ``scores``: the softmax of ``scores + penalty``."""
        length = len(scores)
        q = Tensor(np.ones((1, length, 1)))
        k = Tensor(np.asarray(scores, dtype=float).reshape(1, length, 1))
        _, w = T.attention(q, k, k, np.asarray(penalty).reshape(1, length), 1,
                           return_weights=True)
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
        q, k, v = (Tensor(rng.normal(size=(4, 7, 6))) for _ in range(3))
        _, w = T.attention(q, k, v, np.zeros((4, 7)), 3, return_weights=True)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones((4, 3, 7)), atol=1e-12)

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(T.reduce_sum(Tensor(x), axis=1).data, x.sum(axis=1))
        np.testing.assert_allclose(T.reduce_sum(Tensor(x), axis=-1).data, x.sum(axis=-1))

    def test_elementwise_chain(self):
        x = Tensor([0.5, 1.5])
        out = (x * x) / x + x * -1.0
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

        def run():
            return T.sigmoid(x @ w).sum().item()

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


def _positive(rng, shape=(3, 4)):
    return rng.uniform(0.5, 2.0, size=shape)


def _anywhere(rng, shape=(3, 4)):
    return rng.normal(size=shape)


def _squared_sum(t):
    return (t * t).sum()


def _square(rng):
    return rng.normal(size=(3, 3))


# Fixed layer-norm gain and bias for the case that differentiates its input
_GAIN_BIAS = np.random.default_rng(RNG_SEED + 2).normal(size=(2, 4))

# Fixed query, key and value inputs for the attention grad cases: B=1, T=3,
# D=4 (two heads of width 2), with the last key padded.
_ATTN_QKV = np.random.default_rng(RNG_SEED + 1).normal(size=(3, 1, 3, 4))
_ATTN_PENALTY = np.array([[0.0, 0.0, -1e9]])


def _attention_case(slot):
    """Attention differentiated through one of q (0), k (1) or v (2)."""
    def fn(x):
        qkv = [Tensor(a) for a in _ATTN_QKV]
        qkv[slot] = x
        return _squared_sum(T.attention(*qkv, _ATTN_PENALTY, 2))
    return fn


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
    ("matmul", lambda x: _squared_sum(T.matmul(x, x)), _square),
    ("linear", lambda x: _squared_sum(T.linear(x, x, Tensor([0.5, -1.0, 2.0]))), _square),
    ("layer_norm", lambda x: (T.layer_norm(x, *_GAIN_BIAS, 1e-9) * x).sum(), _anywhere),
    ("sum_of_squares", lambda x: T.sum_of_squares([x, Tensor(np.ones(3)), x * 3.0]),
     _anywhere),
    ("attention", _attention_case(0), lambda rng: _anywhere(rng, (1, 3, 4))),
    ("attention", _attention_case(1), lambda rng: _anywhere(rng, (1, 3, 4))),
    ("attention", _attention_case(2), lambda rng: _anywhere(rng, (1, 3, 4))),
    ("multitask_nll", _nll_case("plain"), _nll_probs),
    ("multitask_nll", _nll_case("probs"), _nll_probs),
    ("multitask_nll", _nll_case("log_var"), lambda rng: _anywhere(rng, (3, 2))),
    ("add", lambda x: (x + 2.0 * x).sum(), _anywhere),
    ("mul", lambda x: (x * x).sum(), _anywhere),
    ("div", lambda x: (1.0 / x).sum(), _positive),
    ("sigmoid", lambda x: T.sigmoid(x).sum(), _anywhere),
    ("relu", lambda x: _squared_sum(T.relu(x)), _anywhere),
    ("sum", lambda x: _squared_sum(x.sum(axis=0)), _anywhere),
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

    def test_matmul_flattens_leading_axes(self):
        """A 3-D @ 2-D product runs as one 2-D GEMM; check its values and
        both gradients, and those of linear, through that path."""
        rng = np.random.default_rng(RNG_SEED)
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=(5,))
        np.testing.assert_allclose(
            T.matmul(Tensor(a), Tensor(w)).data, np.matmul(a, w), rtol=1e-12
        )
        np.testing.assert_allclose(
            T.linear(Tensor(a), Tensor(w), Tensor(b)).data, np.matmul(a, w) + b, rtol=1e-12
        )
        assert grad_check(lambda x: _squared_sum(T.matmul(x, Tensor(w))), Tensor(a)) < 1e-6
        assert grad_check(lambda x: _squared_sum(T.matmul(Tensor(a), x)), Tensor(w)) < 1e-6
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
        """The fused op against a plain-numpy forward of split heads, scaled
        scores, key penalty, softmax and merged context, with one padded
        key: values and weights bit for bit, and each of the three
        gradients against central differences."""
        rng = np.random.default_rng(RNG_SEED)
        batch, length, width, heads = 3, 5, 8, 2
        d_k = width // heads
        qkv = rng.normal(size=(3, batch, length, width))
        pad = np.zeros((batch, length))
        pad[1, -1] = 1.0
        penalty = pad * -1e9
        upstream = Tensor(rng.normal(size=(batch, length, width)))

        q, k, v = (a.reshape(batch, length, heads, d_k).transpose(0, 2, 1, 3) for a in qkv)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(d_k))
        scores = scores + penalty[:, None, None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want_w = e / e.sum(axis=-1, keepdims=True)
        want = np.matmul(want_w, v).transpose(0, 2, 1, 3).reshape(batch, length, width)

        out, w = T.attention(*(Tensor(a) for a in qkv), penalty, heads, return_weights=True)
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(w, want_w)
        assert np.all(w[1, :, :, -1] == 0.0)

        for slot in range(3):
            def f(t, slot=slot):
                ops = [Tensor(a) for a in qkv]
                ops[slot] = t
                return (T.attention(*ops, penalty, heads) * upstream).sum()
            assert grad_check(f, Tensor(qkv[slot])) < 1e-6

    def test_composite_expression(self):
        rng = np.random.default_rng(RNG_SEED)
        w = Tensor(rng.normal(size=(4, 4)))

        def f(x):
            h = T.sigmoid(x @ w)
            return (1.0 / h.sum(axis=-1)).sum()

        assert grad_check(f, Tensor(rng.normal(size=(5, 4)))) < 1e-6


class TestErrorContracts:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_matmul_rejects_batched_right_operand(self):
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))

    def test_div_by_zero(self):
        with pytest.raises(DomainError, match="div"):
            Tensor([1.0]) / Tensor([0.0])

    def test_overflow_names_op(self):
        with pytest.raises(NumericsError, match="'mul'"):
            T.mul(Tensor([1e200]), Tensor([1e200]))

    @pytest.mark.parametrize("name,fn", [
        ("add", lambda: Tensor([1e308]) + Tensor([1e308])),
        ("div", lambda: Tensor([1e308]) / Tensor([1e-10])),
    ], ids=["add", "div"])
    def test_overflow_is_an_error_not_a_warning(self, name, fn):
        """Under the suite's warnings-as-errors, a numpy RuntimeWarning
        would surface first if the op ran with numpy's warnings on."""
        with pytest.raises(NumericsError, match=f"'{name}'"):
            fn()

    def test_backward_overflow_names_op(self):
        """Forward stays finite; the gradient 1e300 / 1e-100 overflows in
        div's backward closure."""
        x = Tensor([1e-200], requires_grad=True)
        loss = (Tensor([1e300]) * (x / Tensor([1e-100]))).sum()
        with pytest.raises(NumericsError, match=r"'backward\[div\]'"):
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

    def test_div_gradient_of_a_tiny_denominator(self):
        """d(1/x)/dx = -1/x^2 is -1e400 at x = 1e-200; scaled by 1e-300 it
        is -1e100, although x * x underflows to 0."""
        x = Tensor([1e-200], requires_grad=True)
        ((Tensor([1.0]) / x) * Tensor([1e-300])).sum().backward()
        np.testing.assert_allclose(x.grad, [-1e100], rtol=1e-15)

    def test_gemm_overflow_in_a_worker_thread_names_op(self):
        """With two OpenBLAS threads, a worker thread computes the last
        rows of a [512, 256] @ [256, 256] GEMM, and the IEEE overflow flag
        it raises does not reach numpy: errstate(over="raise") misses it.
        The check reads values, so matmul still names the overflow.  Runs
        in a subprocess because the thread count is fixed at import."""
        code = (
            "import numpy as np\n"
            "from sst import tensor as T\n"
            "x = np.ones((4, 128, 256))\n"
            "x[-1, -1] = 1e306\n"
            "try:\n"
            "    T.matmul(T.Tensor(x), T.Tensor(np.ones((256, 256))))\n"
            "except T.NumericsError as err:\n"
            "    print(err)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "'matmul'" in done.stdout

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
        q = Tensor(np.full((1, 2, 1), 1e200))
        k = Tensor(np.array([[[-1e200], [1e-300]]]))
        v = Tensor(np.array([[[1.0], [2.0]]]))
        with pytest.raises(NumericsError, match="'attention'"):
            T.attention(q, k, v, np.zeros((1, 2)), 1)

    def test_attention_rejects_bad_shapes(self):
        x = Tensor(np.ones((1, 2, 4)))
        with pytest.raises(ShapeMismatchError):
            T.attention(x, x, x, np.zeros((1, 2)), 3)
        with pytest.raises(ShapeMismatchError):
            T.attention(x, x, x, np.zeros((1, 3)), 2)

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
            Tensor(np.ones((0, 3))).sum(axis=0)


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_softmax_is_a_distribution(self, batch, length, seed):
        """Every query's attention weights sum to 1 and a padded key weighs
        exactly 0."""
        rng = np.random.default_rng(seed)
        q, k, v = (Tensor(rng.normal(scale=3.0, size=(batch, length, 4))) for _ in range(3))
        pad = rng.random((batch, length)) < 0.4
        pad[:, 0] = False  # every sample keeps one real key
        _, w = T.attention(q, k, v, pad * -1e9, 2, return_weights=True)
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
            return T.sigmoid(x @ w + b).sum()

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-5
