"""Autodiff core: forward oracles, gradient checks, error contracts."""

import math
import warnings

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


class TestForwardOracles:
    def test_matmul_small(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal((a @ b).data, [[17.0], [39.0]])

    def test_matmul_batched_broadcast(self):
        rng = np.random.default_rng(RNG_SEED)
        a = rng.normal(size=(3, 2, 4, 5))
        b = rng.normal(size=(2, 5, 6))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, np.matmul(a, b), rtol=1e-12)

    def test_softmax_frozen(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8
        )

    def test_softmax_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(RNG_SEED)
        out = T.softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(T.reduce_sum(Tensor(x), axis=1).data, x.sum(axis=1))
        np.testing.assert_allclose(
            T.reduce_mean(Tensor(x), axis=-1, keepdims=True).data,
            x.mean(axis=-1, keepdims=True),
        )

    def test_elementwise_chain(self):
        x = Tensor([0.5, 1.5])
        out = T.exp(T.log(x)) - x
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
            return T.softmax(x @ w, axis=-1).sum().item()

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
            y = T.exp(x * x)
        assert not y.requires_grad and y._parents == () and y._bwd is None
        np.testing.assert_array_equal(y.data, np.exp([1.0, 4.0]))
        z = x * x
        assert z.requires_grad and z._parents == (x, x)

    def test_flag_restored_after_an_exception(self):
        """The finiteness check still runs without a tape, and the error it
        raises leaves the tape switched back on."""
        x = Tensor([1000.0], requires_grad=True)
        with pytest.raises(NumericsError, match="exp"):
            with T.no_grad():
                T.exp(x)
        y = T.scale(x, 2.0)
        assert y.requires_grad and y._parents == (x,)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_nested_blocks_restore_the_outer_setting(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad


def _unit_interval(shape, rng):
    return rng.uniform(0.05, 0.95, size=shape)


def _positive(shape, rng):
    return rng.uniform(0.5, 2.0, size=shape)


def _anywhere(shape, rng):
    return rng.normal(size=shape)


def _squared_sum(t):
    return (t * t).sum()


# Fixed query, key and value inputs for the attention grad cases: B=1, T=3,
# D=4 (two heads of width 2), with the last key padded.
_ATTN_QKV = np.random.default_rng(RNG_SEED + 1).normal(size=(3, 1, 3, 4))
_ATTN_PENALTY = np.array([[0.0, 0.0, -1e9]])


def _attention_case(slot):
    """Attention differentiated through one of q (0), k (1) or v (2); the
    [3, 4] probe becomes that input's [1, 3, 4]."""
    def fn(x):
        qkv = [Tensor(a) for a in _ATTN_QKV]
        qkv[slot] = x.reshape(1, 3, 4)
        return _squared_sum(T.attention(*qkv, _ATTN_PENALTY, 2))
    return fn


# (name, scalar-valued fn of one tensor, domain-safe input maker)
GRAD_CASES = [
    ("matmul", lambda x: T.matmul(x, T.transpose(x)).sum(), _anywhere),
    ("linear", lambda x: _squared_sum(T.linear(x, T.transpose(x), x[:, 0])), _anywhere),
    ("layer_norm", lambda x: (T.layer_norm(x, x[0], x[1], 1e-9) * x).sum(), _anywhere),
    ("sum_of_squares", lambda x: T.sum_of_squares([x, x[0], T.scale(x, 3.0)]), _anywhere),
    ("attention", _attention_case(0), _anywhere),
    ("attention", _attention_case(1), _anywhere),
    ("attention", _attention_case(2), _anywhere),
    ("add", lambda x: (x + 2.0 * x).sum(), _anywhere),
    ("sub", lambda x: (x - 0.5 * x).sum(), _anywhere),
    ("mul", lambda x: (x * x).sum(), _anywhere),
    ("div", lambda x: (1.0 / x).sum(), _positive),
    ("neg", lambda x: (-x).sum(), _anywhere),
    ("scale", lambda x: T.scale(x, 3.25).sum(), _anywhere),
    ("exp", lambda x: T.exp(x).sum(), _anywhere),
    ("log", lambda x: T.log(x).sum(), _positive),
    ("sqrt", lambda x: T.sqrt(x).sum(), _positive),
    ("sigmoid", lambda x: T.sigmoid(x).sum(), _anywhere),
    ("relu", lambda x: T.relu(x).mean(), _positive),
    ("clip", lambda x: T.clip(x, 0.2, 0.8).sum(), _unit_interval),
    ("softmax", lambda x: (T.softmax(x, axis=-1) * T.softmax(x, axis=-1)).sum(), _anywhere),
    ("sum", lambda x: x.sum(axis=0).sum(), _anywhere),
    ("mean", lambda x: x.mean(axis=1, keepdims=True).sum(), _anywhere),
    ("reshape", lambda x: (x.reshape(12) * x.reshape(12)).sum(), _anywhere),
    ("transpose", lambda x: T.matmul(T.transpose(x), x).sum(), _anywhere),
    ("getitem", lambda x: (x[1:, :2] * x[1:, :2]).sum(), _anywhere),
]


class TestGradCheck:
    @pytest.mark.parametrize("name,fn,maker", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_registered_op(self, name, fn, maker):
        rng = np.random.default_rng(RNG_SEED)
        x = Tensor(maker((3, 4), rng))
        assert grad_check(fn, x) < 1e-6

    def test_every_op_has_a_grad_case(self):
        covered = {c[0] for c in GRAD_CASES}
        assert covered == set(T.OPS)

    def test_matmul_flattens_leading_axes(self):
        """A 3-D @ 2-D product runs as one 2-D GEMM; check its values and
        both gradients, and those of linear, through that path.  The 2-D
        grad case takes that path too, so the batched 3-D @ 3-D path is
        checked here as well."""
        rng = np.random.default_rng(RNG_SEED)
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=(5,))
        batched = rng.normal(size=(2, 4, 5))
        assert grad_check(lambda x: _squared_sum(T.matmul(x, Tensor(batched))), Tensor(a)) < 1e-6
        assert grad_check(lambda x: _squared_sum(T.matmul(Tensor(a), x)), Tensor(batched)) < 1e-6
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
        """The fused op against the composite expression it replaces, values
        and all three gradients, on a batched input."""
        rng = np.random.default_rng(RNG_SEED)
        x_data = rng.normal(size=(3, 2, 5))
        gain_data = rng.normal(size=5)
        bias_data = rng.normal(size=5)
        upstream = Tensor(rng.normal(size=(3, 2, 5)))
        eps = 1e-9

        def composite(x, gain, bias):
            mean = x.mean(axis=-1, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=-1, keepdims=True)
            return centered / T.sqrt(var + eps) * gain + bias

        results = []
        for fn in (composite, lambda x, g, b: T.layer_norm(x, g, b, eps)):
            args = [Tensor(d.copy(), requires_grad=True) for d in (x_data, gain_data, bias_data)]
            out = fn(*args)
            (out * upstream).sum().backward()
            results.append([out.data] + [a.grad for a in args])
        for ref, fused in zip(*results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)

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
        """The fused op against the chain of split-head transposes, matmuls,
        scale, add and softmax it replaces, with one padded key: values and
        weights bit for bit, all three gradients within 1e-12."""
        rng = np.random.default_rng(RNG_SEED)
        batch, length, width, heads = 3, 5, 8, 2
        d_k = width // heads
        qkv_data = rng.normal(size=(3, batch, length, width))
        pad = np.zeros((batch, length))
        pad[1, -1] = 1.0
        penalty = pad * -1e9
        upstream = Tensor(rng.normal(size=(batch, length, width)))

        def split(t):
            return T.transpose(t.reshape(batch, length, heads, d_k), (0, 2, 1, 3))

        def composite(q, k, v):
            scores = T.scale(split(q) @ T.transpose(split(k), (0, 1, 3, 2)),
                             1.0 / math.sqrt(d_k))
            weights = T.softmax(scores + Tensor(penalty[:, None, None, :]), axis=-1)
            context = T.transpose(weights @ split(v), (0, 2, 1, 3))
            return context.reshape(batch, length, width), weights.data

        def fused(q, k, v):
            return T.attention(q, k, v, penalty, heads, return_weights=True)

        results = []
        for fn in (composite, fused):
            args = [Tensor(d.copy(), requires_grad=True) for d in qkv_data]
            out, weights = fn(*args)
            (out * upstream).sum().backward()
            results.append((out.data, weights, [a.grad for a in args]))
        (ref_out, ref_w, ref_grads), (out, w, grads) = results
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(w, ref_w)
        assert np.all(w[1, :, :, -1] == 0.0)
        for ref, got in zip(ref_grads, grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_composite_expression(self):
        rng = np.random.default_rng(RNG_SEED)
        w = Tensor(rng.normal(size=(4, 4)))

        def f(x):
            h = T.sigmoid(x @ w)
            return T.log(h.sum(axis=-1)).mean()

        assert grad_check(f, Tensor(rng.normal(size=(5, 4)))) < 1e-6


class TestErrorContracts:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_div_by_zero(self):
        with pytest.raises(DomainError, match="div"):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainError, match="log"):
            T.log(Tensor([1.0, 0.0]))

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError, match="sqrt"):
            T.sqrt(Tensor([-1.0]))

    def test_overflow_names_op(self):
        with pytest.raises(NumericsError, match="exp"):
            T.exp(Tensor([1000.0]))

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
            out = T.scale(Tensor([1e308, 1e308]), 1.0)
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
    def test_softmax_is_a_distribution(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        out = T.softmax(Tensor(rng.normal(scale=3.0, size=(rows, cols)))).data
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_affine_chain_grad(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3,)))

        def f(x):
            return T.sigmoid(x @ w + b).sum()

        assert grad_check(f, Tensor(rng.normal(size=(2, 3)))) < 1e-5
