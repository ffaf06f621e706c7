"""Building-block layers: closed-form oracles, mask contracts, grad checks."""

import math

import numpy as np
import pytest

from sst import layers as L
from sst import tensor as T
from sst.tensor import DomainError, ShapeMismatchError, Tensor, grad_check


def rng():
    return np.random.default_rng(42)


class TestDenseLayer:
    def test_identity_weights_pass_through(self):
        layer = L.DenseLayer(3, 3, "none", rng())
        layer.weight.data[:] = np.eye(3)
        layer.bias.data[:] = 0.0
        x = rng().normal(size=(4, 3))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)

    def test_sigmoid_output_in_unit_interval(self):
        layer = L.DenseLayer(5, 2, "sigmoid", rng())
        out = layer(Tensor(rng().normal(scale=10.0, size=(8, 5)))).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_relu_grad_matches_finite_differences(self):
        r = rng()
        x = Tensor(r.normal(size=(4, 3)))
        layer = L.DenseLayer(3, 2, "relu", r)
        b = layer.bias

        def f(w):
            return T.relu(T.linear(x, w, b)).sum()

        assert grad_check(f, Tensor(layer.weight.data + 0.05)) < 1e-6

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            L.DenseLayer(2, 2, "tanh", rng())

    def test_rejects_wrong_input_width(self):
        layer = L.DenseLayer(3, 2, "none", rng())
        with pytest.raises(ShapeMismatchError):
            layer(Tensor(np.ones((4, 5))))


class TestPositionalEncoding:
    def test_position_zero(self):
        table = L.positional_encoding_table(4, 6)
        assert table[0, 0] == 0.0  # sin(0)
        assert table[0, 1] == 1.0  # cos(0)

    def test_frozen_scalar(self):
        # dmodel=4, position 1, column 2: sin(1 / 10000^(2/4)) = sin(0.01)
        table = L.positional_encoding_table(2, 4)
        np.testing.assert_allclose(table[1, 2], 0.00999983, atol=1e-8)

    def test_matches_closed_form_everywhere(self):
        dmodel, max_len = 10, 7
        table = L.positional_encoding_table(max_len, dmodel)
        for pos in range(max_len):
            for col in range(dmodel):
                pair = (col // 2) * 2
                angle = pos / 10000.0 ** (pair / dmodel)
                expect = math.sin(angle) if col % 2 == 0 else math.cos(angle)
                assert abs(table[pos, col] - expect) < 1e-12

    def test_entries_bounded(self):
        table = L.positional_encoding_table(500, 64)
        assert np.all(np.abs(table) <= 1.0)


def mha_oracle(x, wq, wk, wv, wo, n_heads, pad_mask):
    """Per-head attention computed step by step with plain numpy."""
    _, length, dmodel = x.shape
    d_k = dmodel // n_heads
    heads = []
    for i in range(n_heads):
        cols = slice(i * d_k, (i + 1) * d_k)
        q, k, v = x @ wq[:, cols], x @ wk[:, cols], x @ wv[:, cols]
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(d_k)
        scores = scores + (pad_mask * -1e9)[:, None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        heads.append((e / e.sum(axis=-1, keepdims=True)) @ v)
    return np.concatenate(heads, axis=-1) @ wo


class TestMultiHeadAttention:
    def test_identical_rows_give_uniform_weights(self):
        mha = L.MultiHeadAttention(dmodel=4, n_heads=2, rng=rng())
        x = np.tile(rng().normal(size=(1, 1, 4)), (1, 5, 1))
        _, weights = mha(Tensor(x), np.zeros((1, 5)), return_weights=True)
        np.testing.assert_allclose(weights, np.full((1, 2, 5, 5), 0.2), atol=1e-12)

    def test_masked_key_gets_zero_weight(self):
        mha = L.MultiHeadAttention(dmodel=4, n_heads=2, rng=rng())
        x = rng().normal(size=(2, 3, 4))
        mask = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        _, weights = mha(Tensor(x), mask, return_weights=True)
        assert np.all(weights[:, :, :, 2] < 1e-9)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_oracle(self, n_heads):
        r = rng()
        mha = L.MultiHeadAttention(dmodel=8, n_heads=n_heads, rng=r)
        x = r.normal(size=(3, 5, 8))
        mask = np.zeros((3, 5))
        mask[:, 4] = 1.0
        got = mha(Tensor(x), mask).data
        want = mha_oracle(
            x, mha.w_q.data, mha.w_k.data, mha.w_v.data, mha.w_o.data, n_heads, mask
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ShapeMismatchError):
            L.MultiHeadAttention(dmodel=6, n_heads=4, rng=rng())

    def test_rejects_bad_mask_shape(self):
        mha = L.MultiHeadAttention(dmodel=4, n_heads=2, rng=rng())
        with pytest.raises(ShapeMismatchError):
            mha(Tensor(np.zeros((2, 3, 4))), np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5)], ids=["rank_2", "width_5"])
    def test_rejects_bad_input_shape(self, shape):
        mha = L.MultiHeadAttention(dmodel=4, n_heads=2, rng=rng())
        with pytest.raises(ShapeMismatchError):
            mha(Tensor(np.zeros(shape)), np.zeros(shape[:2]))

    def test_grad_check(self):
        r = rng()
        mha = L.MultiHeadAttention(dmodel=4, n_heads=2, rng=r)
        mask = np.array([[0.0, 0.0, 1.0]])

        def f(x):
            return mha(x, mask).sum()

        assert grad_check(f, Tensor(r.normal(size=(1, 3, 4)))) < 1e-4


class TestLayerNorm:
    def test_normalizes_before_affine(self):
        ln = L.LayerNorm(16)  # gain 1, bias 0 at init
        out = ln(Tensor(rng().normal(loc=3.0, scale=2.0, size=(4, 16)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ShapeMismatchError):
            L.LayerNorm(3)(Tensor(np.ones((4, 5))))

    def test_grad_check(self):
        ln = L.LayerNorm(6)
        # random linear readout: a plain sum of z-scores is constant by
        # construction, which would make the check vacuous
        r = rng()
        readout = Tensor(r.normal(size=(3, 6)))

        def f(x):
            return (ln(x) * readout).sum()

        assert grad_check(f, Tensor(r.normal(size=(3, 6)))) < 1e-4

    def test_excluded_from_weight_decay(self):
        assert L.LayerNorm(4).l2_parameters() == []


class TestModule:
    def test_walk_names_children_in_declaration_order(self):
        class Toy(L.Module):
            def __init__(self):
                self.frozen = Tensor(np.ones(2))  # no grad: not a parameter
                self.w = Tensor(np.ones((2, 2)), requires_grad=True)
                self.norm = L.LayerNorm(2)
                self.stack = [L.LayerNorm(2), "not a module"]

        toy = Toy()
        assert [n for n, _ in toy.parameters()] == [
            "w", "norm.gain", "norm.bias", "stack.0.gain", "stack.0.bias",
        ]
        decayed = toy.l2_parameters()
        assert len(decayed) == 1 and decayed[0] is toy.w

    def test_state_round_trip_copies(self):
        source, target = L.LayerNorm(3), L.LayerNorm(3)
        source.gain.data = np.array([1.0, 2.0, 3.0])
        arrays = source.state_arrays()
        target.load_state_arrays(arrays)
        arrays[0][0] = 9.0
        np.testing.assert_array_equal(target.gain.data, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(source.gain.data, [1.0, 2.0, 3.0])

    def test_load_rejects_wrong_count_and_shape(self):
        norm = L.LayerNorm(3)
        with pytest.raises(ValueError, match="expected 2 arrays"):
            norm.load_state_arrays([np.ones(3)])
        with pytest.raises(ValueError, match="shape mismatch for bias"):
            norm.load_state_arrays([np.ones(3), np.ones(4)])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert L.dropout(x, 0.0, True, rng()) is x

    def test_inference_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert L.dropout(x, 0.9, False, rng()) is x

    def test_survivor_fraction_and_mean(self):
        x = Tensor(np.full(100_000, 2.0))
        out = L.dropout(x, 0.5, True, rng()).data
        survived = np.count_nonzero(out) / out.size
        assert abs(survived - 0.5) < 0.01
        assert abs(out.mean() - 2.0) / 2.0 < 0.02

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            L.dropout(Tensor([1.0]), 1.0, True, rng())
        with pytest.raises(DomainError):
            L.dropout(Tensor([1.0]), -0.1, True, rng())


class TestGlobalAveragePool:
    def test_single_timestep_passthrough(self):
        x = rng().normal(size=(2, 1, 4))
        out = L.global_average_pool(Tensor(x), np.zeros((2, 1)))
        np.testing.assert_array_equal(out.data, x[:, 0, :])

    def test_identical_timesteps(self):
        row = rng().normal(size=(1, 1, 4))
        x = np.tile(row, (1, 3, 1))
        out = L.global_average_pool(Tensor(x), np.zeros((1, 3)))
        np.testing.assert_allclose(out.data, row[:, 0, :], atol=1e-12)

    def test_padded_timestep_ignored_exactly(self):
        real = rng().normal(size=4)
        x = np.stack([np.stack([real, rng().normal(size=4)])])
        out = L.global_average_pool(Tensor(x), np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(out.data[0], real)

    def test_all_padded_sample_rejected(self):
        with pytest.raises(DomainError, match="sample 1"):
            L.global_average_pool(
                Tensor(np.ones((2, 3, 4))), np.array([[0.0, 0, 0], [1.0, 1, 1]])
            )

    def test_grad_check(self):
        mask = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])

        def f(x):
            out = L.global_average_pool(x, mask)
            return (out * out).sum()

        assert grad_check(f, Tensor(rng().normal(size=(2, 3, 4)))) < 1e-6


class TestEncoderBlock:
    def make(self, dropout_rate=0.0):
        return L.EncoderBlock(dmodel=8, dff=16, n_heads=2, dropout_rate=dropout_rate,
                              rng=rng())

    def test_preserves_width(self):
        block = self.make()
        x = Tensor(rng().normal(size=(2, 5, 8)))
        assert block(x, np.zeros((2, 5)), False, rng()).shape == (2, 5, 8)

    def test_inference_deterministic_despite_dropout_rate(self):
        block = self.make(dropout_rate=0.5)
        x = Tensor(rng().normal(size=(2, 4, 8)))
        a = block(x, np.zeros((2, 4)), False, np.random.default_rng(1)).data
        b = block(x, np.zeros((2, 4)), False, np.random.default_rng(2)).data
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_uses_rng(self):
        block = self.make(dropout_rate=0.5)
        x = Tensor(rng().normal(size=(2, 4, 8)))
        a = block(x, np.zeros((2, 4)), True, np.random.default_rng(7)).data
        b = block(x, np.zeros((2, 4)), True, np.random.default_rng(7)).data
        c = block(x, np.zeros((2, 4)), True, np.random.default_rng(8)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_grad_check(self):
        block = self.make()
        mask = np.array([[0.0, 0.0, 1.0]])
        readout = Tensor(rng().normal(size=(1, 3, 8)))

        def f(x):
            return (block(x, mask, False, rng()) * readout).sum()

        assert grad_check(f, Tensor(rng().normal(size=(1, 3, 8)))) < 1e-4

    def test_parameter_names_stable_and_complete(self):
        block = self.make()
        names = [n for n, _ in block.parameters()]
        assert names == [
            "attention.w_q", "attention.w_k", "attention.w_v", "attention.w_o",
            "ff_expand.weight", "ff_expand.bias",
            "ff_contract.weight", "ff_contract.bias",
            "norm_attn.gain", "norm_attn.bias",
            "norm_ff.gain", "norm_ff.bias",
        ]
        decayed = block.l2_parameters()
        assert len(decayed) == 6  # 4 projections + 2 dense weights, no biases
