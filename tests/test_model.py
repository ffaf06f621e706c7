"""End-to-end model: shapes, purity, pair normalization, padding invariance,
checkpoint round trips."""

import hashlib
import math

import numpy as np
import pytest

from sst.model import (
    CheckpointError,
    SstConfig,
    SstModel,
    load_weights,
    pair_probabilities,
    save_weights,
)
from sst.tensor import ShapeMismatchError, Tensor, grad_check

TINY = dict(n_features=5, max_timesteps=4, n_tasks=2, n_layers=1,
            dmodel=8, dff=8, n_heads=2, dropout_rate=0.0)


def tiny_model(seed=0, **overrides):
    cfg = SstConfig(**{**TINY, **overrides, "seed": seed})
    return SstModel(cfg)


def logit(p):
    return math.log(p / (1.0 - p))


class TestConfig:
    def test_defaults_validate(self):
        cfg = SstConfig(n_features=10, max_timesteps=3, n_tasks=2)
        assert cfg.dmodel % cfg.n_heads == 0

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            SstConfig(n_features=1, max_timesteps=1, n_tasks=1, dmodel=10, n_heads=4)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            SstConfig(n_features=1, max_timesteps=1, n_tasks=1, dropout_rate=1.0)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError, match="n_tasks"):
            SstConfig(n_features=1, max_timesteps=1, n_tasks=0)

    @pytest.mark.parametrize("field, value", [
        ("lr_factor", "0.5"), ("n_heads", True), ("uncertainty_weighting", "no"),
        ("lr_factor", float("nan")), ("l2_factor", float("inf")), ("seed", False),
        ("dropout_rate", None),
    ])
    def test_rejects_wrong_type_or_non_finite_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            SstConfig(n_features=1, max_timesteps=1, n_tasks=1, **{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="momentum"):
            SstConfig.from_dict(
                {"n_features": 1, "max_timesteps": 1, "n_tasks": 1, "momentum": 0.9}
            )

    def test_json_round_trip(self):
        cfg = SstConfig(n_features=7, max_timesteps=2, n_tasks=3, seed=5)
        import json

        assert SstConfig.from_dict(json.loads(cfg.to_json())) == cfg


class TestForward:
    def test_output_shape_and_range(self):
        model = tiny_model()
        x = np.random.default_rng(0).normal(size=(1, 3, 5))
        out = model.forward(x, np.zeros((1, 3))).data
        assert out.shape == (1, 4)
        assert np.all((out > 0) & (out < 1))

    def test_identical_samples_identical_rows(self):
        model = tiny_model()
        row = np.random.default_rng(1).normal(size=(3, 5))
        x = np.stack([row, row])
        out = model.forward(x, np.zeros((2, 3))).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_permuting_batch_permutes_outputs(self):
        model = tiny_model()
        x = np.random.default_rng(2).normal(size=(4, 3, 5))
        mask = np.zeros((4, 3))
        mask[:, 2] = 1.0
        perm = [2, 0, 3, 1]
        a = model.forward(x, mask).data
        b = model.forward(x[perm], mask[perm]).data
        np.testing.assert_array_equal(a[perm], b)

    def test_inference_forward_is_pure(self):
        model = tiny_model()
        x = np.random.default_rng(3).normal(size=(2, 4, 5))
        mask = np.zeros((2, 4))
        a = model.forward(x, mask).data
        b = model.forward(x, mask).data
        np.testing.assert_array_equal(a, b)

    def test_end_to_end_grad_check(self):
        model = tiny_model()
        mask = np.array([[0.0, 0.0, 1.0]])

        def f(x):
            return model.forward(x, mask).sum()

        probe = Tensor(np.random.default_rng(4).normal(size=(1, 3, 5)))
        assert grad_check(f, probe) < 1e-4

    def test_same_seed_same_init(self):
        a, b = tiny_model(seed=9), tiny_model(seed=9)
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_init(self):
        a, b = tiny_model(seed=0), tiny_model(seed=1)
        assert not np.array_equal(a.embedding.weight.data, b.embedding.weight.data)

    def test_length_limit_is_the_positional_table(self):
        model = tiny_model()
        assert model.forward(np.zeros((1, 4, 5)), np.zeros((1, 4))).shape == (1, 4)
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((1, 5, 5)), np.zeros((1, 5)))

    def test_training_mode_needs_rng(self):
        model = tiny_model(dropout_rate=0.5)
        with pytest.raises(ValueError, match="rng"):
            model.forward(np.zeros((1, 2, 5)), np.zeros((1, 2)), training=True)


def pin_constant_heads(model, per_task_scores):
    """Zero the final layer weights and set biases so each head emits a
    fixed sigmoid value."""
    final = model.mlp[-1]
    final.weight.data[:] = 0.0
    final.bias.data[:] = [logit(s) for s in per_task_scores]


class TestPredictProba:
    def test_equal_heads_give_half(self):
        model = tiny_model()
        pin_constant_heads(model, [0.3, 0.3, 0.7, 0.7])
        p = model.predict_proba(np.zeros((1, 2, 5)), np.zeros((1, 2))).data
        np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-12)

    def test_pair_normalization_arithmetic(self):
        model = tiny_model()
        # task 0: neg head 0.1, pos head 0.9 -> p = 0.9
        pin_constant_heads(model, [0.1, 0.9, 0.5, 0.5])
        p = model.predict_proba(np.zeros((1, 2, 5)), np.zeros((1, 2))).data
        np.testing.assert_allclose(p[0, 0], 0.9, atol=1e-12)

    def test_monotone_in_positive_head(self):
        model = tiny_model()
        probs = []
        for s_pos in (0.2, 0.5, 0.8):
            pin_constant_heads(model, [0.4, s_pos, 0.5, 0.5])
            probs.append(model.predict_proba(np.zeros((1, 2, 5)), np.zeros((1, 2))).data[0, 0])
        assert probs[0] < probs[1] < probs[2]

    def test_values_strictly_inside_unit_interval(self):
        model = tiny_model()
        x = np.random.default_rng(5).normal(scale=5.0, size=(6, 3, 5))
        p = model.predict_proba(x, np.zeros((6, 3))).data
        assert p.shape == (6, 2)
        assert np.all((p > 0) & (p < 1))

    def test_runs_without_a_tape(self):
        """The tape-free result has no parents and equals, bit for bit, the
        same computation recorded on a tape."""
        model = tiny_model(n_layers=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4, 5))
        mask = np.zeros((5, 4))
        mask[2, 3] = 1.0
        p = model.predict_proba(x, mask)
        taped = pair_probabilities(model.forward(x, mask))
        assert p._parents == () and not p.requires_grad
        assert taped._parents != ()
        np.testing.assert_array_equal(p.data, taped.data)


class TestPaddingInvariance:
    def test_appended_padded_timestep_is_inert(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2, 5))
        mask = np.zeros((3, 2))
        base = model.predict_proba(x, mask).data

        x_pad = np.concatenate([x, np.zeros((3, 1, 5))], axis=1)
        mask_pad = np.concatenate([mask, np.ones((3, 1))], axis=1)
        padded = model.predict_proba(x_pad, mask_pad).data
        np.testing.assert_allclose(padded, base, atol=1e-9)

    def test_padded_content_is_ignored(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5))
        mask = np.array([[0.0, 0.0, 1.0]] * 2)
        a = model.predict_proba(x, mask).data
        x2 = x.copy()
        x2[:, 2, :] = rng.normal(scale=9.0, size=(2, 5))
        b = model.predict_proba(x2, mask).data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestCheckpoint:
    def test_round_trip_same_predictions(self, tmp_path):
        model = tiny_model(seed=3)
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        loaded = load_weights(path)
        x = np.random.default_rng(8).normal(size=(2, 3, 5))
        mask = np.zeros((2, 3))
        np.testing.assert_array_equal(
            model.predict_proba(x, mask).data, loaded.predict_proba(x, mask).data
        )

    def test_round_trip_bit_exact_parameters(self, tmp_path):
        model = tiny_model(seed=4)
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        loaded = load_weights(path)
        for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_expect_mismatch_names_field(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        wrong = SstConfig(**{**TINY, "n_features": 9})
        with pytest.raises(CheckpointError, match="n_features.*expected 9.*found 5"):
            load_weights(path, expect=wrong)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        """A write that dies partway leaves the old checkpoint byte-identical
        and no temporary file behind."""
        path = tmp_path / "m.sst"
        save_weights(tiny_model(seed=0), path)
        before = path.read_bytes()
        model = tiny_model(seed=1)
        params = model.parameters()

        def failing_parameters():
            yield from params[:3]
            raise OSError("disk full")

        model.parameters = failing_parameters
        with pytest.raises(OSError, match="disk full"):
            save_weights(model, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.sst"]

    def test_golden_checkpoint_bytes(self, tmp_path):
        """The checkpoint format and the parameter walk's order are pinned:
        changing either changes these bytes."""
        model = SstModel(SstConfig(n_features=5, max_timesteps=4, n_tasks=2, n_layers=2,
                                   dmodel=8, dff=8, n_heads=2, dropout_rate=0.0, seed=0))
        path = tmp_path / "golden.sst"
        save_weights(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "70f5896d8316f9c629753b1c017e0ec363bb2871bf19241df934f6b1a4a396e1"
        )
        block = ["attention.w_q", "attention.w_k", "attention.w_v", "attention.w_o",
                 "ff_expand.weight", "ff_expand.bias", "ff_contract.weight", "ff_contract.bias",
                 "norm_attn.gain", "norm_attn.bias", "norm_ff.gain", "norm_ff.bias"]
        assert [n for n, _ in model.parameters()] == (
            ["embedding.weight", "embedding.bias"]
            + [f"blocks.{i}.{n}" for i in range(2) for n in block]
            + [f"mlp.{i}.{n}" for i in range(3) for n in ("weight", "bias")]
        )
        # embedding, 2 x (4 projections + 2 feed-forward weights), 3 MLP weights
        assert len(model.l2_parameters()) == 16

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_weights(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_weights(path)

    def test_output_width_is_twice_tasks(self):
        model = tiny_model()
        assert model.mlp[-1].weight.shape[1] == 2 * model.config.n_tasks
