"""End-to-end model: shapes, purity, pair normalization, padding invariance,
checkpoint round trips."""

import functools
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import model as model_module
from sst.data import Batch, label_counts
from sst.metrics import task_aucs
from sst.model import (
    CheckpointError,
    SstConfig,
    SstModel,
    load_weights,
    pair_probabilities,
    save_weights,
)
from sst.tensor import DomainError, ShapeMismatchError, Tensor, grad_check, no_grad
from sst.training import TaskWeights, _validate, weighted_multitask_loss

TINY = dict(n_features=5, max_timesteps=4, n_tasks=2, n_layers=1,
            dmodel=8, dff=8, n_heads=2, dropout_rate=0.0)


def tiny_model(seed=0, **overrides):
    cfg = SstConfig(**{**TINY, **overrides, "seed": seed})
    return SstModel(cfg)


@functools.lru_cache(maxsize=None)
def _checkpoint_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_weights(tiny_model(seed=2), path)
        return path.read_bytes()


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

    def test_pair_of_zero_heads_is_a_domain_error(self):
        """Both sigmoid heads of a pair underflow to 0 below a logit of about
        -745; their ratio is undefined and must not become a NaN."""
        with pytest.raises(DomainError, match="sums to zero"):
            pair_probabilities(np.array([[0.2, 0.6, 0.0, 0.0]]))

    def test_runs_without_a_tape(self):
        """The tape-free result has no parents and equals, bit for bit, the
        head pairs of a forward pass recorded on a tape."""
        model = tiny_model(n_layers=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4, 5))
        mask = np.zeros((5, 4))
        mask[2, 3] = 1.0
        p = model.predict_proba(x, mask)
        taped = model.forward(x, mask)
        assert p._parents == () and not p.requires_grad
        assert taped._parents != ()
        np.testing.assert_array_equal(p.data, pair_probabilities(taped.data))


def blocked_tiny_model(monkeypatch, budget_rows):
    """A TINY model whose inference blocks are budgeted at ``budget_rows``
    samples, and the batch sizes of the forwards it runs."""
    model = tiny_model(seed=1)
    monkeypatch.setattr(model_module, "INFER_BLOCK_TOKENS", budget_rows * 4)  # T=4
    sizes = []
    forward = model.forward

    def spy(x, pad_mask, **kwargs):
        sizes.append(np.shape(x.data if isinstance(x, Tensor) else x)[0])
        return forward(x, pad_mask, **kwargs)

    monkeypatch.setattr(model, "forward", spy)
    return model, sizes


def seven_samples():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(7, 4, 5))
    mask = np.zeros((7, 4))
    mask[1, 3] = mask[4, 2:] = mask[6, 1:] = 1.0
    return x, mask


class TestBlockedInference:
    # A budget of one sample runs blocks of two: a one-row matrix product is
    # a GEMV in numpy, whose sums differ from a GEMM's in the last bit, so a
    # lone last sample joins the block before it.
    @pytest.mark.parametrize("budget_rows,blocks", [
        (1, [2, 2, 3]), (2, [2, 2, 3]), (3, [3, 4]), (4, [4, 3]), (7, [7]),
    ])
    def test_bit_identical_to_one_forward(self, monkeypatch, budget_rows, blocks):
        """The raw scores, predict_proba and fit's validation (loss and AUCs)
        equal, without any tolerance, what one no_grad forward over all 7
        samples gives."""
        x, mask = seven_samples()
        model, sizes = blocked_tiny_model(monkeypatch, budget_rows)
        with no_grad():
            raw = tiny_model(seed=1).forward(x, mask).data
        np.testing.assert_array_equal(model.infer(x, mask), raw)
        assert sizes == blocks
        np.testing.assert_array_equal(model.predict_proba(x, mask).data,
                                      pair_probabilities(raw))

        y = np.array([[0, 1, 0, 1, 1, 0, 1], [1, 1, 0, 0, 1, 0, 0]], dtype=float).T
        labels = np.stack([1.0 - y, y], axis=2).reshape(7, 4)
        label_mask = np.ones((7, 2))
        label_mask[3, 1] = 0.0
        batch = Batch(*(Tensor(a) for a in (x, mask, labels, label_mask)))
        tw = TaskWeights.from_counts(label_counts(labels, label_mask), 2)
        with no_grad():
            loss = weighted_multitask_loss(raw, labels, label_mask, tw, True).item()
        assert _validate(model, batch, tw) == (
            loss, task_aucs(pair_probabilities(raw), labels, label_mask))

    def test_one_sample_scores_as_its_row_in_a_larger_input(self):
        """At c07's shape, a sample scored alone gets bit for bit the scores
        of its row in a larger input; a one-sample forward would run the
        MLP's products as GEMV, which sums in another order."""
        model = SstModel(SstConfig(n_features=21, max_timesteps=2, n_tasks=2,
                                   dmodel=32, dff=32, n_heads=2))
        x = np.random.default_rng(13).normal(size=(24, 2, 21))
        mask = np.zeros((24, 2))
        whole = model.infer(x, mask)
        for i in range(24):
            np.testing.assert_array_equal(model.infer(x[i:i + 1], mask[i:i + 1]),
                                          whole[i:i + 1])

    def test_errors_name_the_sample_in_the_whole_input(self, monkeypatch):
        """Shapes and padding are checked before any block runs; an
        all-padded sample is named by its index in the caller's input, not
        in its block."""
        x, mask = seven_samples()
        model, sizes = blocked_tiny_model(monkeypatch, 2)
        mask[5] = 1.0
        with pytest.raises(DomainError, match=r"sample 5 has no unpadded"):
            model.predict_proba(x, mask)
        with pytest.raises(ShapeMismatchError, match="pad_mask"):
            model.predict_proba(x, mask[:6])
        with pytest.raises(ShapeMismatchError):
            model.predict_proba(x[:, :, :4], mask[:, :4])
        assert sizes == []

    def test_accepts_lists_tensors_and_empty_input(self, monkeypatch):
        x, mask = seven_samples()
        model, sizes = blocked_tiny_model(monkeypatch, 2)
        expected = model.predict_proba(x, mask).data
        np.testing.assert_array_equal(
            model.predict_proba(x.tolist(), mask.tolist()).data, expected)
        np.testing.assert_array_equal(
            model.predict_proba(Tensor(x), Tensor(mask)).data, expected)
        assert model.predict_proba(np.zeros((0, 4, 5)), np.zeros((0, 4))).shape == (0, 2)
        assert sizes == [2, 2, 3] * 3 + [0]

    def test_scoring_peak_memory_is_a_few_blocks(self):
        """One forward over 256 samples at T=48 with 4 heads would hold
        [256, 4, 48, 48] float64 arrays of 18.9 MB each; blocks of 42
        samples keep the traced peak near 6 MB."""
        cfg = SstConfig(n_features=13, max_timesteps=48, n_tasks=4,
                        dmodel=32, dff=64, n_heads=4)
        model = SstModel(cfg)
        x = np.random.default_rng(12).normal(size=(256, 48, 13))
        mask = np.zeros((256, 48))
        tracemalloc.start()
        try:
            model.predict_proba(x, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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

    def test_truncated_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(tiny_model(), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError) as err:
            load_weights(path)
        assert str(err.value).startswith(f"{path}: truncated checkpoint")

    def test_claimed_max_timesteps_allocates_no_positional_table(self, tmp_path):
        """Positional rows are built per forward for the input's own length:
        a checkpoint of valid length that claims max_timesteps = 400,000
        loads without a [400,000, dmodel] table, and scores inputs no longer
        than the original's max_timesteps bit for bit as the original."""
        original = tmp_path / "original.ckpt"
        save_weights(tiny_model(seed=3), original)
        blob = original.read_bytes()
        start = len(model_module.CHECKPOINT_MAGIC) + 9
        end = start + int.from_bytes(blob[start - 8:start], "little")
        raw = json.loads(blob[start:end])
        claimed = SstConfig(**{**raw, "max_timesteps": 400_000}).to_json().encode("utf-8")
        path = tmp_path / "claimed.ckpt"
        path.write_bytes(blob[:start - 8] + len(claimed).to_bytes(8, "little")
                         + claimed + blob[end:])
        tracemalloc.start()
        try:
            loaded = load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6 and loaded.config.max_timesteps == 400_000
        reference, rng = load_weights(original), np.random.default_rng(4)
        for t in range(1, TINY["max_timesteps"] + 1):
            x = rng.normal(size=(3, t, TINY["n_features"]))
            mask = (np.arange(t) >= rng.integers(1, t + 1, size=(3, 1))).astype(np.float64)
            assert (loaded.predict_proba(x, mask).data.tobytes()
                    == reference.predict_proba(x, mask).data.tobytes())

    def test_header_claiming_large_dims_is_rejected_before_allocating(self, tmp_path):
        """The parameter byte length comes from the config alone: a
        header-only file that claims dmodel = dff = 1024 (about 118 MB of
        weights once built) is called truncated without building them."""
        cfg = SstConfig(**{**TINY, "dmodel": 1024, "dff": 1024})
        config_bytes = cfg.to_json().encode("utf-8")
        path = tmp_path / "header_only.sst"
        path.write_bytes(model_module.CHECKPOINT_MAGIC
                         + bytes([model_module.CHECKPOINT_VERSION])
                         + len(config_bytes).to_bytes(8, "little") + config_bytes)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("overrides", [
        {}, {"n_layers": 3}, {"dmodel": 12, "n_heads": 3, "dff": 5},
        {"n_features": 1, "n_tasks": 7, "dff": 1}, {"n_layers": 2, "dmodel": 6, "n_heads": 1},
    ])
    def test_parameter_count_matches_the_built_model(self, overrides):
        cfg = SstConfig(**{**TINY, **overrides})
        built = sum(p.data.size for _, p in SstModel(cfg).parameters())
        assert model_module._parameter_count(cfg) == built

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

    def test_non_finite_parameter_names_it_and_its_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_weights(tiny_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match=rf"'mlp.2.bias' at offset {len(blob) - 8}"):
            load_weights(path)

    @pytest.mark.parametrize("first", [True, False], ids=["first_value", "last_value"])
    def test_non_finite_value_names_its_parameter_at_either_end(self, tmp_path, first):
        """Every parameter's first and last value lie in that parameter."""
        path = tmp_path / "model.ckpt"
        model = tiny_model()
        save_weights(model, path)
        blob = path.read_bytes()
        offset = len(blob) - 8 * sum(p.data.size for _, p in model.parameters())
        for name, p in model.parameters():
            at = offset if first else offset + 8 * (p.data.size - 1)
            path.write_bytes(blob[:at] + np.array([np.inf]).tobytes() + blob[at + 8:])
            with pytest.raises(CheckpointError, match=rf"'{name}' at offset {at}$"):
                load_weights(path)
            offset += 8 * p.data.size

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_or_corrupted_checkpoint_loads_finite_or_raises(self, data):
        """Any truncation or single-byte change of a valid checkpoint either
        loads with every parameter finite or raises CheckpointError."""
        blob = bytearray(_checkpoint_blob())
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzzed.ckpt"
            path.write_bytes(bytes(blob))
            try:
                model = load_weights(path)
            except CheckpointError:
                return
        assert all(np.all(np.isfinite(p.data)) for _, p in model.parameters())

    def test_output_width_is_twice_tasks(self):
        model = tiny_model()
        assert model.mlp[-1].weight.shape[1] == 2 * model.config.n_tasks
