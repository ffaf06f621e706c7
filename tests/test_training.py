"""Training stack: weight formula, loss oracles, schedule, Adam, fit loop,
grid search."""

import logging
import math

import numpy as np
import pytest

from sst import tensor as T
from sst import training as TR
from sst.data import Batch, label_counts, synth_dataset
from sst.model import SstConfig, SstModel
from sst.tensor import NumericsError, Tensor
from sst.training import (
    Adam,
    DivergenceError,
    GridResult,
    LrSchedule,
    TaskWeights,
    class_weights,
    evaluate_aucs,
    evaluate_loss,
    fit,
    grid_points,
    grid_search,
    learning_rate,
    weighted_multitask_loss,
)


class TestClassWeights:
    def test_balanced_single_task(self):
        np.testing.assert_allclose(class_weights([[50, 50]], m=1), [[1.0, 1.0]])

    def test_imbalanced_single_task(self):
        w = class_weights([[90, 10]], m=1)
        np.testing.assert_allclose(w, [[100 / 180, 100 / 20]])
        np.testing.assert_allclose(w[0, 1], 5.0)
        np.testing.assert_allclose(w[0, 0], 0.5556, atol=1e-4)

    def test_formula_on_published_style_counts(self):
        # heavily imbalanced pass/fail counts as in wafer metrology data
        counts = np.array([[8328, 295], [12747, 40]])
        w = class_weights(counts, m=2)
        total = counts.sum()
        for j in range(2):
            for t in range(2):
                assert w[j, t] == total / (4 * counts[j, t])

    def test_zero_count_instructs_caller(self):
        with pytest.raises(ValueError, match="task 1.*positive.*drop or merge"):
            class_weights([[5, 5], [5, 0]], m=2)


def numpy_loss_oracle(raw, labels, mask, w, s=None):
    """Straight-line recomputation of the objective with plain numpy."""
    b, width = raw.shape
    m = width // 2
    clipped = np.clip(raw, 1e-12, 1 - 1e-12)
    pairs = clipped.reshape(b, m, 2)
    p = (pairs / pairs.sum(axis=2, keepdims=True)).reshape(b, width)
    coef = labels * np.repeat(mask, 2, axis=1) * w.reshape(-1)
    present = np.maximum(mask.sum(axis=0), 1.0)
    j_vec = -(coef * np.log(p)).sum(axis=0) / np.repeat(present, 2)
    if s is None:
        return j_vec.sum(), j_vec
    s_vec = s.reshape(-1)
    return (np.exp(-s_vec) * j_vec + s_vec / 2).sum(), j_vec


class TestLoss:
    def make_case(self, seed=0, b=6, m=2):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 0.95, size=(b, 2 * m))
        mask = (rng.random((b, m)) < 0.8).astype(float)
        hot = rng.integers(0, 2, size=(b, m))
        labels = np.zeros((b, 2 * m))
        for i in range(b):
            for j in range(m):
                if mask[i, j]:
                    labels[i, 2 * j + hot[i, j]] = 1.0
        w = rng.uniform(0.5, 3.0, size=(m, 2))
        return raw, labels, mask, w

    def test_single_sample_scalar_oracle(self):
        tw = TaskWeights(w=np.ones((1, 2)), log_var=Tensor(np.zeros((1, 2)), requires_grad=True))
        raw = np.array([[0.5, 0.5]])
        labels = np.array([[0.0, 1.0]])
        loss = weighted_multitask_loss(Tensor(raw), labels, np.array([[1.0]]), tw, False)
        np.testing.assert_allclose(loss.item(), -math.log(0.5), atol=1e-9)

    def test_perfect_predictions_vanish(self):
        tw = TaskWeights(w=np.ones((1, 2)), log_var=Tensor(np.zeros((1, 2)), requires_grad=True))
        raw = np.array([[1e-9, 1.0 - 1e-9], [1.0 - 1e-9, 1e-9]])
        labels = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss = weighted_multitask_loss(Tensor(raw), labels, np.ones((2, 1)), tw, False)
        assert loss.item() < 1e-6

    def test_uncertainty_at_zero_matches_plain(self):
        raw, labels, mask, w = self.make_case()
        tw = TaskWeights(w=w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        a = weighted_multitask_loss(Tensor(raw), labels, mask, tw, True).item()
        b = weighted_multitask_loss(Tensor(raw), labels, mask, tw, False).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_numpy_oracle_with_uncertainty(self):
        raw, labels, mask, w = self.make_case(seed=3)
        s = np.random.default_rng(4).normal(scale=0.5, size=(2, 2))
        tw = TaskWeights(w=w, log_var=Tensor(s, requires_grad=True))
        got = weighted_multitask_loss(Tensor(raw), labels, mask, tw, True).item()
        want, _ = numpy_loss_oracle(raw, labels, mask, w, s)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_log_var_gradient_closed_form(self):
        """d/ds of exp(-s) J + s/2 is -exp(-s) J + 1/2."""
        raw, labels, mask, w = self.make_case(seed=5)
        s = np.random.default_rng(6).normal(scale=0.5, size=(2, 2))
        tw = TaskWeights(w=w, log_var=Tensor(s, requires_grad=True))
        loss = weighted_multitask_loss(Tensor(raw), labels, mask, tw, True)
        loss.backward()
        _, j_vec = numpy_loss_oracle(raw, labels, mask, w, s)
        expect = (-np.exp(-s.reshape(-1)) * j_vec + 0.5).reshape(2, 2)
        np.testing.assert_allclose(tw.log_var.grad, expect, atol=1e-10)

    def test_absent_task_contributes_nothing(self):
        raw, labels, mask, w = self.make_case(seed=7)
        tw = TaskWeights(w=w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        base = weighted_multitask_loss(Tensor(raw), labels, mask, tw, False).item()
        # graft on a sample with no measured tasks
        raw2 = np.vstack([raw, [[0.9, 0.9, 0.9, 0.9]]])
        labels2 = np.vstack([labels, np.zeros(4)])
        mask2 = np.vstack([mask, np.zeros(2)])
        grown = weighted_multitask_loss(Tensor(raw2), labels2, mask2, tw, False).item()
        np.testing.assert_allclose(grown, base, atol=1e-12)

    def test_batch_equals_weighted_mean_of_samples(self):
        raw, labels, mask, w = self.make_case(seed=8, b=5, m=2)
        tw = TaskWeights(w=w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        whole = weighted_multitask_loss(Tensor(raw), labels, mask, tw, False).item()
        # accumulate per-sample sums and per-task presence by hand
        acc = np.zeros(4)
        for i in range(raw.shape[0]):
            _, j_vec = numpy_loss_oracle(raw[i:i + 1], labels[i:i + 1],
                                         mask[i:i + 1], w)
            acc += j_vec * np.repeat(mask[i], 2)
        weighted_mean = (acc / np.repeat(np.maximum(mask.sum(axis=0), 1), 2)).sum()
        np.testing.assert_allclose(whole, weighted_mean, atol=1e-9)

    def test_weight_scaling_scales_loss(self):
        raw, labels, mask, w = self.make_case(seed=9)
        tw1 = TaskWeights(w=w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        tw3 = TaskWeights(w=3.0 * w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        a = weighted_multitask_loss(Tensor(raw), labels, mask, tw1, False).item()
        b = weighted_multitask_loss(Tensor(raw), labels, mask, tw3, False).item()
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)

    def test_l2_counts_given_weights_only(self):
        raw, labels, mask, w = self.make_case(seed=10)
        tw = TaskWeights(w=w, log_var=Tensor(np.zeros((2, 2)), requires_grad=True))
        wt = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        plain = weighted_multitask_loss(Tensor(raw), labels, mask, tw, False).item()
        with_l2 = weighted_multitask_loss(
            Tensor(raw), labels, mask, tw, False, l2_params=[wt], l2_factor=0.01
        ).item()
        np.testing.assert_allclose(with_l2 - plain, 0.01 * 16.0, atol=1e-12)

    def test_out_of_range_probs_clamped_with_warning(self, caplog):
        tw = TaskWeights(w=np.ones((1, 2)), log_var=Tensor(np.zeros((1, 2)), requires_grad=True))
        raw = np.array([[1.0, 0.0]])  # exactly on the boundary
        with caplog.at_level(logging.WARNING, logger="sst.training"):
            loss = weighted_multitask_loss(Tensor(raw), np.array([[0.0, 1.0]]),
                                           np.array([[1.0]]), tw, False)
        assert math.isfinite(loss.item())
        assert any("clamped" in r.message for r in caplog.records)

    @pytest.mark.parametrize("value, clamped", [
        (1e-13, True), (T.PROB_FLOOR, False), (0.5, False),
        (1.0 - T.PROB_FLOOR, False), (1.0 - 1e-13, True),
    ])
    def test_warns_exactly_when_the_op_clamps(self, caplog, value, clamped):
        """The op zeroes the gradient of a clamped head; the warning fires
        for the same heads, including ones strictly inside (0, 1)."""
        tw = TaskWeights(w=np.ones((1, 2)), log_var=Tensor(np.zeros((1, 2)), requires_grad=True))
        raw = Tensor(np.array([[0.5, value]]), requires_grad=True)
        with caplog.at_level(logging.WARNING, logger="sst.training"):
            loss = weighted_multitask_loss(raw, np.array([[0.0, 1.0]]),
                                           np.array([[1.0]]), tw, False)
        loss.backward()
        assert (raw.grad[0, 1] == 0.0) == clamped
        assert any("clamped" in r.message for r in caplog.records) == clamped

    def test_grad_check_full_loss(self):
        from sst.tensor import grad_check

        raw, labels, mask, w = self.make_case(seed=11, b=4)
        s = np.random.default_rng(12).normal(scale=0.3, size=(2, 2))
        tw = TaskWeights(w=w, log_var=Tensor(s, requires_grad=True))

        def f(x):
            return weighted_multitask_loss(x, labels, mask, tw, True)

        assert grad_check(f, Tensor(raw)) < 1e-6


class TestLrSchedule:
    def test_peak_sits_at_warmup(self):
        sched = LrSchedule(factor=0.5, d=128, warmup=4000)
        peak = learning_rate(sched, 4000)
        assert abs(peak - 0.5 * 128 ** -0.5 * 4000 ** -0.5) < 1e-12
        assert learning_rate(sched, 3999) < peak
        assert learning_rate(sched, 4001) < peak

    def test_frozen_peak_value(self):
        sched = LrSchedule(factor=0.5, d=128, warmup=4000)
        np.testing.assert_allclose(learning_rate(sched, 4000), 6.988e-4, atol=1e-7)

    def test_frozen_decayed_value(self):
        sched = LrSchedule(factor=0.5, d=128, warmup=4000)
        np.testing.assert_allclose(learning_rate(sched, 16000), 3.494e-4, atol=1e-7)

    @pytest.mark.parametrize("factor", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("step", [1, 100, 4000, 16000])
    def test_matches_formula(self, factor, step):
        sched = LrSchedule(factor=factor, d=128, warmup=4000)
        want = factor * 128 ** -0.5 * min(step ** -0.5, step * 4000 ** -1.5)
        assert abs(learning_rate(sched, step) - want) < 1e-12

    def test_monotone_around_peak(self):
        sched = LrSchedule(factor=0.3, d=64, warmup=50)
        ramp = [learning_rate(sched, s) for s in range(1, 51)]
        decay = [learning_rate(sched, s) for s in range(50, 200)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        assert all(a > b for a, b in zip(decay, decay[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match="step"):
            learning_rate(LrSchedule(0.5, 128), 0)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        Adam([("p", p)]).step(0.01)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_magnitude_approaches_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam = Adam([("p", p)])
        for _ in range(300):
            before = p.data.copy()
            p.grad = np.array([2.5])
            adam.step(0.01)
        delta = p.data - before
        np.testing.assert_allclose(abs(delta[0]), 0.01, rtol=1e-3)
        assert delta[0] < 0

    def test_two_step_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.98, 1e-9
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam = Adam([("p", p)])
        g1, g2 = 0.5, -0.25

        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        x = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        x = x - lr * (m / (1 - b1 ** 2)) / (math.sqrt(v / (1 - b2 ** 2)) + eps)

        p.grad = np.array([g1])
        adam.step(lr)
        p.grad = np.array([g2])
        adam.step(lr)
        np.testing.assert_allclose(p.data, [x], atol=1e-15)

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericsError, match="embedding.weight"):
            Adam([("embedding.weight", p)]).step(0.01)

    def test_non_finite_gradient_leaves_every_state_unchanged(self):
        """The check runs before any update: a finite gradient on parameter 0
        and an inf on parameter 1 change neither parameter 0, its moments nor
        the step count."""
        p0 = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p1 = Tensor(np.array([3.0]), requires_grad=True)
        adam = Adam([("p0", p0), ("p1", p1)])
        p0.grad, p1.grad = np.array([0.5, -0.5]), np.array([1.0])
        adam.step(0.01)
        before = (p0.data.copy(), adam.m[0].copy(), adam.v[0].copy(), adam.t)
        p0.grad, p1.grad = np.array([0.25, 0.25]), np.array([np.inf])
        with pytest.raises(NumericsError, match="'p1'"):
            adam.step(0.01)
        np.testing.assert_array_equal(p0.data, before[0])
        np.testing.assert_array_equal(adam.m[0], before[1])
        np.testing.assert_array_equal(adam.v[0], before[2])
        assert adam.t == before[3]

    def test_five_steps_equal_the_out_of_place_formulas(self):
        """The in-place update keeps every bit of parameters and moments,
        for two parameters, one of them without a gradient on one step."""
        rng = np.random.default_rng(5)
        b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
        shapes = ((6, 5), (7,))
        params = [Tensor(rng.normal(size=sh), requires_grad=True) for sh in shapes]
        adam = Adam([(f"p{i}", p) for i, p in enumerate(params)])
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(sh) for sh in shapes]
        ref_v = [np.zeros(sh) for sh in shapes]
        for t in range(1, 6):
            lr = 0.01 * t
            grads = [rng.normal(size=sh) for sh in shapes]
            if t == 3:
                grads[1] = None
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            adam.step(lr)
            for i, g in enumerate(grads):
                if g is None:
                    continue
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g * g
                m_hat = ref_m[i] / (1.0 - b1 ** t)
                v_hat = ref_v[i] / (1.0 - b2 ** t)
                ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for i, p in enumerate(params):
                assert p.data.tobytes() == ref_p[i].tobytes()
                assert adam.m[i].tobytes() == ref_m[i].tobytes()
                assert adam.v[i].tobytes() == ref_v[i].tobytes()

    def test_update_signs_invariant_to_loss_scale(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(4, 3))
        updates = []
        for scale in (1.0, 250.0):
            p = Tensor(np.zeros((4, 3)), requires_grad=True)
            adam = Adam([("p", p)])
            p.grad = g * scale
            adam.step(0.01)
            updates.append(p.data.copy())
        np.testing.assert_array_equal(np.sign(updates[0]), np.sign(updates[1]))


def small_data(seed=17, n=240, m=2):
    return synth_dataset(m=m, n_samples=n, timesteps=2, n_features=8,
                         separability=6.0, imbalance=0.2, seed=seed,
                         label_rate=1.0)


def small_config(**overrides):
    base = dict(n_features=9, max_timesteps=2, n_tasks=2, n_layers=1,
                dmodel=16, dff=16, n_heads=2, dropout_rate=0.1,
                lr_factor=0.5, batch_size=64, warmup=50, seed=0)
    return SstConfig(**{**base, **overrides})


class TestFit:
    def test_fixed_seed_is_bit_reproducible(self):
        data = small_data()
        reports, weights = [], []
        for _ in range(2):
            model = SstModel(small_config())
            reports.append(fit(model, data.train, data.val, epochs_max=3))
            weights.append(model.state_arrays())
        for ra, rb in zip(reports[0].epochs, reports[1].epochs):
            assert ra.train_loss == rb.train_loss
            assert ra.val_loss == rb.val_loss
            assert ra.val_aucs == rb.val_aucs
        for wa, wb in zip(*weights):
            np.testing.assert_array_equal(wa, wb)

    def test_training_reduces_loss(self):
        data = small_data()
        model = SstModel(small_config())
        report = fit(model, data.train, data.val, epochs_max=20)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss

    def test_restored_weights_reproduce_best_val_loss(self):
        data = small_data()
        model = SstModel(small_config())
        counts = label_counts(data.train.labels.data, data.train.label_mask.data)
        tw = TaskWeights.from_counts(counts, 2)
        report = fit(model, data.train, data.val, epochs_max=12, task_weights=tw)
        assert evaluate_loss(model, data.val, tw) == report.best_val_loss

    def test_epoch_record_matches_standalone_evaluation(self):
        """fit validates from one shared forward pass; its record must equal
        evaluate_loss and evaluate_aucs bit for bit."""
        data = small_data()
        model = SstModel(small_config())
        counts = label_counts(data.train.labels.data, data.train.label_mask.data)
        tw = TaskWeights.from_counts(counts, 2)
        report = fit(model, data.train, data.val, epochs_max=1, task_weights=tw)
        record = report.epochs[0]
        assert record.val_loss == evaluate_loss(model, data.val, tw)
        assert record.val_aucs == evaluate_aucs(model, data.val)

    def test_patience_bound(self):
        data = small_data()
        model = SstModel(small_config())
        patience = 3
        report = fit(model, data.train, data.val, epochs_max=60, patience=patience)
        assert len(report.epochs) <= report.best_epoch + patience
        if report.stopped_early:
            assert len(report.epochs) == report.best_epoch + patience

    def test_zero_epochs_is_a_no_op(self):
        data = small_data()
        model = SstModel(small_config())
        before = model.state_arrays()
        report = fit(model, data.train, data.val, epochs_max=0)
        assert report.epochs == []
        for a, b in zip(before, model.state_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_empty_split_rejected(self):
        data = small_data()
        empty = data.train.take(np.array([], dtype=int))
        model = SstModel(small_config())
        with pytest.raises(ValueError, match="non-empty"):
            fit(model, empty, data.val)

    def test_divergence_reports_epoch_and_step(self):
        data = small_data()
        poisoned = Batch(
            x=Tensor(np.full_like(data.train.x.data, 1e300)),
            pad_mask=data.train.pad_mask,
            labels=data.train.labels,
            label_mask=data.train.label_mask,
        )
        model = SstModel(small_config())
        with pytest.raises(DivergenceError) as exc:
            fit(model, poisoned, data.val, epochs_max=2)
        assert exc.value.epoch == 1 and exc.value.step == 1
        assert exc.value.report is not None

    def test_report_csv_layout(self, tmp_path):
        import csv

        data = small_data()
        model = SstModel(small_config())
        report = fit(model, data.train, data.val, epochs_max=2)
        path = tmp_path / "train.csv"
        report.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "auc_task_0", "auc_task_1"]
        assert len(rows) == 1 + len(report.epochs)
        assert int(rows[1][0]) == 1


def tape_ops(root: Tensor) -> list[str]:
    """The op name of every tape node reachable from ``root``."""
    seen, stack, ops = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._op is not None:
                ops.append(node._op)
            stack.extend(node._parents)
    return ops


class TestTape:
    def test_every_registered_op_is_on_a_training_tape(self):
        """One training step of a one-block model with dropout, uncertainty
        weighting and L2 records every op in T.OPS but ``sum`` and no other,
        so no op stays registered without a pipeline caller; ``sum`` stays
        as the scalar that gradient checks and the perfbench layer probes
        differentiate.  The node count is pinned: 3 embedding, 10 per block,
        1 pooling, 8 head, 4 loss."""
        data = small_data()
        cfg = small_config(uncertainty_weighting=True, l2_factor=1e-4)
        model = SstModel(cfg)
        tw = TaskWeights.from_counts(
            label_counts(data.train.labels.data, data.train.label_mask.data), 2)
        batch = data.train.take(np.arange(cfg.batch_size))
        probs = model.forward(batch.x, batch.pad_mask.data, training=True,
                              rng=np.random.default_rng(0))
        loss = weighted_multitask_loss(probs, batch.labels, batch.label_mask, tw, True,
                                       model.l2_parameters(), cfg.l2_factor)
        loss.backward()
        ops = tape_ops(loss)
        assert set(T.OPS) - set(ops) == {"sum"} and set(ops) <= set(T.OPS)
        assert len(ops) == 26
        assert ops.count("multitask_nll") == 1 and tw.log_var.grad is not None


class TestGridSearch:
    def test_points_lexicographic(self):
        pts = grid_points({"n_layers": [1, 2], "dff": [16, 32]})
        assert pts == [
            {"n_layers": 1, "dff": 16},
            {"n_layers": 1, "dff": 32},
            {"n_layers": 2, "dff": 16},
            {"n_layers": 2, "dff": 32},
        ]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid key"):
            grid_points({"momentum": [0.9]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            grid_points({})

    def test_single_point_returns_it(self):
        data = small_data()
        best, results = grid_search(
            small_config(), {"epochs_max": [2]}, data.train, data.val
        )
        assert len(results) == 1
        assert results[0].error == ""
        assert math.isfinite(results[0].mean_val_auc)

    def test_trained_point_beats_untrained(self):
        """One epoch stays inside the warmup, so point 0 is all but
        untrained; an epoch cap below 1 is a failed point."""
        data = small_data()
        best, results = grid_search(
            small_config(), {"epochs_max": [1, 25]}, data.train, data.val
        )
        assert len(results) == 2
        assert results[1].mean_val_auc > results[0].mean_val_auc
        assert best.seed == TR.derive_point_seed(0, 1)

    def test_tie_prefers_first_point(self):
        data = small_data()
        fp = TR.grid_fingerprint(small_config(), data.train, data.val)
        existing = {
            0: GridResult(0, {"n_layers": 1}, 0.9, 0.0, fingerprint=fp),
            1: GridResult(1, {"n_layers": 2}, 0.9, 0.0, fingerprint=fp),
        }
        best, results = grid_search(
            small_config(), {"n_layers": [1, 2]}, data.train, data.val,
            existing=existing,
        )
        assert best.n_layers == 1

    def test_failed_point_recorded_and_search_continues(self):
        data = small_data()
        best, results = grid_search(
            small_config(), {"n_heads": [3, 2], "epochs_max": [2]},
            data.train, data.val,
        )
        assert results[0].error != ""  # 16 % 3 != 0
        assert results[1].error == ""
        assert best.n_heads == 2

    @pytest.mark.parametrize("cap", [0, -2, 1.5, True])
    def test_epoch_cap_below_one_is_a_failed_point(self, cap):
        """A cap that is not an integer of at least 1 fails its point, named
        by the key, and the search goes on to the next point."""
        data = small_data()
        best, results = grid_search(
            small_config(), {"epochs_max": [cap, 2]}, data.train, data.val
        )
        assert "epochs_max" in results[0].error
        assert math.isnan(results[0].mean_val_auc)
        assert results[1].error == ""
        assert best.seed == TR.derive_point_seed(0, 1)

    def test_existing_rows_skip_training(self):
        data = small_data()
        fp = TR.grid_fingerprint(small_config(), data.train, data.val)
        marker = GridResult(0, {"epochs_max": 2}, 0.77, 0.0, fingerprint=fp)
        best, results = grid_search(
            small_config(), {"epochs_max": [2]}, data.train, data.val,
            existing={0: marker},
        )
        assert results == [marker]

    def test_rows_of_another_dataset_are_retrained(self):
        """Matching values and base config are not enough: a row stored for
        other training data is trained again."""
        data, other = small_data(), small_data(seed=18)
        fp = TR.grid_fingerprint(small_config(), other.train, other.val)
        stale = GridResult(0, {"epochs_max": 2}, 0.77, 0.0, fingerprint=fp)
        best, results = grid_search(
            small_config(), {"epochs_max": [2]}, data.train, data.val,
            existing={0: stale},
        )
        assert results[0].mean_val_auc != 0.77
        assert results[0].fingerprint == TR.grid_fingerprint(
            small_config(), data.train, data.val)
