"""ROC/AUC: pair-counting equivalence, tie conventions, report round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import metrics as M


def pair_auc(scores, labels):
    """Brute-force Mann-Whitney over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    gt = (pos[:, None] > neg[None, :]).sum()
    eq = (pos[:, None] == neg[None, :]).sum()
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


class TestRocCurve:
    def test_perfect_ranking(self):
        curve = M.roc_curve([0.9, 0.1], [1, 0])
        assert curve.points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert M.auc(curve) == 1.0

    def test_reversed_ranking(self):
        assert M.auc_score([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_scores(self):
        assert M.auc_score([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_starts_at_origin_with_inf_threshold(self):
        curve = M.roc_curve([0.3, 0.2, 0.8], [0, 1, 1])
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert curve.thresholds[0] == np.inf
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        scores = rng.choice([0.1, 0.4, 0.4, 0.7, 0.9], size=60)
        labels = rng.integers(0, 2, size=60)
        curve = M.roc_curve(scores, labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_tied_group_is_single_vertex(self):
        curve = M.roc_curve([0.5, 0.5, 0.5, 0.9], [0, 1, 0, 1])
        # vertices: origin, {0.9}, {0.5 x3}
        assert len(curve.points) == 3

    def test_single_class_error_names_task(self):
        with pytest.raises(M.SingleClassError, match="task 4"):
            M.roc_curve([0.1, 0.2], [1, 1], task_id=4)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            M.roc_curve([0.1, 0.2], [1, 2])


class TestAucOracle:
    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            # coarse grid forces plenty of ties
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
            got = M.auc_score(scores, labels)
            want = pair_auc(scores, labels)
            assert abs(got - want) < 1e-9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=80)
        labels = rng.integers(0, 2, size=80)
        a = M.auc_score(scores, labels)
        b = M.auc_score(np.exp(scores * 3), labels)
        assert abs(a - b) < 1e-12

    def test_label_flip_complements(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        a = M.auc_score(scores, labels)
        b = M.auc_score(scores, 1 - labels)
        assert abs((a + b) - 1.0) < 1e-12

    def test_flip_both_preserves(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        assert abs(M.auc_score(scores, labels) - M.auc_score(-scores, 1 - labels)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_pair_counting_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            return
        scores = rng.choice(np.linspace(-1, 1, 5), size=n)
        assert abs(M.auc_score(scores, labels) - pair_auc(scores, labels)) < 1e-9


class TestTaskAucs:
    def test_respects_label_mask(self):
        probas = np.array([[0.9], [0.8], [0.1], [0.7]])
        labels = np.array([[0, 1], [0, 0], [1, 0], [0, 1]], dtype=float)
        mask = np.array([[1.0], [0.0], [1.0], [1.0]])
        # masked-out sample 1 would otherwise be an invalid (0,0) label
        assert M.task_aucs(probas, labels, mask) == [1.0]

    def test_single_class_task_is_none(self):
        probas = np.array([[0.9, 0.2], [0.1, 0.8]])
        labels = np.array([[0, 1, 0, 1], [1, 0, 0, 1]], dtype=float)
        mask = np.ones((2, 2))
        out = M.task_aucs(probas, labels, mask)
        assert out[0] == 1.0 and out[1] is None


class TestMultiSeedReport:
    def test_identical_runs_zero_std(self):
        rows = M.multi_seed_report([[0.8], [0.8], [0.8]], n_pos=[5], n_neg=[10])
        assert rows[0].mean_auc == 0.8 and rows[0].std_auc == 0.0

    def test_two_run_arithmetic(self):
        rows = M.multi_seed_report([[0.8], [0.9]], n_pos=[5], n_neg=[10])
        assert abs(rows[0].mean_auc - 0.85) < 1e-12
        assert abs(rows[0].std_auc - 0.07071067811865477) < 1e-9

    def test_single_run_std_zero(self):
        rows = M.multi_seed_report([[0.75]], n_pos=[1], n_neg=[2])
        assert rows[0].std_auc == 0.0

    def test_mismatched_task_sets_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            M.multi_seed_report([[0.8, 0.9], [0.7]], n_pos=[1, 1], n_neg=[1, 1])

    def test_undefined_task_renders_dash(self):
        rows = M.multi_seed_report([[None, 0.9]], n_pos=[0, 3], n_neg=[4, 5])
        text = M.format_report(rows)
        assert "—" in text.splitlines()[1]

    def test_report_csv_round_trip_values(self, tmp_path):
        import csv

        rows = M.multi_seed_report([[0.8, None], [0.9, None]], n_pos=[3, 0], n_neg=[5, 6])
        path = tmp_path / "report.csv"
        M.report_to_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["task_id", "mean_auc", "std_auc", "n_pos", "n_neg"]
        assert float(got[1][1]) == 0.8500000000000001 or abs(float(got[1][1]) - 0.85) < 1e-12
        assert got[2][1] == ""  # undefined stays empty

    def test_failed_write_keeps_previous_report(self, tmp_path):
        """A write that dies partway leaves the old report byte-identical
        and no temporary file behind."""
        rows = M.multi_seed_report([[0.8, 0.7]], n_pos=[3, 2], n_neg=[5, 6])
        path = tmp_path / "report.csv"
        M.report_to_csv(rows, path)
        before = path.read_bytes()

        def failing_rows():
            yield rows[0]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            M.report_to_csv(failing_rows(), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["report.csv"]


class TestRocPersistence:
    def test_csv_round_trip_preserves_auc(self, tmp_path):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        curve = M.roc_curve(scores, labels, task_id=2)
        path = tmp_path / "roc.csv"
        M.roc_to_csv([curve], path)
        task_id, _, fpr, tpr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        np.testing.assert_array_equal(task_id, 2)
        assert fpr.tobytes() == curve.fpr.tobytes()
        assert tpr.tobytes() == curve.tpr.tobytes()

    def test_inf_threshold_survives_round_trip(self, tmp_path):
        curve = M.roc_curve([0.9, 0.1], [1, 0])
        path = tmp_path / "roc.csv"
        M.roc_to_csv([curve], path)
        thresholds = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        assert thresholds[0] == np.inf

    def test_svg_contains_polyline(self):
        curve = M.roc_curve([0.9, 0.4, 0.1], [1, 0, 0])
        svg = M.roc_svg(curve)
        assert svg.startswith("<svg") and "<polyline" in svg
        assert "AUC 1.0000" in svg
