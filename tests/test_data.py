"""Data pipeline: label masks, splits, counts, manifests, synthesis."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import data as D
from sst.tensor import Tensor


def pair_auc(scores, y):
    """Mann-Whitney oracle: P(score_pos > score_neg) + half ties."""
    pos, neg = scores[y == 1], scores[y == 0]
    gt = (pos[:, None] > neg[None, :]).sum()
    eq = (pos[:, None] == neg[None, :]).sum()
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


class TestLabelMask:
    def test_basic_derivation(self):
        labels = np.array([[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
        mask = D.derive_label_mask(labels)
        np.testing.assert_array_equal(mask, [[1, 1], [0, 1], [1, 0]])

    def test_rejects_double_hot_pair(self):
        with pytest.raises(ValueError, match="sample 0, task 1"):
            D.derive_label_mask(np.array([[1.0, 0.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("pair", [(1.5, -0.5), (0.5, 0.5), (-1.0, 2.0)])
    def test_rejects_entries_other_than_0_and_1(self, pair):
        """Pairs that sum to 0 or 1 but hold other values would weight the
        loss by them."""
        labels = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, *pair]])
        with pytest.raises(ValueError, match="sample 1, task 1 is"):
            D.derive_label_mask(labels)

    def test_zero_rows(self):
        mask = D.derive_label_mask(np.zeros((0, 6)))
        assert mask.shape == (0, 3)


class TestTimeSplit:
    def test_92_week_layout(self):
        train, val, test = D.time_split(np.arange(92))
        assert (len(train), len(val), len(test)) == (70, 14, 8)

    def test_absolute_counts(self):
        train, val, test = D.time_split(np.arange(2630), ratios=(2000, 500, 130))
        assert (len(train), len(val), len(test)) == (2000, 500, 130)

    def test_remainder_goes_to_train(self):
        sizes = D.split_sizes(10, (70, 14, 8))
        assert sizes == (9, 1, 0)
        assert sum(sizes) == 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            D.time_split([1, 2])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=3, max_value=500))
    def test_disjoint_ordered_union(self, n):
        items = np.arange(n)
        train, val, test = D.time_split(items)
        joined = np.concatenate([train, val, test])
        np.testing.assert_array_equal(joined, items)


class TestLabelCounts:
    def test_hand_case(self):
        labels = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float)
        mask = D.derive_label_mask(labels)
        counts = D.label_counts(labels, mask)
        np.testing.assert_array_equal(counts, [[1, 1], [1, 2]])

    def test_conservation(self):
        rng = np.random.default_rng(3)
        data = D.synth_dataset(m=3, n_samples=200, timesteps=2, n_features=6,
                               separability=4.0, imbalance=0.2, seed=5)
        counts = D.label_counts(data.train.labels.data, data.train.label_mask.data)
        per_task_present = data.train.label_mask.data.sum(axis=0)
        np.testing.assert_array_equal(counts.sum(axis=1), per_task_present)

    def test_empty_mask_all_zero(self):
        labels = np.zeros((4, 6))
        counts = D.label_counts(labels, np.zeros((4, 3)))
        np.testing.assert_array_equal(counts, np.zeros((3, 2)))

    def test_zero_rows(self):
        counts = D.label_counts(np.zeros((0, 6)), np.zeros((0, 3)))
        np.testing.assert_array_equal(counts, np.zeros((3, 2)))


class TestSynthDataset:
    def test_same_seed_bit_identical(self):
        kw = dict(m=2, n_samples=120, timesteps=3, n_features=8,
                  separability=4.0, imbalance=0.1, seed=11)
        a, b = D.synth_dataset(**kw), D.synth_dataset(**kw)
        np.testing.assert_array_equal(a.train.x.data, b.train.x.data)
        np.testing.assert_array_equal(a.test.labels.data, b.test.labels.data)

    def test_noiseless_scores_rank_perfectly(self):
        data = D.synth_dataset(m=2, n_samples=300, timesteps=2, n_features=10,
                               separability=np.inf, imbalance=0.15, seed=7)
        n_train = data.train.n_samples
        for j in range(2):
            present = data.train.label_mask.data[:, j] == 1
            y = data.train.labels.data[present, 2 * j + 1]
            scores = data.latent_scores[:n_train][present, j]
            assert pair_auc(scores, y) == 1.0

    def test_imbalance_controls_positive_rate(self):
        data = D.synth_dataset(m=2, n_samples=10_000, timesteps=2, n_features=6,
                               separability=4.0, imbalance=0.02, seed=9,
                               label_rate=1.0)
        for j in range(2):
            total_pos = sum(
                batch.labels.data[:, 2 * j + 1].sum()
                for batch in (data.train, data.val, data.test)
            )
            assert 150 <= total_pos <= 250

    def test_partial_labels_present(self):
        data = D.synth_dataset(m=2, n_samples=500, timesteps=2, n_features=6,
                               separability=4.0, imbalance=0.1, seed=13)
        rate = data.train.label_mask.data.mean()
        assert 0.8 < rate < 0.97

    def test_variable_lengths_masked(self):
        data = D.synth_dataset(m=1, n_samples=400, timesteps=4, n_features=5,
                               separability=4.0, imbalance=0.1, seed=15)
        assert data.train.pad_mask.data.sum() > 0
        np.testing.assert_array_equal(
            data.train.x.data[:, :, -1], data.train.pad_mask.data
        )

    def test_infeasible_imbalance_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            D.synth_dataset(m=1, n_samples=20, timesteps=2, n_features=4,
                            separability=4.0, imbalance=0.01, seed=1)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match=r"test split is empty.*\(9, 1, 0\)"):
            D.synth_dataset(m=1, n_samples=10, timesteps=2, n_features=4,
                            separability=4.0, imbalance=0.5, seed=1)

    def test_peak_memory_within_half_above_the_returned_arrays(self):
        """Each split is filled in place block by block: no full-size draw,
        gather or copy of ``x`` is held next to the returned arrays."""
        tracemalloc.start()
        try:
            data = D.synth_dataset(m=11, n_samples=20608, timesteps=4, n_features=40,
                                   separability=4.0, imbalance=0.2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = data.latent_scores.nbytes + sum(
            t.data.nbytes for b in (data.train, data.val, data.test)
            for t in (b.x, b.pad_mask, b.labels, b.label_mask))
        assert peak <= 1.5 * returned


# sha256 over every array synth_dataset returns, for the benchmark's three
# workload shapes and two odd ones: one feature over 30 steps (a [t, 1] mean
# sums pairwise) and three features over 9 steps.
SYNTH_DIGESTS = [
    (dict(m=11, n_samples=20608, timesteps=4, n_features=40, separability=4.0,
          imbalance=0.2, seed=0),
     "260946f942f29177659e1c60bddc6b596ba577a933dbb6b55107c6de2320f765"),
    (dict(m=2, n_samples=2630, timesteps=2, n_features=20, separability=4.0,
          imbalance=0.10, seed=0, ratios=(2000, 500, 130)),
     "b2008450d71953dea5617ff61a0197fe107f9d9ebd0b54cde6f59a6b52cd2a3d"),
    (dict(m=4, n_samples=1280, timesteps=48, n_features=12, separability=8.0,
          imbalance=0.3, seed=0, ratios=(640, 128, 512)),
     "652607729ae5b0fa1f94ef227937f8aefbc424db22f5e60781ea149e9a720307"),
    (dict(m=1, n_samples=300, timesteps=30, n_features=1, separability=np.inf,
          imbalance=0.3, seed=9),
     "cb41f72a8f1583dbf4206b8c14a35dc3ab9c2bd7c92e68ca5c1fcb9c77394320"),
    (dict(m=3, n_samples=777, timesteps=9, n_features=3, separability=2.0,
          imbalance=0.25, seed=4),
     "8ae1c8d58c5e181c51408d4f58ee0962edb6617f72e1b17813b8eb36d455d268"),
]


def synth_digest(data) -> str:
    h = hashlib.sha256(repr(data.timesteps).encode())
    arrays = [data.latent_scores]
    for b in (data.train, data.val, data.test):
        arrays += [b.x.data, b.pad_mask.data, b.labels.data, b.label_mask.data]
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kw, digest", SYNTH_DIGESTS,
                         ids=["cli_pipeline", "c07", "long_seq", "one_feature", "nine_steps"])
def test_synth_arrays_match_pinned_digest(kw, digest):
    """Every array, the latent scores included, keeps its bits."""
    assert synth_digest(D.synth_dataset(**kw)) == digest


def synth_per_sample(m, n_samples, timesteps, n_features, seed):
    """The inputs and latent scores built one sample at a time: one normal
    draw and one mean per sequence, then zero padding to ``timesteps``
    with the indicator column set to the pad mask."""
    rng = np.random.default_rng(seed)
    lengths = np.where(rng.random(n_samples) < 0.75, timesteps,
                       rng.integers(1, timesteps + 1, size=n_samples))
    sequences = [rng.normal(size=(t, n_features)) for t in lengths]
    latent_w = np.zeros((m, n_features))
    for j in range(m):
        chosen = rng.choice(n_features, size=max(1, n_features // 2), replace=False)
        latent_w[j, chosen] = rng.normal(size=chosen.size)
    pooled = np.stack([s.mean(axis=0) for s in sequences])
    x = np.zeros((n_samples, timesteps, n_features + 1))
    pad_mask = np.ones((n_samples, timesteps))
    for i, s in enumerate(sequences):
        x[i, :len(s), :n_features] = s
        pad_mask[i, :len(s)] = 0.0
    x[:, :, -1] = pad_mask
    return x, pad_mask, pooled @ latent_w.T


@pytest.mark.parametrize("m, n, t, f, seed", [
    (1, 300, 30, 1, 9), (3, 777, 9, 3, 4), (2, 400, 12, 2, 21), (4, 500, 3, 17, 5),
])
def test_synth_matches_the_per_sample_loop(m, n, t, f, seed):
    data = D.synth_dataset(m=m, n_samples=n, timesteps=t, n_features=f,
                           separability=4.0, imbalance=0.2, seed=seed)
    x, pad_mask, scores = synth_per_sample(m, n, t, f, seed)
    splits = (data.train, data.val, data.test)
    got_x = np.concatenate([b.x.data for b in splits])
    got_mask = np.concatenate([b.pad_mask.data for b in splits])
    assert got_x.tobytes() == x.tobytes()
    assert got_mask.tobytes() == pad_mask.tobytes()
    assert data.latent_scores.tobytes() == scores.tobytes()


class TestManifestRoundTrip:
    def test_save_then_load_identical(self, tmp_path):
        data = D.synth_dataset(m=2, n_samples=150, timesteps=3, n_features=6,
                               separability=4.0, imbalance=0.1, seed=21)
        manifest_path = D.save_dataset(data, tmp_path, m=2, seed=21)
        train, val, test, manifest = D.load_dataset(manifest_path)
        assert manifest["m"] == 2 and manifest["n_features"] == 7
        np.testing.assert_array_equal(train.x.data, data.train.x.data)
        np.testing.assert_array_equal(train.pad_mask.data, data.train.pad_mask.data)
        np.testing.assert_array_equal(val.labels.data, data.val.labels.data)
        np.testing.assert_array_equal(test.label_mask.data, data.test.label_mask.data)

    def test_load_holds_each_file_once(self, tmp_path):
        """The loaded splits view the buffers the files were read into:
        the traced peak of a load stays within a quarter above the bytes
        on disk (parsing and converting with copies held up to three)."""
        data = D.synth_dataset(m=2, n_samples=2000, timesteps=8, n_features=20,
                               separability=4.0, imbalance=0.1, seed=5)
        manifest_path = D.save_dataset(data, tmp_path, m=2, seed=5)
        on_disk = sum(f.stat().st_size for f in tmp_path.glob("*.npy"))
        tracemalloc.start()
        try:
            loaded = D.load_dataset(manifest_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded[0].n_samples + loaded[1].n_samples + loaded[2].n_samples == 2000
        assert peak < 1.25 * on_disk

    def test_bad_indicator_rejected(self, tmp_path):
        data = D.synth_dataset(m=1, n_samples=100, timesteps=2, n_features=4,
                               separability=4.0, imbalance=0.1, seed=3)
        manifest_path = D.save_dataset(data, tmp_path, m=1, seed=3)
        from sst.npyio import read_npy, write_npy

        x = read_npy(tmp_path / "train_x.npy").array
        x[0, 0, -1] = 0.5
        write_npy(x, tmp_path / "train_x.npy")
        with pytest.raises(ValueError, match="indicator"):
            D.load_dataset(manifest_path)

    @pytest.mark.parametrize("name", ["train_x.npy", "manifest.json"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        """A synth writer that dies partway leaves the old file byte-identical
        and no temporary file behind."""
        import builtins

        from sst import fileio
        from sst.npyio import write_npy

        data = D.synth_dataset(m=1, n_samples=100, timesteps=2, n_features=4,
                               separability=4.0, imbalance=0.1, seed=3)
        D.save_dataset(data, tmp_path, m=1, seed=3)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        class TornFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.fh.write(blob[: len(blob) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(fileio, "open",
                            lambda *a, **kw: TornFile(builtins.open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            if name == "manifest.json":
                D.save_manifest(tmp_path / name, m=2, n_features=9, timesteps=3, seed=0,
                                splits={})
            else:
                write_npy(np.zeros((2, 2)), tmp_path / name)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_unknown_manifest_key_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"m": 1, "extra": 2}')
        with pytest.raises(ValueError, match="manifest"):
            D.load_manifest(tmp_path / "manifest.json")
