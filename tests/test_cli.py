"""End-to-end command-line behavior through main(argv)."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sst.cli import CHECKPOINT_NAME, TRAIN_LOG_NAME, main
from sst.model import load_weights
from sst.npyio import read_npy, write_npy
from sst.training import derive_point_seed

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


SYNTH = ["synth", "--tasks", "2", "--samples", "240", "--features", "8",
         "--timesteps", "3", "--imbalance", "0.2", "--seed", "7",
         "--separability", "6.0", "--label-rate", "1.0"]


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(SYNTH + ["--out", str(out)]) == 0
    return out / "manifest.json"


def fail_replace_at(monkeypatch, k):
    """Make the k-th ``os.replace`` raise, so the k-th atomic write of a
    command fails before its target changes; returns the targets seen."""
    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(Path(dst).name)
        if len(calls) == k:
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def config_file(tmp_path, **keys):
    path = tmp_path / "config.json"
    base = dict(n_layers=1, dmodel=16, dff=16, n_heads=2, dropout_rate=0.1,
                lr_factor=0.5, batch_size=64, warmup=50, seed=0)
    base.update(keys)
    path.write_text(json.dumps(base))
    return path


class TestSynth:
    def test_writes_dataset_and_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run(SYNTH + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "task  n_neg  n_pos" in text
        assert (out / "manifest.json").exists()
        assert (out / "train_x.npy").exists()
        assert (out / "test_y.npy").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(SYNTH + ["--out", str(a)]) == 0
        assert run(SYNTH + ["--out", str(b)]) == 0
        for name in ("manifest.json", "train_x.npy", "train_y.npy",
                     "val_x.npy", "test_x.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_samples_exits_2(self, tmp_path):
        argv = list(SYNTH) + ["--out", str(tmp_path)]
        argv[argv.index("--samples") + 1] = "0"
        assert run(argv) == 2

    def test_split_left_empty_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """10 samples at 70/14/8 split (9, 1, 0): no test split to write."""
        argv = list(SYNTH) + ["--out", str(tmp_path)]
        argv[argv.index("--samples") + 1] = "10"
        assert run(argv) == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.npy"))
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_flag_exits_2(self, tmp_path):
        assert run(["synth", "--tasks", "2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--separability", "nan"), ("--separability", "0"),
        ("--label-rate", "nan"), ("--label-rate", "0"), ("--label-rate", "1.5"),
    ])
    def test_bad_separability_or_label_rate_exits_2(self, tmp_path, capsys, flag, value):
        """A NaN separability would pass as infinite (noiseless labels), and
        a label rate of 0 would write a dataset with no measured label."""
        argv = list(SYNTH) + ["--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = value
        assert run(argv) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_interrupted_synth_leaves_a_set_that_train_rejects(self, tmp_path, capsys,
                                                              monkeypatch, k):
        """A synth into another seed's dataset replaces six NPYs and then the
        manifest; dying at any of those seven renames leaves a directory
        that ``sst train`` rejects, never a mix of seeds that trains."""
        out = tmp_path / "d"
        assert run(SYNTH + ["--out", str(out)]) == 0
        argv = list(SYNTH) + ["--out", str(out)]
        argv[argv.index("--seed") + 1] = "8"
        calls = fail_replace_at(monkeypatch, k)
        assert run(argv) == 2
        monkeypatch.undo()
        assert len(calls) == k
        capsys.readouterr()
        assert run(["train", "--manifest", str(out / "manifest.json"),
                    "--config", str(config_file(tmp_path)), "--epochs-max", "1",
                    "--out", str(tmp_path / "run")]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "run" / CHECKPOINT_NAME).exists()

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SST_OUT_DIR", str(tmp_path / "from_env"))
        assert run(SYNTH) == 0
        assert (tmp_path / "from_env" / "manifest.json").exists()


class TestTrain:
    def test_smoke_run_writes_artifacts(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path)
        out = tmp_path / "run"
        code = run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "1", "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.sst").exists()
        with open(out / "train_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + one epoch
        assert "val AUC" in capsys.readouterr().out
        # checkpoint is loadable and congruent with the dataset
        model = load_weights(out / "checkpoint.sst")
        assert model.config.n_features == 9

    @pytest.mark.parametrize("flag, value", [
        ("--epochs-max", "0"), ("--epochs-max", "-3"), ("--epochs-max", "two"),
        ("--patience", "0"), ("--patience", "-2"),
    ])
    def test_epoch_cap_or_patience_below_one_exits_2(self, dataset, tmp_path, capsys,
                                                     flag, value):
        """An untrained checkpoint is never written for a cap below 1, and a
        patience below 1 does not pass for 1."""
        cfg = config_file(tmp_path)
        out = tmp_path / "run"
        code = run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    flag, value, "--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (out / CHECKPOINT_NAME).exists()
        assert not (out / TRAIN_LOG_NAME).exists()

    def test_two_runs_bit_identical(self, dataset, tmp_path):
        cfg = config_file(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["train", "--manifest", str(dataset), "--config",
                        str(cfg), "--epochs-max", "2", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.sst").read_bytes() == (b / "checkpoint.sst").read_bytes()
        assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()


    @pytest.mark.parametrize("timesteps,samples", [("4", "1200"), ("3", "1300")])
    def test_bit_identical_under_one_and_two_blas_threads(self, tmp_path, timesteps, samples):
        """Batches of 256 samples give [256 x T, 32] @ [32, 32] and
        [256 x T, 32] @ [32, 64] GEMMs, which OpenBLAS splits across two
        threads; the split must not change a bit of the outputs.  The last
        batch of each epoch has 145 samples at T=4 and 221 at T=3, so its
        weight gradients share a row axis of 580 or 663, not a multiple of
        32, and large enough to be threaded.  Each run is a subprocess
        because the thread count is fixed at import."""
        data = tmp_path / "data"
        argv = list(SYNTH) + ["--out", str(data)]
        argv[argv.index("--samples") + 1] = samples
        argv[argv.index("--timesteps") + 1] = timesteps
        assert run(argv) == 0
        cfg = config_file(tmp_path, dmodel=32, dff=64, batch_size=256)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "sst.cli", "train", "--manifest",
                 str(data / "manifest.json"), "--config", str(cfg), "--epochs-max", "2",
                 "--patience", "2", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes()
                            for name in (CHECKPOINT_NAME, TRAIN_LOG_NAME)])
        assert outputs[0] == outputs[1]

    def test_summary_shows_the_best_epochs_aucs(self, dataset, tmp_path, capsys):
        """Early stopping leaves the best epoch's weights in the checkpoint,
        so the summary shows that epoch's AUCs, not the last epoch's."""
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--config", str(config_file(tmp_path)),
                    "--patience", "1", "--epochs-max", "40", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        with open(out / TRAIN_LOG_NAME, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        best = int(re.search(r"best epoch (\d+)", text).group(1))

        def shown(row):
            return ", ".join(f"{float(a):.4f}" for a in row[3:])

        assert best < len(rows) and shown(rows[best - 1]) != shown(rows[-1])
        assert f"val AUC [{shown(rows[best - 1])}]" in text

    def test_set_overrides_config_file(self, dataset, tmp_path):
        cfg = config_file(tmp_path, dmodel=16)
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--set", "dmodel=8", "--set", "n_heads=1",
                    "--epochs-max", "1", "--out", str(out)]) == 0
        assert load_weights(out / "checkpoint.sst").config.dmodel == 8

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run(["train", "--manifest", str(tmp_path / "nope.json"),
                    "--epochs-max", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("change, key", [
        (5, "JSON object"),
        ({"splits": []}, "splits"),
        ({"splits": {"train": 7}}, "train"),
        ({"splits": {"train": {"x": 1, "y": "train_y.npy"}}}, "train"),
        ({"m": True}, "'m'"),
        ({"timesteps": 3.0}, "'timesteps'"),
        (b"{'m': 2}", "Expecting property name"),
        (b"\xff{}", "utf-8"),
    ])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, change, key):
        doc = change if not isinstance(change, dict) else {
            "m": 2, "n_features": 9, "timesteps": 3, "seed": 7,
            "splits": {"train": {"x": "train_x.npy", "y": "train_y.npy"}}, **change}
        path = tmp_path / "manifest.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        assert run(["train", "--manifest", str(path), "--epochs-max", "1",
                    "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("n_features", 0), ("m", 0), ("timesteps", 0), ("seed", -1),
    ])
    def test_manifest_integer_out_of_range_names_the_file_and_exits_2(
            self, dataset, tmp_path, capsys, key, value):
        """``m``, ``n_features`` and ``timesteps`` must be at least 1 and
        ``seed`` at least 0: a zero width would let a zero-width split pass
        the shape rule."""
        doc = json.loads(dataset.read_text())
        dataset.write_text(json.dumps({**doc, key: value}))
        assert run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(dataset) in err and f"'{key}'" in err

    @pytest.mark.parametrize("name, change", [
        ("train_x.npy", lambda x: x[:, :, :0]),
        ("val_x.npy", lambda x: np.concatenate([x[:, :, :1], x], axis=2)),
    ], ids=["no_features", "one_feature_too_wide"])
    def test_split_not_of_the_manifests_shape_names_the_file_and_exits_2(
            self, dataset, tmp_path, capsys, name, change):
        path = dataset.parent / name
        x = read_npy(path).array
        changed = change(x)
        write_npy(changed, path)
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: expected shape {x.shape} from the manifest, got {changed.shape}" in err
        assert not (out / CHECKPOINT_NAME).exists()

    def test_sample_padded_at_every_step_names_the_file_and_row_and_exits_2(
            self, dataset, tmp_path, capsys):
        """Such a sample has nothing to pool over; it is rejected at load,
        by its row in the file, not later by its place in a minibatch."""
        path = dataset.parent / "train_x.npy"
        x = read_npy(path).array
        x[150] = 0.0
        x[150, :, -1] = 1.0
        write_npy(x, path)
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(out)]) == 2
        assert f"{path}: sample 150 is padded at every step" in capsys.readouterr().err
        assert not (out / CHECKPOINT_NAME).exists()

    def test_unknown_config_key_exits_2(self, dataset, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"momentum": 0.9}))
        assert run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("blob", [b"{dmodel: 8}", b"\xff{}", b"[1]"],
                             ids=["not_json", "not_utf8", "not_an_object"])
    def test_config_that_is_not_a_json_object_names_the_file_and_exits_2(
            self, dataset, tmp_path, capsys, blob):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(blob)
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "1", "--out", str(out)]) == 2
        assert f"error: {cfg}: " in capsys.readouterr().err
        assert not (out / CHECKPOINT_NAME).exists()

    @pytest.mark.parametrize("k", [1, 2])
    def test_failed_write_leaves_no_checkpoint_without_its_log(self, dataset, tmp_path,
                                                                monkeypatch, k):
        """A run into a directory holding another run's files writes its log
        and then its checkpoint; a failure at either write leaves no
        checkpoint, and any log left is this run's."""
        argv = ["train", "--manifest", str(dataset), "--config", str(config_file(tmp_path)),
                "--epochs-max", "1", "--out"]
        whole, out = tmp_path / "whole", tmp_path / "run"
        assert run(argv + [str(whole), "--set", "seed=1"]) == 0
        assert run(argv + [str(out)]) == 0
        calls = fail_replace_at(monkeypatch, k)
        assert run(argv + [str(out), "--set", "seed=1"]) == 2
        monkeypatch.undo()
        assert calls == [TRAIN_LOG_NAME, CHECKPOINT_NAME][:k]
        assert not (out / CHECKPOINT_NAME).exists()
        log = out / TRAIN_LOG_NAME
        assert (log.read_bytes() == (whole / TRAIN_LOG_NAME).read_bytes() if k == 2
                else not log.exists())

    def test_geometry_mismatch_exits_2(self, dataset, tmp_path):
        cfg = config_file(tmp_path, n_features=5)
        assert run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("setting, field", [
        ('lr_factor="0.5"', "lr_factor"),
        ("n_heads=true", "n_heads"),
        ('uncertainty_weighting="no"', "uncertainty_weighting"),
        ("lr_factor=NaN", "lr_factor"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, dataset, tmp_path, capsys,
                                                 setting, field):
        code = run(["train", "--manifest", str(dataset), "--set", setting,
                    "--epochs-max", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_non_finite_input_names_the_file_and_exits_2(self, dataset, tmp_path, capsys):
        x_path = dataset.parent / "train_x.npy"
        x = read_npy(x_path).array
        x[0, 0, 0] = np.nan
        write_npy(x, x_path)
        code = run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "train_x.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [(1.5, -0.5), (0.5, 0.5)])
    def test_label_other_than_0_or_1_names_the_file_and_exits_2(self, dataset, tmp_path,
                                                                capsys, pair):
        y_path = dataset.parent / "train_y.npy"
        y = read_npy(y_path).array
        y[3, 2:4] = pair
        write_npy(y, y_path)
        code = run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "train_y.npy" in err and "sample 3, task 1" in err
        assert not (tmp_path / "run" / CHECKPOINT_NAME).exists()

    def test_malformed_npy_header_exits_2(self, dataset, tmp_path, capsys):
        """A header dict with an unhashable key is a format error naming the
        byte, not a traceback."""
        x_path = dataset.parent / "train_x.npy"
        text = b"{[1]: 2}\n"
        x_path.write_bytes(b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text)
        code = run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "byte 10" in capsys.readouterr().err

    @pytest.mark.parametrize("name, blob", [
        ("val_x.npy", lambda old: old[:-8]),
        ("val_y.npy", lambda old: b"\x93NUMPY\x01\x00\x3f\x00"
         b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, True), }\n" + bytes(16)),
    ], ids=["truncated", "bool_in_shape"])
    def test_malformed_npy_names_the_file_and_exits_2(self, dataset, tmp_path, capsys,
                                                      name, blob):
        """A format error in any of the six split files names that file."""
        path = dataset.parent / name
        path.write_bytes(blob(path.read_bytes()))
        code = run(["train", "--manifest", str(dataset), "--set", "dmodel=8",
                    "--epochs-max", "1", "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"{path}: " in capsys.readouterr().err

    def test_divergence_exits_3_and_logs_last_epoch(self, dataset, tmp_path,
                                                    capsys, monkeypatch):
        import sst.cli as cli_mod
        from sst.training import DivergenceError, TrainReport, EpochRecord

        def blow_up(model, train, val, **kw):
            report = TrainReport(
                epochs=[EpochRecord(1, 0.5, 0.6, [0.7, 0.7])],
                best_epoch=1, best_val_loss=0.6, stopped_early=False,
            )
            raise DivergenceError("loss became non-finite", epoch=2, step=9,
                                  report=report)

        monkeypatch.setattr(cli_mod, "fit", blow_up)
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoint.sst").write_bytes(b"a previous run's checkpoint")
        code = run(["train", "--manifest", str(dataset),
                    "--set", "dmodel=8", "--set", "n_heads=1",
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "last finite epoch: 1" in err
        with open(out / "train_log.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 2
        assert not (out / "checkpoint.sst").exists()


class TestGrid:
    def test_two_point_grid(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path, epochs_max=[1, 8])
        out = tmp_path / "g"
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert "2 grid points" in capsys.readouterr().out
        with open(out / "grid_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + 2 points
        best = json.loads((out / "best_config.json").read_text())
        assert best["dmodel"] == 16
        # the trained point wins over the one-epoch one, still in warmup
        assert float(rows[2][2]) > float(rows[1][2])

    @pytest.mark.parametrize("flag", ["--epochs-max", "--patience"])
    def test_epoch_cap_or_patience_below_one_exits_2(self, dataset, tmp_path, capsys, flag):
        cfg = config_file(tmp_path, epochs_max=[1, 2])
        out = tmp_path / "g"
        code = run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    flag, "0", "--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (out / "grid_results.csv").exists()

    def test_epoch_cap_below_one_in_the_file_fails_its_point(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path, epochs_max=[-1, 2])
        out = tmp_path / "g"
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert "point 1/2 failed: epochs_max" in capsys.readouterr().out
        with open(out / "grid_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert "epochs_max" in rows[1][4] and rows[1][2] == "nan"
        assert rows[2][4] == ""
        best = json.loads((out / "best_config.json").read_text())
        assert best["seed"] == derive_point_seed(0, 1)

    @pytest.mark.parametrize("key, values", [
        ("n_features", [9, 5]), ("max_timesteps", [3, 4]), ("n_tasks", [1, 2]),
    ], ids=["n_features", "max_timesteps", "n_tasks"])
    def test_geometry_value_that_does_not_match_the_data_exits_2(self, dataset, tmp_path,
                                                                 capsys, key, values):
        """The dataset has 8 features plus the indicator, 3 steps and 2 tasks:
        a wrong value fails the command before any point trains."""
        cfg = config_file(tmp_path, **{key: values})
        out = tmp_path / "g"
        code = run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{key}=" in captured.err and "does not match dataset" in captured.err
        assert captured.out == ""
        assert not (out / "grid_results.csv").exists()

    def test_geometry_values_that_match_the_data_are_accepted(self, dataset, tmp_path):
        cfg = config_file(tmp_path, n_features=[9], max_timesteps=[3], n_tasks=[2])
        out = tmp_path / "g"
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "1", "--out", str(out)]) == 0
        with open(out / "grid_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][4] == ""

    def test_confirm_gate(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path,
                          dmodel=[8, 16, 24, 32, 40] + [48 + 8 * i for i in range(6)],
                          warmup=[10 * i for i in range(1, 11)])
        out = tmp_path / "g"
        code = run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "110 grid points" in captured.out
        assert "--confirm" in captured.err
        assert not (out / "grid_results.csv").exists()

    def test_resume_skips_completed_rows(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path, epochs_max=[1, 2])
        out = tmp_path / "g"
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)]) == 0
        first = (out / "grid_results.csv").read_text()
        capsys.readouterr()
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--resume", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "resuming: reused 2 of 2 stored rows" in text
        assert (out / "grid_results.csv").read_text() == first

    def test_resume_retrains_rows_of_other_points(self, dataset, tmp_path):
        """A stored row is reused only for the point it was trained on: a
        resumed grid over new values must not report the old point."""
        out = tmp_path / "g"
        for lr_factor, extra in ((0.5, []), (0.001, ["--resume"])):
            cfg = config_file(tmp_path, lr_factor=[lr_factor])
            assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                        "--epochs-max", "1", "--out", str(out)] + extra) == 0
        best = json.loads((out / "best_config.json").read_text())
        assert best["lr_factor"] == 0.001
        with open(out / "grid_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert json.loads(rows[1][1]) == {"lr_factor": 0.001}

    def test_resume_retrains_under_a_changed_base_config(self, dataset, tmp_path, capsys):
        """Same values, other base config: the stored row describes another
        model, so the point is trained again."""
        out = tmp_path / "g"
        fingerprints = []
        for dmodel, extra in ((16, []), (8, ["--resume"])):
            cfg = config_file(tmp_path, dmodel=dmodel, lr_factor=[0.5])
            capsys.readouterr()
            assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                        "--epochs-max", "1", "--out", str(out)] + extra) == 0
            text = capsys.readouterr().out
            assert "point 1/1 mean val AUC" in text
            with open(out / "grid_results.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            fingerprints.append(rows[1][-1])
        assert rows[0][-1] == "fingerprint"
        assert fingerprints[0] != fingerprints[1]
        assert "resuming: reused 0 of 1 stored rows" in text
        assert json.loads((out / "best_config.json").read_text())["dmodel"] == 8

    def test_resume_from_a_csv_without_fingerprints_exits_2(self, dataset, tmp_path,
                                                            capsys):
        """A results file without the fingerprint column is not a grid
        results CSV: resuming from it trains nothing and leaves it as is."""
        cfg = config_file(tmp_path, epochs_max=[1])
        out = tmp_path / "g"
        out.mkdir()
        old = ("index,values,mean_val_auc,seconds,error\n"
               '0,"{""epochs_max"": 1}",0.99,1.0,\n')
        (out / "grid_results.csv").write_text(old)
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--resume", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not a grid results CSV" in captured.err
        assert "point 1/1" not in captured.out
        assert (out / "grid_results.csv").read_text() == old
        assert not (out / "best_config.json").exists()

    def test_interrupted_grid_resumes_from_its_completed_points(self, dataset, tmp_path,
                                                                 capsys, monkeypatch):
        """Results are on disk after every point: a grid killed during its
        second point resumes with the first and picks what a whole run picks."""
        import sst.training as training_mod

        cfg = config_file(tmp_path, lr_factor=[0.5, 0.2])
        grid = ["grid", "--manifest", str(dataset), "--config", str(cfg), "--epochs-max", "1"]
        assert run(grid + ["--out", str(tmp_path / "whole")]) == 0

        real_fit = training_mod.fit
        calls = []

        def fit_until_second_point(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_fit(*args, **kwargs)

        out = tmp_path / "g"
        monkeypatch.setattr(training_mod, "fit", fit_until_second_point)
        with pytest.raises(KeyboardInterrupt):
            run(grid + ["--out", str(out)])
        monkeypatch.setattr(training_mod, "fit", real_fit)
        capsys.readouterr()
        assert run(grid + ["--resume", "--out", str(out)]) == 0
        assert "resuming: reused 1 of 1 stored rows" in capsys.readouterr().out
        assert ((out / "best_config.json").read_bytes()
                == (tmp_path / "whole" / "best_config.json").read_bytes())

    def test_resume_from_a_malformed_csv_exits_2(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path, epochs_max=[1])
        out = tmp_path / "g"
        out.mkdir()
        (out / "grid_results.csv").write_text(
            "index,values,mean_val_auc,seconds,error,fingerprint\n0,{}\n"
        )
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--resume", "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_resume_from_a_row_with_an_extra_field_exits_2(self, dataset, tmp_path,
                                                            capsys):
        """A row must have exactly the header's fields; one more is not read
        as the six it starts with."""
        cfg = config_file(tmp_path, epochs_max=[1])
        grid = ["grid", "--manifest", str(dataset), "--config", str(cfg),
                "--out", str(tmp_path / "g")]
        assert run(grid) == 0
        path = tmp_path / "g" / "grid_results.csv"
        header, row = path.read_text().splitlines()
        path.write_text(f"{header}\n{row},extra\n")
        before = path.read_bytes()
        capsys.readouterr()
        assert run(grid + ["--resume"]) == 2
        assert "line 2: 7 fields, expected 6" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_set_on_a_swept_key_exits_2(self, dataset, tmp_path, capsys):
        """--set cannot override a key the grid sweeps: the command fails
        naming the key before any point trains or any file is written."""
        cfg = config_file(tmp_path, lr_factor=[0.5])
        out = tmp_path / "g"
        code = run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--set", "lr_factor=0.001", "--epochs-max", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--set lr_factor" in captured.err
        assert captured.out == ""
        assert not (out / "grid_results.csv").exists()

    def test_seed_value_list_exits_2(self, dataset, tmp_path, capsys):
        cfg = config_file(tmp_path, seed=[1, 2])
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(tmp_path / "g")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "g" / "grid_results.csv").exists()

    @pytest.mark.parametrize("blob", [b"{lr_factor: [0.5]}", b"\xff{}"],
                             ids=["not_json", "not_utf8"])
    def test_config_that_is_not_json_names_the_file_and_exits_2(self, dataset, tmp_path,
                                                               capsys, blob):
        cfg = tmp_path / "grid.json"
        cfg.write_bytes(blob)
        out = tmp_path / "g"
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert f"error: {cfg}: " in capsys.readouterr().err
        assert not (out / "grid_results.csv").exists()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_write_leaves_no_stale_best_config(self, dataset, tmp_path,
                                                      monkeypatch, k):
        """A one-point grid writes its results after the point, again at
        the end, and then ``best_config.json``; a failure at any of the
        three leaves no ``best_config.json``, the last grid's included."""
        out = tmp_path / "g"
        grid = ["grid", "--manifest", str(dataset), "--epochs-max", "1", "--out", str(out)]
        assert run(grid + ["--config", str(config_file(tmp_path, lr_factor=[0.5]))]) == 0
        assert (out / "best_config.json").exists()
        calls = fail_replace_at(monkeypatch, k)
        assert run(grid + ["--config", str(config_file(tmp_path, lr_factor=[0.2]))]) == 2
        monkeypatch.undo()
        assert calls == ["grid_results.csv", "grid_results.csv", "best_config.json"][:k]
        assert not (out / "best_config.json").exists()

    def test_grid_whose_points_all_fail_leaves_no_stale_best_config(self, dataset,
                                                                    tmp_path, capsys):
        out = tmp_path / "g"
        grid = ["grid", "--manifest", str(dataset), "--epochs-max", "1", "--out", str(out)]
        assert run(grid + ["--config", str(config_file(tmp_path, lr_factor=[0.5]))]) == 0
        assert run(grid + ["--config", str(config_file(tmp_path, dropout_rate=[1.5]))]) == 2
        assert "every grid point failed" in capsys.readouterr().err
        assert not (out / "best_config.json").exists()
        assert (out / "grid_results.csv").exists()

    def test_no_value_lists_exits_2(self, dataset, tmp_path):
        cfg = config_file(tmp_path)
        assert run(["grid", "--manifest", str(dataset), "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2


class TestEval:
    @pytest.fixture()
    def trained(self, dataset, tmp_path):
        cfg = config_file(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(dataset), "--config", str(cfg),
                    "--epochs-max", "12", "--out", str(out)]) == 0
        return out / "checkpoint.sst"

    def test_report_and_roc_outputs(self, trained, dataset, tmp_path, capsys):
        out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", str(trained), "--manifest",
                    str(dataset), "--split", "val", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mean_auc" not in text  # text table is formatted, not raw CSV
        assert (out / "report.csv").exists()
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task_id", "mean_auc", "std_auc", "n_pos", "n_neg"]
        assert len(rows) == 3
        svgs = list(out.glob("roc_task*.svg"))
        csvs = list(out.glob("roc_task*.csv"))
        assert len(svgs) == 1 and len(csvs) == 1
        assert "<svg" in svgs[0].read_text()

    def test_deterministic(self, trained, dataset, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run(["eval", "--checkpoint", str(trained), "--manifest",
                        str(dataset), "--split", "val", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_write_leaves_no_stale_report(self, trained, dataset, tmp_path,
                                                 monkeypatch, k):
        """An eval writes its ROC files and then ``report.csv``; a failure
        at any of the three writes leaves no report, the last eval's
        included."""
        out = tmp_path / "ev"
        argv = ["eval", "--checkpoint", str(trained), "--manifest", str(dataset),
                "--out", str(out)]
        assert run(argv + ["--split", "test"]) == 0
        assert (out / "report.csv").exists()
        calls = fail_replace_at(monkeypatch, k)
        assert run(argv + ["--split", "val", "--task", "0"]) == 2
        monkeypatch.undo()
        assert calls == ["roc_task0.csv", "roc_task0.svg", "report.csv"][:k]
        assert not (out / "report.csv").exists()

    def test_multi_checkpoint_aggregates(self, dataset, tmp_path):
        cks = []
        for seed in (0, 1):
            cfg = config_file(tmp_path, seed=seed)
            out = tmp_path / f"run{seed}"
            assert run(["train", "--manifest", str(dataset), "--config",
                        str(cfg), "--epochs-max", "6", "--out", str(out)]) == 0
            cks.append(str(out / "checkpoint.sst"))
        out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", cks[0], "--checkpoint", cks[1],
                    "--manifest", str(dataset), "--split", "val",
                    "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # two seeds give a nonzero spread (std column populated)
        assert all(row[2] != "" for row in rows[1:])

    def test_single_class_task_reports_dash(self, trained, dataset, tmp_path,
                                            capsys):
        # keep only negatively labeled samples for task 0 in a copied split
        data_dir = Path(dataset).parent
        clone = tmp_path / "clone"
        clone.mkdir()
        for f in data_dir.iterdir():
            (clone / f.name).write_bytes(f.read_bytes())
        from sst.npyio import read_npy, write_npy

        y = read_npy(clone / "val_y.npy").array
        keep = y[:, 1] == 0.0
        write_npy(np.ascontiguousarray(y[keep]), clone / "val_y.npy")
        x = read_npy(clone / "val_x.npy").array
        write_npy(np.ascontiguousarray(x[keep]), clone / "val_x.npy")

        out = tmp_path / "ev"
        code = run(["eval", "--checkpoint", str(trained), "--manifest",
                    str(clone / "manifest.json"), "--split", "val",
                    "--out", str(out)])
        assert code == 0
        assert "—" in capsys.readouterr().out
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1] == ""  # undefined AUC serialized as empty

    def test_label_other_than_0_or_1_names_the_file_and_exits_2(self, trained, dataset,
                                                                tmp_path, capsys):
        y_path = dataset.parent / "test_y.npy"
        y = read_npy(y_path).array
        y[0, 0:2] = (-1.0, 2.0)
        write_npy(y, y_path)
        code = run(["eval", "--checkpoint", str(trained), "--manifest", str(dataset),
                    "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert "test_y.npy" in err and "sample 0, task 0" in err

    def test_reads_only_its_split(self, trained, dataset, tmp_path, capsys):
        """A corrupt train file does not stop scoring the test split; a
        corrupt test file does, and is named."""
        def truncate(name):
            path = dataset.parent / name
            path.write_bytes(path.read_bytes()[:-8])
            return path

        argv = ["eval", "--checkpoint", str(trained), "--manifest", str(dataset),
                "--split", "test", "--out", str(tmp_path / "ev")]
        truncate("train_x.npy")
        assert run(argv) == 0
        assert (tmp_path / "ev" / "report.csv").exists()
        test_x = truncate("test_x.npy")
        assert run(argv) == 2
        assert f"{test_x}: " in capsys.readouterr().err

    def test_split_with_a_step_missing_names_the_file_and_exits_2(self, trained, dataset,
                                                                  tmp_path, capsys):
        """Fewer steps than the manifest's ``timesteps`` is rejected, though
        the model could score them."""
        path = dataset.parent / "test_x.npy"
        x = read_npy(path).array
        write_npy(x[:, :2], path)
        out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", str(trained), "--manifest", str(dataset),
                    "--out", str(out)]) == 2
        n, t, f = x.shape
        assert (f"{path}: expected shape {(n, t, f)} from the manifest, got {(n, 2, f)}"
                in capsys.readouterr().err)
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("task", ["2", "99", "-1"])
    def test_task_out_of_range_exits_2_before_scoring(self, trained, dataset, tmp_path,
                                                     capsys, task):
        out = tmp_path / "ev"
        code = run(["eval", "--checkpoint", str(trained), "--manifest", str(dataset),
                    "--task", task, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--task {task} out of range for 2 tasks" in captured.err
        assert captured.out == ""
        assert not (out / "report.csv").exists()

    def test_malformed_checkpoint_names_its_file_and_exits_2(self, trained, dataset,
                                                            tmp_path, capsys):
        """Of two checkpoints, the truncated second is the one named."""
        broken = tmp_path / "broken.sst"
        broken.write_bytes(trained.read_bytes()[:-8])
        out = tmp_path / "ev"
        code = run(["eval", "--checkpoint", str(trained), "--checkpoint", str(broken),
                    "--manifest", str(dataset), "--out", str(out)])
        assert code == 2
        assert f"{broken}: truncated checkpoint" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_checkpoint_dataset_mismatch_exits_2(self, trained, tmp_path,
                                                 capsys):
        other = tmp_path / "other"
        argv = list(SYNTH)
        argv[argv.index("--features") + 1] = "5"
        assert run(argv + ["--out", str(other)]) == 0
        code = run(["eval", "--checkpoint", str(trained), "--manifest",
                    str(other / "manifest.json"), "--split", "val",
                    "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "does not match dataset" in capsys.readouterr().err
