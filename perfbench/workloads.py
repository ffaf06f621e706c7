"""The three workloads and their untraced, end-to-end measurement.

Every workload is one process, one caller and a closed loop: each call
starts when the previous one has returned.  Timings come from the public
entry points as users call them: ``fit``, ``SstModel.predict_proba`` and
``sst.cli.main``.

Why these three:

- ``c07_train`` is the acceptance gate's problem (c07).  Its tensors are
  tiny, so the tape's per-node cost dominates a step; it exercises tape
  overhead, layer norm and the dense weight gradient.
- ``long_seq`` has T=48, so the [B, h, T, T] attention tensors dominate
  and the per-node cost does not: a tape-overhead change should not move
  it, while attention, matmul and chunked-inference changes should.
- ``cli_pipeline`` runs ``sst synth -> train -> eval`` in-process on a
  small model and tens of thousands of samples, so file I/O, NPY parsing
  and 11-task AUC/ROC work carry a large share of its time.

The two Python-API workloads train a fixed problem, and the benchmark seed
draws the samples they score.  How fast training learns varies a lot with
the data and model seeds: c07's first epoch at val AUC 0.95 ranged from 60
to 141 across seeds, and some data seeds never reached it, while long_seq's
val AUC after three epochs ranged from 0.69 to 0.86.  A fixed problem keeps
the quality metrics and the AUC check meaningful from run to run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from sst import SstConfig, SstModel, fit, load_weights, synth_dataset, task_aucs
from sst import cli
from sst.data import Batch, load_dataset
from sst.tensor import Tensor

from helpers import percentile, tail_percentile

SCORE_BATCH = 256
MIN_LATENCY_SAMPLES = 100   # p90 needs at least 10 batches beyond it
MIN_WHOLE_SPLIT_REPS = 5
WHOLE_SPLIT_SHARE = 0.1     # of the scoring phase spent on whole-split calls
# On a shared host, speed can drift in spells of tens of seconds; a scoring
# phase shorter than this lets p50 follow a single spell from run to run.
MIN_SCORING_S = 15.0
SETUP_REPS = 5
# Rows of a 256-sample batch and of the whole split go through the same
# float64 arithmetic; only BLAS blocking can differ with the batch size.
BATCH_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: int
    samples: int
    ratios: tuple
    timesteps: int
    features: int          # without the padding indicator column
    separability: float
    imbalance: float
    model: dict            # SstConfig fields other than geometry and seed
    epochs: int            # epochs of the end-to-end training run
    trace_epochs: int      # epochs compared traced against untraced
    pipeline_reps: int     # least number of pipeline runs per benchmark run
    score_samples: int     # size of the scored set, a multiple of SCORE_BATCH
    fixed_seed: int | None = None   # data and model seed that ignore --seed
    auc_target: float | None = None  # every task must reach it on val

    def data_seed(self, seed: int) -> int:
        return self.fixed_seed if self.fixed_seed is not None else seed % 2**31

    def config(self, seed: int) -> SstConfig:
        return SstConfig(n_features=self.features + 1, max_timesteps=self.timesteps,
                         n_tasks=self.tasks, seed=self.data_seed(seed), **self.model)

    def synth(self, seed: int):
        return synth_dataset(m=self.tasks, n_samples=self.samples,
                             timesteps=self.timesteps, n_features=self.features,
                             separability=self.separability,
                             imbalance=self.imbalance, seed=self.data_seed(seed),
                             ratios=self.ratios)

    def cli_args(self, seed: int, data_dir, config_path, run_dir, eval_dir,
                 epochs: int):
        manifest = str(Path(data_dir) / "manifest.json")
        synth = ["synth", "--tasks", str(self.tasks), "--samples", str(self.samples),
                 "--features", str(self.features), "--timesteps", str(self.timesteps),
                 "--imbalance", str(self.imbalance),
                 "--separability", str(self.separability),
                 "--seed", str(self.data_seed(seed)), "--out", str(data_dir)]
        train = ["train", "--manifest", manifest, "--config", str(config_path),
                 "--epochs-max", str(epochs), "--patience", str(epochs),
                 "--out", str(run_dir)]
        evaluate = ["eval", "--checkpoint", str(Path(run_dir) / cli.CHECKPOINT_NAME),
                    "--manifest", manifest, "--out", str(eval_dir)]
        return synth, train, evaluate


WORKLOADS = {
    w.name: w for w in (
        Workload("c07_train", tasks=2, samples=2630, ratios=(2000, 500, 130),
                 timesteps=2, features=20, separability=4.0, imbalance=0.10,
                 model=dict(n_layers=2, dmodel=32, dff=32, n_heads=2,
                            dropout_rate=0.1, lr_factor=0.5, batch_size=256,
                            warmup=4000, uncertainty_weighting=True, l2_factor=1e-4),
                 epochs=100, trace_epochs=10, pipeline_reps=1,
                 score_samples=10 * SCORE_BATCH, fixed_seed=0, auc_target=0.95),
        # scoring 512 samples at once keeps the unchunked forward near 1.1 GB
        Workload("long_seq", tasks=4, samples=1280, ratios=(640, 128, 512),
                 timesteps=48, features=12, separability=8.0, imbalance=0.3,
                 model=dict(n_layers=2, dmodel=32, dff=64, n_heads=4,
                            dropout_rate=0.1, lr_factor=0.5, batch_size=64,
                            warmup=60, uncertainty_weighting=True, l2_factor=1e-4),
                 epochs=3, trace_epochs=2, pipeline_reps=2,
                 score_samples=2 * SCORE_BATCH, fixed_seed=0),
        # 20608 samples split 70/14/8 give a test split of exactly 7 batches
        Workload("cli_pipeline", tasks=11, samples=20608, ratios=(70, 14, 8),
                 timesteps=4, features=40, separability=4.0, imbalance=0.2,
                 model=dict(n_layers=1, dmodel=16, dff=16, n_heads=2,
                            dropout_rate=0.1, lr_factor=0.5, batch_size=256,
                            warmup=100, uncertainty_weighting=True, l2_factor=1e-4),
                 epochs=2, trace_epochs=2, pipeline_reps=3,
                 score_samples=7 * SCORE_BATCH),
    )
}


@dataclass
class Run:
    """What one benchmark process knows about its run."""

    workload: Workload
    seed: int
    seconds: float
    work: Path          # scratch directory inside the checkout
    ledger: object      # helpers.Ledger
    import_s: float
    notes: list


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv) -> int:
    """``sst.cli.main`` as the console script runs it, with its table
    output kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def concat(*batches: Batch) -> Batch:
    return Batch(*(Tensor(np.concatenate([getattr(b, f).data for b in batches]))
                   for f in ("x", "pad_mask", "labels", "label_mask")))


def check_report(run: Run, report, expect_epochs: int) -> None:
    ledger = run.ledger
    ledger.check(len(report.epochs) == expect_epochs,
                 f"fit ran {len(report.epochs)} epochs, expected {expect_epochs}")
    for rec in report.epochs:
        ledger.check(math.isfinite(rec.train_loss) and math.isfinite(rec.val_loss),
                     f"non-finite loss at epoch {rec.epoch}")
        ledger.check(all(a is not None for a in rec.val_aucs),
                     f"undefined val AUC at epoch {rec.epoch}")


def first_epoch_reaching(report, target: float):
    for rec in report.epochs:
        if all(a is not None and a >= target for a in rec.val_aucs):
            return rec.epoch
    return None


def score(run: Run, model: SstModel, pool: Batch, deadline: float) -> dict:
    """Whole-split ``predict_proba`` throughput and 256-sample batch latency
    until the deadline, for at least MIN_SCORING_S and the minimum sample
    counts.  The two interleave
    so both sample the whole phase: a whole-split call runs whenever such
    calls have had less than WHOLE_SPLIT_SHARE of the phase.  Every batch
    is checked against the whole-split rows it covers."""
    ledger = run.ledger
    n = pool.n_samples
    batches = [(pool.x.data[i:i + SCORE_BATCH], pool.pad_mask.data[i:i + SCORE_BATCH], i)
               for i in range(0, n - SCORE_BATCH + 1, SCORE_BATCH)]
    whole_s, latencies, reference, worst = [], [], None, 0.0
    started = time.perf_counter()
    deadline = max(deadline, started + MIN_SCORING_S)
    while (len(whole_s) < MIN_WHOLE_SPLIT_REPS or len(latencies) < MIN_LATENCY_SAMPLES
           or time.perf_counter() < deadline):
        short_of_whole = (len(whole_s) < MIN_WHOLE_SPLIT_REPS
                          and len(latencies) >= MIN_LATENCY_SAMPLES)
        if (reference is None or short_of_whole
                or sum(whole_s) < WHOLE_SPLIT_SHARE * (time.perf_counter() - started)):
            call_start = time.perf_counter()
            probas = model.predict_proba(pool.x, pool.pad_mask).data
            whole_s.append(time.perf_counter() - call_start)
            ok = bool(np.all(np.isfinite(probas)) and np.all((probas >= 0) & (probas <= 1)))
            ledger.check(ok, "whole-split probabilities outside [0, 1]")
            if reference is None:
                reference = probas
            else:
                ledger.check(np.array_equal(probas, reference),
                             "repeated whole-split predictions differ")
            continue
        x, pad, i = batches[len(latencies) % len(batches)]
        call_start = time.perf_counter()
        probas = model.predict_proba(x, pad).data
        latencies.append(time.perf_counter() - call_start)
        diff = float(np.max(np.abs(probas - reference[i:i + SCORE_BATCH])))
        worst = max(worst, diff)
        ledger.check(diff <= BATCH_TOL,
                     f"batch at row {i} differs from whole split by {diff:.3g}")

    ms = [t * 1e3 for t in latencies]
    tail = tail_percentile(len(ms))
    run.notes.append(f"inference: whole split of {n} samples x{len(whole_s)}; "
                     f"{len(ms)} batches of {SCORE_BATCH}; tail p{tail:g} = "
                     f"{percentile(ms, tail):.3f} ms; max |batch - whole| = {worst:.3g}")
    return {
        "infer_samples_per_s": (n / median(whole_s), "samples/s"),
        "infer_batch_ms_p50": (percentile(ms, 50), "ms"),
        "infer_batch_ms_p90": (percentile(ms, 90), "ms"),
    }


# -- python-api workloads ----------------------------------------------


def make_inputs(wl: Workload, seed: int):
    """The workload's dataset, and the samples to score drawn from all of
    its splits by the seed."""
    data = wl.synth(seed)
    full = concat(data.train, data.val, data.test)
    rng = np.random.default_rng([seed % 2**32, 7])
    return data, full.take(rng.choice(full.n_samples, wl.score_samples, replace=False))


def train_and_score(run: Run) -> dict:
    """Setup, then ``pipeline_reps`` runs of synth -> fit -> test scoring
    from scratch, then scoring of the seed's samples until the window ends.
    The reruns must reproduce the first one exactly."""
    wl, seed, ledger = run.workload, run.seed, run.ledger
    cfg = wl.config(seed)

    build_s = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        make_inputs(wl, seed)
        SstModel(cfg)
        build_s.append(time.perf_counter() - started)
    measure_start = time.perf_counter()

    pipeline_s, fit_s, first = [], [], None
    for _ in range(wl.pipeline_reps):
        started = time.perf_counter()
        data, pool = make_inputs(wl, seed)
        model = SstModel(cfg)
        fit_start = time.perf_counter()
        report = fit(model, data.train, data.val, epochs_max=wl.epochs, patience=wl.epochs)
        fit_s.append(time.perf_counter() - fit_start)
        test = data.test
        probas = model.predict_proba(test.x, test.pad_mask).data
        test_aucs = task_aucs(probas, test.labels.data, test.label_mask.data)
        pipeline_s.append(time.perf_counter() - started)
        check_report(run, report, wl.epochs)
        first = first or (report, test_aucs)
        ledger.check([r.train_loss for r in report.epochs]
                     == [r.train_loss for r in first[0].epochs] and test_aucs == first[1],
                     "rerun of the same training differs")

    val_aucs = report.epochs[-1].val_aucs
    if wl.auc_target is not None:
        hit = first_epoch_reaching(report, wl.auc_target)
        ledger.check(hit is not None,
                     f"val AUC never reached {wl.auc_target} in {wl.epochs} epochs")
        run.notes.append(f"epochs_to_auc95 = {hit} epochs")
    run.notes.append(f"pipeline run {len(pipeline_s)} times; {wl.epochs} epochs x "
                     f"{data.train.n_samples} samples per fit; test AUC "
                     f"{[round(a, 4) for a in test_aucs if a is not None]}")

    metrics = {
        "setup_s": (run.import_s + median(build_s), "s"),
        "train_samples_per_s": (wl.epochs * data.train.n_samples / median(fit_s), "samples/s"),
        "val_auc_mean": (float(np.mean(val_aucs)), "auc"),
        "pipeline_s": (median(pipeline_s), "s"),
    }
    metrics.update(score(run, model, pool, measure_start + run.seconds))
    return metrics


# -- cli workload --------------------------------------------------------


def cli_config(wl: Workload, seed: int) -> dict:
    return {**wl.model, "seed": wl.data_seed(seed)}


def read_csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def cli_pipeline(run: Run) -> dict:
    """Setup, then ``sst synth -> train -> eval`` again and again until
    MIN_SCORING_S before the window ends, then scoring of the test split
    with the checkpoint."""
    wl, seed, ledger = run.workload, run.seed, run.ledger
    paths = {k: run.work / k for k in ("data", "run", "eval")}
    config_path = run.work / "config.json"

    setup_s = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        config_path.write_text(json.dumps(cli_config(wl, seed)))
        argvs = wl.cli_args(seed, paths["data"], config_path, paths["run"],
                            paths["eval"], wl.epochs)
        setup_s.append(time.perf_counter() - started)
    measure_start = time.perf_counter()
    pipeline_deadline = measure_start + run.seconds - MIN_SCORING_S

    pipeline_s, train_s, first_log = [], [], None
    while len(pipeline_s) < wl.pipeline_reps or time.perf_counter() < pipeline_deadline:
        started = time.perf_counter()
        for argv in argvs:
            step_start = time.perf_counter()
            code = run_cli(argv)
            if argv[0] == "train":
                train_s.append(time.perf_counter() - step_start)
            if not ledger.check(code == 0, f"sst {argv[0]} exited {code}"):
                raise RuntimeError(f"sst {argv[0]} exited {code}")
        pipeline_s.append(time.perf_counter() - started)
        report_rows = read_csv_rows(paths["eval"] / cli.REPORT_NAME)
        ledger.check(len(report_rows) == wl.tasks + 1,
                     f"report.csv has {len(report_rows) - 1} task rows, expected {wl.tasks}")
        log = read_csv_rows(paths["run"] / cli.TRAIN_LOG_NAME)
        first_log = first_log or log
        ledger.check(log == first_log, "train_log.csv differs between identical runs")

    ledger.check(len(first_log) == wl.epochs + 1,
                 f"train_log.csv has {len(first_log) - 1} epochs, expected {wl.epochs}")
    header, last = first_log[0], first_log[-1]
    for row in first_log[1:]:
        ledger.check(all(math.isfinite(float(v)) for v in row[1:3]),
                     f"non-finite loss in train_log.csv epoch {row[0]}")
    aucs = [float(v) for k, v in zip(header, last) if k.startswith("auc_task_") and v]
    ledger.check(len(aucs) == wl.tasks, "undefined val AUC in train_log.csv")

    train, _, test, _ = load_dataset(paths["data"] / "manifest.json")
    model = load_weights(paths["run"] / cli.CHECKPOINT_NAME)
    run.notes.append(f"pipeline repeated {len(pipeline_s)} times; "
                     f"{wl.epochs} epochs x {train.n_samples} samples per train")
    metrics = {
        "setup_s": (run.import_s + median(setup_s), "s"),
        "train_samples_per_s": (median([wl.epochs * train.n_samples / t for t in train_s]),
                                "samples/s"),
        "val_auc_mean": (float(np.mean(aucs)), "auc"),
        "pipeline_s": (median(pipeline_s), "s"),
    }
    metrics.update(score(run, model, test, measure_start + run.seconds))
    return metrics


def measure(run: Run) -> dict:
    """End-to-end metrics of the run's workload, as {name: (value, unit)}."""
    name = run.workload.name
    if name == "cli_pipeline":
        metrics = cli_pipeline(run)
    else:
        metrics = train_and_score(run)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics
