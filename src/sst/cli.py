"""Command-line entry point.

Subcommands: ``synth`` generates a labeled dataset, ``train`` fits a model
to a manifest's splits, ``grid`` sweeps hyperparameter value lists, and
``eval`` scores checkpoints and exports ROC data.

A config file is a flat JSON object of model/config keys; command-line
``--set key=value`` pairs override it.  Every subcommand writes only under
its output directory (``--out``, or the SST_OUT_DIR environment variable,
or the working directory).  Exit codes: 0 success, 2 usage or config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from sst.data import SPLIT_NAMES, label_counts, load_splits, save_dataset, synth_dataset
from sst.metrics import (
    format_report,
    multi_seed_report,
    report_to_csv,
    roc_curve,
    roc_svg,
    roc_to_csv,
    task_aucs,
)
from sst.fileio import atomic_write, read_json_object, write_table
from sst.model import SstConfig, SstModel, load_weights, save_weights
from sst.training import DivergenceError, GridResult, fit, grid_points, grid_search

ENV_OUT_DIR = "SST_OUT_DIR"
GRID_CONFIRM_LIMIT = 100

CHECKPOINT_NAME = "checkpoint.sst"
TRAIN_LOG_NAME = "train_log.csv"
GRID_RESULTS_NAME = "grid_results.csv"
BEST_CONFIG_NAME = "best_config.json"
REPORT_NAME = "report.csv"
GRID_COLUMNS = ["index", "values", "mean_val_auc", "seconds", "error", "fingerprint"]


# -- shared plumbing ---------------------------------------------------


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_set(pairs: list[str]) -> dict:
    """`--set key=value` overrides; values are parsed as JSON scalars."""
    out = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            raise ValueError(f"--set {key}: value {raw!r} is not a JSON scalar")
    return out


def _structural_fields(manifest: dict) -> dict:
    return {
        "n_features": manifest["n_features"],
        "max_timesteps": manifest["timesteps"],
        "n_tasks": manifest["m"],
    }


def _check_geometry(cfg: dict, manifest: dict, source: str) -> None:
    """Geometry keys may be absent from ``cfg``; when present they must
    agree with the data."""
    for key, want in _structural_fields(manifest).items():
        have = cfg.get(key, want)
        if have != want:
            raise ValueError(f"{source} {key}={have} does not match dataset ({want})")


def _build_config(file_cfg: dict, manifest: dict, sets: dict) -> SstConfig:
    """Merge config file, --set overrides, and dataset geometry."""
    merged = {**file_cfg, **sets}
    _check_geometry(merged, manifest, "config")
    return SstConfig.from_dict({**_structural_fields(manifest), **merged})


# -- subcommands -------------------------------------------------------


def cmd_synth(args) -> int:
    data = synth_dataset(
        m=args.tasks,
        n_samples=args.samples,
        timesteps=args.timesteps,
        n_features=args.features,
        separability=args.separability,
        imbalance=args.imbalance,
        seed=args.seed,
        label_rate=args.label_rate,
    )
    out = _out_dir(args)
    manifest_path = save_dataset(data, out, m=args.tasks, seed=args.seed)

    counts = sum(label_counts(batch.labels.data, batch.label_mask.data)
                 for batch in (data.train, data.val, data.test))
    print("task  n_neg  n_pos")
    for j in range(args.tasks):
        print(f"{j:>4}  {counts[j, 0]:>5}  {counts[j, 1]:>5}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_train(args) -> int:
    (train, val), manifest = load_splits(args.manifest, ("train", "val"))
    file_cfg = read_json_object(args.config) if args.config else {}
    cfg = _build_config(file_cfg, manifest, _parse_set(args.set))
    model = SstModel(cfg)
    out = _out_dir(args)
    log_path = out / TRAIN_LOG_NAME
    # a run that stops partway must not leave its files beside the last run's
    for stale in (out / CHECKPOINT_NAME, log_path):
        stale.unlink(missing_ok=True)

    try:
        report = fit(model, train, val,
                     epochs_max=args.epochs_max, patience=args.patience)
    except DivergenceError as err:
        if err.report.epochs:
            err.report.to_csv(log_path)
        print(f"error: {err} (last finite epoch: {len(err.report.epochs)})", file=sys.stderr)
        return 3

    # the log first: a run that stops between the two writes leaves no
    # checkpoint, the file eval reads, without its log
    report.to_csv(log_path)
    save_weights(model, out / CHECKPOINT_NAME)
    # the checkpoint holds the best epoch's weights, so show its AUCs
    aucs = report.epochs[report.best_epoch - 1].val_aucs
    shown = ", ".join("—" if a is None else f"{a:.4f}" for a in aucs)
    print(f"trained {len(report.epochs)} epochs; best epoch "
          f"{report.best_epoch} (val loss {report.best_val_loss:.6f}); "
          f"val AUC [{shown}]")
    if report.stopped_early:
        print("stopped early: validation loss plateaued")
    print(f"wrote {out / CHECKPOINT_NAME} and {log_path}")
    return 0


def _write_grid_csv(path, results: list[GridResult]) -> None:
    write_table(path, GRID_COLUMNS,
                ([res.index, json.dumps(res.values, sort_keys=True), res.mean_val_auc,
                  res.seconds, res.error, res.fingerprint] for res in results))


def _read_grid_csv(path) -> dict[int, GridResult]:
    """Rows of a results CSV whose header is ``GRID_COLUMNS``."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != GRID_COLUMNS:
        raise ValueError(f"{path}: not a grid results CSV")
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(GRID_COLUMNS):
                raise ValueError(f"{len(row)} fields, expected {len(GRID_COLUMNS)}")
            index = int(row[0])
            out[index] = GridResult(index, json.loads(row[1]), float(row[2]),
                                    float(row[3]), row[4], row[5])
        except ValueError as err:
            raise ValueError(f"{path}: malformed row on line {line}: {err}") from err
    return out


def cmd_grid(args) -> int:
    if args.config is None:
        raise ValueError("grid requires --config with at least one value list")
    (train, val), manifest = load_splits(args.manifest, ("train", "val"))
    raw = read_json_object(args.config)
    value_lists = {k: list(v) for k, v in raw.items() if isinstance(v, list)}
    scalars = {k: v for k, v in raw.items() if not isinstance(v, list)}
    if not value_lists:
        raise ValueError("grid config has no value lists to sweep")
    sets = _parse_set(args.set)
    for key in sets:
        if key in value_lists:
            raise ValueError(f"--set {key}: the grid config sweeps this key")
    base = _build_config(scalars, manifest, sets)
    points = grid_points(value_lists)
    for point in points:
        _check_geometry(point, manifest, "grid config")

    print(f"{len(points)} grid points")
    if len(points) > GRID_CONFIRM_LIMIT and not args.confirm:
        print(f"error: grids above {GRID_CONFIRM_LIMIT} points need --confirm",
              file=sys.stderr)
        return 2

    out = _out_dir(args)
    results_path = out / GRID_RESULTS_NAME
    existing = None
    if args.resume and results_path.exists():
        existing = _read_grid_csv(results_path)
    # a grid that stops partway must not leave the last grid's pick beside
    # its own results; the results stay, as --resume reads them
    (out / BEST_CONFIG_NAME).unlink(missing_ok=True)

    # rewritten after every point, so an interrupted grid can be resumed
    rows = dict(existing or {})

    def progress(res: GridResult) -> None:
        rows[res.index] = res
        _write_grid_csv(results_path, [rows[i] for i in sorted(rows)])
        if res.error:
            print(f"point {res.index + 1}/{len(points)} failed: {res.error}")
        else:
            print(f"point {res.index + 1}/{len(points)} "
                  f"mean val AUC {res.mean_val_auc:.4f} "
                  f"({res.seconds:.1f}s)")

    best, results = grid_search(
        base, value_lists, train, val,
        epochs_max=args.epochs_max, patience=args.patience,
        existing=existing, progress=progress,
    )
    if existing is not None:
        reused = sum(existing.get(res.index) is res for res in results)
        print(f"resuming: reused {reused} of {len(existing)} stored rows")
    _write_grid_csv(results_path, results)
    best_path = out / BEST_CONFIG_NAME
    with atomic_write(best_path, "w", encoding="utf-8") as fh:
        fh.write(best.to_json() + "\n")
    print(f"wrote {results_path} and {best_path}")
    return 0


def cmd_eval(args) -> int:
    (batch,), manifest = load_splits(args.manifest, (args.split,))
    if args.task is not None and not 0 <= args.task < manifest["m"]:
        raise ValueError(f"--task {args.task} out of range for {manifest['m']} tasks")
    labels = batch.labels.data
    label_mask = batch.label_mask.data

    models = [load_weights(ck) for ck in args.checkpoint]
    for ck, model in zip(args.checkpoint, models):
        _check_geometry(vars(model.config), manifest, f"{ck}: checkpoint")
    out = _out_dir(args)
    # removed now and written last, so an eval that stops partway leaves no
    # report, its own or the last eval's, beside ROC files of another run
    (out / REPORT_NAME).unlink(missing_ok=True)

    probas = [model.predict_proba(batch.x, batch.pad_mask).data for model in models]
    counts = label_counts(labels, label_mask)
    rows = multi_seed_report([task_aucs(p, labels, label_mask) for p in probas],
                             counts[:, 1], counts[:, 0])
    print(format_report(rows))

    # ROC for the requested task, else the best-scoring one
    task = args.task
    if task is None:
        defined = [r for r in rows if r.mean_auc is not None]
        task = max(defined, key=lambda r: r.mean_auc).task_id if defined else None

    written = [out / REPORT_NAME]
    if task is None or rows[task].mean_auc is None:
        which = "no task has" if task is None else f"task {task} has no"
        print(f"{which} two classes in this split; ROC skipped")
    else:
        present = label_mask[:, task] == 1
        curve = roc_curve(probas[0][present, task],
                          labels[present, 2 * task + 1].astype(np.int64),
                          task_id=task)
        roc_csv = out / f"roc_task{task}.csv"
        roc_svg_path = out / f"roc_task{task}.svg"
        roc_to_csv([curve], roc_csv)
        with atomic_write(roc_svg_path, "w", encoding="utf-8") as fh:
            fh.write(roc_svg(curve))
        written += [roc_csv, roc_svg_path]
    report_to_csv(rows, out / REPORT_NAME)
    print(f"wrote {', '.join(map(str, written))}")
    return 0


# -- parser ------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help=f"output directory (default: ${ENV_OUT_DIR} or .)")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_train_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--epochs-max", type=_at_least_one, default=None, dest="epochs_max",
                   help="hard epoch cap (default: early stopping only)")
    p.add_argument("--patience", type=_at_least_one, default=100,
                   help="early-stopping patience in epochs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sst",
        description="Train and evaluate multi-task sensor-sequence classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--timesteps", type=int, required=True)
    p.add_argument("--imbalance", type=float, required=True,
                   help="positive-class fraction per task")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--separability", type=float, default=4.0,
                   help="signal-to-noise ratio of the latent rules")
    p.add_argument("--label-rate", type=float, default=0.9, dest="label_rate",
                   help="probability a task label is measured")
    _add_out(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a dataset manifest")
    p.add_argument("--manifest", required=True)
    _add_train_knobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="sweep hyperparameter value lists")
    p.add_argument("--manifest", required=True)
    _add_train_knobs(p)
    p.add_argument("--confirm", action="store_true",
                   help=f"allow grids above {GRID_CONFIRM_LIMIT} points")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed rows from an existing results CSV")
    _add_out(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="score checkpoints and export ROC data")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="checkpoint file (repeat for a multi-seed report)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--task", type=int, default=None,
                   help="task for the ROC export (default: highest AUC)")
    _add_out(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
