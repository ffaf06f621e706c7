"""Training stack: class-weighted multi-task cross-entropy with optional
homoscedastic uncertainty weighting, the warmup/decay learning-rate
schedule, Adam, early stopping with best-weight restore, and grid search.

Loss shape.  For task j and label t (0 negative, 1 positive) the partial
loss is the presence-masked, class-weighted mean negative log-likelihood
over the samples where task j was measured.  With uncertainty weighting
each partial is scaled by exp(-s_jt) and regularized by s_jt/2, where
s = log(sigma^2) is trainable and starts at 0 so both variants coincide
at initialization.  An L2 penalty over dense/projection weights (never
biases or norm gains) is added when l2_factor > 0.  The loss is one
``tensor.multitask_nll`` tape node; with the penalty it is four (the op,
``sum_of_squares``, the factor's ``mul`` and the ``add``).
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sst import metrics as M
from sst import tensor as T
from sst.data import Batch, label_counts
from sst.fileio import write_table
from sst.model import SstConfig, SstModel, pair_probabilities
from sst.tensor import NumericsError, Tensor

logger = logging.getLogger("sst.training")


class DivergenceError(ArithmeticError):
    """Training produced a non-finite quantity; carries where it happened
    and the report accumulated up to the last finite epoch."""

    def __init__(self, message: str, epoch: int, step: int, report=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.report = report


# -- task weights ------------------------------------------------------


def class_weights(counts, m: int) -> np.ndarray:
    """w[j][t] = N / (2m * n[j][t]) where N sums every (task, label) count.

    Rare classes get proportionally larger weights; a perfectly balanced
    single task yields weight 1 for both labels.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (m, 2):
        raise ValueError(f"counts must be [m={m}, 2], got {counts.shape}")
    zero = np.argwhere(counts == 0)
    if len(zero):
        j, t = zero[0]
        label = "negative" if t == 0 else "positive"
        raise ValueError(
            f"task {j} has zero {label} samples; drop or merge this task "
            f"before computing class weights"
        )
    total = counts.sum()
    return total / (2.0 * m * counts)


@dataclass
class TaskWeights:
    w: np.ndarray          # [m, 2], fixed
    log_var: Tensor        # [m, 2], trainable s = log(sigma^2)

    @classmethod
    def from_counts(cls, counts, m: int) -> "TaskWeights":
        return cls(
            w=class_weights(counts, m),
            log_var=Tensor(np.zeros((m, 2)), requires_grad=True),
        )


def weighted_multitask_loss(probs, labels, label_mask, tw: TaskWeights,
                            use_uncertainty: bool,
                            l2_params=(), l2_factor: float = 0.0) -> Tensor:
    """Scalar training objective over a batch: the ``multitask_nll`` op plus
    the L2 penalty.

    probs/labels are [B, 2m] with (neg, pos) column pairs; label_mask is
    [B, m].  Each pair of raw sigmoid heads is normalized to a proper
    two-class distribution before the log: without that step the heads are
    independent and the loss is minimized by pushing both to 1, which
    carries no class information.  The op clamps raw values outside
    [PROB_FLOOR, 1 - PROB_FLOOR] = [1e-12, 1-1e-12] to that interval and
    zeroes their gradient; a batch with such a value logs a warning.
    """
    probs = probs if isinstance(probs, Tensor) else Tensor(probs)
    if np.any((probs.data < T.PROB_FLOOR) | (probs.data > 1.0 - T.PROB_FLOOR)):
        logger.warning(
            "predicted probabilities outside (0,1) clamped to [%g, %g]",
            T.PROB_FLOOR, 1.0 - T.PROB_FLOOR,
        )
    labels, label_mask = (a.data if isinstance(a, Tensor) else a for a in (labels, label_mask))
    total = T.multitask_nll(probs, labels, label_mask, tw.w,
                            tw.log_var if use_uncertainty else None)
    l2_params = tuple(l2_params)
    if l2_factor > 0.0 and l2_params:
        total = total + T.sum_of_squares(l2_params) * l2_factor
    return total


# -- learning-rate schedule --------------------------------------------


@dataclass
class LrSchedule:
    factor: float
    d: int
    warmup: int = 4000

    def __post_init__(self):
        if self.factor <= 0 or self.d <= 0 or self.warmup <= 0:
            raise ValueError(f"schedule fields must be positive: {self}")


def learning_rate(sched: LrSchedule, step: int) -> float:
    """factor * d^-0.5 * min(step^-0.5, step * warmup^-1.5): linear warmup
    to a peak at step == warmup, then inverse-square-root decay."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return sched.factor * sched.d ** -0.5 * min(step ** -0.5, step * sched.warmup ** -1.5)


# -- optimizer ---------------------------------------------------------


class Adam:
    """Adam with bias correction; the learning rate is supplied per step."""

    beta1, beta2, eps = 0.9, 0.98, 1e-9

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in params]
        self.v = [np.zeros_like(p.data) for _, p in params]

    def step(self, lr: float) -> None:
        """One update of every parameter that has a gradient.  All gradients
        are checked first, so a non-finite one raises before any parameter,
        moment or the step count changes."""
        for name, p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericsError(f"non-finite gradient for parameter '{name}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (_, p) in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


# -- training loop -----------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_aucs: list  # per task, None where undefined


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopped_early: bool = False

    def to_csv(self, path) -> None:
        """Columns: epoch, train_loss, val_loss, then auc_task_<j> per
        task; undefined AUCs are empty fields.  The file is replaced
        atomically."""
        n_tasks = len(self.epochs[0].val_aucs) if self.epochs else 0
        write_table(path,
                    ["epoch", "train_loss", "val_loss"]
                    + [f"auc_task_{j}" for j in range(n_tasks)],
                    ([rec.epoch, rec.train_loss, rec.val_loss, *rec.val_aucs]
                     for rec in self.epochs))


def _split_loss(model: SstModel, batch: Batch, tw: TaskWeights, raw: np.ndarray) -> float:
    with T.no_grad():
        loss = weighted_multitask_loss(
            raw, batch.labels, batch.label_mask, tw,
            model.config.uncertainty_weighting,
        )
    return loss.item()


def evaluate_loss(model: SstModel, batch: Batch, tw: TaskWeights) -> float:
    """Objective on a split in inference mode, without the L2 term and
    without a tape, computed once on the raw scores of ``SstModel.infer``."""
    return _split_loss(model, batch, tw, model.infer(batch.x, batch.pad_mask.data))


def evaluate_aucs(model: SstModel, batch: Batch):
    probas = model.predict_proba(batch.x, batch.pad_mask.data)
    return M.task_aucs(probas.data, batch.labels.data, batch.label_mask.data)


def _validate(model: SstModel, batch: Batch, tw: TaskWeights):
    """``evaluate_loss`` and ``evaluate_aucs`` from one shared run of
    ``SstModel.infer``."""
    raw = model.infer(batch.x, batch.pad_mask.data)
    probas = pair_probabilities(raw)
    return (_split_loss(model, batch, tw, raw),
            M.task_aucs(probas, batch.labels.data, batch.label_mask.data))


def fit(model: SstModel, train: Batch, val: Batch, *,
        epochs_max: int | None = None, patience: int = 100,
        task_weights: TaskWeights | None = None) -> TrainReport:
    """Train until validation loss stops improving for `patience` epochs
    (or `epochs_max`), then restore the best snapshot.

    Deterministic for a fixed config/seed/data: shuffling, dropout, and
    initialization all derive from config.seed.
    """
    cfg = model.config
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation splits must be non-empty")
    if epochs_max is not None and epochs_max <= 0:
        return TrainReport()

    if task_weights is None:
        counts = label_counts(train.labels.data, train.label_mask.data)
        task_weights = TaskWeights.from_counts(counts, cfg.n_tasks)
    tw = task_weights

    rng = np.random.default_rng([cfg.seed, 1])
    sched = LrSchedule(cfg.lr_factor, cfg.dmodel, cfg.warmup)
    params = list(model.parameters())
    if cfg.uncertainty_weighting:
        params.append(("log_var", tw.log_var))
    adam = Adam(params)
    l2_params = model.l2_parameters()

    report = TrainReport()
    best_snap = None
    since_improved = 0
    step = 0
    epoch = 0
    n = train.n_samples

    while epochs_max is None or epoch < epochs_max:
        epoch += 1
        perm = rng.permutation(n)
        epoch_loss = 0.0
        try:
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                xb = Tensor(train.x.data[idx])
                step += 1
                probs = model.forward(xb, train.pad_mask.data[idx],
                                      training=True, rng=rng)
                loss = weighted_multitask_loss(
                    probs, train.labels.data[idx], train.label_mask.data[idx],
                    tw, cfg.uncertainty_weighting, l2_params, cfg.l2_factor,
                )
                adam.zero_grad()
                loss.backward()
                adam.step(learning_rate(sched, step))
                epoch_loss += loss.item() * len(idx)
            val_loss, val_aucs = _validate(model, val, tw)
        except NumericsError as err:
            raise DivergenceError(
                f"training diverged at epoch {epoch}, step {step}: {err}",
                epoch=epoch, step=step, report=report,
            ) from err

        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / n,
            val_loss=val_loss,
            val_aucs=val_aucs,
        )
        report.epochs.append(record)

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_snap = (model.state_arrays(), tw.log_var.data.copy())
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= patience:
                report.stopped_early = True
                break

    if best_snap is not None:
        model.load_state_arrays(best_snap[0])
        tw.log_var.data = best_snap[1]
    return report


# -- grid search -------------------------------------------------------

GRID_ONLY_KEYS = {"epochs_max"}


@dataclass
class GridResult:
    index: int
    values: dict
    mean_val_auc: float
    seconds: float
    error: str = ""
    fingerprint: str = ""  # grid_fingerprint of the run that produced it


def grid_points(value_lists: dict[str, list]) -> list[dict]:
    """Cartesian product in lexicographic order: keys in given order, each
    key's values in given order."""
    if not value_lists:
        raise ValueError("empty grid")
    keys = list(value_lists)
    for key in keys:
        if key not in SstConfig.field_names() and key not in GRID_ONLY_KEYS:
            raise ValueError(f"unknown grid key: {key}")
        if not value_lists[key]:
            raise ValueError(f"grid key {key} has no values")
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists.values())]


def grid_fingerprint(base: SstConfig, train: Batch, val: Batch, *,
                     epochs_max: int | None = None, patience: int = 100) -> str:
    """sha256 over what a grid point's result depends on besides its own
    values: the base config's canonical JSON, the search-wide epoch cap and
    patience, and the shape and bytes of every train and val array."""
    import hashlib  # only grid search needs it; it costs ~5 ms of import time

    h = hashlib.sha256(base.to_json().encode("utf-8"))
    h.update(repr((epochs_max, patience)).encode("utf-8"))
    for batch in (train, val):
        for t in (batch.x, batch.pad_mask, batch.labels, batch.label_mask):
            h.update(repr(t.shape).encode("utf-8"))
            h.update(t.data.tobytes())
    return h.hexdigest()


def derive_point_seed(base_seed: int, index: int) -> int:
    return int(np.random.default_rng([base_seed, 2, index]).integers(0, 2**31))


def grid_search(base: SstConfig, value_lists: dict[str, list],
                train: Batch, val: Batch, *,
                epochs_max: int | None = None, patience: int = 100,
                existing: dict[int, GridResult] | None = None,
                progress=None) -> tuple[SstConfig, list[GridResult]]:
    """Train one model per grid point and pick the best mean validation
    AUC; ties keep the earliest point.  A failed point is recorded with
    its error and the search continues.  An `existing` row (from a previous
    partial run) is reused without retraining only when its stored values
    equal the point at its index and its fingerprint equals this search's
    ``grid_fingerprint``; any other row is retrained.
    """
    points = grid_points(value_lists)
    existing = existing or {}
    fingerprint = grid_fingerprint(base, train, val, epochs_max=epochs_max, patience=patience)
    results: list[GridResult] = []
    for index, point in enumerate(points):
        stored = existing.get(index)
        if stored is not None and stored.values == point and stored.fingerprint == fingerprint:
            results.append(stored)
            continue
        overrides = {k: v for k, v in point.items() if k not in GRID_ONLY_KEYS}
        point_epochs = point.get("epochs_max", epochs_max)
        started = time.monotonic()
        try:
            cfg = replace(base, seed=derive_point_seed(base.seed, index), **overrides)
            model = SstModel(cfg)
            fit(model, train, val, epochs_max=point_epochs, patience=patience)
            aucs = [a for a in evaluate_aucs(model, val) if a is not None]
            mean_auc = float(np.mean(aucs)) if aucs else float("nan")
            results.append(GridResult(index, point, mean_auc,
                                      time.monotonic() - started,
                                      fingerprint=fingerprint))
        except (ValueError, ArithmeticError) as err:
            results.append(GridResult(index, point, float("nan"),
                                      time.monotonic() - started, error=str(err),
                                      fingerprint=fingerprint))
        if progress is not None:
            progress(results[-1])

    best = None
    for res in results:
        if res.error or not np.isfinite(res.mean_val_auc):
            continue
        if best is None or res.mean_val_auc > best.mean_val_auc:
            best = res
    if best is None:
        raise ValueError("every grid point failed; no best configuration")
    best_overrides = {k: v for k, v in best.values.items() if k not in GRID_ONLY_KEYS}
    best_config = replace(base, seed=derive_point_seed(base.seed, best.index),
                          **best_overrides)
    return best_config, results
