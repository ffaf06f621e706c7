"""Training stack: class-weighted multi-task cross-entropy with optional
homoscedastic uncertainty weighting, the warmup/decay learning-rate
schedule, Adam, early stopping with best-weight restore, and grid search.

Loss shape.  For task j and label t (0 negative, 1 positive) the partial
loss is the presence-masked, class-weighted mean negative log-likelihood
over the samples where task j was measured.  With uncertainty weighting
each partial is scaled by exp(-s_jt) and regularized by s_jt/2, where
s = log(sigma^2) is trainable and starts at 0 so both variants coincide
at initialization.  An L2 penalty over dense/projection weights (never
biases or norm gains) is added when l2_factor > 0.  The whole objective,
penalty included, is one ``tensor.multitask_nll`` tape node.
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

    def __init__(self, message: str, epoch: int, step: int, report: TrainReport):
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
    """Scalar training objective over a batch, the L2 penalty included, as
    one ``multitask_nll`` node.

    probs/labels are [B, 2m] with (neg, pos) column pairs; label_mask is
    [B, m].  Each pair of raw sigmoid heads is normalized to a proper
    two-class distribution before the log: without that step the heads are
    independent and the loss is minimized by pushing both to 1, which
    carries no class information.  The op clamps raw values outside
    [PROB_FLOOR, 1 - PROB_FLOOR] = [1e-12, 1-1e-12] to that interval and
    zeroes their gradient; a batch with such a value logs a warning.
    """
    labels, label_mask = (a.data if isinstance(a, Tensor) else a for a in (labels, label_mask))
    total, n_clamped = T.multitask_nll(probs, labels, label_mask, tw.w,
                                       tw.log_var if use_uncertainty else None,
                                       l2_params, l2_factor)
    if n_clamped:
        logger.warning(
            "%d predicted probabilities outside (0,1) clamped to [%g, %g]",
            n_clamped, T.PROB_FLOOR, 1.0 - T.PROB_FLOOR,
        )
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
    """Adam with bias correction; the learning rate is supplied per step.

    The moments ``m`` and ``v`` and the step's scratch arrays are each one
    flat float64 buffer over every parameter in order; ``m[i]`` and ``v[i]``
    are parameter i's views into them."""

    beta1, beta2, eps = 0.9, 0.98, 1e-9

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.params = params
        self.t = 0
        edges = np.cumsum([0] + [p.data.size for _, p in params])
        self._spans = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        # moments, the gathered gradient and scratch for m_hat and v_hat
        self._m, self._v, self._g, self._m_hat, self._v_hat = np.zeros((5, edges[-1]))

    # views made on each read, so a copied Adam's views see its own buffers
    m = property(lambda self: self._views(self._m))
    v = property(lambda self: self._views(self._v))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[s].reshape(p.shape) for s, (_, p) in zip(self._spans, self.params)]

    def step(self, lr: float) -> None:
        """One update of every parameter.  Every parameter must have a
        gradient, and all gradients are checked first, so a missing or
        non-finite one raises before any parameter, moment or the step
        count changes."""
        missing = next((name for name, p in self.params if p.grad is None), None)
        if missing is not None:
            raise ValueError(f"parameter '{missing}' has no gradient")
        m, v, g, m_hat, v_hat = self._m, self._v, self._g, self._m_hat, self._v_hat
        np.concatenate([p.grad for _, p in self.params], axis=None, out=g)
        if not np.isfinite(g).all():
            name = next(name for name, p in self.params if not np.isfinite(p.grad).all())
            raise NumericsError(f"non-finite gradient for parameter '{name}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # p - lr*m_hat / (sqrt(v_hat) + eps), computed in place with the
        # same operations in the same order, so with the same bits
        m *= b1
        m += np.multiply(1.0 - b1, g, out=m_hat)
        v *= b2
        np.multiply(1.0 - b2, g, out=v_hat)
        v_hat *= g
        v += v_hat
        np.divide(m, 1.0 - b1 ** self.t, out=m_hat)
        np.divide(v, 1.0 - b2 ** self.t, out=v_hat)
        m_hat *= lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        for s, (_, p) in zip(self._spans, self.params):
            p.data = p.data - m_hat[s].reshape(p.shape)

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
        return weighted_multitask_loss(raw, batch.labels, batch.label_mask, tw,
                                       model.config.uncertainty_weighting).item()


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
    return (_split_loss(model, batch, tw, raw),
            M.task_aucs(pair_probabilities(raw), batch.labels.data, batch.label_mask.data))


@dataclass
class FitState:
    """What ``fit``'s loop carries between epochs, and nothing derivable:
    the epoch is ``len(report.epochs)``, the step ``adam.t``, and the
    epochs since the best ``len(report.epochs) - report.best_epoch``.
    ``best`` holds the best epoch's parameter arrays and ``log_var``.  A
    ``copy.deepcopy`` of a state continues with the same bits."""

    model: SstModel
    task_weights: TaskWeights
    rng: np.random.Generator
    adam: Adam
    report: TrainReport = field(default_factory=TrainReport)
    best: tuple[list[np.ndarray], np.ndarray] | None = None

    @classmethod
    def start(cls, model: SstModel, train: Batch) -> "FitState":
        """Class weights from ``train``, the rng ``[seed, 1]``, and Adam
        over the parameters with ``log_var`` last if it is trained."""
        cfg, counts = model.config, label_counts(train.labels.data, train.label_mask.data)
        tw = TaskWeights.from_counts(counts, cfg.n_tasks)
        params = list(model.parameters())
        if cfg.uncertainty_weighting:
            params.append(("log_var", tw.log_var))
        return cls(model, tw, np.random.default_rng([cfg.seed, 1]), Adam(params))

    def run_epoch(self, train: Batch, val: Batch) -> EpochRecord:
        """One shuffled pass over ``train``, then validation on ``val``: the
        record goes on the report, and an improved val loss takes ``best``.
        A non-finite value raises ``DivergenceError`` with the report."""
        cfg, report = self.model.config, self.report
        sched = LrSchedule(cfg.lr_factor, cfg.dmodel, cfg.warmup)
        l2_params = self.model.l2_parameters()
        n, epoch = train.n_samples, len(report.epochs) + 1
        last_step = self.adam.t + -(-n // cfg.batch_size)
        perm, epoch_loss = self.rng.permutation(n), 0.0
        try:
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                epoch_loss += self._step(train, idx, sched, l2_params) * len(idx)
            val_loss, val_aucs = _validate(self.model, val, self.task_weights)
        except NumericsError as err:
            # Adam.step raises before counting; validation follows the last step
            step = min(self.adam.t + 1, last_step)
            raise DivergenceError(f"training diverged at epoch {epoch}, step {step}: {err}",
                                  epoch=epoch, step=step, report=report) from err
        record = EpochRecord(epoch, epoch_loss / n, val_loss, val_aucs)
        report.epochs.append(record)
        if val_loss < report.best_val_loss:
            report.best_val_loss, report.best_epoch = val_loss, epoch
            self.best = (self.model.state_arrays(), self.task_weights.log_var.data.copy())
        return record

    def _step(self, train: Batch, idx, sched: LrSchedule, l2_params) -> float:
        # returns a float, so the step's graph dies before the next forward
        cfg = self.model.config
        probs = self.model.forward(Tensor(train.x.data[idx]), train.pad_mask.data[idx],
                                   training=True, rng=self.rng)
        loss = weighted_multitask_loss(probs, train.labels.data[idx], train.label_mask.data[idx],
                                       self.task_weights, cfg.uncertainty_weighting,
                                       l2_params, cfg.l2_factor)
        self.adam.zero_grad()
        loss.backward()
        self.adam.step(learning_rate(sched, self.adam.t + 1))
        return loss.item()

    def restore_best(self) -> None:
        """Put the best epoch's parameters and ``log_var`` back."""
        self.model.load_state_arrays(self.best[0])
        self.task_weights.log_var.data = self.best[1]


def fit(model: SstModel, train: Batch, val: Batch, *,
        epochs_max: int | None = None, patience: int = 100) -> TrainReport:
    """Train until validation loss stops improving for `patience` epochs
    (or `epochs_max`), then restore the best snapshot.  Both must be
    integers of at least 1, and ``epochs_max`` may be None for no cap;
    anything else raises ``ValueError`` naming the argument.  Shuffling,
    dropout and initialization all derive from config.seed.  A caller that
    needs the state between epochs, or ``log_var`` after training, drives
    a ``FitState``, whose ``run_epoch`` is this loop's body."""
    for name, value in (("epochs_max", epochs_max), ("patience", patience)):
        # an epochs_max of None is no cap: patience alone stops training
        if not (type(value) is int and value >= 1 or name == "epochs_max" and value is None):
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    if train.n_samples == 0 or val.n_samples == 0:
        raise ValueError("train and validation splits must be non-empty")

    state = FitState.start(model, train)
    report = state.report
    while not report.stopped_early and (epochs_max is None or len(report.epochs) < epochs_max):
        state.run_epoch(train, val)
        report.stopped_early = len(report.epochs) - report.best_epoch >= patience
    # epoch 1 always improves on inf (every op checks its output is finite)
    state.restore_best()
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
    key's values in given order.  ``seed`` is not a grid key: each point's
    seed derives from the base config's."""
    if not value_lists:
        raise ValueError("empty grid")
    keys = list(value_lists)
    for key in keys:
        if key == "seed":
            raise ValueError("grid key seed: each point's seed derives from the base "
                             "seed; set seed as a scalar")
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
            h.update(t.data)  # a Tensor's data is C-contiguous, so no copy
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
    its error and the search continues; ``fit`` rejects an ``epochs_max``
    that is not an integer of at least 1, which fails its point.  An
    `existing` row (from a previous partial run) is reused without retraining only when its stored values
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
            report = fit(model, train, val, epochs_max=point_epochs, patience=patience)
            # fit restored the best epoch's weights, which scored these AUCs
            best_aucs = report.epochs[report.best_epoch - 1].val_aucs
            aucs = [a for a in best_aucs if a is not None]
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

    # max keeps the first of equal AUCs, so ties keep the earliest point
    best = max((res for res in results if not res.error and np.isfinite(res.mean_val_auc)),
               key=lambda res: res.mean_val_auc, default=None)
    if best is None:
        raise ValueError("every grid point failed; no best configuration")
    best_overrides = {k: v for k, v in best.values.items() if k not in GRID_ONLY_KEYS}
    best_config = replace(base, seed=derive_point_seed(base.seed, best.index),
                          **best_overrides)
    return best_config, results
