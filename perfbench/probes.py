"""Traced run: per-layer metrics from spans recorded around calls into the
public functions of sst's modules, at the shapes of the run's workload.

The training probe replays ``fit``'s step loop (forward, loss, zero_grad,
backward, Adam step, then per-epoch evaluation) with the same rng and
learning-rate schedule, one span per call.  It must reproduce ``fit``'s
per-epoch losses bit for bit; otherwise its numbers are not those of
``fit`` and the run reports them as invalid.  The same epochs run untraced
through ``fit`` first, and the difference in wall time is the tracing
overhead.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

from sst import layers as L
from sst import tensor as T
from sst.data import label_counts, load_dataset, save_dataset
from sst.metrics import roc_curve, task_aucs
from sst.model import SstModel, load_weights, save_weights
from sst.npyio import read_npy, write_npy
from sst.tensor import Tensor
from sst.training import (
    Adam,
    LrSchedule,
    TaskWeights,
    evaluate_aucs,
    evaluate_loss,
    fit,
    learning_rate,
    weighted_multitask_loss,
)

from helpers import Tracer
from workloads import Run, cli_config, peak_rss_mb, run_cli

CHAIN = 200         # add ops per chain in the per-node cost probe
PROBE_S = 0.3       # a probe repeats for at least this long ...
MIN_REPS = 5        # ... and at least this many times
STEP_PARTS = ("model.forward", "training.loss", "tensor.backward", "training.adam")


def repeat(fn, budget: float = PROBE_S, min_reps: int = MIN_REPS):
    """Call ``fn`` for at least ``budget`` seconds and ``min_reps`` calls;
    return its last result."""
    started = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - started < budget:
        result = fn()
        reps += 1
    return result


def timed(tracer: Tracer, name: str, fn, **kwargs):
    """``repeat`` with one span named ``name`` around each call."""
    def spanned():
        with tracer.span(name):
            return fn()
    return repeat(spanned, **kwargs)


def tape_of(loss: Tensor) -> tuple[int, int]:
    """Count and output bytes of the op nodes reachable from ``loss``.  sst
    has no public graph walk, so this reads the tape's parent links without
    changing them."""
    seen, stack, nodes, nbytes = set(), [loss], 0, 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op is not None:
            nodes += 1
            nbytes += node.data.nbytes
        stack.extend(node._parents)
    return nodes, nbytes


def probe_tensor(tracer: Tracer) -> None:
    x = Tensor(np.arange(4.0), requires_grad=True)

    def once():
        with tracer.span("tensor.chain_fwd"):
            y = x
            for _ in range(CHAIN):
                y = T.add(y, x)
        loss = T.reduce_sum(y)
        x.grad = None
        with tracer.span("tensor.chain_bwd"):
            loss.backward()

    repeat(once)


def probe_layers(tracer: Tracer, cfg, pad: np.ndarray) -> None:
    """Forward and backward of each layer on one training batch's shape;
    backward runs from a reduce_sum of the layer output."""
    rng = np.random.default_rng(0)
    batch, length = pad.shape
    d = cfg.dmodel
    x = Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)
    drop_rng = np.random.default_rng(1)
    block = L.EncoderBlock(d, cfg.dff, cfg.n_heads, cfg.dropout_rate, rng)
    cases = {
        "dense": (L.DenseLayer(d, cfg.dff, "relu", rng), lambda m: m(x)),
        "attention": (L.MultiHeadAttention(d, cfg.n_heads, rng), lambda m: m(x, pad)),
        "layer_norm": (L.LayerNorm(d), lambda m: m(x)),
        "encoder_block": (block, lambda m: m(x, pad, True, drop_rng)),
        "pool": (None, lambda m: L.global_average_pool(x, pad)),
    }
    for name, (module, forward) in cases.items():
        params = [p for _, p in module.parameters()] if module is not None else []

        def once():
            with tracer.span(f"layers.{name}.fwd"):
                out = forward(module)
            loss = T.reduce_sum(out)
            for p in params + [x]:
                p.grad = None
            with tracer.span(f"layers.{name}.bwd"):
                loss.backward()

        repeat(once)


def probe_data(tracer: Tracer, run: Run):
    wl, seed = run.workload, run.seed
    data_dir = run.work / "probe_data"
    once = dict(budget=0.0, min_reps=3)
    data = timed(tracer, "data.synth", lambda: wl.synth(seed), **once)
    manifest = timed(tracer, "data.save", lambda: save_dataset(
        data, data_dir, m=wl.tasks, seed=wl.data_seed(seed)), **once)
    train, val, _, _ = timed(tracer, "data.load", lambda: load_dataset(manifest), **once)
    run.ledger.check(np.array_equal(train.x.data, data.train.x.data)
                     and np.array_equal(val.labels.data, data.val.labels.data),
                     "loaded dataset differs from the one saved")

    x = train.x.data
    npy = data_dir / "probe.npy"
    timed(tracer, "npyio.write", lambda: write_npy(x, npy))
    back = timed(tracer, "npyio.read", lambda: read_npy(npy).array)
    run.ledger.check(back.tobytes() == x.tobytes(), "NPY round trip not bit-exact")
    return train, val, x.nbytes


def probe_training(tracer: Tracer, run: Run, train, val):
    """``fit``, the traced replica of its loop, then ``fit`` again, each
    from a fresh model for the same epochs.  The first ``fit`` is the
    reference for the fidelity check and warms the allocator, so the
    traced loop is timed against the second."""
    wl = run.workload
    cfg = wl.config(run.seed)
    epochs = wl.trace_epochs

    def untraced():
        started = time.perf_counter()
        report = fit(SstModel(cfg), train, val, epochs_max=epochs, patience=epochs)
        return report, time.perf_counter() - started

    report, _ = untraced()

    model = SstModel(cfg)
    tw = TaskWeights.from_counts(label_counts(train.labels.data, train.label_mask.data),
                                 cfg.n_tasks)
    rng = np.random.default_rng([cfg.seed, 1])
    sched = LrSchedule(cfg.lr_factor, cfg.dmodel, cfg.warmup)
    params = list(model.parameters())
    if cfg.uncertainty_weighting:
        params.append(("log_var", tw.log_var))
    adam = Adam(params)
    l2_params = model.l2_parameters()
    n, size = train.n_samples, cfg.batch_size
    step, tape, records = 0, None, []

    started = time.perf_counter()
    for _ in range(epochs):
        with tracer.span("training.epoch"):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, size):
                idx = perm[start:start + size]
                with tracer.span("training.step"):
                    xb = Tensor(train.x.data[idx])
                    step += 1
                    with tracer.span("model.forward"):
                        probs = model.forward(xb, train.pad_mask.data[idx],
                                              training=True, rng=rng)
                    with tracer.span("training.loss"):
                        loss = weighted_multitask_loss(
                            probs, train.labels.data[idx], train.label_mask.data[idx],
                            tw, cfg.uncertainty_weighting, l2_params, cfg.l2_factor)
                    with tracer.span("training.zero_grad"):
                        adam.zero_grad()
                    with tracer.span("tensor.backward"):
                        loss.backward()
                    with tracer.span("training.adam"):
                        adam.step(learning_rate(sched, step))
                    epoch_loss += loss.item() * len(idx)
                if tape is None and len(idx) == size:
                    tape = tape_of(loss)
            with tracer.span("training.eval"):
                with tracer.span("training.evaluate_loss"):
                    val_loss = evaluate_loss(model, val, tw)
                with tracer.span("training.evaluate_aucs"):
                    aucs = evaluate_aucs(model, val)
            records.append((epoch_loss / n, val_loss, aucs))
    traced_s = time.perf_counter() - started
    _, untraced_s = untraced()

    expected = [(r.train_loss, r.val_loss, r.val_aucs) for r in report.epochs]
    faithful = run.ledger.check(
        records == expected,
        "traced loop does not reproduce fit's losses: per-layer numbers are INVALID")
    run.notes.append(f"fidelity: traced loop {'reproduces' if faithful else 'DIVERGES FROM'} "
                     f"fit's epoch losses bit for bit over {epochs} epochs "
                     f"(epoch-1 train_loss {records[0][0]!r} vs {expected[0][0]!r})")
    return model, tape, untraced_s, traced_s


def probe_model_io(tracer: Tracer, run: Run, model: SstModel) -> None:
    path = run.work / "probe.sst"
    timed(tracer, "model.save_weights", lambda: save_weights(model, path))
    loaded = timed(tracer, "model.load_weights", lambda: load_weights(path))
    same = all(np.array_equal(a.data, b.data) for (_, a), (_, b)
               in zip(model.parameters(), loaded.parameters()))
    run.ledger.check(same, "checkpoint round trip not bit-exact")


def probe_metrics(tracer: Tracer, model: SstModel, split) -> None:
    probas = model.predict_proba(split.x, split.pad_mask).data
    labels, mask = split.labels.data, split.label_mask.data
    present = [mask[:, j] == 1 for j in range(probas.shape[1])]

    def rocs():
        for j, rows in enumerate(present):
            roc_curve(probas[rows, j], labels[rows, 2 * j + 1].astype(np.int64), j)

    timed(tracer, "metrics.task_aucs", lambda: task_aucs(probas, labels, mask))
    timed(tracer, "metrics.roc", rocs)


def probe_cli(tracer: Tracer, run: Run) -> None:
    wl, seed = run.workload, run.seed
    base = run.work / "probe_cli"
    base.mkdir()
    config_path = base / "config.json"
    config_path.write_text(json.dumps(cli_config(wl, seed)))
    argvs = wl.cli_args(seed, base / "data", config_path, base / "run", base / "eval",
                        wl.trace_epochs)
    for argv in argvs:
        with tracer.span(f"cli.{argv[0]}"):
            code = run_cli(argv)
        run.ledger.check(code == 0, f"sst {argv[0]} exited {code}")


def measure(run: Run, spans_path) -> dict:
    """Per-layer metrics of the run's workload, as {name: (value, unit)}."""
    tracer = Tracer()
    probe_tensor(tracer)
    train, val, npy_bytes = probe_data(tracer, run)
    cfg = run.workload.config(run.seed)
    probe_layers(tracer, cfg, train.pad_mask.data[:cfg.batch_size])
    model, tape, untraced_s, traced_s = probe_training(tracer, run, train, val)
    probe_model_io(tracer, run, model)
    probe_metrics(tracer, model, val)
    probe_cli(tracer, run)
    tracer.write(spans_path)

    def ms(name):
        return median(tracer.durations(name)) * 1e3

    def s(name):
        return median(tracer.durations(name))

    parts = sum(ms(p) for p in STEP_PARTS)
    run.notes.append(f"step decomposition: forward + loss + backward + adam = {parts:.3f} ms "
                     f"of {ms('training.step'):.3f} ms per step "
                     f"({len(tracer.durations('training.step'))} steps)")
    run.notes.append(f"spans written to {spans_path} ({len(tracer.spans)} spans); "
                     f"peak rss {peak_rss_mb():.0f} MB")
    metrics = {
        "tensor.op_fwd_us": (ms("tensor.chain_fwd") * 1e3 / CHAIN, "us"),
        "tensor.op_bwd_us": (ms("tensor.chain_bwd") * 1e3 / CHAIN, "us"),
        "tensor.tape_nodes_per_step": (tape[0], "count"),
        "tensor.tape_mb_per_step": (tape[1] / 1e6, "MB"),
        "tensor.backward_ms": (ms("tensor.backward"), "ms"),
    }
    for layer in ("dense", "attention", "layer_norm", "encoder_block", "pool"):
        for phase in ("fwd", "bwd"):
            metrics[f"layers.{layer}.{phase}_ms"] = (ms(f"layers.{layer}.{phase}"), "ms")
    metrics.update({
        "model.forward_ms": (ms("model.forward"), "ms"),
        "model.save_weights_ms": (ms("model.save_weights"), "ms"),
        "model.load_weights_ms": (ms("model.load_weights"), "ms"),
        "training.loss_ms": (ms("training.loss"), "ms"),
        "training.adam_ms": (ms("training.adam"), "ms"),
        "training.step_ms": (ms("training.step"), "ms"),
        "training.eval_ms": (ms("training.eval"), "ms"),
        "data.synth_s": (s("data.synth"), "s"),
        "data.save_s": (s("data.save"), "s"),
        "data.load_s": (s("data.load"), "s"),
        "npyio.write_mb_per_s": (npy_bytes / 1e6 / s("npyio.write"), "MB/s"),
        "npyio.read_mb_per_s": (npy_bytes / 1e6 / s("npyio.read"), "MB/s"),
        "metrics.task_aucs_ms": (ms("metrics.task_aucs"), "ms"),
        "metrics.roc_ms": (ms("metrics.roc"), "ms"),
        "cli.synth_s": (s("cli.synth"), "s"),
        "cli.train_s": (s("cli.train"), "s"),
        "cli.eval_s": (s("cli.eval"), "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    })
    return metrics
