"""The benchmark in perfbench/ calls sst's public functions, layer
constructors and tape; these tests run those calls at a tiny size, so that a
change to sst that would break the benchmark fails here first."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import helpers  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

# c07's model and geometry on 640 samples: one full 256-sample batch and a
# partial one per epoch, and a single traced epoch
TINY_C07 = dataclasses.replace(workloads.WORKLOADS["c07_train"], samples=640,
                               ratios=(512, 64, 64), trace_epochs=1)
LAYERS = ("dense", "attention", "layer_norm", "encoder_block", "pool")


@pytest.fixture()
def run(tmp_path):
    return workloads.Run(workload=TINY_C07, seed=0, seconds=0.0, work=tmp_path,
                         ledger=helpers.Ledger(), import_s=0.0, notes=[])


def test_tensor_and_layer_probes():
    tracer = helpers.Tracer()
    probes.probe_tensor(tracer)
    pad = np.zeros((4, 2))
    pad[1, 1] = 1.0
    probes.probe_layers(tracer, TINY_C07.config(0), pad)
    want = {"tensor.chain_fwd", "tensor.chain_bwd"}
    want |= {f"layers.{layer}.{phase}" for layer in LAYERS for phase in ("fwd", "bwd")}
    assert want <= {span.name for span in tracer.spans}


def test_concat_of_two_splits():
    data = TINY_C07.synth(0)
    both = workloads.concat(data.train, data.val)
    assert both.n_samples == data.train.n_samples + data.val.n_samples
    np.testing.assert_array_equal(
        both.x.data, np.concatenate([data.train.x.data, data.val.x.data]))


def test_traced_training_reproduces_fit(run):
    """The data probe and the traced replica of ``fit``'s loop, which calls
    the loss positionally, Adam, the task weights and both evaluations; a
    full c07 batch records 19 tape nodes."""
    tracer = helpers.Tracer()
    train, val, _ = probes.probe_data(tracer, run)
    _, tape, _, _ = probes.probe_training(tracer, run, train, val)
    assert run.ledger.errors == []
    assert any("reproduces" in note for note in run.notes)
    assert tape[0] == 19
