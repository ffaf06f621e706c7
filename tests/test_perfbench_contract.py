"""The benchmark in perfbench/ calls sst's public functions, layer
constructors and tape; these tests run those calls at a tiny size, so that a
change to sst that would break the benchmark fails here first."""

import dataclasses
import hashlib
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
from sst import SstModel, fit, save_weights  # noqa: E402

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
    full c07 batch records 16 tape nodes."""
    tracer = helpers.Tracer()
    train, val, _ = probes.probe_data(tracer, run)
    _, tape, _, _ = probes.probe_training(tracer, run, train, val)
    assert run.ledger.errors == []
    assert any("reproduces" in note for note in run.notes)
    assert tape[0] == 16


# sha256 of the checkpoint after fit(epochs_max=N, patience=3) on a
# benchmark workload's own data and config at seed 0, with uncertainty
# weighting on and off.  Every change that keeps training bit for bit keeps
# these.  long_seq's batch of 64 at T=48 is the one that runs attention's
# backward in several sample blocks; c07's shape is pinned by
# test_training.py's TestPinnedBits.
WORKLOAD_CHECKPOINT_SHA256 = {
    ("long_seq", 1, True): "2741beb1dd1a26a8e20872817c560a3b71748f824677c4625c35eb4068b3dc7f",
    ("long_seq", 1, False): "81fc510909b812b879af06ef66bfe39847f743bbab28bfa898b37a912e4cc137",
    ("cli_pipeline", 3, True): "ce42f1a6422b06c3b20d27abe5f61a4ed1ea412951e123f74f3d941cba5491c9",
    ("cli_pipeline", 3, False): "eb85dc927bfc0c95568bf7c19eec7579bf9bf5605d26935e38bac1b689c51285",
}


@pytest.mark.parametrize("name,epochs,uncertainty", list(WORKLOAD_CHECKPOINT_SHA256),
                         ids=["-".join(map(str, k)) for k in WORKLOAD_CHECKPOINT_SHA256])
def test_workload_checkpoint_bits(tmp_path, name, epochs, uncertainty):
    wl = workloads.WORKLOADS[name]
    data = wl.synth(0)
    model = SstModel(dataclasses.replace(wl.config(0), uncertainty_weighting=uncertainty))
    fit(model, data.train, data.val, epochs_max=epochs, patience=3)
    save_weights(model, tmp_path / "checkpoint.sst")
    digest = hashlib.sha256((tmp_path / "checkpoint.sst").read_bytes()).hexdigest()
    assert digest == WORKLOAD_CHECKPOINT_SHA256[name, epochs, uncertainty]
