#!/usr/bin/env python3
# Train the full model on a synthetic two-task dataset and watch it
# converge.  Takes about half a minute on a laptop CPU.

import tempfile
from pathlib import Path

import numpy as np

from sst.data import synth_dataset
from sst.model import SstConfig, SstModel, load_weights, save_weights
from sst.training import fit

# 700 samples, 2 tasks, 20 raw features, mildly noisy latent rules
data = synth_dataset(m=2, n_samples=700, timesteps=2, n_features=20,
                     separability=4.0, imbalance=0.15, seed=3)
print("train/val/test sizes:",
      data.train.n_samples, data.val.n_samples, data.test.n_samples)

# n_features is 21 here: one indicator column marks padded steps
cfg = SstConfig(n_features=21, max_timesteps=data.timesteps, n_tasks=2,
                n_layers=2, dmodel=32, dff=32, n_heads=2, dropout_rate=0.1,
                lr_factor=0.5, batch_size=128, warmup=500,
                uncertainty_weighting=True, seed=0)
model = SstModel(cfg)

report = fit(model, data.train, data.val, epochs_max=60, patience=100)

for rec in report.epochs[::10]:
    aucs = ", ".join(f"{a:.3f}" if a is not None else "-" for a in rec.val_aucs)
    print(f"epoch {rec.epoch:3d}  train loss {rec.train_loss:.4f}  "
          f"val loss {rec.val_loss:.4f}  val AUC [{aucs}]")
print("best epoch:", report.best_epoch, " stopped early:", report.stopped_early)

# weights are restored to the best epoch; persist and reload them
with tempfile.TemporaryDirectory() as tmp:
    checkpoint = Path(tmp) / "demo_checkpoint.sst"
    save_weights(model, checkpoint)
    clone = load_weights(checkpoint)
same = all(np.array_equal(a, b) for a, b in zip(model.state_arrays(),
                                                clone.state_arrays()))
print("checkpoint round trip exact:", same)

probas = clone.predict_proba(data.test.x, data.test.pad_mask)
print("test-split positive probabilities, first 5 samples:")
print(np.round(probas.data[:5], 3))
