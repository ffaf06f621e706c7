#!/usr/bin/env python3
# ROC curves and the per-task AUC report: compute, aggregate over seeds,
# and export CSV plus a standalone SVG plot.

import tempfile
from pathlib import Path

import numpy as np

from sst.metrics import (auc_score, format_report, multi_seed_report,
                         roc_curve, roc_svg, roc_to_csv, task_aucs)

rng = np.random.default_rng(7)

# scores for 60 samples; positives tend higher but overlap the negatives
labels = (rng.random(60) < 0.3).astype(int)
scores = np.round(rng.normal(loc=labels * 1.2, scale=1.0), 1)  # ties likely

curve = roc_curve(scores, labels, task_id=0)
print("ROC vertices (threshold, fpr, tpr):")
for t, (f, tp) in list(zip(curve.thresholds, curve.points))[:6]:
    print(f"  {t:>6}  {f:.3f}  {tp:.3f}")
print(f"... {len(curve.fpr)} vertices total, AUC = {auc_score(scores, labels):.4f}")

# AUC is exactly the probability a positive outranks a negative (ties half)
pos, neg = scores[labels == 1], scores[labels == 0]
wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
print("pair-counting check:", wins / (len(pos) * len(neg)))

with tempfile.TemporaryDirectory() as tmp:
    roc_csv, roc_svg_path = Path(tmp) / "demo_roc.csv", Path(tmp) / "demo_roc.svg"
    roc_to_csv([curve], roc_csv)
    roc_svg_path.write_text(roc_svg(curve))
    print(f"wrote {roc_csv.name} and {roc_svg_path.name}")

# a report aggregates per-task AUCs over several training runs
per_run = [[0.84, 0.71], [0.86, 0.69], [0.88, 0.73]]
rows = multi_seed_report(per_run, n_pos=[18, 7], n_neg=[42, 53])
print()
print(format_report(rows))

# a task whose split holds a single class has no defined AUC; the report
# shows a dash instead of a number
print("single-class task_aucs:",
      task_aucs(rng.random((10, 1)), np.tile([1.0, 0.0], (10, 1)),
                np.ones((10, 1))))
