"""ROC curves, AUC, and multi-seed report tables.

The curve walks thresholds at every distinct score from high to low; tied
scores collapse into a single vertex, which makes the trapezoidal area
algebraically identical to the Mann-Whitney statistic with ties counted
as half a concordant pair.  Tasks whose evaluated split contains a single
class have no defined curve and surface as an explicit error (or an em
dash in rendered tables), never as a silent 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sst.fileio import write_table


class SingleClassError(ValueError):
    """The evaluated labels contain only one class, so no ROC exists."""


@dataclass
class RocCurve:
    task_id: int
    thresholds: np.ndarray  # descending, starts at +inf
    fpr: np.ndarray
    tpr: np.ndarray
    n_pos: int
    n_neg: int

    @property
    def points(self):
        return list(zip(self.fpr, self.tpr))


def roc_curve(scores, labels, task_id: int = 0) -> RocCurve:
    """ROC vertices for binary labels scored by a real-valued ranking."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal 1-d")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"task {task_id} has only one class in this split "
            f"(pos={n_pos}, neg={n_neg}); no ROC is defined"
        )

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)

    # close each group of tied scores with one vertex
    distinct = np.flatnonzero(np.diff(sorted_scores))
    ends = np.append(distinct, len(scores) - 1)

    tp = np.cumsum(sorted_pos)[ends]
    fp = ends + 1 - tp
    thresholds = np.concatenate([[math.inf], sorted_scores[ends]])
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    return RocCurve(task_id=task_id, thresholds=thresholds, fpr=fpr, tpr=tpr,
                    n_pos=n_pos, n_neg=n_neg)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC polyline."""
    dx = np.diff(curve.fpr)
    mid = (curve.tpr[1:] + curve.tpr[:-1]) / 2.0
    return float(np.sum(dx * mid))


def auc_score(scores, labels, task_id: int = 0) -> float:
    return auc(roc_curve(scores, labels, task_id))


def task_aucs(probas: np.ndarray, labels: np.ndarray, label_mask: np.ndarray):
    """Per-task AUC of positive-head probabilities against measured labels.

    Returns a list with one float per task, or None where the split holds
    a single class.
    """
    probas = np.asarray(probas, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    label_mask = np.asarray(label_mask, dtype=np.float64)
    out = []
    for j in range(probas.shape[1]):
        present = label_mask[:, j] == 1
        y = labels[present, 2 * j + 1].astype(np.int64)
        try:
            out.append(auc_score(probas[present, j], y, task_id=j))
        except SingleClassError:
            out.append(None)
    return out


# -- multi-seed reporting ----------------------------------------------


@dataclass
class ReportRow:
    task_id: int
    mean_auc: float | None
    std_auc: float | None
    n_pos: int
    n_neg: int


def multi_seed_report(per_run_aucs, n_pos, n_neg) -> list[ReportRow]:
    """Aggregate per-task AUCs across runs into mean and sample std.

    Every run must cover the same task set.  Sample std uses the n-1
    denominator; a single run reports std 0.0.  A task undefined (single
    class) in the split is undefined in every run and stays None.
    """
    if not per_run_aucs:
        raise ValueError("no runs to aggregate")
    n_tasks = len(per_run_aucs[0])
    for i, run in enumerate(per_run_aucs):
        if len(run) != n_tasks:
            raise ValueError(
                f"run {i} covers {len(run)} tasks, expected {n_tasks}: mismatched task sets"
            )
    rows = []
    for j in range(n_tasks):
        values = [run[j] for run in per_run_aucs]
        if any(v is None for v in values):
            if not all(v is None for v in values):
                raise ValueError(f"task {j} defined in some runs but not others")
            rows.append(ReportRow(j, None, None, int(n_pos[j]), int(n_neg[j])))
            continue
        if len(set(values)) == 1:
            # identical runs get an exact zero, not summation dust
            mean, std = float(values[0]), 0.0
        else:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1))
        rows.append(ReportRow(j, mean, std, int(n_pos[j]), int(n_neg[j])))
    return rows


def report_to_csv(rows: list[ReportRow], path) -> None:
    """Columns: task_id, mean_auc, std_auc, n_pos, n_neg.  Undefined AUCs
    are written as empty fields.  The file is replaced atomically."""
    write_table(path, ["task_id", "mean_auc", "std_auc", "n_pos", "n_neg"],
                ([r.task_id, r.mean_auc, r.std_auc, r.n_pos, r.n_neg] for r in rows))


def format_report(rows: list[ReportRow]) -> str:
    """Aligned text table; undefined AUCs render as an em dash."""
    lines = [f"{'task':>4}  {'auc (mean ± std)':<22} {'pos':>8} {'neg':>8}"]
    for r in rows:
        if r.mean_auc is None:
            auc_text = "—"
        else:
            auc_text = f"{r.mean_auc:.4f} ± {r.std_auc:.4f}"
        lines.append(f"{r.task_id:>4}  {auc_text:<22} {r.n_pos:>8} {r.n_neg:>8}")
    return "\n".join(lines)


# -- ROC persistence ---------------------------------------------------


def roc_to_csv(curves: list[RocCurve], path) -> None:
    """Columns: task_id, threshold, fpr, tpr; one row per vertex, curves
    concatenated.  The file is replaced atomically."""
    write_table(path, ["task_id", "threshold", "fpr", "tpr"],
                ([c.task_id, t, x, y]
                 for c in curves for t, x, y in zip(c.thresholds, c.fpr, c.tpr)))


def roc_svg(curve: RocCurve) -> str:
    """Self-contained 420-pixel SVG with the ROC polyline and the chance diagonal."""
    size, margin = 420, 40
    span = size - 2 * margin

    def sx(v):
        return margin + v * span

    def sy(v):
        return size - margin - v * span

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(curve.fpr, curve.tpr))
    area = auc(curve)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'  <rect width="{size}" height="{size}" fill="white"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(0):.2f}" '
        f'stroke="black"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(0):.2f}" y2="{sy(1):.2f}" '
        f'stroke="black"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#999" stroke-dasharray="4 4"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        f'  <text x="{size / 2:.0f}" y="{size - 8}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">FPR</text>\n'
        f'  <text x="12" y="{size / 2:.0f}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 12 {size / 2:.0f})">TPR</text>\n'
        f'  <text x="{size - margin}" y="{margin}" text-anchor="end" '
        f'font-family="monospace" font-size="12">task {curve.task_id}  '
        f'AUC {area:.4f}</text>\n'
        f"</svg>\n"
    )
