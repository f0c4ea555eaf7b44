"""Offline evaluation: class/state confusion matrices and calibration gaps.

Class predictions are window-level (one centered window per clip); state
predictions are frame-level over the same windows. ECE is reported twice,
with tau = 1 and with the checkpoint's fitted tau, over the same windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calibration, network, training
from .network import EVAL_BATCH, N_CLASSES, N_STATES, ModelParams
from .skeleton import T_WINDOW
from .synth import CLASS_NAMES, LabeledClip


@dataclass(frozen=True)
class EvalReport:
    class_confusion: np.ndarray  # (8, 8) counts, rows = true class
    state_confusion: np.ndarray  # (5, 5) counts, rows = true state
    per_class_accuracy: np.ndarray  # (8,)
    macro_accuracy: float
    ece_before: float
    ece_after: float

    def __post_init__(self):
        for name in ("class_confusion", "state_confusion", "per_class_accuracy"):
            a = np.asarray(getattr(self, name))
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _confusion(true: np.ndarray, pred: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (true, pred), 1)
    return out


def _batched(params: ModelParams, features: np.ndarray, starts: np.ndarray, head: str) -> np.ndarray:
    """One head's logits for the T-frame windows of ``features`` that begin
    at ``starts``, gathered and run EVAL_BATCH windows at a time."""
    offsets = np.arange(T_WINDOW)
    out = [
        network.forward_batch(params, features[starts[i : i + EVAL_BATCH, None] + offsets])[head]
        for i in range(0, len(starts), EVAL_BATCH)
    ]
    return np.concatenate(out)


def evaluate(params: ModelParams, clips: list[LabeledClip]) -> EvalReport:
    """Evaluate a trained model on held-out clips.

    Class predictions use one centered window per clip. State predictions
    use windows strided across each whole clip, so every sub-state phase of
    a swipe contributes support (a centered window only sees the phase the
    clip happens to be in at its midpoint). The clips are featurized
    once, into one float64 buffer that both kinds of window read.
    """
    pool = training.crop_pool(clips, np.float64)
    y_class = pool.class_index
    logits = _batched(params, pool.features, training.center_rows(pool), "class_logits")

    # every T/2-th window start of each clip
    starts = np.concatenate(
        [row + np.arange(0, n, T_WINDOW // 2) for row, n in zip(pool.first_row, pool.n_crops)]
    )
    y_state = pool.substates[starts[:, None] + np.arange(T_WINDOW)]
    state_preds = _batched(params, pool.features, starts, "state_logits").argmax(axis=-1)

    class_preds = logits.argmax(axis=-1)
    class_confusion = _confusion(y_class, class_preds, N_CLASSES)
    state_confusion = _confusion(y_state.reshape(-1), state_preds.reshape(-1), N_STATES)

    support = class_confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(support > 0, np.diag(class_confusion) / np.maximum(support, 1), np.nan)
    macro = float(np.nanmean(per_class))

    ece_before = calibration.ece_for_logits(logits, y_class, tau=1.0)
    ece_after = calibration.ece_for_logits(logits, y_class, tau=params.tau)
    return EvalReport(class_confusion, state_confusion, per_class, macro, ece_before, ece_after)


def format_confusion(matrix: np.ndarray, labels) -> str:
    """Human-readable confusion table with row-normalized percentages."""
    width = max(len(str(l)) for l in labels) + 2
    header = " " * width + "".join(f"{l:>{width}}" for l in labels)
    lines = [header]
    for i, row in enumerate(np.asarray(matrix)):
        total = row.sum()
        cells = "".join(
            f"{(100.0 * v / total if total else 0.0):>{width}.1f}" for v in row
        )
        lines.append(f"{labels[i]:>{width}}" + cells)
    return "\n".join(lines)


def render_report(report: EvalReport) -> str:
    state_labels = ["0", "1", "2", "3", "4"]
    acc_lines = "\n".join(
        f"  {name:>10s}: {acc:.4f}" for name, acc in zip(CLASS_NAMES, report.per_class_accuracy)
    )
    return (
        "Class confusion (row-normalized %):\n"
        + format_confusion(report.class_confusion, list(CLASS_NAMES))
        + "\n\nState confusion (row-normalized %):\n"
        + format_confusion(report.state_confusion, state_labels)
        + "\n\nPer-class accuracy:\n"
        + acc_lines
        + f"\n\nMacro accuracy: {report.macro_accuracy:.4f}"
        + f"\nECE before calibration: {report.ece_before:.6f}"
        + f"\nECE after calibration:  {report.ece_after:.6f}\n"
    )
