"""Leave-one-subject-out training with Adam and a reduce-on-plateau schedule.

One fold holds out every clip of a single subject as the test set. From the
remaining subjects, the last ~15% of repetitions per (subject, gesture)
group form the validation split that drives the plateau scheduler and the
post-hoc temperature fit; the rest is the training pool.

Training windows are random contiguous T-frame crops of each clip, resampled
every epoch; validation and evaluation use the centered window. Everything
is seeded, reductions are order-deterministic, and the finished parameters
are rounded onto the float32 grid so a saved checkpoint reproduces the
in-memory model bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import losses, network
from .network import HyperParams, ModelParams
from .skeleton import T_WINDOW, features_from_arrays
from .synth import CLASS_NAMES, Dataset, GestureClass, LabeledClip, stable_hash


class MissingClass(ValueError):
    pass


class EmptyFold(ValueError):
    pass


@dataclass(frozen=True)
class FeaturizedClip:
    """Per-frame features of one clip plus its labels."""

    features: np.ndarray  # (N, J, D)
    substates: np.ndarray  # (N,)
    class_index: int
    subject_id: int


def class_index(gesture: GestureClass) -> int:
    return CLASS_NAMES.index(gesture.value)


def featurize_clip(clip: LabeledClip) -> FeaturizedClip:
    feats = features_from_arrays(clip.joint_positions, clip.joint_orientations)
    return FeaturizedClip(feats, np.asarray(clip.substates), class_index(clip.gesture), clip.subject_id)


def split_fold(dataset: Dataset, fold_subject: int):
    """(train, validation, test) clip lists for one held-out subject; an
    empty test or validation split raises EmptyFold."""
    test = [c for c in dataset.clips if c.subject_id == fold_subject]
    if not test:
        raise EmptyFold(f"no clips for subject {fold_subject}")
    rest = [c for c in dataset.clips if c.subject_id != fold_subject]
    if not rest:
        raise EmptyFold("no training subjects left after holding out the fold")

    groups: dict[tuple[int, GestureClass], list[LabeledClip]] = {}
    for clip in rest:
        groups.setdefault((clip.subject_id, clip.gesture), []).append(clip)

    train, val = [], []
    for key in sorted(groups, key=lambda k: (k[0], k[1].value)):
        clips = groups[key]
        n_val = max(1, round(0.15 * len(clips))) if len(clips) > 1 else 0
        split = len(clips) - n_val
        train.extend(clips[:split])
        val.extend(clips[split:])

    covered = {c.gesture for c in train}
    if covered != set(GestureClass):
        missing = sorted(g.value for g in set(GestureClass) - covered)
        raise MissingClass(f"training fold lacks classes: {missing}")
    if not val:
        raise EmptyFold("no validation clips: every (subject, gesture) group has one repetition")
    return train, val, test


def center_window(fc: FeaturizedClip) -> np.ndarray:
    start = (len(fc.features) - T_WINDOW) // 2
    return fc.features[start : start + T_WINDOW]


def center_states(fc: FeaturizedClip) -> np.ndarray:
    start = (len(fc.substates) - T_WINDOW) // 2
    return fc.substates[start : start + T_WINDOW]


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
BATCH_SIZE = 32
# PLATEAU_PATIENCE epochs without beating the best validation loss by
# PLATEAU_THRESHOLD scale the rate by PLATEAU_FACTOR, down to MIN_LEARNING_RATE
PLATEAU_PATIENCE, PLATEAU_FACTOR, PLATEAU_THRESHOLD, MIN_LEARNING_RATE = 5, 0.5, 1e-4, 1e-5


def _batches(n: int, order=None):
    idx = np.arange(n) if order is None else order
    for i in range(0, n, BATCH_SIZE):
        yield idx[i : i + BATCH_SIZE]


class Adam:
    """Plain Adam with the ADAM_B1, ADAM_B2 and ADAM_EPS constants."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors, grads, lr):
        self.t += 1
        bc1 = 1.0 - ADAM_B1**self.t
        bc2 = 1.0 - ADAM_B2**self.t
        out = {}
        for name, value in tensors.items():
            g = grads[name]
            self.m[name] = ADAM_B1 * self.m[name] + (1.0 - ADAM_B1) * g
            self.v[name] = ADAM_B2 * self.v[name] + (1.0 - ADAM_B2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            out[name] = value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return out


def _epoch_crops(fcs: list[FeaturizedClip], rng: np.random.Generator):
    """One random T-frame crop per clip; returns stacked X, y_class, y_state."""
    xs = np.empty((len(fcs), T_WINDOW) + fcs[0].features.shape[1:])
    y_class = np.empty(len(fcs), dtype=np.int64)
    y_state = np.empty((len(fcs), T_WINDOW), dtype=np.int64)
    for i, fc in enumerate(fcs):
        start = int(rng.integers(0, len(fc.features) - T_WINDOW + 1))
        xs[i] = fc.features[start : start + T_WINDOW]
        y_class[i] = fc.class_index
        y_state[i] = fc.substates[start : start + T_WINDOW]
    return xs, y_class, y_state


def validation_loss(params: ModelParams, x_val, yc_val, ys_val) -> float:
    """Mean total loss over deterministic validation batches."""
    total, count = 0.0, 0
    for idx in _batches(len(x_val)):
        out = network.forward_batch(params, x_val[idx])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", losses.BatchTooSmallForContrastive)
            loss, _, _ = losses.total_loss(
                out["class_logits"], out["state_logits"], out["embedding"],
                yc_val[idx], ys_val[idx],
            )
        total += loss * len(idx)
        count += len(idx)
    return total / count


def round_to_f32(params: ModelParams) -> ModelParams:
    """Snap every tensor (and tau) onto the float32 grid.

    Checkpoints store 32-bit floats; doing the rounding here makes the
    in-memory model and its saved/restored copy produce bit-identical
    outputs.
    """
    tensors = {k: v.astype(np.float32).astype(np.float64) for k, v in params.tensors.items()}
    return ModelParams(params.hp, tensors, tau=float(np.float32(params.tau)))


def train(dataset: Dataset, fold_subject: int, hp: HyperParams):
    """Train one leave-one-subject-out fold.

    Returns (params, log): params are float32-rounded with tau = 1 (run
    calibration afterwards); the log is a list of per-epoch dicts.
    """
    train_clips, val_clips, _ = split_fold(dataset, fold_subject)
    train_fc = [featurize_clip(c) for c in train_clips]
    val_fc = [featurize_clip(c) for c in val_clips]

    x_val = np.stack([center_window(fc) for fc in val_fc])
    yc_val = np.array([fc.class_index for fc in val_fc], dtype=np.int64)
    ys_val = np.stack([center_states(fc) for fc in val_fc])

    rng = np.random.Generator(np.random.PCG64(stable_hash(hp.master_seed, "train", fold_subject)))
    params = network.init_params(hp, seed=stable_hash(hp.master_seed, "init", fold_subject))
    opt = Adam(params.tensors)

    lr = hp.learning_rate
    best_val = np.inf
    epochs_since_improvement = 0
    log = []

    for epoch in range(hp.max_epochs):
        xs, y_class, y_state = _epoch_crops(train_fc, rng)
        order = rng.permutation(len(train_fc))
        epoch_loss, seen = 0.0, 0
        for idx in _batches(len(train_fc), order):
            loss, _, grads = network.loss_and_grads(params, xs[idx], y_class[idx], y_state[idx])
            tensors = opt.step(params.tensors, grads, lr)
            params = ModelParams(hp, tensors, tau=params.tau)
            epoch_loss += loss * len(idx)
            seen += len(idx)

        val_loss = validation_loss(params, x_val, yc_val, ys_val)
        log.append(
            {"epoch": epoch, "train_loss": epoch_loss / seen, "val_loss": val_loss, "lr": lr}
        )

        if val_loss < best_val - PLATEAU_THRESHOLD:
            best_val = val_loss
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement >= PLATEAU_PATIENCE:
                lr = max(lr * PLATEAU_FACTOR, MIN_LEARNING_RATE)
                epochs_since_improvement = 0

    return round_to_f32(params), log
