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

A fold is featurized once. The training clips go, a chunk of clips per
``features_from_arrays`` call, straight into one float32 crop pool; of the
validation clips only the centred windows are featurized, and the caller
that calibrates gets those same windows. Features are per frame, so a
chunk, a window or a whole clip gives every frame the same bits.

Training runs in float32: ``train`` casts the initial parameters once, and
since every array of the network and the losses takes its dtype from the
parameters, the step, Adam and the per-epoch validation loss all run on
float32 tensors. The finished model is handed back in float64, so
calibration, evaluation, checkpoints and streaming run as before.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import losses, network
from .network import HyperParams, ModelParams
from .skeleton import NUM_JOINTS, T_WINDOW, features_from_arrays
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


class CropPool(NamedTuple):
    """Clips as one block of frames, for cropping.

    features (F, J, D) holds every frame of every clip in one contiguous
    buffer and substates (F,) their labels; clip i starts at row
    first_row[i], has class class_index[i] and n_crops[i] = N_i - T + 1
    possible T-frame crops.
    """

    features: np.ndarray
    substates: np.ndarray
    class_index: np.ndarray
    first_row: np.ndarray
    n_crops: np.ndarray


# clips featurized per call: 1,152-2,880 frames, whose float64 temporaries
# stay near the L2 cache and are reused from chunk to chunk
FEATURIZE_CLIPS = 8


def crop_pool(clips: list[LabeledClip], dtype=np.float32) -> CropPool:
    """Featurize the clips, FEATURIZE_CLIPS at a time, into a CropPool
    whose features are ``dtype``: float32 for training, float64 where the
    model reads them as they are."""
    lengths = np.array([len(c) for c in clips])
    first_row = np.cumsum(lengths) - lengths
    features = np.empty((int(lengths.sum()), NUM_JOINTS, network.N_FEATURES), dtype)
    for i in range(0, len(clips), FEATURIZE_CLIPS):
        chunk = clips[i : i + FEATURIZE_CLIPS]
        row = first_row[i]
        pos = np.concatenate([c.joint_positions for c in chunk])
        ori = np.concatenate([c.joint_orientations for c in chunk])
        features[row : row + len(pos)] = features_from_arrays(pos, ori)
    substates = np.concatenate([c.substates for c in clips]).astype(np.int64)
    class_idx = np.array([class_index(c.gesture) for c in clips], dtype=np.int64)
    return CropPool(features, substates, class_idx, first_row, lengths - T_WINDOW + 1)


def center_rows(pool: CropPool) -> np.ndarray:
    """The first pool row of each clip's centred T-frame window."""
    return pool.first_row + (pool.n_crops - 1) // 2


class Windows(NamedTuple):
    """One centred T-frame window per clip: features x (V, T, J, D) in
    float64, classes y_class (V,) and sub-states y_state (V, T)."""

    x: np.ndarray
    y_class: np.ndarray
    y_state: np.ndarray


def validation_windows(clips: list[LabeledClip]) -> Windows:
    """The clips' centred windows, featurizing only their frames."""
    frames = [slice(start, start + T_WINDOW) for start in ((len(c) - T_WINDOW) // 2 for c in clips)]
    x = features_from_arrays(
        np.stack([c.joint_positions[f] for c, f in zip(clips, frames)]),
        np.stack([c.joint_orientations[f] for c, f in zip(clips, frames)]),
    )
    y_class = np.array([class_index(c.gesture) for c in clips], dtype=np.int64)
    return Windows(x, y_class, np.stack([c.substates[f] for c, f in zip(clips, frames)]))


def _epoch_crops(pool: CropPool, rng: np.random.Generator) -> np.ndarray:
    """The first row of one random T-frame crop per clip, from one draw."""
    return pool.first_row + rng.integers(0, pool.n_crops)


def _crop_batch(pool: CropPool, crop_rows: np.ndarray, idx: np.ndarray):
    """(x (B, T, J, D), y_class (B,), y_state (B, T)) of the clips idx."""
    rows = crop_rows[idx, None] + np.arange(T_WINDOW)
    return pool.features[rows], pool.class_index[idx], pool.substates[rows]


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
    """Snap every tensor (and tau) onto the float32 grid, as float64 tensors.

    Checkpoints store 32-bit floats; doing the rounding here makes the
    in-memory model and its saved/restored copy produce bit-identical
    outputs. Training hands its float32 tensors through here, so this
    upcasts them: everything after training runs on float64 parameters.
    """
    tensors = {k: v.astype(np.float32).astype(np.float64) for k, v in params.tensors.items()}
    return ModelParams(params.hp, tensors, tau=float(np.float32(params.tau)))


def train(dataset: Dataset, fold_subject: int, hp: HyperParams):
    """Train one leave-one-subject-out fold.

    Returns (params, log): params are float32-rounded float64 tensors with
    tau = 1 (run calibration afterwards); the log is a list of per-epoch
    dicts.
    """
    train_clips, val_clips, _ = split_fold(dataset, fold_subject)
    return fit(crop_pool(train_clips), validation_windows(val_clips), fold_subject, hp)


def fit(pool: CropPool, val: Windows, fold_subject: int, hp: HyperParams):
    """``train`` on a featurized fold: the training clips' crop pool and
    the validation clips' centred windows."""
    rng = np.random.Generator(np.random.PCG64(stable_hash(hp.master_seed, "train", fold_subject)))
    params = network.init_params(hp, seed=stable_hash(hp.master_seed, "init", fold_subject))
    params = ModelParams(hp, {k: v.astype(np.float32) for k, v in params.tensors.items()})
    opt = Adam(params.tensors)
    n_clips = len(pool.first_row)

    lr = hp.learning_rate
    best_val = np.inf
    epochs_since_improvement = 0
    log = []

    for epoch in range(hp.max_epochs):
        crop_rows = _epoch_crops(pool, rng)
        order = rng.permutation(n_clips)
        epoch_loss, seen = 0.0, 0
        for idx in _batches(n_clips, order):
            x, y_class, y_state = _crop_batch(pool, crop_rows, idx)
            loss, _, grads = network.loss_and_grads(params, x, y_class, y_state)
            tensors = opt.step(params.tensors, grads, lr)
            params = ModelParams(hp, tensors, tau=params.tau)
            epoch_loss += loss * len(idx)
            seen += len(idx)

        val_loss = validation_loss(params, val.x, val.y_class, val.y_state)
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
