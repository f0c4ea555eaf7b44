"""Deterministic synthetic gesture generator.

Stands in for a multi-participant capture session: parametric generators
produce labeled clips for the 7 command gestures plus a Null class of
unintentional movement. Clips are built from a small pose model

    * each finger has a curl in [0, 1] (0 extended, 1 folded into the palm),
    * a spread factor fans the fingers laterally,
    * the thumb can be pinned onto the IndexTip -> IndexBelowTip segment at a
      normalized position u (u = 0 touching the IndexTip),

with per-subject scale/tempo variation and per-frame Gaussian jitter.
Everything is a pure function of its arguments including seeds, so datasets
are reproducible bit for bit. Clip assembly quantizes every stored float to
float32, and clips store their joint positions and orientations as float32
arrays, which halves a dataset's memory and keeps file round trips exact;
whatever computes on them upcasts to float64 first.

Canonical pose constants live in POSES below. They are design values, not
captured human data: gestures are separated by their curl patterns and thumb
placement, never by global hand orientation (wrist-relative features are
invariant to that). Open and Vertical both extend all five fingers and
differ only in spread: Open fans them wide, Vertical holds them together.

Static clips are 2.0 s (144 frames at 72 Hz), the dynamic Swipe is 5.0 s
(360 frames): a short neutral lead-in, a transition into the canonical pose,
then a hold, or for Swipe a thumb sweep 0% -> 100% -> 0% along the index
finger. Swipe frames get automatic sub-state labels 0-3 by quantizing the
thumb's projected position into equal quarters; every other gesture carries
the single sub-state 4.

Clips are array-backed for speed: a single vectorized pass per clip.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

import numpy as np

from . import quat
from .skeleton import (
    INDEX_BELOW,
    INDEX_TIP,
    NUM_JOINTS,
    THUMB_TIP,
    Handedness,
)

FRAME_RATE = 72.0
STATIC_SECONDS = 2.0
SWIPE_SECONDS = 5.0
STATIC_FRAMES = int(STATIC_SECONDS * FRAME_RATE)  # 144
SWIPE_FRAMES = int(SWIPE_SECONDS * FRAME_RATE)  # 360

PINCH_CONTACT_M = 0.015  # thumb-index distance counted as touching


class GestureClass(Enum):
    SCISSOR = "Scissor"
    RING = "Ring"
    SWIPE = "Swipe"
    OPEN = "Open"
    FIST = "Fist"
    VERTICAL = "Vertical"
    PINKY = "Pinky"
    NULL = "Null"


COMMAND_GESTURES = tuple(g for g in GestureClass if g is not GestureClass.NULL)
CLASS_NAMES = tuple(g.value for g in GestureClass)


class SubState(IntEnum):
    NEAR_TIP = 0
    QUARTER = 1
    THREE_QUARTER = 2
    FAR = 3
    NOT_SWIPING = 4


class NullNotSupportedHere(ValueError):
    pass


@dataclass(frozen=True)
class SubjectParams:
    """Per-participant variation knobs for the generators."""

    subject_id: int
    finger_length_scale: float = 1.0
    pose_jitter_std: float = 0.0015
    tempo_scale: float = 1.0

    def __post_init__(self):
        if self.finger_length_scale <= 0 or self.tempo_scale <= 0:
            raise ValueError("scales must be positive")
        if self.pose_jitter_std < 0:
            raise ValueError("jitter std must be >= 0")


@dataclass(frozen=True, eq=False)
class LabeledClip:
    """One labeled recording: per-frame joint arrays plus sub-state labels.

    Every array is a read-only copy of the caller's values. Joint positions
    and orientations are stored as float32 (what ``.mgd`` files hold), the
    timestamps as float64 and the sub-states as uint8.
    """

    gesture: GestureClass
    subject_id: int
    timestamps: np.ndarray  # (N,)
    joint_positions: np.ndarray  # (N, 11, 3)
    joint_orientations: np.ndarray  # (N, 11, 4) unit quaternions (w, x, y, z)
    substates: np.ndarray  # (N,) uint8
    duration: float
    handedness: Handedness = Handedness.RIGHT

    def __post_init__(self):
        ts = _freeze(self.timestamps, np.float64)
        pos = _freeze(self.joint_positions, np.float32)
        ori = _freeze(self.joint_orientations, np.float32)
        sub = _freeze(self.substates, np.uint8)
        n = len(ts)
        if pos.shape != (n, NUM_JOINTS, 3) or ori.shape != (n, NUM_JOINTS, 4) or sub.shape != (n,):
            raise ValueError("inconsistent clip array shapes")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "joint_positions", pos)
        object.__setattr__(self, "joint_orientations", ori)
        object.__setattr__(self, "substates", sub)

    def __len__(self) -> int:
        return len(self.timestamps)


def _freeze(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    clips: tuple[LabeledClip, ...]
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "clips", tuple(self.clips))


# ---------------------------------------------------------------------------
# Pose model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseParams:
    """Low-dimensional hand pose: curls per finger, lateral spread, and an
    optional thumb pin onto the index segment (weight 0 releases the pin)."""

    curls: tuple[float, float, float, float, float]
    spread: float = 1.0
    thumb_u: float = 0.0
    thumb_w: float = 0.0


POSES: dict[str, PoseParams] = {
    "rest": PoseParams(curls=(0.40, 0.35, 0.35, 0.35, 0.35)),
    "open": PoseParams(curls=(0.00, 0.00, 0.00, 0.00, 0.00), spread=1.6),
    "fist": PoseParams(curls=(0.90, 1.00, 1.00, 1.00, 1.00), spread=0.9),
    "vertical": PoseParams(curls=(0.05, 0.00, 0.00, 0.00, 0.00), spread=0.25),
    "scissor": PoseParams(curls=(0.85, 0.05, 0.05, 1.00, 1.00), spread=2.2),
    "ring": PoseParams(curls=(0.30, 0.25, 0.05, 0.05, 0.05), spread=1.3, thumb_u=0.0, thumb_w=1.0),
    "pinky": PoseParams(curls=(0.80, 1.00, 1.00, 1.00, 0.00)),
    "swipe": PoseParams(curls=(0.25, 0.15, 0.55, 0.60, 0.60), thumb_u=0.0, thumb_w=1.0),
    "pinch": PoseParams(curls=(0.45, 0.40, 0.45, 0.45, 0.45), thumb_u=0.0, thumb_w=1.0),
    "thumb_up": PoseParams(curls=(0.00, 1.00, 1.00, 1.00, 1.00), spread=0.9),
    "spread_four": PoseParams(curls=(0.30, 0.00, 0.00, 0.00, 0.00), spread=1.6),
}

STATIC_POSE_BY_GESTURE = {
    GestureClass.SCISSOR: "scissor",
    GestureClass.RING: "ring",
    GestureClass.OPEN: "open",
    GestureClass.FIST: "fist",
    GestureClass.VERTICAL: "vertical",
    GestureClass.PINKY: "pinky",
}

# wrist-local hand geometry (right hand): x lateral toward the thumb,
# y dorsal, z along the fingers; units are meters
_PALM_CENTER = np.array([0.0, 0.0, 0.040])
_FINGER_DIRS = np.array(
    [
        [0.80, -0.05, 0.45],  # thumb
        [0.20, 0.02, 0.98],  # index
        [-0.02, 0.03, 1.00],  # middle
        [-0.16, 0.02, 0.99],  # ring
        [-0.33, 0.00, 0.94],  # pinky
    ]
)
_FINGER_LEN = np.array([0.072, 0.080, 0.086, 0.080, 0.068])
_FOLD_SHRINK = 0.10
_FOLD_DROP = np.array([0.0, -0.012, 0.004])
_BELOW_FRAC = 0.60
_BELOW_RISE = 0.012
_FLEX_AXES = np.cross(np.array([0.0, 1.0, 0.0]), _FINGER_DIRS)
_FLEX_AXES /= np.linalg.norm(_FLEX_AXES, axis=1, keepdims=True)


@dataclass(frozen=True)
class PoseTrack:
    """Per-frame pose parameter arrays for one clip segment."""

    curls: np.ndarray  # (N, 5)
    spread: np.ndarray  # (N,)
    thumb_u: np.ndarray  # (N,)
    thumb_w: np.ndarray  # (N,)

    @staticmethod
    def constant(pose: PoseParams, n: int) -> "PoseTrack":
        return PoseTrack(
            curls=np.tile(np.asarray(pose.curls), (n, 1)),
            spread=np.full(n, pose.spread),
            thumb_u=np.full(n, pose.thumb_u),
            thumb_w=np.full(n, pose.thumb_w),
        )

    @staticmethod
    def blend(a: PoseParams, b: PoseParams, alphas: np.ndarray) -> "PoseTrack":
        al = np.asarray(alphas)[:, None]
        return PoseTrack(
            curls=(1.0 - al) * np.asarray(a.curls) + al * np.asarray(b.curls),
            spread=(1.0 - alphas) * a.spread + alphas * b.spread,
            thumb_u=(1.0 - alphas) * a.thumb_u + alphas * b.thumb_u,
            thumb_w=(1.0 - alphas) * a.thumb_w + alphas * b.thumb_w,
        )

    @staticmethod
    def concat(tracks: list["PoseTrack"]) -> "PoseTrack":
        return PoseTrack(
            curls=np.concatenate([t.curls for t in tracks]),
            spread=np.concatenate([t.spread for t in tracks]),
            thumb_u=np.concatenate([t.thumb_u for t in tracks]),
            thumb_w=np.concatenate([t.thumb_w for t in tracks]),
        )


def local_joints(track: PoseTrack, length_scale: float = 1.0) -> np.ndarray:
    """Wrist-local joint positions for every frame of a track, (N, 11, 3)."""
    n = len(track.spread)
    dirs = np.broadcast_to(_FINGER_DIRS, (n, 5, 3)).copy()
    dirs[:, :, 0] *= track.spread[:, None]
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    lengths = _FINGER_LEN * length_scale
    curls = track.curls[:, :, None]

    extended = _PALM_CENTER + dirs * lengths[None, :, None]
    folded = _PALM_CENTER + dirs * (lengths * _FOLD_SHRINK)[None, :, None] + _FOLD_DROP
    tips = extended * (1.0 - curls) + folded * curls
    below = _PALM_CENTER + _BELOW_FRAC * (tips - _PALM_CENTER)
    below[:, :, 1] += _BELOW_RISE * track.curls

    # thumb pin onto the IndexTip -> IndexBelowTip segment
    seg = below[:, 1] - tips[:, 1]
    target = tips[:, 1] + np.clip(track.thumb_u, 0.0, 1.0)[:, None] * seg
    w = track.thumb_w[:, None]
    tips[:, 0] = (1.0 - w) * tips[:, 0] + w * target
    below[:, 0] = _PALM_CENTER + _BELOW_FRAC * (tips[:, 0] - _PALM_CENTER)

    joints = np.zeros((n, NUM_JOINTS, 3))
    joints[:, 1::2] = tips
    joints[:, 2::2] = below
    return joints


def local_orientations(track: PoseTrack) -> np.ndarray:
    """Wrist-local joint orientations, (N, 11, 4): fingers flex about their
    lateral axis proportionally to curl, the wrist row is identity."""
    n = len(track.spread)
    out = np.zeros((n, NUM_JOINTS, 4))
    out[:, :, 0] = 1.0
    for pair, gain in ((1, 1.6), (2, 0.9)):
        half = 0.5 * gain * track.curls  # (N, 5)
        out[:, pair::2, 0] = np.cos(half)
        out[:, pair::2, 1:] = np.sin(half)[:, :, None] * _FLEX_AXES[None, :, :]
    return out


def assemble_clip_arrays(
    track: PoseTrack,
    timestamps: np.ndarray,
    wrist_pos: np.ndarray,
    wrist_quat: np.ndarray,
    subject: SubjectParams,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World-space (timestamps, positions, orientations), float32-quantized:
    the timestamps as float64 values, the joint arrays as float32 arrays.

    wrist_pos is (N, 3) and wrist_quat (N, 4); jitter is applied when an rng
    is supplied (joint position noise plus a small wrist wobble).
    """
    n = len(timestamps)
    pos = local_joints(track, subject.finger_length_scale)
    ori = local_orientations(track)
    wq = np.asarray(wrist_quat, np.float64)
    if rng is not None and subject.pose_jitter_std > 0:
        pos[:, 1:] += rng.normal(0.0, subject.pose_jitter_std, (n, NUM_JOINTS - 1, 3))
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        half = 0.5 * rng.normal(0.0, 0.006, n)
        wobble = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axes], axis=1)
        wq = quat.multiply(wq, wobble)

    world_pos = np.asarray(wrist_pos)[:, None, :] + quat.rotate(wq[:, None, :], pos)
    world_ori = quat.multiply(wq[:, None, :], ori)
    world_ori /= np.linalg.norm(world_ori, axis=2, keepdims=True)
    ts32 = np.asarray(timestamps, np.float64).astype(np.float32).astype(np.float64)
    return ts32, world_pos.astype(np.float32), world_ori.astype(np.float32)


# ---------------------------------------------------------------------------
# Clip generators
# ---------------------------------------------------------------------------

def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _clip_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _global_placement(rng: np.random.Generator, t: np.ndarray):
    """Per-frame wrist world pose: random base placement plus slow drift."""
    base_pos = np.array([0.10, 1.20, 0.35]) + rng.uniform(-0.05, 0.05, 3)
    q = rng.normal(size=4)
    base_quat = q / np.linalg.norm(q)
    drift_amp = rng.uniform(0.002, 0.006)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    drift_axis = rng.normal(size=3)
    drift_axis /= np.linalg.norm(drift_axis)
    drift_rot = rng.uniform(0.01, 0.05)

    pos = base_pos + drift_amp * np.sin(2.0 * np.pi * 0.25 * t[:, None] + drift_phase)
    half = 0.5 * drift_rot * np.sin(0.5 * t)
    rot = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * drift_axis], axis=1)
    return pos, quat.multiply(base_quat, rot)


def _vary_pose(pose: PoseParams, rng: np.random.Generator, curl_std: float = 0.03) -> PoseParams:
    curls = tuple(float(np.clip(c + rng.normal(0.0, curl_std), 0.0, 1.0)) for c in pose.curls)
    return replace(pose, curls=curls, spread=pose.spread * float(1.0 + 0.05 * rng.normal()))


def synth_clip(gesture: GestureClass, subject: SubjectParams, seed: int) -> LabeledClip:
    """Generate one labeled clip for a command gesture.

    Deterministic in (gesture, subject, seed). Null has its own generator.
    """
    if gesture is GestureClass.NULL:
        raise NullNotSupportedHere("use synth_null for the Null class")
    rng = _clip_rng(seed)
    rest = _vary_pose(POSES["rest"], rng)

    if gesture is GestureClass.SWIPE:
        return _synth_swipe(subject, rng, rest)

    n = STATIC_FRAMES
    t = np.arange(n) / FRAME_RATE
    target = _vary_pose(POSES[STATIC_POSE_BY_GESTURE[gesture]], rng)
    n_lead = 14  # shorter than the T = 20 window, so no crop is pure rest
    n_trans = int(round(18.0 / subject.tempo_scale))
    alphas = _smoothstep((np.arange(n) - n_lead) / n_trans)
    track = PoseTrack.blend(rest, target, alphas)
    wrist_pos, wrist_quat = _global_placement(rng, t)
    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    sub = label_substates(gesture, pos)
    return LabeledClip(gesture, subject.subject_id, ts, pos, ori, sub, STATIC_SECONDS)


def _synth_swipe(subject, rng, rest) -> LabeledClip:
    """Thumb sweep 0% -> 100% -> 0% along the index segment over 5 s.

    The thumb sits at the IndexTip (u = 0) during the lead-in, so lead-in
    frames label as sub-state 0 rather than noise.
    """
    n = SWIPE_FRAMES
    t = np.arange(n) / FRAME_RATE
    # the index finger is the rail the thumb slides on; a real rail is a
    # fixed digit, so rep-to-rep curl variation stays small here
    base = _vary_pose(POSES["swipe"], rng, curl_std=0.008)
    t_start = 0.5 + rng.normal(0.0, 0.05)
    t_peak = 2.75 + rng.normal(0.0, 0.08)
    t_end = t[-1]
    u = np.where(
        t <= t_start,
        0.0,
        np.where(
            t <= t_peak,
            (t - t_start) / (t_peak - t_start),
            np.maximum(0.0, 1.0 - (t - t_peak) / (t_end - t_peak)),
        ),
    )
    track = PoseTrack.constant(base, n)
    track = PoseTrack(track.curls, track.spread, thumb_u=u, thumb_w=track.thumb_w)
    wrist_pos, wrist_quat = _global_placement(rng, t)
    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    sub = label_substates(GestureClass.SWIPE, pos)
    return LabeledClip(GestureClass.SWIPE, subject.subject_id, ts, pos, ori, sub, SWIPE_SECONDS)


def synth_null(subject: SubjectParams, seed: int) -> LabeledClip:
    """2 s of non-intentional movement: rest, slow drift, or a brief pinch.

    The mixture is 50% rest / 30% drift / 20% incidental pinch; pinches stay
    under 10 frames of contact, below the online recognizer's persistence
    window, which is exactly the false-positive traffic it must reject.
    """
    rng = _clip_rng(seed)
    variant = rng.choice(["rest", "drift", "pinch"], p=[0.5, 0.3, 0.2])
    rest = _vary_pose(POSES["rest"], rng)
    n = STATIC_FRAMES
    t = np.arange(n) / FRAME_RATE
    wrist_pos, wrist_quat = _global_placement(rng, t)

    if variant == "pinch":
        pinch = _vary_pose(POSES["pinch"], rng)
        start = int(rng.integers(20, n - 30))
        n_blend = 3
        n_hold = int(rng.integers(2, 5))
        j = np.arange(n) - start
        alphas = np.zeros(n)
        rising = (j >= 0) & (j < n_blend)
        holding = (j >= n_blend) & (j < n_blend + n_hold)
        falling = (j >= n_blend + n_hold) & (j < 2 * n_blend + n_hold)
        alphas[rising] = _smoothstep((j[rising] + 1) / n_blend)
        alphas[holding] = 1.0
        alphas[falling] = 1.0 - _smoothstep((j[falling] - n_blend - n_hold + 1) / n_blend)
        track = PoseTrack.blend(rest, pinch, alphas)
    else:
        track = PoseTrack.constant(rest, n)
        if variant == "drift":
            amp = rng.uniform(0.01, 0.02)
            phase = rng.uniform(0, 2 * np.pi, 3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot_amp = rng.uniform(0.08, 0.17)
            wrist_pos = wrist_pos + amp * np.sin(2 * np.pi * 0.4 * t[:, None] + phase)
            half = 0.5 * rot_amp * np.sin(1.2 * t)
            rot = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis], axis=1)
            wrist_quat = quat.multiply(wrist_quat, rot)

    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    sub = np.full(n, SubState.NOT_SWIPING, np.uint8)
    return LabeledClip(GestureClass.NULL, subject.subject_id, ts, pos, ori, sub, STATIC_SECONDS)


def label_substates(gesture: GestureClass, positions: np.ndarray) -> np.ndarray:
    """Per-frame sub-state labels for joint positions of shape (N, 11, 3).

    Swipe: project the thumb tip onto the IndexTip -> IndexBelowTip segment,
    clamp the normalized position u to [0, 1] and quantize into four equal
    half-open bins (u = 1 maps to 3). Every other class labels 4. The
    projection runs in float64 whatever the positions' dtype.
    """
    if gesture is not GestureClass.SWIPE:
        return np.full(len(positions), SubState.NOT_SWIPING, np.uint8)
    positions = np.asarray(positions, np.float64)
    seg = positions[:, INDEX_BELOW] - positions[:, INDEX_TIP]
    rel = positions[:, THUMB_TIP] - positions[:, INDEX_TIP]
    u = np.einsum("nd,nd->n", rel, seg) / np.einsum("nd,nd->n", seg, seg)
    u = np.clip(u, 0.0, 1.0)
    return np.minimum(3, (u * 4.0).astype(np.int64)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def stable_hash(*parts) -> int:
    """64-bit seed derived from a stable string hash of the parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def subjects_for(master_seed: int, n_subjects: int) -> list[SubjectParams]:
    out = []
    for sid in range(n_subjects):
        rng = _clip_rng(stable_hash(master_seed, "subject", sid))
        out.append(
            SubjectParams(
                subject_id=sid,
                finger_length_scale=float(np.clip(1.0 + 0.05 * rng.normal(), 0.8, 1.2)),
                pose_jitter_std=float(0.0015 * rng.uniform(0.8, 1.3)),
                tempo_scale=float(np.clip(1.0 + 0.08 * rng.normal(), 0.75, 1.3)),
            )
        )
    return out


def make_dataset(
    n_subjects: int = 10,
    reps_per_gesture: int = 20,
    null_reps: int = 20,
    seed: int = 0,
) -> Dataset:
    """n_subjects x (7 gestures x reps + null_reps) clips, deterministically.

    Each clip's seed is derived by hashing (master seed, subject, gesture,
    rep), so generation order cannot change content.
    """
    if n_subjects < 1 or reps_per_gesture < 1 or null_reps < 1:
        raise ValueError("all counts must be >= 1")
    subjects = subjects_for(seed, n_subjects)

    clips = []
    for subject in subjects:
        for gesture in COMMAND_GESTURES:
            for rep in range(reps_per_gesture):
                clips.append(synth_clip(gesture, subject, stable_hash(seed, subject.subject_id, gesture.value, rep)))
        for rep in range(null_reps):
            clips.append(synth_null(subject, stable_hash(seed, subject.subject_id, "Null", rep)))
    return Dataset(tuple(clips), master_seed=seed)
