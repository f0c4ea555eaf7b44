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

Synthesis runs in two phases. First each clip makes only its seeded random
draws from its own generator, in a fixed order: a Null clip's variant, the
varied rest and gesture poses, the swipe timing, the wrist placement and
drift, a Null clip's pinch or drift extras, then the jitter arrays. That
order is part of the data: moving one draw changes every clip. Then one pass per chunk of SYNTH_CLIPS clips does all the
math over the chunk's concatenated frames: pose blends, the swipe sweep,
wrist placement and drift, jitter and wobble, local joints and
orientations, the world transform, normalization and the float32 cast. The
pass works on contiguous per-component planes, (3, ..., n) and
(4, ..., n) with frames last. No element's arithmetic reads another
frame's, so a clip's bytes do not depend on its chunk. ``synth_clips``
builds any list of clips this way, and ``make_dataset`` calls it once per
chunk. A scenario timeline goes through ``assemble_clip_arrays``, which
runs the same world transform on the timeline's (8, n) pose plane.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from . import quat
from .skeleton import (
    INDEX_BELOW,
    INDEX_TIP,
    NUM_JOINTS,
    THUMB_TIP,
    Handedness,
    _read_only_copy,
)

FRAME_RATE = 72.0
STATIC_SECONDS = 2.0
SWIPE_SECONDS = 5.0
STATIC_FRAMES = int(STATIC_SECONDS * FRAME_RATE)  # 144
SWIPE_FRAMES = int(SWIPE_SECONDS * FRAME_RATE)  # 360

PINCH_CONTACT_M = 0.015  # thumb-index distance counted as touching
# clips per synthesis pass: 16 swipes are 5,760 frames, whose float64 joint
# and orientation planes take about 3.5 MB together
SYNTH_CLIPS = 16


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
        ts = _read_only_copy(self.timestamps)
        pos = _read_only_copy(self.joint_positions, np.float32)
        ori = _read_only_copy(self.joint_orientations, np.float32)
        sub = _read_only_copy(self.substates, np.uint8)
        n = len(ts)
        if pos.shape != (n, NUM_JOINTS, 3) or ori.shape != (n, NUM_JOINTS, 4) or sub.shape != (n,):
            raise ValueError("inconsistent clip array shapes")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "joint_positions", pos)
        object.__setattr__(self, "joint_orientations", ori)
        object.__setattr__(self, "substates", sub)

    def __len__(self) -> int:
        return len(self.timestamps)


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


def pose_row(pose: PoseParams) -> np.ndarray:
    """The pose as one row: five curls, spread, thumb_u, thumb_w. A pose
    plane (8, n) holds one such row per frame, as a column."""
    return np.array([*pose.curls, pose.spread, pose.thumb_u, pose.thumb_w])


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


def _world_frames(pose, scale, wrist_pos, wrist_quat, jitter):
    """World-space joints of n frames given as component planes: float64
    positions (3, 11, n) and unit orientations (4, 11, n).

    pose is (8, n): five curl rows, then spread, thumb_u and thumb_w. scale
    is the finger length scale, per frame (n,) or one float. wrist_pos is
    (3, n), wrist_quat (4, n). jitter is None or (rows, noise, axes, angles):
    the frames it applies to (a slice or an index array) and their
    concatenated draws from ``_draw_jitter``. Each element's arithmetic
    reads only its own frame, in a fixed order, so a frame's result does not
    depend on which frames share the call.
    """
    curls, spread, thumb_u, thumb_w = pose[:5], pose[5], pose[6], pose[7]
    n = spread.shape[0]

    # finger tips and below-tip joints, (3, 5, n): fingers fan out by spread
    # and fold toward the palm by curl
    dirs = np.empty((3, 5, n))
    for d in range(3):
        dirs[d] = _FINGER_DIRS[:, d, None]
    dirs[0] *= spread
    dirs /= np.sqrt(dirs[0] * dirs[0] + dirs[1] * dirs[1] + dirs[2] * dirs[2])
    lengths = _FINGER_LEN[:, None] * scale
    palm = _PALM_CENTER[:, None, None]
    extended = palm + dirs * lengths
    folded = palm + dirs * (lengths * _FOLD_SHRINK) + _FOLD_DROP[:, None, None]
    tips = extended * (1.0 - curls) + folded * curls
    below = palm + _BELOW_FRAC * (tips - palm)
    below[1] += _BELOW_RISE * curls

    # thumb pin onto the IndexTip -> IndexBelowTip segment
    seg = below[:, 1] - tips[:, 1]
    target = tips[:, 1] + np.clip(thumb_u, 0.0, 1.0) * seg
    tips[:, 0] = (1.0 - thumb_w) * tips[:, 0] + thumb_w * target
    below[:, 0] = palm[:, 0] + _BELOW_FRAC * (tips[:, 0] - palm[:, 0])

    joints = np.zeros((3, NUM_JOINTS, n))
    joints[:, 1::2] = tips
    joints[:, 2::2] = below

    # fingers flex about their lateral axis in proportion to curl; the
    # wrist row stays identity
    ori = np.zeros((4, NUM_JOINTS, n))
    ori[0] = 1.0
    for pair, gain in ((1, 1.6), (2, 0.9)):
        half = 0.5 * gain * curls
        ori[0, pair::2] = np.cos(half)
        ori[1:, pair::2] = np.sin(half) * _FLEX_AXES.T[:, :, None]

    wq = np.array(wrist_quat, dtype=np.float64)
    if jitter is not None:
        rows, noise, axes, angles = jitter
        joints[:, 1:, rows] += noise.transpose(2, 1, 0)
        a0, a1, a2 = axes.T
        norm = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
        half = 0.5 * angles
        wobble = (np.cos(half), *(np.sin(half) * (axes.T / norm)))
        wq[:, rows] = quat.multiply_components(wq[:, rows], wobble)

    rotated = quat.rotate_components(wq, joints)
    world_pos = np.stack([wrist_pos[d] + rotated[d] for d in range(3)])
    world_ori = np.stack(quat.multiply_components(wq, ori))
    o0, o1, o2, o3 = world_ori
    world_ori /= np.sqrt(o0 * o0 + o1 * o1 + o2 * o2 + o3 * o3)
    return world_pos, world_ori


def _float32_rows(planes: np.ndarray) -> np.ndarray:
    """(c, 11, n) float64 component planes as a C-ordered (n, 11, c) float32 array."""
    return planes.T.astype(np.float32, order="C")


def _draw_jitter(rng: np.random.Generator | None, n: int, std: float):
    """One timeline's jitter draws, in order: joint position noise (n, 10, 3),
    wobble axes (n, 3) and wobble angles (n,); None without an rng or std."""
    if rng is None or std <= 0:
        return None
    noise = rng.normal(0.0, std, (n, NUM_JOINTS - 1, 3))
    axes = rng.normal(size=(n, 3))
    return noise, axes, rng.normal(0.0, 0.006, n)


def _quantized(timestamps: np.ndarray) -> np.ndarray:
    """Timestamps rounded to float32 values, held as float64."""
    return np.asarray(timestamps, np.float64).astype(np.float32).astype(np.float64)


def assemble_clip_arrays(
    pose: np.ndarray,
    timestamps: np.ndarray,
    wrist_pos: np.ndarray,
    wrist_quat: np.ndarray,
    subject: SubjectParams,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World-space (timestamps, positions, orientations) of one timeline,
    float32-quantized: the timestamps as float64 values, the joint arrays as
    float32 arrays.

    pose is the (8, N) pose plane of ``_world_frames``, wrist_pos is (N, 3)
    and wrist_quat (N, 4); jitter is drawn and applied when an rng is
    supplied (joint position noise plus a small wrist wobble).
    """
    jitter = _draw_jitter(rng, len(timestamps), subject.pose_jitter_std)
    pos, ori = _world_frames(
        pose,
        subject.finger_length_scale,
        np.asarray(wrist_pos, np.float64).T,
        np.asarray(wrist_quat, np.float64).T,
        None if jitter is None else (slice(None), *jitter),
    )
    return _quantized(timestamps), _float32_rows(pos), _float32_rows(ori)


# ---------------------------------------------------------------------------
# Clip generators: per-clip draws, then one pass per chunk of clips
# ---------------------------------------------------------------------------

_WRIST_BASE = np.array([0.10, 1.20, 0.35])
_N_LEAD = 14  # static lead-in frames, shorter than the T = 20 window, so no crop is pure rest
_PINCH_BLEND = 3  # frames of each pinch ramp


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _clip_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _vary_pose(pose: PoseParams, rng: np.random.Generator, curl_std: float = 0.03) -> np.ndarray:
    """The pose with jittered curls and spread, as one row: five curls,
    spread, thumb_u, thumb_w."""
    curls = np.clip(np.asarray(pose.curls) + rng.normal(0.0, curl_std, 5), 0.0, 1.0)
    return np.array([*curls, pose.spread * (1.0 + 0.05 * rng.normal()), pose.thumb_u, pose.thumb_w])


def _draw_placement(rng: np.random.Generator) -> np.ndarray:
    """The wrist's random base placement and slow drift, as one row:
    offset (3), unit quaternion (4), drift amplitude, phases (3), unit
    axis (3), rotation amplitude."""
    offset = rng.uniform(-0.05, 0.05, 3)
    q = rng.normal(size=4)
    amp = rng.uniform(0.002, 0.006)
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    axis = rng.normal(size=3)
    rot = rng.uniform(0.01, 0.05)
    return np.concatenate([offset, q / np.linalg.norm(q), [amp], phase, axis / np.linalg.norm(axis), [rot]])


@dataclass(eq=False, slots=True)
class _Draws:
    """One clip's seeded random draws, made in the generator's fixed order.

    The clip's frames blend pose_a into pose_b by a per-frame alpha: a
    static gesture's lead-in ramp (n_trans frames), a Null pinch's brief
    ramp up and down (pinch = start frame, hold frames), or zero. A swipe
    replaces thumb_u by its sweep (sweep = start and peak times), and a Null
    drift adds a second wrist sway (drift = amplitude, phases (3), unit
    axis (3), rotation amplitude).
    """

    gesture: GestureClass
    subject: SubjectParams
    n: int
    duration: float
    pose_a: np.ndarray
    pose_b: np.ndarray
    place: np.ndarray
    jitter: tuple | None = None
    n_trans: int | None = None
    sweep: tuple[float, float] | None = None
    pinch: tuple[int, int] | None = None
    drift: np.ndarray | None = None


def _draw(gesture: GestureClass, subject: SubjectParams, seed: int) -> _Draws:
    """Every random draw of one clip, deterministic in (gesture, subject, seed)."""
    rng = _clip_rng(seed)
    std = subject.pose_jitter_std
    if gesture is GestureClass.NULL:
        return _draw_null(subject, rng)
    rest = _vary_pose(POSES["rest"], rng)
    if gesture is GestureClass.SWIPE:
        n = SWIPE_FRAMES
        # the index finger is the rail the thumb slides on; a real rail is a
        # fixed digit, so rep-to-rep curl variation stays small here
        base = _vary_pose(POSES["swipe"], rng, curl_std=0.008)
        t_start = 0.5 + rng.normal(0.0, 0.05)
        t_peak = 2.75 + rng.normal(0.0, 0.08)
        place = _draw_placement(rng)
        return _Draws(gesture, subject, n, SWIPE_SECONDS, base, base, place, _draw_jitter(rng, n, std),
                      sweep=(t_start, t_peak))
    n = STATIC_FRAMES
    target = _vary_pose(POSES[STATIC_POSE_BY_GESTURE[gesture]], rng)
    place = _draw_placement(rng)
    return _Draws(gesture, subject, n, STATIC_SECONDS, rest, target, place, _draw_jitter(rng, n, std),
                  n_trans=int(round(18.0 / subject.tempo_scale)))


def _draw_null(subject: SubjectParams, rng: np.random.Generator) -> _Draws:
    n = STATIC_FRAMES
    variant = rng.choice(["rest", "drift", "pinch"], p=[0.5, 0.3, 0.2])
    rest = _vary_pose(POSES["rest"], rng)
    place = _draw_placement(rng)
    out = _Draws(GestureClass.NULL, subject, n, STATIC_SECONDS, rest, rest, place)
    if variant == "pinch":
        out.pose_b = _vary_pose(POSES["pinch"], rng)
        start = int(rng.integers(20, n - 30))
        out.pinch = (start, int(rng.integers(2, 5)))
    elif variant == "drift":
        amp = rng.uniform(0.01, 0.02)
        phase = rng.uniform(0, 2 * np.pi, 3)
        axis = rng.normal(size=3)
        out.drift = np.concatenate([[amp], phase, axis / np.linalg.norm(axis), [rng.uniform(0.08, 0.17)]])
    out.jitter = _draw_jitter(rng, n, subject.pose_jitter_std)
    return out


def _sway(pos, q, t, pos_freq, rot_freq, amp, phase, axis, rot):
    """A wrist pose (pos (3, n), q (4, n)) swayed over times t: each position
    axis by amp sin(pos_freq t + phase), the orientation by a turn of
    rot sin(rot_freq t) about a unit axis. Per-clip values are (1, n) or
    (3, n) rows."""
    half = 0.5 * rot[0] * np.sin(rot_freq * t)
    s = np.sin(half)
    turn = (np.cos(half), *(s * axis))
    return pos + amp[0] * np.sin(pos_freq * t + phase), np.array(quat.multiply_components(q, turn))


def _frames_with(draws: list[_Draws], clip: np.ndarray, field: str):
    """The frames of the clips whose ``field`` is set: their rows (every row
    as a slice when all clips have it, else an index array) and each row's
    value of the field, one array per component; None when no clip has it."""
    values = [getattr(d, field) for d in draws]
    has = np.array([v is not None for v in values])
    if not has.any():
        return None
    table = np.array([v for v in values if v is not None])
    if has.all():
        return slice(None), table[clip].T
    rows = np.flatnonzero(has[clip])
    return rows, table[(np.cumsum(has) - 1)[clip[rows]]].T


def _build(draws: list[_Draws]) -> list[LabeledClip]:
    """The clips of one chunk, from one pass over its concatenated frames."""
    counts = np.array([d.n for d in draws])
    ends = np.cumsum(counts)
    clip = np.repeat(np.arange(len(draws)), counts)  # each frame's clip
    j = np.arange(ends[-1]) - (ends - counts)[clip]  # frame index within its clip
    t = j / FRAME_RATE

    # pose blends: alpha is 0 on constant clips, whose pose_b is pose_a
    alpha = np.zeros(len(t))
    if found := _frames_with(draws, clip, "n_trans"):
        r, n_trans = found
        alpha[r] = _smoothstep((j[r] - _N_LEAD) / n_trans)
    if found := _frames_with(draws, clip, "pinch"):
        r, (start, n_hold) = found
        k, m = j[r] - start, _PINCH_BLEND
        a = np.zeros(len(k))
        rising = (k >= 0) & (k < m)
        holding = (k >= m) & (k < m + n_hold)
        falling = (k >= m + n_hold) & (k < 2 * m + n_hold)
        a[rising] = _smoothstep((k[rising] + 1) / m)
        a[holding] = 1.0
        a[falling] = 1.0 - _smoothstep((k[falling] - m - n_hold[falling] + 1) / m)
        alpha[r] = a
    pose_a = np.array([d.pose_a for d in draws]).T[:, clip]
    pose_b = np.array([d.pose_b for d in draws]).T[:, clip]
    pose = (1.0 - alpha) * pose_a + alpha * pose_b

    # swipe: the thumb sweeps 0% -> 100% -> 0% along the index segment
    if found := _frames_with(draws, clip, "sweep"):
        r, (t_start, t_peak) = found
        tr, t_end = t[r], t[ends - 1][clip[r]]
        pose[6, r] = np.where(
            tr <= t_start,
            0.0,
            np.where(
                tr <= t_peak,
                (tr - t_start) / (t_peak - t_start),
                np.maximum(0.0, 1.0 - (tr - t_peak) / (t_end - t_peak)),
            ),
        )

    # wrist world pose: random base placement plus slow drift, and a Null
    # drift clip's larger second sway on top
    place = np.array([d.place for d in draws]).T[:, clip]
    wrist_pos, wrist_quat = _sway(_WRIST_BASE[:, None] + place[0:3], place[3:7], t, 2.0 * np.pi * 0.25, 0.5,
                                  *np.split(place[7:], [1, 4, 7]))
    if found := _frames_with(draws, clip, "drift"):
        r, drift = found
        wrist_pos[:, r], wrist_quat[:, r] = _sway(wrist_pos[:, r], wrist_quat[:, r], t[r], 2 * np.pi * 0.4, 1.2,
                                                  *np.split(drift, [1, 4, 7]))

    jitter = None
    if any(d.jitter for d in draws):
        has = np.array([d.jitter is not None for d in draws])
        rows = slice(None) if has.all() else np.flatnonzero(has[clip])
        jitter = (rows, *(np.concatenate(a) for a in zip(*(d.jitter for d in draws if d.jitter))))
    scale = np.array([d.subject.finger_length_scale for d in draws])[clip]
    # the float64 planes stay alive until every clip holds its copy, so the
    # copies do not take the heap top that the next chunk's planes reuse
    world_pos, world_ori = _world_frames(pose, scale, wrist_pos, wrist_quat, jitter)
    positions, orientations = _float32_rows(world_pos), _float32_rows(world_ori)

    ts = _quantized(t)
    out = []
    for d, end in zip(draws, ends):
        rows = slice(end - d.n, end)
        sub = label_substates(d.gesture, positions[rows])
        out.append(LabeledClip(d.gesture, d.subject.subject_id, ts[rows], positions[rows], orientations[rows], sub,
                               d.duration))
    return out


def synth_clips(specs) -> list[LabeledClip]:
    """The labeled clips of one or more (gesture, subject, seed) specs,
    built in one pass.

    Each clip is deterministic in its own (gesture, subject, seed), whatever
    the other specs are. A static command clip blends from a varied rest
    pose into the gesture's pose after a short lead-in. A swipe sweeps the
    thumb 0% -> 100% -> 0% along the index segment over 5 s; it sits at the
    IndexTip (u = 0) during the lead-in, so lead-in frames label as
    sub-state 0 rather than noise. A Null clip is 2 s of non-intentional
    movement: 50% rest, 30% slow drift and 20% a brief incidental pinch.
    The pinches stay under 10 frames of contact, below the online
    recognizer's persistence window, which is exactly the false-positive
    traffic it must reject.
    """
    draws = [_draw(*spec) for spec in specs]
    return _build(draws) if draws else []


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
    rep), so generation order cannot change content. Clips are drawn one by
    one and built SYNTH_CLIPS at a time.
    """
    if n_subjects < 1 or reps_per_gesture < 1 or null_reps < 1:
        raise ValueError("all counts must be >= 1")
    specs = []
    for subject in subjects_for(seed, n_subjects):
        for gesture in COMMAND_GESTURES:
            for rep in range(reps_per_gesture):
                specs.append((gesture, subject, stable_hash(seed, subject.subject_id, gesture.value, rep)))
        for rep in range(null_reps):
            specs.append((GestureClass.NULL, subject, stable_hash(seed, subject.subject_id, "Null", rep)))

    clips = []
    for i in range(0, len(specs), SYNTH_CLIPS):
        clips += synth_clips(specs[i : i + SYNTH_CLIPS])
    return Dataset(tuple(clips), master_seed=seed)
