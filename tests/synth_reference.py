"""Reference generator: every clip built alone, one vectorized pass per clip.

Deliberately plain and separate from the production code in
``microgext.synth``, which splits synthesis into per-clip draws and one
component-major pass per chunk of clips. Here each clip makes its draws and
its math together on (..., 4) and (..., 3) arrays, and the quaternion
product and rotation are written out on those arrays. It reads the pose
constants, seeds and labels of the production module, so the two differ
only in how they compute the same values; tests compare them bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from microgext import quat, scenario
from microgext.skeleton import HandFrame, Handedness, NUM_JOINTS
from microgext.synth import (
    _BELOW_FRAC,
    _BELOW_RISE,
    _FINGER_DIRS,
    _FINGER_LEN,
    _FLEX_AXES,
    _FOLD_DROP,
    _FOLD_SHRINK,
    _PALM_CENTER,
    COMMAND_GESTURES,
    FRAME_RATE,
    POSES,
    STATIC_FRAMES,
    STATIC_POSE_BY_GESTURE,
    STATIC_SECONDS,
    SWIPE_FRAMES,
    SWIPE_SECONDS,
    Dataset,
    GestureClass,
    LabeledClip,
    PoseParams,
    PoseTrack,
    SubjectParams,
    SubState,
    label_substates,
    stable_hash,
    subjects_for,
)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b on (..., 4) arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v + 2 (w (u x v) + u x (u x v)) on (..., 4) and (..., 3) arrays."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    c0 = y * v2 - z * v1
    c1 = z * v0 - x * v2
    c2 = x * v1 - y * v0
    return np.stack(
        [
            v0 + 2.0 * (w * c0 + (y * c2 - z * c1)),
            v1 + 2.0 * (w * c1 + (z * c0 - x * c2)),
            v2 + 2.0 * (w * c2 + (x * c1 - y * c0)),
        ],
        axis=-1,
    )


def local_joints(track: PoseTrack, length_scale: float = 1.0) -> np.ndarray:
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
    n = len(track.spread)
    out = np.zeros((n, NUM_JOINTS, 4))
    out[:, :, 0] = 1.0
    for pair, gain in ((1, 1.6), (2, 0.9)):
        half = 0.5 * gain * track.curls
        out[:, pair::2, 0] = np.cos(half)
        out[:, pair::2, 1:] = np.sin(half)[:, :, None] * _FLEX_AXES[None, :, :]
    return out


def assemble_clip_arrays(track, timestamps, wrist_pos, wrist_quat, subject, rng):
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
        wq = multiply(wq, wobble)

    world_pos = np.asarray(wrist_pos)[:, None, :] + rotate(wq[:, None, :], pos)
    world_ori = multiply(wq[:, None, :], ori)
    world_ori /= np.linalg.norm(world_ori, axis=2, keepdims=True)
    ts32 = np.asarray(timestamps, np.float64).astype(np.float32).astype(np.float64)
    return ts32, world_pos.astype(np.float32), world_ori.astype(np.float32)


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smooth(n):
    x = np.linspace(0.0, 1.0, n, endpoint=True)
    return x * x * (3.0 - 2.0 * x)


def _clip_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _global_placement(rng, t):
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
    return pos, multiply(base_quat, rot)


def _vary_pose(pose: PoseParams, rng, curl_std: float = 0.03) -> PoseParams:
    curls = tuple(float(np.clip(c + rng.normal(0.0, curl_std), 0.0, 1.0)) for c in pose.curls)
    return replace(pose, curls=curls, spread=pose.spread * float(1.0 + 0.05 * rng.normal()))


def synth_clip(gesture: GestureClass, subject: SubjectParams, seed: int) -> LabeledClip:
    rng = _clip_rng(seed)
    rest = _vary_pose(POSES["rest"], rng)
    if gesture is GestureClass.SWIPE:
        return _synth_swipe(subject, rng, rest)

    n = STATIC_FRAMES
    t = np.arange(n) / FRAME_RATE
    target = _vary_pose(POSES[STATIC_POSE_BY_GESTURE[gesture]], rng)
    n_lead = 14
    n_trans = int(round(18.0 / subject.tempo_scale))
    alphas = _smoothstep((np.arange(n) - n_lead) / n_trans)
    track = PoseTrack.blend(rest, target, alphas)
    wrist_pos, wrist_quat = _global_placement(rng, t)
    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    sub = label_substates(gesture, pos)
    return LabeledClip(gesture, subject.subject_id, ts, pos, ori, sub, STATIC_SECONDS)


def _synth_swipe(subject, rng, rest) -> LabeledClip:
    n = SWIPE_FRAMES
    t = np.arange(n) / FRAME_RATE
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


def null_variant(seed: int) -> str:
    """The Null variant a seed draws: rest, drift or pinch."""
    return str(_clip_rng(seed).choice(["rest", "drift", "pinch"], p=[0.5, 0.3, 0.2]))


def synth_null(subject: SubjectParams, seed: int) -> LabeledClip:
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
            wrist_quat = multiply(wrist_quat, rot)

    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    sub = np.full(n, SubState.NOT_SWIPING, np.uint8)
    return LabeledClip(GestureClass.NULL, subject.subject_id, ts, pos, ori, sub, STATIC_SECONDS)


def make_dataset(n_subjects: int = 10, reps_per_gesture: int = 20, null_reps: int = 20, seed: int = 0) -> Dataset:
    clips = []
    for subject in subjects_for(seed, n_subjects):
        for gesture in COMMAND_GESTURES:
            for rep in range(reps_per_gesture):
                clips.append(synth_clip(gesture, subject, stable_hash(seed, subject.subject_id, gesture.value, rep)))
        for rep in range(null_reps):
            clips.append(synth_null(subject, stable_hash(seed, subject.subject_id, "Null", rep)))
    return Dataset(tuple(clips), master_seed=seed)


def assemble_scenario(sc, tracks, left_segments, expected):
    """``scenario._assemble`` with this module's per-timeline assembly:
    one call for the right hand, one per left-hand mode-switch segment."""
    subject = sc.subject()
    track = PoseTrack.concat(tracks)
    n = len(track.spread)
    t = np.arange(n) / FRAME_RATE
    rng = np.random.Generator(np.random.PCG64(stable_hash(sc.seed, "scenario-right")))
    wrist_pos = np.tile(scenario._RIGHT_BASE, (n, 1))
    base_q = quat.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.3)
    wrist_quat = np.tile(base_q, (n, 1))
    ts, pos, ori = assemble_clip_arrays(track, t, wrist_pos, wrist_quat, subject, rng)
    right = [HandFrame(float(ts[i]), Handedness.RIGHT, pos[i], ori[i]) for i in range(n)]

    left = []
    lrng = np.random.Generator(np.random.PCG64(stable_hash(sc.seed, "scenario-left")))
    for start_frame, n_menu, n_spread, mode in left_segments:
        target = np.radians(scenario._SECTOR_CENTERS[mode])
        rolls = np.concatenate([target * _smooth(n_menu), np.full(n_spread, target)])
        poses = [POSES["thumb_up"]] * n_menu + [POSES["spread_four"]] * n_spread
        ltrack = PoseTrack.concat([PoseTrack.constant(p, 1) for p in poses])
        lt = (start_frame + np.arange(n_menu + n_spread) + 0.5) / FRAME_RATE
        lq = np.stack([quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), r) for r in rolls])
        lpos = np.tile(scenario._LEFT_BASE, (len(lt), 1))
        lts, lp, lo = assemble_clip_arrays(ltrack, lt, lpos, lq, subject, lrng)
        left.extend(HandFrame(float(lts[i]), Handedness.LEFT, lp[i], lo[i]) for i in range(len(lt)))

    frames = sorted(right + left, key=lambda f: f.timestamp)
    return frames, expected
