"""Frame and clip helpers shared by the tests."""

from __future__ import annotations

import numpy as np

from microgext.skeleton import HandFrame, Handedness, frames_from_arrays
from microgext.synth import LabeledClip, PoseParams, SubjectParams, assemble_clip_arrays, pose_row


def build_frame(
    params: PoseParams,
    timestamp: float,
    wrist_pos: np.ndarray,
    wrist_quat: np.ndarray,
    subject: SubjectParams,
    rng: np.random.Generator | None = None,
    handedness: Handedness = Handedness.RIGHT,
) -> HandFrame:
    """Assemble one world-space frame of a constant pose."""
    ts, pos, ori = assemble_clip_arrays(
        pose_row(params)[:, None],
        np.array([timestamp]),
        np.asarray(wrist_pos)[None, :],
        np.asarray(wrist_quat)[None, :],
        subject,
        rng,
    )
    return HandFrame(float(ts[0]), handedness, pos[0], ori[0])


def clip_frames(clip: LabeledClip) -> list[HandFrame]:
    """The clip's frames in order, built as compiled timelines are."""
    return frames_from_arrays(clip.timestamps, clip.handedness, clip.joint_positions, clip.joint_orientations)


def clips_equal(a: LabeledClip, b: LabeledClip) -> bool:
    """Same labels and bit-identical arrays."""
    return (
        a.gesture is b.gesture
        and a.subject_id == b.subject_id
        and a.handedness is b.handedness
        and a.duration == b.duration
        and np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.joint_positions, b.joint_positions)
        and np.array_equal(a.joint_orientations, b.joint_orientations)
        and np.array_equal(a.substates, b.substates)
    )
