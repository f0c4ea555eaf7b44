"""Frame builders shared by the tests."""

from __future__ import annotations

import numpy as np

from microgext.skeleton import HandFrame, Handedness
from microgext.synth import LabeledClip, PoseParams, PoseTrack, SubjectParams, assemble_clip_arrays


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
    track = PoseTrack.constant(params, 1)
    ts, pos, ori = assemble_clip_arrays(
        track,
        np.array([timestamp]),
        np.asarray(wrist_pos)[None, :],
        np.asarray(wrist_quat)[None, :],
        subject,
        rng,
    )
    return HandFrame(float(ts[0]), handedness, pos[0], ori[0])


def clip_frames(clip: LabeledClip):
    """The clip's frames in order, built one at a time."""
    for t, pos, ori in zip(clip.timestamps, clip.joint_positions, clip.joint_orientations):
        yield HandFrame(float(t), clip.handedness, pos, ori)
