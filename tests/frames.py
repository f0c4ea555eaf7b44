"""Single-frame builder shared by the interaction and stream tests."""

from __future__ import annotations

import numpy as np

from microgext.skeleton import NUM_JOINTS, HandFrame, Handedness, JointPose
from microgext.synth import PoseParams, PoseTrack, SubjectParams, assemble_clip_arrays


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
    joints = tuple(JointPose(pos[0, j], ori[0, j]) for j in range(NUM_JOINTS))
    return HandFrame(float(ts[0]), handedness, joints)
