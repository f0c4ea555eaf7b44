"""Hand-skeleton data model and wrist-relative feature extraction.

The tracked hand is reduced to J = 11 joints: every fingertip, the joint
below each fingertip, and the wrist root. The recognition network consumes
windows of T = 20 frames where each joint contributes D = 7 features: its
position and orientation expressed in the wrist frame (3 + 4). Expressing
everything relative to the wrist makes the features invariant to rigid
motion of the whole hand, which the tests assert directly.

All types are immutable values; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quat

T_WINDOW = 20
NUM_JOINTS = 11

JOINT_NAMES = (
    "Wrist",
    "ThumbTip",
    "ThumbBelowTip",
    "IndexTip",
    "IndexBelowTip",
    "MiddleTip",
    "MiddleBelowTip",
    "RingTip",
    "RingBelowTip",
    "PinkyTip",
    "PinkyBelowTip",
)

WRIST = 0
THUMB_TIP = 1
THUMB_BELOW = 2
INDEX_TIP = 3
INDEX_BELOW = 4
MIDDLE_TIP = 5
MIDDLE_BELOW = 6
RING_TIP = 7
RING_BELOW = 8
PINKY_TIP = 9
PINKY_BELOW = 10


class Handedness(Enum):
    LEFT = "Left"
    RIGHT = "Right"


class MixedHandedness(ValueError):
    pass


@dataclass(frozen=True)
class JointPose:
    """Position (meters, tracking space) and unit orientation of one joint.

    The quaternion is validated, not renormalized: construction keeps the
    caller's exact values so that 32-bit serialization round-trips bit for
    bit. Norm must already be within 1e-6 of 1.
    """

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite 3-vector")
        ori = np.asarray(self.orientation, dtype=np.float64)
        if ori.shape != (4,) or not np.all(np.isfinite(ori)):
            raise ValueError("orientation must be a finite 4-vector")
        if abs(np.linalg.norm(ori) - 1.0) > 1e-6:
            raise ValueError("orientation must be a unit quaternion (|norm - 1| <= 1e-6)")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", ori)


@dataclass(frozen=True)
class HandFrame:
    """One timestamped pose of all 11 joints of a single hand.

    Joint order is fixed: wrist first, then tip/below-tip pairs per finger
    (thumb, index, middle, ring, pinky). The stacked joint arrays are cached
    after the first access; the streaming hot path reads them every frame.
    """

    timestamp: float
    handedness: Handedness
    joints: tuple[JointPose, ...]

    def __post_init__(self):
        if len(self.joints) != NUM_JOINTS:
            raise ValueError(f"expected {NUM_JOINTS} joints, got {len(self.joints)}")
        object.__setattr__(self, "joints", tuple(self.joints))

    def positions(self) -> np.ndarray:
        cached = self.__dict__.get("_positions")
        if cached is None:
            cached = np.stack([j.position for j in self.joints])
            cached.flags.writeable = False
            self.__dict__["_positions"] = cached
        return cached

    def orientations(self) -> np.ndarray:
        cached = self.__dict__.get("_orientations")
        if cached is None:
            cached = np.stack([j.orientation for j in self.joints])
            cached.flags.writeable = False
            self.__dict__["_orientations"] = cached
        return cached


def features_from_arrays(positions: np.ndarray, orientations: np.ndarray) -> np.ndarray:
    """Wrist-relative features for stacked frames, shape (..., J, 7).

    rel_pos = inv(q_wrist) * (p_j - p_wrist), rel_quat = inv(q_wrist) * q_j
    with the quaternion sign canonicalized (w >= 0). The wrist row is
    written exactly rather than computed, so it is bit-stable across inputs.
    Accepts any number of leading frame axes; this is the hot path the
    training pipeline uses to featurize whole clips in one call.
    """
    pos = np.asarray(positions, dtype=np.float64)
    ori = np.asarray(orientations, dtype=np.float64)
    q_w = ori[..., WRIST, :]
    inv_w = quat.conjugate(q_w)[..., None, :]
    rel_pos = quat.rotate(inv_w, pos - pos[..., WRIST, :][..., None, :])
    rel_quat = quat.sign_normalize(quat.multiply(inv_w, ori))
    out = np.concatenate([rel_pos, rel_quat], axis=-1)
    out[..., WRIST, :] = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return out
