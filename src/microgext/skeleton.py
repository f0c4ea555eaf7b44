"""Hand-skeleton data model and wrist-relative feature extraction.

The tracked hand is reduced to J = 11 joints: every fingertip, the joint
below each fingertip, and the wrist root. The recognition network consumes
windows of T = 20 frames where each joint contributes D = 7 features: its
position and orientation expressed in the wrist frame (3 + 4). Expressing
everything relative to the wrist makes the features invariant to rigid
motion of the whole hand, which the tests assert directly.

A HandFrame is one tracked skeleton: a timestamp, a handedness and two
read-only joint arrays, positions (11, 3) and orientations (11, 4), which
every consumer reads directly. All types are immutable values; operations
are pure functions.
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


@dataclass(frozen=True, eq=False)
class HandFrame:
    """One timestamped pose of all 11 joints of a single hand.

    ``positions`` (11, 3) holds joint positions in meters, tracking space;
    ``orientations`` (11, 4) holds unit quaternions (w, x, y, z). Row order
    is fixed: wrist first, then tip/below-tip pairs per finger (thumb,
    index, middle, ring, pinky). Both arrays are float64 copies of the
    caller's values, stored read-only. Quaternions are validated, not
    renormalized, so 32-bit serialization round-trips bit for bit: every
    norm must already be within 1e-6 of 1.
    """

    timestamp: float
    handedness: Handedness
    positions: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        ori = np.array(self.orientations, dtype=np.float64)
        if pos.shape != (NUM_JOINTS, 3) or ori.shape != (NUM_JOINTS, 4):
            raise ValueError(
                f"expected ({NUM_JOINTS}, 3) positions and ({NUM_JOINTS}, 4) orientations, "
                f"got {pos.shape} and {ori.shape}"
            )
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(ori))):
            raise ValueError("joint positions and orientations must be finite")
        if np.any(np.abs(np.linalg.norm(ori, axis=1) - 1.0) > 1e-6):
            raise ValueError("orientations must be unit quaternions (|norm - 1| <= 1e-6)")
        pos.flags.writeable = False
        ori.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientations", ori)


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
