"""Hand-skeleton data model and wrist-relative feature extraction.

The tracked hand is reduced to J = 11 joints: every fingertip, the joint
below each fingertip, and the wrist root. The recognition network consumes
windows of T = 20 frames where each joint contributes D = 7 features: its
position and orientation expressed in the wrist frame (3 + 4). Expressing
everything relative to the wrist makes the features invariant to rigid
motion of the whole hand, which the tests assert directly. Both parts are
linear in a joint's row, so ``features_from_arrays`` featurizes a frame as
one product of its rows with a 7×7 matrix built from the wrist quaternion.

A HandFrame is one tracked skeleton: a timestamp, a handedness and two
read-only joint arrays, positions (11, 3) and orientations (11, 4), which
every consumer reads directly. A frame built alone checks and copies its own
values; ``frames_from_arrays`` builds a whole timeline from stacked arrays,
with one copy and one check under the same rules. All types are immutable
values; operations are pure functions.
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


def _check_frames(timestamps: np.ndarray, handedness, positions: np.ndarray, orientations: np.ndarray) -> None:
    """Raise ValueError unless stacked float64 frames, (n,) timestamps with
    (n, 11, 3) positions and (n, 11, 4) orientations of one hand, are valid
    HandFrames. The one place where the HandFrame rules and their messages
    live, whether a frame is built alone or a whole timeline at once."""
    if not isinstance(handedness, Handedness):
        raise ValueError(f"handedness must be a Handedness, got {handedness!r}")
    if positions.shape[1:] != (NUM_JOINTS, 3) or orientations.shape[1:] != (NUM_JOINTS, 4):
        raise ValueError(
            f"expected ({NUM_JOINTS}, 3) positions and ({NUM_JOINTS}, 4) orientations, "
            f"got {positions.shape[1:]} and {orientations.shape[1:]}"
        )
    if not (timestamps.shape == (len(positions),) == (len(orientations),)):
        raise ValueError(
            f"got {timestamps.shape} timestamps for {len(positions)} positions and {len(orientations)} orientations"
        )
    if not np.all(np.isfinite(timestamps)):
        raise ValueError("timestamps must be finite")
    if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(orientations))):
        raise ValueError("joint positions and orientations must be finite")
    if np.any(np.abs(np.linalg.norm(orientations, axis=-1) - 1.0) > 1e-6):
        raise ValueError("orientations must be unit quaternions (|norm - 1| <= 1e-6)")


def _read_only_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class HandFrame:
    """One timestamped pose of all 11 joints of a single hand.

    ``positions`` (11, 3) holds joint positions in meters, tracking space;
    ``orientations`` (11, 4) holds unit quaternions (w, x, y, z). Row order
    is fixed: wrist first, then tip/below-tip pairs per finger (thumb,
    index, middle, ring, pinky). The timestamp is stored as a finite Python
    float. Both arrays are read-only float64 rows of one copy of the
    caller's values: a frame built alone owns its copy, and the frames of
    ``frames_from_arrays`` share one copy per timeline. Quaternions are
    validated, not renormalized, so 32-bit serialization round-trips bit
    for bit: every norm must already be within 1e-6 of 1.
    """

    timestamp: float
    handedness: Handedness
    positions: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        ts = np.array([self.timestamp], dtype=np.float64)
        pos = _read_only_copy(self.positions)
        ori = _read_only_copy(self.orientations)
        _check_frames(ts, self.handedness, pos[None], ori[None])
        object.__setattr__(self, "timestamp", float(ts[0]))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientations", ori)


def frames_from_arrays(timestamps, handedness: Handedness, positions, orientations) -> list[HandFrame]:
    """One hand's timeline as HandFrames, from (n,) timestamps and stacked
    (n, 11, 3) positions and (n, 11, 4) orientations.

    Makes one read-only float64 copy of each array and checks the whole
    timeline in one pass, under the same rules and messages as a HandFrame
    built alone. Each frame holds read-only row views of those copies, so
    its values equal per-frame construction bit for bit.
    """
    ts = _read_only_copy(timestamps)
    pos = _read_only_copy(positions)
    ori = _read_only_copy(orientations)
    _check_frames(ts, handedness, pos, ori)
    frames = []
    for t, p, o in zip(ts.tolist(), pos, ori):
        frame = object.__new__(HandFrame)  # already checked: skip __post_init__
        object.__setattr__(frame, "timestamp", t)
        object.__setattr__(frame, "handedness", handedness)
        object.__setattr__(frame, "positions", p)
        object.__setattr__(frame, "orientations", o)
        frames.append(frame)
    return frames


def features_from_arrays(positions: np.ndarray, orientations: np.ndarray) -> np.ndarray:
    """Wrist-relative features (..., J, 7) of positions (..., J, 3) and
    orientations (..., J, 4) with equal leading axes; other shapes raise
    ValueError.

    rel_pos = inv(q_wrist) * (p_j - p_wrist) and rel_quat = inv(q_wrist) *
    q_j, sign-canonical (w >= 0). Both are linear in the joint's row, so
    each joint's features are [p_j - p_wrist | q_j] times the frame's 7×7
    ``quat.inverse_map`` of its wrist quaternion, whose non-homogeneous
    rotation entries are the sandwich formula's own algebra: the
    homogeneous ones scale by |q_wrist|², which is not exactly 1 for a
    float32-stored quaternion. The wrist row is written exactly, so it is
    bit-stable across inputs. Every frame takes the same per-frame product,
    so a frame alone equals its row of a chunk or a batch bit for bit; this
    is the one entry point for the stream's frames and training's windows
    and chunks of clips.
    """
    pos = np.asarray(positions, dtype=np.float64)
    ori_shape = np.shape(orientations)
    if pos.shape[-2:] != (NUM_JOINTS, 3) or ori_shape != pos.shape[:-1] + (4,):
        raise ValueError(
            f"expected (..., {NUM_JOINTS}, 3) positions and (..., {NUM_JOINTS}, 4) orientations "
            f"with equal leading axes, got {pos.shape} and {ori_shape}"
        )
    rows = np.empty(ori_shape[:-1] + (7,))
    np.subtract(pos, pos[..., WRIST, None, :], out=rows[..., :3])
    rows[..., 3:] = orientations  # float32 clips make no float64 copy of their own
    out = rows @ quat.inverse_map(rows[..., WRIST, 3:])
    del rows  # before the sign step, which needs a (..., J, 4) temporary
    out[..., 3:] = quat.sign_normalize(out[..., 3:])
    out[..., WRIST, :] = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return out
