"""Skeleton types and wrist-relative feature extraction against geometric oracles."""

import numpy as np
import pytest

from microgext import quat
from microgext.skeleton import (
    INDEX_TIP,
    JOINT_NAMES,
    NUM_JOINTS,
    T_WINDOW,
    HandFrame,
    Handedness,
    JointPose,
    features_from_arrays,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def make_frame(offsets):
    """Right-hand frame with the wrist at the origin, joints at the given
    offsets, and identity orientations."""
    joints = tuple(JointPose(np.asarray(o, dtype=float), IDENTITY) for o in offsets)
    return HandFrame(0.0, Handedness.RIGHT, joints)


def featurize(frames):
    """Features of a frame sequence, shape (len(frames), J, 7)."""
    return features_from_arrays(
        np.stack([f.positions() for f in frames]), np.stack([f.orientations() for f in frames])
    )


def random_frame(rng, t):
    joints = []
    for _ in range(NUM_JOINTS):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        joints.append(JointPose(rng.normal(0, 0.1, 3), q))
    return HandFrame(t, Handedness.RIGHT, tuple(joints))


class TestTypes:
    def test_joint_pose_validates_quaternion_norm(self):
        with pytest.raises(ValueError):
            JointPose(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_joint_pose_rejects_nonfinite_position(self):
        with pytest.raises(ValueError):
            JointPose(np.array([np.nan, 0, 0]), IDENTITY)

    def test_hand_frame_requires_eleven_joints(self):
        joints = tuple(JointPose(np.zeros(3), IDENTITY) for _ in range(10))
        with pytest.raises(ValueError):
            HandFrame(0.0, Handedness.RIGHT, joints)

    def test_joint_names_fixed_order(self):
        assert JOINT_NAMES[0] == "Wrist"
        assert len(JOINT_NAMES) == 11


class TestExtractFeatures:
    def test_identity_wrist_passthrough(self):
        # wrist at origin, identity orientation; IndexTip at (0.05, 0, 0)
        offsets = [(0, 0, 0)] * NUM_JOINTS
        offsets[INDEX_TIP] = (0.05, 0.0, 0.0)
        frame = make_frame(offsets)
        row = featurize([frame])[0, INDEX_TIP]
        np.testing.assert_allclose(row, [0.05, 0, 0, 1, 0, 0, 0], atol=1e-12)

    def test_joint_coincident_with_wrist(self):
        frame = make_frame([(0, 0, 0)] * NUM_JOINTS)
        feats = featurize([frame])[0]
        for j in range(NUM_JOINTS):
            np.testing.assert_allclose(feats[j], [0, 0, 0, 1, 0, 0, 0], atol=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(42)
        frames = [random_frame(rng, t=i / 72) for i in range(T_WINDOW)]
        base = featurize(frames)

        # oracle: apply one random rigid transform to every joint of every
        # frame, then re-extract
        axis = rng.normal(size=3)
        rot = quat.from_axis_angle(axis, rng.uniform(0.1, 3.0))
        trans = rng.normal(0, 0.5, 3)
        moved = []
        for f in frames:
            joints = tuple(
                JointPose(trans + quat.rotate(rot, j.position), quat.multiply(rot, j.orientation) / np.linalg.norm(quat.multiply(rot, j.orientation)))
                for j in f.joints
            )
            moved.append(HandFrame(f.timestamp, f.handedness, joints))
        transformed = featurize(moved)
        np.testing.assert_allclose(transformed, base, atol=1e-6)

    def test_wrist_row_constant(self):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, t=i / 72) for i in range(T_WINDOW)]
        fw = featurize(frames)
        np.testing.assert_array_equal(fw[:, 0, :], np.tile([0, 0, 0, 1, 0, 0, 0], (T_WINDOW, 1)))

    def test_quaternion_rows_unit_norm(self):
        rng = np.random.default_rng(4)
        frames = [random_frame(rng, t=i / 72) for i in range(T_WINDOW)]
        fw = featurize(frames)
        norms = np.linalg.norm(fw[:, :, 3:], axis=-1)
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_quaternion_sign_canonical(self):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, t=i / 72) for i in range(T_WINDOW)]
        fw = featurize(frames)
        assert np.all(fw[:, :, 3] >= 0.0)
