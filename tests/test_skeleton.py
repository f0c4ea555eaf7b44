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
    features_from_arrays,
    frames_from_arrays,
)

from . import skeleton_reference

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
ORIENTATIONS = np.tile(IDENTITY, (NUM_JOINTS, 1))


def make_frame(offsets):
    """Right-hand frame with the wrist at the origin, joints at the given
    offsets, and identity orientations."""
    return HandFrame(0.0, Handedness.RIGHT, offsets, ORIENTATIONS)


def featurize(frames):
    """Features of a frame sequence, shape (len(frames), J, 7)."""
    return features_from_arrays(
        np.stack([f.positions for f in frames]), np.stack([f.orientations for f in frames])
    )


def random_frame(rng, t):
    pos = np.empty((NUM_JOINTS, 3))
    ori = np.empty((NUM_JOINTS, 4))
    for j in range(NUM_JOINTS):
        q = rng.normal(size=4)
        ori[j] = q / np.linalg.norm(q)
        pos[j] = rng.normal(0, 0.1, 3)
    return HandFrame(t, Handedness.RIGHT, pos, ori)


def random_timeline(rng, n, dtype=np.float64):
    """(n,) timestamps with stacked (n, 11, 3) positions and (n, 11, 4) unit
    quaternions, stored as ``dtype``."""
    ori = rng.normal(size=(n, NUM_JOINTS, 4))
    ori /= np.linalg.norm(ori, axis=-1, keepdims=True)
    return np.arange(n) / 72.0, rng.normal(0, 0.1, (n, NUM_JOINTS, 3)).astype(dtype), ori.astype(dtype)


class TestTypes:
    def test_joint_pose_validates_quaternion_norm(self):
        ori = ORIENTATIONS.copy()
        ori[INDEX_TIP] = (1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            HandFrame(0.0, Handedness.RIGHT, np.zeros((NUM_JOINTS, 3)), ori)

    def test_joint_pose_rejects_nonfinite_position(self):
        pos = np.zeros((NUM_JOINTS, 3))
        pos[INDEX_TIP, 0] = np.nan
        with pytest.raises(ValueError):
            HandFrame(0.0, Handedness.RIGHT, pos, ORIENTATIONS)

    def test_hand_frame_requires_eleven_joints(self):
        with pytest.raises(ValueError):
            HandFrame(0.0, Handedness.RIGHT, np.zeros((10, 3)), ORIENTATIONS[:10])

    def test_hand_frame_owns_read_only_copies(self):
        pos = np.zeros((NUM_JOINTS, 3))
        ori = ORIENTATIONS.copy()
        frame = HandFrame(0.0, Handedness.RIGHT, pos, ori)
        pos[INDEX_TIP] = 1.0
        ori[INDEX_TIP] = (0.0, 1.0, 0.0, 0.0)
        np.testing.assert_array_equal(frame.positions, np.zeros((NUM_JOINTS, 3)))
        np.testing.assert_array_equal(frame.orientations, ORIENTATIONS)
        with pytest.raises(ValueError):
            frame.positions[INDEX_TIP] = 1.0

    @pytest.mark.parametrize("timestamp", [np.nan, np.inf, -np.inf])
    def test_hand_frame_rejects_nonfinite_timestamp(self, timestamp):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            HandFrame(timestamp, Handedness.RIGHT, np.zeros((NUM_JOINTS, 3)), ORIENTATIONS)

    def test_hand_frame_rejects_handedness_not_an_enum(self):
        with pytest.raises(ValueError, match="handedness must be a Handedness"):
            HandFrame(0.0, "Right", np.zeros((NUM_JOINTS, 3)), ORIENTATIONS)

    def test_joint_names_fixed_order(self):
        assert JOINT_NAMES[0] == "Wrist"
        assert len(JOINT_NAMES) == 11


class TestFramesFromArrays:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_per_frame_construction(self, dtype):
        ts, pos, ori = random_timeline(np.random.default_rng(6), 30, dtype)
        bulk = frames_from_arrays(ts, Handedness.LEFT, pos, ori)
        assert len(bulk) == len(ts)
        for frame, t, p, o in zip(bulk, ts, pos, ori):
            alone = HandFrame(float(t), Handedness.LEFT, p, o)
            assert type(frame.timestamp) is float and frame.timestamp == alone.timestamp
            assert frame.handedness is alone.handedness
            for got, want in ((frame.positions, alone.positions), (frame.orientations, alone.orientations)):
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_does_not_alias_inputs(self):
        ts, pos, ori = random_timeline(np.random.default_rng(7), 5)
        frames = frames_from_arrays(ts, Handedness.RIGHT, pos, ori)
        want = [(f.timestamp, f.positions.copy(), f.orientations.copy()) for f in frames]
        ts[:] = 9.0
        pos[:] = 1.0
        ori[:] = (0.0, 1.0, 0.0, 0.0)
        for frame, (t, p, o) in zip(frames, want):
            assert frame.timestamp == t
            np.testing.assert_array_equal(frame.positions, p)
            np.testing.assert_array_equal(frame.orientations, o)
        with pytest.raises(ValueError):
            frames[0].positions[INDEX_TIP] = 1.0

    @pytest.mark.parametrize("fault", ["shape", "joint", "quaternion", "timestamp", "handedness"])
    def test_bad_frame_raises_hand_frame_message(self, fault):
        ts, pos, ori = random_timeline(np.random.default_rng(8), 6)
        hand = Handedness.RIGHT
        if fault == "shape":
            pos, ori = pos[:, :10], ori[:, :10]
        elif fault == "joint":
            pos[3, INDEX_TIP, 1] = np.inf
        elif fault == "quaternion":
            ori[3, INDEX_TIP] = (1.0, 1.0, 0.0, 0.0)
        elif fault == "timestamp":
            ts[3] = np.nan
        else:
            hand = "Right"
        with pytest.raises(ValueError) as alone:
            HandFrame(float(ts[3]), hand, pos[3], ori[3])
        with pytest.raises(ValueError) as bulk:
            frames_from_arrays(ts, hand, pos, ori)
        assert str(bulk.value) == str(alone.value)

    def test_frame_counts_must_agree(self):
        ts, pos, ori = random_timeline(np.random.default_rng(9), 4)
        with pytest.raises(ValueError, match="timestamps for 4 positions"):
            frames_from_arrays(ts[:3], Handedness.RIGHT, pos, ori)

    def test_empty_timeline(self):
        assert frames_from_arrays(
            np.empty(0), Handedness.RIGHT, np.empty((0, NUM_JOINTS, 3)), np.empty((0, NUM_JOINTS, 4))
        ) == []


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
            ori = np.stack(quat.multiply_components(rot, f.orientations.T), axis=-1)
            ori /= np.linalg.norm(ori, axis=-1, keepdims=True)
            moved.append(HandFrame(f.timestamp, f.handedness, trans + quat.rotate(rot, f.positions), ori))
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


def random_arrays(rng, lead, dtype=np.float64):
    """Stacked (*lead, 11, 3) positions and (*lead, 11, 4) unit quaternions,
    stored as ``dtype`` (float32 storage leaves norms off 1 by up to ~1e-7)."""
    ori = rng.normal(size=(*lead, NUM_JOINTS, 4))
    ori /= np.linalg.norm(ori, axis=-1, keepdims=True)
    return rng.normal(0, 0.1, (*lead, NUM_JOINTS, 3)).astype(dtype), ori.astype(dtype)


def sign_tie_arrays(rng, n):
    """n frames whose wrist quaternions have w = 0 exactly and whose joints
    are signed basis quaternions, so that many relative quaternions have
    w = 0 exactly and take the sign tie-break, some of them flipped."""
    wrists = np.array([(0.0, 0.0, 0.6, 0.8), (0.0, -1.0, 0.0, 0.0), (0.0, 0.6, -0.8, 0.0), (0.0, 0.0, 0.0, -1.0)])
    basis = np.concatenate([np.eye(4), -np.eye(4)])
    ori = basis[rng.integers(0, len(basis), (n, NUM_JOINTS))]
    ori[:, 0] = wrists[rng.integers(0, len(wrists), n)]
    return rng.normal(0, 0.1, (n, NUM_JOINTS, 3)), ori


class TestMatrixForm:
    """The matrix-form featurizer against the component-form oracle."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_component_form(self, dtype):
        pos, ori = random_arrays(np.random.default_rng(11), (500,), dtype)
        np.testing.assert_allclose(
            features_from_arrays(pos, ori), skeleton_reference.features_from_arrays(pos, ori), rtol=0, atol=1e-15
        )

    def test_matches_component_form_on_sign_ties(self):
        pos, ori = sign_tie_arrays(np.random.default_rng(12), 200)
        want = skeleton_reference.features_from_arrays(pos, ori)
        ties = want[:, 1:, 3] == 0.0
        assert ties.sum() > 100 and np.any(ties & (want[:, 1:, 4:] < 0.0).any(axis=-1))
        np.testing.assert_allclose(features_from_arrays(pos, ori), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_frame_alone_equals_its_row_of_a_chunk_and_a_batch(self, dtype):
        pos, ori = random_arrays(np.random.default_rng(13), (3 * T_WINDOW,), dtype)
        tie_pos, tie_ori = sign_tie_arrays(np.random.default_rng(14), T_WINDOW)
        pos, ori = np.concatenate([pos, tie_pos.astype(dtype)]), np.concatenate([ori, tie_ori.astype(dtype)])
        chunk = features_from_arrays(pos, ori)
        batch = features_from_arrays(pos.reshape(4, T_WINDOW, NUM_JOINTS, 3), ori.reshape(4, T_WINDOW, NUM_JOINTS, 4))
        assert batch.tobytes() == chunk.tobytes()
        for i in range(len(pos)):
            assert features_from_arrays(pos[i], ori[i]).tobytes() == chunk[i].tobytes()

    @pytest.mark.parametrize(
        "pos_shape, ori_shape",
        [((5, 11, 3), (11, 4)), ((11, 3), (5, 11, 4)), ((5, 11, 3), (4, 11, 4)), ((10, 3), (10, 4)),
         ((11, 4), (11, 4)), ((11, 3), (11, 3)), ((3,), (4,))],
        ids=["frames-one-orientation", "one-position-frames", "five-four", "ten-joints", "positions-width",
             "orientations-width", "no-joint-axis"],
    )
    def test_rejects_mismatched_shapes(self, pos_shape, ori_shape):
        ori = np.zeros(ori_shape)
        ori[..., 0] = 1.0
        with pytest.raises(ValueError, match="equal leading axes"):
            features_from_arrays(np.zeros(pos_shape), ori)
