"""Generator determinism, pose geometry, and automatic sub-state labeling."""

import numpy as np
import pytest

from microgext.skeleton import INDEX_BELOW, INDEX_TIP, THUMB_TIP, features_from_arrays
from microgext.synth import (
    CLASS_NAMES,
    LabeledClip,
    PINCH_CONTACT_M,
    STATIC_FRAMES,
    SWIPE_FRAMES,
    GestureClass,
    SubjectParams,
    SubState,
    label_substates,
    make_dataset,
    subjects_for,
    synth_clips,
)

from .frames import clips_equal


def one_clip(gesture, subject, seed):
    return synth_clips([(gesture, subject, seed)])[0]


def palm_center(positions):
    """Oracle proxy: mean of the wrist and the four below-tip finger joints."""
    return positions[[0, 4, 6, 8, 10]].mean(axis=0)


class TestDeterminism:
    def test_same_args_bit_identical(self, subject):
        a = one_clip(GestureClass.FIST, subject, 1)
        b = one_clip(GestureClass.FIST, subject, 1)
        assert clips_equal(a, b)

    def test_null_deterministic(self, subject):
        assert clips_equal(one_clip(GestureClass.NULL, subject, 5), one_clip(GestureClass.NULL, subject, 5))

    def test_different_seed_differs(self, subject):
        a = one_clip(GestureClass.FIST, subject, 1)
        b = one_clip(GestureClass.FIST, subject, 2)
        assert not clips_equal(a, b)


class TestClipShapes:
    def test_no_specs_give_no_clips(self):
        assert synth_clips([]) == []

    def test_static_frame_count_and_duration(self, subject):
        for gesture in (GestureClass.OPEN, GestureClass.PINKY):
            clip = one_clip(gesture, subject, 3)
            assert len(clip) == STATIC_FRAMES == 144
            assert clip.duration == 2.0
            assert set(clip.substates.tolist()) == {int(SubState.NOT_SWIPING)}

    def test_swipe_frame_count_and_duration(self, subject):
        clip = one_clip(GestureClass.SWIPE, subject, 3)
        assert len(clip) == SWIPE_FRAMES == 360
        assert clip.duration == 5.0


class TestFloat32Storage:
    def test_clip_arrays_are_read_only_float32(self, subject):
        for clip in (one_clip(GestureClass.SWIPE, subject, 2), one_clip(GestureClass.NULL, subject, 3)):
            for a in (clip.joint_positions, clip.joint_orientations):
                assert a.dtype == np.float32 and not a.flags.writeable
            assert clip.timestamps.dtype == np.float64 and not clip.timestamps.flags.writeable
            assert clip.substates.dtype == np.uint8 and not clip.substates.flags.writeable

    def test_clip_owns_one_copy(self, subject):
        clip = one_clip(GestureClass.FIST, subject, 1)
        pos = np.array(clip.joint_positions)
        copy = LabeledClip(clip.gesture, clip.subject_id, clip.timestamps, pos,
                           clip.joint_orientations, clip.substates, clip.duration)
        assert not np.shares_memory(copy.joint_positions, pos)
        assert not np.shares_memory(copy.joint_orientations, clip.joint_orientations)
        pos[0, 0, 0] += 1.0
        assert clips_equal(copy, clip)

    def test_features_equal_the_float64_upcast(self, subject):
        clip = one_clip(GestureClass.SWIPE, subject, 4)
        pos64 = clip.joint_positions.astype(np.float64)
        ori64 = clip.joint_orientations.astype(np.float64)
        feats = features_from_arrays(clip.joint_positions, clip.joint_orientations)
        assert feats.dtype == np.float64
        np.testing.assert_array_equal(feats, features_from_arrays(pos64, ori64))

    def test_labels_equal_the_float64_upcast(self):
        # thumbs placed on the bin edges u = 1/4, 1/2, 3/4, then stored as float32
        rng = np.random.default_rng(0)
        pos = rng.normal(0.0, 0.05, (1000, 11, 3)) + np.array([0.1, 1.2, 0.35])
        seg = pos[:, INDEX_BELOW] - pos[:, INDEX_TIP]
        pos[:, THUMB_TIP] = pos[:, INDEX_TIP] + rng.choice([0.25, 0.5, 0.75], len(pos))[:, None] * seg
        pos32 = pos.astype(np.float32)
        labels = label_substates(GestureClass.SWIPE, pos32)
        np.testing.assert_array_equal(labels, label_substates(GestureClass.SWIPE, pos32.astype(np.float64)))
        # the projection in float32 arithmetic would put some of them in another bin
        seg32, rel32 = (pos32[:, j] - pos32[:, INDEX_TIP] for j in (INDEX_BELOW, THUMB_TIP))
        u32 = np.clip(np.einsum("nd,nd->n", rel32, seg32) / np.einsum("nd,nd->n", seg32, seg32), 0, 1)
        assert np.any(np.minimum(3, (u32 * 4).astype(np.int64)) != labels)

    def test_stored_labels_are_those_of_the_stored_positions(self):
        for sub in subjects_for(3, 4):
            clip = one_clip(GestureClass.SWIPE, sub, sub.subject_id)
            np.testing.assert_array_equal(clip.substates, label_substates(clip.gesture, clip.joint_positions))


class TestPoseGeometry:
    def test_open_fingers_farther_than_fist(self):
        # distance oracle over generated frames, several subjects/seeds
        for sid, seed in ((0, 3), (1, 8), (2, 21)):
            subject = subjects_for(0, 3)[sid]
            fist = one_clip(GestureClass.FIST, subject, seed)
            open_ = one_clip(GestureClass.OPEN, subject, seed)
            hold = slice(60, 144)
            tips = [1, 3, 5, 7, 9]
            fist_d = np.array(
                [np.linalg.norm(p[tips] - palm_center(p), axis=1) for p in fist.joint_positions[hold]]
            ).mean(axis=0)
            open_d = np.array(
                [np.linalg.norm(p[tips] - palm_center(p), axis=1) for p in open_.joint_positions[hold]]
            ).mean(axis=0)
            assert np.all(open_d - fist_d >= 0.02), (sid, seed, open_d - fist_d)

    def test_swipe_thumb_sweeps_out_and_back(self, subject):
        clip = one_clip(GestureClass.SWIPE, subject, 4)
        pos = clip.joint_positions
        seg = pos[:, INDEX_BELOW] - pos[:, INDEX_TIP]
        rel = pos[:, THUMB_TIP] - pos[:, INDEX_TIP]
        u = np.einsum("nd,nd->n", rel, seg) / np.einsum("nd,nd->n", seg, seg)
        # per-frame jitter puts sigma_u around 0.07; judge the sweep shape
        assert np.median(u[:15]) < 0.2
        assert u.max() > 0.9
        assert np.median(u[-15:]) < 0.25
        peak = int(np.argmax(u))
        assert 100 < peak < 260

    def test_null_rest_keeps_thumb_off_index(self):
        # the resting-pose variant stays above the pinch threshold almost
        # always; pick seeds that produce the rest variant
        subject = subjects_for(0, 1)[0]
        rest_clips = []
        for seed in range(30):
            clip = one_clip(GestureClass.NULL, subject, seed)
            d = np.linalg.norm(
                clip.joint_positions[:, THUMB_TIP] - clip.joint_positions[:, INDEX_TIP], axis=1
            )
            if d.min() > PINCH_CONTACT_M:  # no contact at all: rest or drift
                rest_clips.append(d)
        assert len(rest_clips) >= 10
        for d in rest_clips:
            assert (d > PINCH_CONTACT_M).mean() >= 0.9

    def test_null_pinch_variant_contact_is_brief(self):
        subject = subjects_for(0, 1)[0]
        found = 0
        for seed in range(40):
            clip = one_clip(GestureClass.NULL, subject, seed)
            d = np.linalg.norm(
                clip.joint_positions[:, THUMB_TIP] - clip.joint_positions[:, INDEX_TIP], axis=1
            )
            contact = d < PINCH_CONTACT_M
            if contact.any():
                found += 1
                assert contact.sum() < 10  # under the FSM persistence window
        assert found >= 3


class TestSubStateLabels:
    def test_non_swipe_all_four(self, subject):
        clip = one_clip(GestureClass.RING, subject, 5)
        assert np.all(label_substates(clip.gesture, clip.joint_positions) == 4)

    def test_bin_endpoints(self):
        # u = 0 -> state 0, u = 1 -> state 3, half-open bins in between
        for u, expected in ((0.0, 0), (0.249, 0), (0.25, 1), (0.5, 2), (0.75, 3), (1.0, 3)):
            assert min(3, int(u * 4.0)) == expected

    def test_ideal_triangular_swipe_monotone(self, subject):
        # closed-form oracle: build an ideal linear 0 -> 100% -> 0 swipe by
        # placing the thumb exactly on the segment, no jitter
        clean = SubjectParams(subject_id=0, pose_jitter_std=0.0)
        clip = one_clip(GestureClass.SWIPE, clean, 6)
        pos = np.array(clip.joint_positions, copy=True)
        u = np.concatenate([np.linspace(0, 1, 180), np.linspace(1, 0, 180)])
        seg = pos[:, INDEX_BELOW] - pos[:, INDEX_TIP]
        pos[:, THUMB_TIP] = pos[:, INDEX_TIP] + u[:, None] * seg
        labels = label_substates(GestureClass.SWIPE, pos).astype(int)
        assert np.all(np.diff(labels[:180]) >= 0)
        assert np.all(np.diff(labels[180:]) <= 0)
        assert labels[0] == 0 and labels[179] == 3


class TestDataset:
    def test_default_counts(self):
        # 10 x (7 x 20 + 20) = 1600, checked on the real default
        ds = make_dataset(10, 20, 20, seed=1)
        assert len(ds.clips) == 1600

    def test_minimal_counts(self):
        ds = make_dataset(1, 1, 1, seed=1)
        assert len(ds.clips) == 8

    def test_class_histogram_uniform_per_subject(self):
        ds = make_dataset(3, 4, 4, seed=2)
        for sid in range(3):
            counts = {}
            for clip in ds.clips:
                if clip.subject_id == sid:
                    counts[clip.gesture] = counts.get(clip.gesture, 0) + 1
            assert set(counts.values()) == {4}
            assert len(counts) == 8

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            make_dataset(0, 1, 1, seed=0)

    def test_subject_params_validated(self):
        with pytest.raises(ValueError):
            SubjectParams(subject_id=0, finger_length_scale=-1.0)
        with pytest.raises(ValueError):
            SubjectParams(subject_id=0, pose_jitter_std=-0.1)

    def test_class_names_cover_eight(self):
        assert len(CLASS_NAMES) == 8
        assert CLASS_NAMES[-1] == "Null"
