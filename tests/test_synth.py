"""Generator determinism, pose geometry, and automatic sub-state labeling."""

import numpy as np
import pytest

from microgext.skeleton import INDEX_BELOW, INDEX_TIP, THUMB_TIP
from microgext.synth import (
    CLASS_NAMES,
    PINCH_CONTACT_M,
    STATIC_FRAMES,
    SWIPE_FRAMES,
    GestureClass,
    NullNotSupportedHere,
    SubjectParams,
    SubState,
    clips_equal,
    label_substates,
    make_dataset,
    subjects_for,
    synth_clip,
    synth_null,
)


def palm_center(positions):
    """Oracle proxy: mean of the wrist and the four below-tip finger joints."""
    return positions[[0, 4, 6, 8, 10]].mean(axis=0)


class TestDeterminism:
    def test_same_args_bit_identical(self, subject):
        a = synth_clip(GestureClass.FIST, subject, seed=1)
        b = synth_clip(GestureClass.FIST, subject, seed=1)
        assert clips_equal(a, b)

    def test_null_deterministic(self, subject):
        assert clips_equal(synth_null(subject, 5), synth_null(subject, 5))

    def test_different_seed_differs(self, subject):
        a = synth_clip(GestureClass.FIST, subject, seed=1)
        b = synth_clip(GestureClass.FIST, subject, seed=2)
        assert not clips_equal(a, b)


class TestClipShapes:
    def test_static_frame_count_and_duration(self, subject):
        for gesture in (GestureClass.OPEN, GestureClass.PINKY):
            clip = synth_clip(gesture, subject, seed=3)
            assert len(clip) == STATIC_FRAMES == 144
            assert clip.duration == 2.0
            assert set(clip.substates.tolist()) == {int(SubState.NOT_SWIPING)}

    def test_swipe_frame_count_and_duration(self, subject):
        clip = synth_clip(GestureClass.SWIPE, subject, seed=3)
        assert len(clip) == SWIPE_FRAMES == 360
        assert clip.duration == 5.0

    def test_null_rejected_in_synth_clip(self, subject):
        with pytest.raises(NullNotSupportedHere):
            synth_clip(GestureClass.NULL, subject, seed=0)


class TestPoseGeometry:
    def test_open_fingers_farther_than_fist(self):
        # distance oracle over generated frames, several subjects/seeds
        for sid, seed in ((0, 3), (1, 8), (2, 21)):
            subject = subjects_for(0, 3)[sid]
            fist = synth_clip(GestureClass.FIST, subject, seed=seed)
            open_ = synth_clip(GestureClass.OPEN, subject, seed=seed)
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
        clip = synth_clip(GestureClass.SWIPE, subject, seed=4)
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
            clip = synth_null(subject, seed)
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
            clip = synth_null(subject, seed)
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
        clip = synth_clip(GestureClass.RING, subject, seed=5)
        assert np.all(label_substates(clip.gesture, clip.joint_positions) == 4)

    def test_bin_endpoints(self):
        # u = 0 -> state 0, u = 1 -> state 3, half-open bins in between
        for u, expected in ((0.0, 0), (0.249, 0), (0.25, 1), (0.5, 2), (0.75, 3), (1.0, 3)):
            assert min(3, int(u * 4.0)) == expected

    def test_ideal_triangular_swipe_monotone(self, subject):
        # closed-form oracle: build an ideal linear 0 -> 100% -> 0 swipe by
        # placing the thumb exactly on the segment, no jitter
        clean = SubjectParams(subject_id=0, pose_jitter_std=0.0)
        clip = synth_clip(GestureClass.SWIPE, clean, seed=6)
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
