"""The chunked generator and the scenario compiler against the per-clip
reference, bit for bit."""

import numpy as np
import pytest

from microgext import scenario, synth
from microgext.editor import Granularity
from microgext.synth import COMMAND_GESTURES, GestureClass, SubjectParams, subjects_for

from . import synth_reference
from .frames import clips_equal

# (n_subjects, reps, null_reps, seed): criterion 9's dataset, then another
# seed with more Null clips than command reps
DATASETS = ((2, 2, 2, 7), (2, 1, 6, 3))


def null_variants(n_subjects: int, null_reps: int, seed: int) -> set[str]:
    return {
        synth_reference.null_variant(synth.stable_hash(seed, sid, "Null", rep))
        for sid in range(n_subjects)
        for rep in range(null_reps)
    }


def assert_same_clips(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert clips_equal(a, b), (i, a.gesture, a.subject_id)


def test_datasets_hold_every_null_variant():
    for n_subjects, _, null_reps, seed in DATASETS:
        assert null_variants(n_subjects, null_reps, seed) == {"rest", "drift", "pinch"}


@pytest.mark.parametrize("counts", DATASETS)
def test_make_dataset_matches_reference(counts):
    *sizes, seed = counts
    got = synth.make_dataset(*sizes, seed=seed)
    want = synth_reference.make_dataset(*sizes, seed=seed)
    assert got.master_seed == want.master_seed
    assert {c.gesture for c in got.clips} == set(GestureClass)
    assert_same_clips(got.clips, want.clips)


@pytest.mark.parametrize("chunk", [1, 5])
def test_clip_bytes_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # 2 x (7 x 2 + 2) = 32 clips, 16 per subject: chunks of 5 split subjects
    want = synth.make_dataset(2, 2, 2, seed=7)
    monkeypatch.setattr(synth, "SYNTH_CLIPS", chunk)
    assert_same_clips(synth.make_dataset(2, 2, 2, seed=7).clips, want.clips)


def test_synth_clip_matches_reference():
    subjects = [*subjects_for(5, 2), SubjectParams(subject_id=9, pose_jitter_std=0.0, tempo_scale=0.8)]
    specs = [(gesture, subject, seed) for subject in subjects for seed, gesture in enumerate(COMMAND_GESTURES)]
    assert_same_clips(synth.synth_clips(specs), [synth_reference.synth_clip(*spec) for spec in specs])


def test_synth_null_matches_reference():
    subjects = [*subjects_for(5, 2), SubjectParams(subject_id=9, pose_jitter_std=0.0)]
    specs = [(GestureClass.NULL, subject, seed) for subject in subjects for seed in range(12)]
    assert {synth_reference.null_variant(seed) for _, _, seed in specs} == {"rest", "drift", "pinch"}
    assert_same_clips(synth.synth_clips(specs), [synth_reference.synth_null(s, seed) for _, s, seed in specs])


def every_step_kind() -> scenario.Scenario:
    """A script with a rest, a gesture, a swipe up, a pinch hold, a swipe
    down that selects, and a mode switch to each of the four modes."""
    steps = [
        scenario.ScenarioStep(kind="rest", duration=0.4),
        scenario.ScenarioStep(kind="gesture", gesture=GestureClass.FIST, hold=0.3),
        scenario.ScenarioStep(kind="swipe", u_from=0.1, u_to=0.7, move_time=0.4),
        scenario.ScenarioStep(kind="pinch_hold", duration=2.1),
        scenario.ScenarioStep(kind="swipe", u_from=0.7, u_to=0.1),
        *(scenario.ScenarioStep(kind="mode_switch", mode=mode) for mode in Granularity),
    ]
    return scenario.Scenario(initial_text="One two. Three.", seed=5, steps=tuple(steps))


@pytest.mark.parametrize("script", ["every_step_kind", 7, 8, 9, 10, 11, 12, 13, 14, 23])
def test_compile_scenario_matches_reference(script):
    sc = every_step_kind() if script == "every_step_kind" else scenario.default_scenario(script)
    frames, expected = scenario.compile_scenario(sc)
    want_frames, want_expected = synth_reference.compile_scenario(sc)
    assert expected == want_expected
    assert len(frames) == len(want_frames)
    for a, b in zip(frames, want_frames):
        assert a.timestamp == b.timestamp and a.handedness is b.handedness
        assert np.array_equal(a.positions, b.positions) and np.array_equal(a.orientations, b.orientations)
