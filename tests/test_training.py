"""Training determinism, convergence, and fold splitting."""

import warnings

import numpy as np
import pytest

from microgext import network, synth, training
from microgext.network import HyperParams
from microgext.skeleton import T_WINDOW
from microgext.training import EmptyFold, MissingClass, split_fold


def _train_quiet(dataset, fold, hp):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return training.train(dataset, fold, hp)


class TestSplitFold:
    def test_fold_subject_held_out(self, small_dataset):
        train_clips, val_clips, test_clips = split_fold(small_dataset, 1)
        assert all(c.subject_id == 1 for c in test_clips)
        assert all(c.subject_id != 1 for c in train_clips + val_clips)
        assert len(test_clips) == 7 * 6 + 6

    def test_validation_nonempty_and_disjoint(self, small_dataset):
        train_clips, val_clips, _ = split_fold(small_dataset, 0)
        assert val_clips
        ids = {id(c) for c in train_clips}
        assert not any(id(c) in ids for c in val_clips)

    def test_missing_subject_raises(self, small_dataset):
        with pytest.raises(EmptyFold):
            split_fold(small_dataset, 99)

    def test_empty_validation_raises(self):
        # one repetition per (subject, gesture) group leaves nothing to validate on
        with pytest.raises(EmptyFold, match="validation"):
            split_fold(synth.make_dataset(2, 1, 1, seed=0), 0)

    def test_missing_class_raises(self):
        ds = synth.make_dataset(2, 2, 2, seed=0)
        no_fist = synth.Dataset(
            tuple(c for c in ds.clips if c.gesture is not synth.GestureClass.FIST), 0
        )
        with pytest.raises(MissingClass):
            split_fold(no_fist, 0)


def epoch_crops_reference(fcs, rng):
    """One random T-frame crop per clip, drawn and copied clip by clip: the
    loop that training's one-draw crops and batch gathers replace."""
    xs = np.empty((len(fcs), T_WINDOW) + fcs[0].features.shape[1:])
    y_class = np.empty(len(fcs), dtype=np.int64)
    y_state = np.empty((len(fcs), T_WINDOW), dtype=np.int64)
    for i, fc in enumerate(fcs):
        start = int(rng.integers(0, len(fc.features) - T_WINDOW + 1))
        xs[i] = fc.features[start : start + T_WINDOW]
        y_class[i] = fc.class_index
        y_state[i] = fc.substates[start : start + T_WINDOW]
    return xs, y_class, y_state


class TestCrops:
    def test_one_draw_crops_equal_the_per_clip_loop(self, small_dataset):
        clips, _, _ = split_fold(small_dataset, 0)
        fcs = [training.featurize_clip(c) for c in clips]
        pool = training.crop_pool(clips)
        assert pool.features.dtype == np.float32 and pool.features.flags.c_contiguous
        ref_rng, rng = (np.random.Generator(np.random.PCG64(21)) for _ in range(2))
        for _ in range(3):  # epochs: the two draws must leave both generators in step
            xs, y_class, y_state = epoch_crops_reference(fcs, ref_rng)
            crop_rows = training._epoch_crops(pool, rng)
            order = rng.permutation(len(clips))
            np.testing.assert_array_equal(order, ref_rng.permutation(len(clips)))
            for idx in training._batches(len(clips), order):
                x, yc, ys = training._crop_batch(pool, crop_rows, idx)
                assert x.dtype == np.float32
                # the step casts to float32, so the crops it sees are unchanged
                np.testing.assert_array_equal(x, xs[idx].astype(np.float32))
                np.testing.assert_array_equal(yc, y_class[idx])
                np.testing.assert_array_equal(ys, y_state[idx])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_rows_equal_featurize_clip(self, small_dataset, dtype):
        # chunks of FEATURIZE_CLIPS clips give every frame the bits of a per-clip call
        clips, _, _ = split_fold(small_dataset, 1)
        pool = training.crop_pool(clips, dtype)
        assert pool.features.dtype == dtype and len(clips) > training.FEATURIZE_CLIPS
        rows = np.concatenate([training.featurize_clip(c).features for c in clips])
        np.testing.assert_array_equal(pool.features, rows.astype(dtype))
        np.testing.assert_array_equal(pool.substates, np.concatenate([c.substates for c in clips]))
        centres = pool.features[training.center_rows(pool)[:, None] + np.arange(T_WINDOW)]
        reference = [training.center_window(training.featurize_clip(c)) for c in clips]
        np.testing.assert_array_equal(centres, np.stack(reference).astype(dtype))

    def test_validation_windows_equal_featurize_clip(self, small_dataset):
        _, val_clips, _ = split_fold(small_dataset, 0)
        fcs = [training.featurize_clip(c) for c in val_clips]
        val = training.validation_windows(val_clips)
        assert val.x.dtype == np.float64
        np.testing.assert_array_equal(val.x, np.stack([training.center_window(fc) for fc in fcs]))
        np.testing.assert_array_equal(val.y_class, [fc.class_index for fc in fcs])
        starts = [(len(fc.substates) - T_WINDOW) // 2 for fc in fcs]
        np.testing.assert_array_equal(
            val.y_state, np.stack([fc.substates[s : s + T_WINDOW] for fc, s in zip(fcs, starts)])
        )


class TestTraining:
    def test_loss_decreases(self, tiny_trained):
        _, log = tiny_trained
        assert log[-1]["train_loss"] < log[0]["train_loss"]
        assert log[-1]["val_loss"] < log[0]["val_loss"]

    def test_deterministic_checkpoints(self):
        ds = synth.make_dataset(2, 2, 2, seed=4)
        hp = HyperParams(hidden=16, max_epochs=3, master_seed=8)
        p1, log1 = _train_quiet(ds, 0, hp)
        p2, log2 = _train_quiet(ds, 0, hp)
        for name in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[name], p2.tensors[name])
        assert log1 == log2

    def test_different_seed_changes_weights(self):
        ds = synth.make_dataset(2, 2, 2, seed=4)
        p1, _ = _train_quiet(ds, 0, HyperParams(hidden=16, max_epochs=2, master_seed=8))
        p2, _ = _train_quiet(ds, 0, HyperParams(hidden=16, max_epochs=2, master_seed=9))
        assert any(
            not np.array_equal(p1.tensors[n], p2.tensors[n]) for n in p1.tensors
        )

    def test_heldout_accuracy_beats_random(self, tiny_trained, small_dataset):
        params, _ = tiny_trained
        _, _, test_clips = split_fold(small_dataset, 0)
        fcs = [training.featurize_clip(c) for c in test_clips]
        x = np.stack([training.center_window(f) for f in fcs])
        y = np.array([f.class_index for f in fcs])
        out = network.forward_batch(params, x)
        acc = (out["class_logits"].argmax(-1) == y).mean()
        assert acc > 1.0 / 8.0

    def test_params_on_float32_grid(self, tiny_trained):
        params, _ = tiny_trained
        for name, t in params.tensors.items():
            np.testing.assert_array_equal(t, t.astype(np.float32).astype(np.float64))

    def test_plateau_reduces_learning_rate(self, monkeypatch):
        # a high improvement threshold makes every epoch count as a stall,
        # so the scheduler must cut the rate after `patience` epochs
        monkeypatch.setattr(training, "PLATEAU_PATIENCE", 2)
        monkeypatch.setattr(training, "PLATEAU_THRESHOLD", 1e-2)
        ds = synth.make_dataset(2, 2, 2, seed=4)
        hp = HyperParams(hidden=8, max_epochs=8, learning_rate=1e-4, master_seed=0)
        _, log = _train_quiet(ds, 0, hp)
        assert log[-1]["lr"] < hp.learning_rate
        assert log[-1]["lr"] >= training.MIN_LEARNING_RATE
