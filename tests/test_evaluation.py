"""Evaluation report assembly and invariants."""

import numpy as np
import pytest

from microgext import calibration, evaluation, network, session_io, training
from microgext.evaluation import _confusion
from microgext.session_io import read_command_log, write_command_log
from microgext.editor import CommandKind, Document, EditCommand, Granularity, apply
from microgext.network import N_CLASSES, N_STATES
from microgext.skeleton import T_WINDOW
from microgext.training import split_fold


def evaluate_reference(params, clips):
    """(class logits, state predictions, state labels) the clip-by-clip way:
    featurize each clip, stack every centred and every T/2-strided window,
    then run them in EVAL_BATCH slices."""
    fcs = [training.featurize_clip(c) for c in clips]
    x = np.stack([training.center_window(fc) for fc in fcs])
    xs, ys = [], []
    for fc in fcs:
        for start in range(0, len(fc.features) - T_WINDOW + 1, T_WINDOW // 2):
            xs.append(fc.features[start : start + T_WINDOW])
            ys.append(fc.substates[start : start + T_WINDOW])
    xs = np.stack(xs)

    def run(windows, head):
        b = evaluation.EVAL_BATCH
        return np.concatenate([network.forward_batch(params, windows[i : i + b])[head]
                               for i in range(0, len(windows), b)])

    return run(x, "class_logits"), run(xs, "state_logits").argmax(-1), np.stack(ys)


class TestBufferedWindows:
    def test_report_equals_the_clip_by_clip_windows(self, tiny_trained, small_dataset, monkeypatch):
        params, _ = tiny_trained
        _, _, test_clips = split_fold(small_dataset, 0)
        logits, states, y_state = evaluate_reference(params, test_clips)
        assert len(states) > evaluation.EVAL_BATCH  # more than one state batch
        seen = []
        ece = calibration.ece_for_logits

        def recording_ece(lg, labels, tau):
            seen.append(lg)
            return ece(lg, labels, tau)

        monkeypatch.setattr(calibration, "ece_for_logits", recording_ece)
        report = evaluation.evaluate(params, test_clips)
        np.testing.assert_array_equal(seen[0], logits)
        y_class = np.array([training.class_index(c.gesture) for c in test_clips])
        class_confusion = _confusion(y_class, logits.argmax(-1), N_CLASSES)
        np.testing.assert_array_equal(report.class_confusion, class_confusion)
        state_confusion = _confusion(y_state.ravel(), states.ravel(), N_STATES)
        np.testing.assert_array_equal(report.state_confusion, state_confusion)
        assert report.ece_before == ece(logits, y_class, 1.0)
        assert report.ece_after == ece(logits, y_class, params.tau)


class TestConfusionAssembly:
    def test_perfect_predictions_identity(self):
        y = np.array([0, 1, 2, 3, 4, 5, 6, 7, 3, 3])
        conf = _confusion(y, y, 8)
        assert np.all(conf == np.diag(np.bincount(y, minlength=8)))

    def test_rows_sum_to_support(self, tiny_trained, small_dataset):
        params, _ = tiny_trained
        _, _, test_clips = split_fold(small_dataset, 0)
        report = evaluation.evaluate(params, test_clips)
        support = np.bincount(
            [training.class_index(c.gesture) for c in test_clips], minlength=8
        )
        assert np.array_equal(report.class_confusion.sum(axis=1), support)
        assert report.state_confusion.sum() > 0
        assert np.all(report.class_confusion >= 0)

    def test_macro_matches_per_class_mean(self, tiny_trained, small_dataset):
        params, _ = tiny_trained
        _, _, test_clips = split_fold(small_dataset, 0)
        report = evaluation.evaluate(params, test_clips)
        assert report.macro_accuracy == float(np.nanmean(report.per_class_accuracy))


class TestCommandLog:
    ENTRIES = [
        (0.5, EditCommand.set_granularity(Granularity.WORD)),
        (1.0, EditCommand.move_caret(2)),
        (1.5, EditCommand.select_range(-1)),
        (2.0, EditCommand(CommandKind.COPY)),
        (2.5, EditCommand(CommandKind.PASTE)),
        (3.0, EditCommand(CommandKind.UNDO)),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "commands.log"
        write_command_log(path, self.ENTRIES)
        back = read_command_log(path)
        assert [c for _, c in back] == [c for _, c in self.ENTRIES]
        assert [t for t, _ in back] == [t for t, _ in self.ENTRIES]

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "commands.log"
        path.write_text("MGL1\n0.5 Cut extra junk\n")
        with pytest.raises(session_io.CorruptRecord, match="line 2"):
            read_command_log(path)

    @pytest.mark.parametrize("timestamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, timestamp):
        path = tmp_path / "commands.log"
        path.write_text(f"MGL1\n0.5 Cut\n{timestamp} Copy\n")
        with pytest.raises(session_io.CorruptRecord, match="line 3.*non-finite timestamp"):
            read_command_log(path)

    def test_non_utf8_byte_rejected(self, tmp_path):
        path = tmp_path / "commands.log"
        path.write_bytes(b"MGL1\n0.5 Cut\xff\n")
        with pytest.raises(session_io.CorruptRecord, match="UTF-8"):
            read_command_log(path)

    def test_header_is_mgl1_independent_of_session_version(self, tmp_path):
        path = tmp_path / "commands.log"
        write_command_log(path, self.ENTRIES)
        assert path.read_text().splitlines()[0] == "MGL1"
        assert session_io.MGS_VERSION != session_io.MGL_VERSION

    def test_byte_exact_golden(self, tmp_path):
        p1, p2 = tmp_path / "a.log", tmp_path / "b.log"
        write_command_log(p1, self.ENTRIES)
        write_command_log(p2, self.ENTRIES)
        assert p1.read_bytes() == p2.read_bytes()

    def test_replay_yields_identical_final_state(self, tmp_path):
        text = "alpha beta gamma delta"
        commands = [
            EditCommand.set_granularity(Granularity.WORD),
            EditCommand.move_caret(1),
            EditCommand.select_range(2),
            EditCommand(CommandKind.CUT),
            EditCommand(CommandKind.PASTE),
            EditCommand(CommandKind.SELECT_ALL),
            EditCommand(CommandKind.DELETE),
            EditCommand(CommandKind.UNDO),
        ]
        direct = Document.create(text)
        for cmd in commands:
            direct = apply(direct, cmd)

        path = tmp_path / "commands.log"
        write_command_log(path, [(float(i), c) for i, c in enumerate(commands)])
        replayed = Document.create(text)
        for _, cmd in read_command_log(path):
            replayed = apply(replayed, cmd)
        assert (replayed.text, replayed.caret, replayed.selection, replayed.clipboard) == (
            direct.text, direct.caret, direct.selection, direct.clipboard,
        )
