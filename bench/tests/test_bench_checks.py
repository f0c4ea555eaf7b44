"""One test per output check: each feeds a deliberately wrong output and
shows that the check reports it (and, where cheap, that the right output
passes the same check)."""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import edit_long_doc
import harness
import live_session
import loso_train
from microgext import editor, evaluation, network, scenario, synth, training
from microgext.fsm import GestureEvent


# ---------------------------------------------------------------- loso_train

@pytest.fixture(scope="module")
def fold_data():
    dataset = synth.make_dataset(3, 4, 4, seed=2)
    _, val_clips, test_clips = training.split_fold(dataset, 0)

    def windows(clips):
        fcs = [training.featurize_clip(c) for c in clips]
        return np.stack([training.center_window(f) for f in fcs]), np.array([f.class_index for f in fcs])

    x_val, y_val = windows(val_clips)
    x_test, y_test = windows(test_clips)
    hp = network.HyperParams(hidden=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = network.init_params(hp, seed=1)
    return SimpleNamespace(params=params, test_clips=test_clips, x_val=x_val, y_val=y_val,
                           x_test=x_test, y_test=y_test)


def _check(d, params=None, calibrated=None, log=None, report=None):
    params = params or d.params
    calibrated = calibrated or params
    log = log if log is not None else [{"epoch": 0, "train_loss": 1.0, "val_loss": 1.0}]
    report = report or evaluation.evaluate(calibrated, d.test_clips)
    return loso_train.check_fold(0, log, params, calibrated, report, d.x_val, d.y_val, d.x_test, d.y_test,
                                 network)


def test_random_weights_fail_the_accuracy_bar(fold_data):
    errors = _check(fold_data)
    assert any("held-out per-class accuracy" in e for e in errors)
    assert not any("evaluate()" in e or "ECE" in e or "non-finite" in e for e in errors)


def test_non_finite_logged_loss_fails(fold_data):
    log = [{"epoch": 0, "train_loss": 1.0, "val_loss": float("nan")}]
    assert any("non-finite loss" in e for e in _check(fold_data, log=log))


def test_evaluate_report_must_match_the_logits(fold_data):
    report = evaluation.evaluate(fold_data.params, fold_data.test_clips)
    wrong = replace(report, per_class_accuracy=np.ones(8))
    assert any("evaluate()" in e for e in _check(fold_data, report=wrong))


def test_calibration_that_raises_ece_fails(fold_data):
    # near-uniform random-init probabilities, sharpened by a tiny tau, are
    # confidently wrong: ECE rises
    sharpened = fold_data.params.with_tau(0.01)
    assert any("raised ECE" in e for e in _check(fold_data, calibrated=sharpened))


def test_non_positive_temperature_fails(fold_data):
    bad = fold_data.params.with_tau(1.0)
    object.__setattr__(bad, "tau", -1.0)  # ModelParams itself refuses this value
    assert any("not a positive number" in e for e in _check(fold_data, calibrated=bad))


def test_ece_matches_a_hand_computed_case():
    probs = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]])
    labels = np.array([0, 1, 1])
    # bins: 0.9 -> bin 13 (hit), 0.6 -> bin 9 (miss), 0.7 -> bin 10 (hit)
    want = (abs(1 - 0.9) + abs(0 - 0.6) + abs(1 - 0.7)) / 3
    assert loso_train.expected_calibration_error(probs, labels) == pytest.approx(want)


# -------------------------------------------------------------- live_session

@pytest.fixture(scope="module")
def session():
    sc = replace(scenario.default_scenario(9), initial_text="Alpha brisk cedar. Delta ember.\n\nFable grove.")
    frames, expected = scenario.compile_scenario(sc)
    return sc, frames, expected


def _correct_result(sc, frames, expected):
    """What a perfect session would return: the script's fires, spread over
    the action part of the timeline, and the expected commands applied."""
    gestures, _ = live_session.script_expectation(sc)
    times = np.linspace(frames[0].timestamp + live_session.leading_rest_s(sc) + 0.5,
                        frames[-1].timestamp - 1.5, len(gestures))
    events = [GestureEvent(synth.GestureClass(g), float(t), 0.99) for g, t in zip(gestures, times)]
    doc = editor.Document.create(sc.initial_text, sc.granularity)
    for cmd in expected:
        doc = editor.apply(doc, cmd)
    return SimpleNamespace(events=events, commands=list(expected), command_errors=[], final_document=doc)


def _check_session(session, result):
    sc, frames, expected = session
    return live_session.check_session(sc, frames, expected, result, harness.load_reference_editor())


def test_correct_session_passes(session):
    assert _check_session(session, _correct_result(*session)) == []


def test_one_command_altered_fails(session):
    result = _correct_result(*session)
    result.commands[1] = editor.EditCommand.move_caret(-1)
    assert any("compiled expectation" in e for e in _check_session(session, result))


def test_extra_fire_fails(session):
    result = _correct_result(*session)
    result.events.insert(2, replace(result.events[2], gesture=synth.GestureClass.PINKY))
    assert any("fired" in e for e in _check_session(session, result))


def test_fire_in_leading_rest_fails(session):
    result = _correct_result(*session)
    result.events[0] = replace(result.events[0], fired_at=0.5)
    assert any("leading or trailing rest" in e for e in _check_session(session, result))


def test_fire_in_trailing_rest_fails(session):
    _, frames, _ = session
    result = _correct_result(*session)
    result.events[-1] = replace(result.events[-1], fired_at=frames[-1].timestamp)
    assert any("leading or trailing rest" in e for e in _check_session(session, result))


def test_command_error_fails(session):
    result = _correct_result(*session)
    result.command_errors = ["Paste: clipboard is empty"]
    assert any("command errors" in e for e in _check_session(session, result))


def test_final_document_must_match_the_reference(session):
    result = _correct_result(*session)
    result.final_document = replace(result.final_document, caret=0, selection=None)
    assert any("final document" in e for e in _check_session(session, result))


def test_random_weights_fail_a_live_session():
    params = network.init_params(network.HyperParams(hidden=32), seed=0)
    outcome = live_session.run(1, 0, sessions=1, min_passes=1, params=params)
    assert any("fired" in e for e in outcome.errors)


# ------------------------------------------------------------- edit_long_doc

@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(8)
    text = edit_long_doc.make_document(rng, 4000)
    spec = edit_long_doc.make_commands(rng)
    return text, spec


def _program_outcome(text, spec):
    doc, docs, raised = editor.Document.create(text), [], []
    for c in spec:
        try:
            doc = editor.apply(doc, edit_long_doc.to_command(editor, *c))
            raised.append(None)
        except editor.EditError as exc:
            raised.append(type(exc).__name__)
        docs.append(doc)
    return docs, raised


def test_matching_edit_stream_passes(stream):
    text, spec = stream
    expected = edit_long_doc.reference_outcome(harness.load_reference_editor(), text, spec)
    assert edit_long_doc.check_round(*_program_outcome(text, spec), expected, spec) is None


def test_one_edit_command_altered_fails(stream):
    text, spec = stream
    expected = edit_long_doc.reference_outcome(harness.load_reference_editor(), text, spec)
    altered = list(spec)
    k = next(i for i, c in enumerate(spec) if c[0] == "MoveCaret")
    altered[k] = ("MoveCaret", spec[k][1] + 1, None)
    assert edit_long_doc.check_round(*_program_outcome(text, altered), expected, spec) is not None


def test_one_reference_state_changed_fails(stream):
    text, spec = stream
    expected = edit_long_doc.reference_outcome(harness.load_reference_editor(), text, spec)
    expected[len(expected) // 2] = expected[len(expected) // 2][:2] + (-1,) + expected[len(expected) // 2][3:]
    assert edit_long_doc.check_round(*_program_outcome(text, spec), expected, spec) is not None


def test_error_kind_must_match(stream):
    text, spec = stream
    expected = edit_long_doc.reference_outcome(harness.load_reference_editor(), text, spec)
    docs, raised = _program_outcome(text, spec)
    raised[0] = "NoSelection" if raised[0] is None else None
    assert edit_long_doc.check_round(docs, raised, expected, spec) is not None
