"""Scenario compilation and the CLI surface (exit codes, determinism)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from microgext import session_io
from microgext.cli import main
from microgext.editor import CommandKind, Granularity
from microgext.fsm import GestureEvent
from microgext.scenario import (
    BadScenario,
    Scenario,
    ScenarioStep,
    UnknownScenarioKey,
    _SwipeEpisode,
    compile_scenario,
    default_scenario,
    load_scenario,
    run_session,
)
from microgext.skeleton import Handedness
from microgext.synth import GestureClass


def scenario_to_dict(sc: Scenario) -> dict:
    """The JSON object that ``load_scenario`` reads back as ``sc``."""
    steps = []
    for s in sc.steps:
        d = {"kind": s.kind, "duration": s.duration, "hold": s.hold, "pre_rest": s.pre_rest}
        if s.gesture is not None:
            d["gesture"] = s.gesture.value
        if s.mode is not None:
            d["mode"] = s.mode.value
        if s.kind == "swipe":
            d.update(u_from=s.u_from, u_to=s.u_to, move_time=s.move_time)
        steps.append(d)
    return {
        "initial_text": sc.initial_text,
        "granularity": sc.granularity.value,
        "seed": sc.seed,
        "jitter_std": sc.jitter_std,
        "fsm_refractory": sc.fsm_refractory,
        "steps": steps,
    }


class TestScenarioCompile:
    def test_default_scenario_shape(self):
        frames, expected = compile_scenario(default_scenario())
        kinds = [c.kind for c in expected]
        assert kinds == [
            CommandKind.SET_GRANULARITY,
            CommandKind.MOVE_CARET,
            CommandKind.SELECT_RANGE,
            CommandKind.COPY,
            CommandKind.CUT,
            CommandKind.PASTE,
            CommandKind.SELECT_ALL,
            CommandKind.DELETE,
            CommandKind.UNDO,
        ]
        ts = [f.timestamp for f in frames]
        assert ts == sorted(ts)
        assert any(f.handedness is Handedness.LEFT for f in frames)

    def test_compile_deterministic(self):
        fa, _ = compile_scenario(default_scenario())
        fb, _ = compile_scenario(default_scenario())
        assert len(fa) == len(fb)
        for a, b in zip(fa, fb):
            assert a.timestamp == b.timestamp
            np.testing.assert_array_equal(a.positions, b.positions)

    def test_json_round_trip(self, tmp_path):
        sc = default_scenario()
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario_to_dict(sc)))
        back = load_scenario(path)
        assert back.initial_text == sc.initial_text
        assert back.granularity is sc.granularity
        assert [s.kind for s in back.steps] == [s.kind for s in sc.steps]

    def test_expected_swipe_delta_single_mode(self):
        sc = Scenario(
            initial_text="abc",
            steps=(ScenarioStep(kind="swipe", u_from=0.8, u_to=0.05),),
        )
        _, expected = compile_scenario(sc)
        assert expected[0].kind is CommandKind.MOVE_CARET
        assert expected[0].delta == -1  # one unit per fired swipe, backward

    def test_script_with_retired_swipe_unit_mode_rejected(self, tmp_path):
        raw = scenario_to_dict(default_scenario())
        raw["swipe_unit_mode"] = "crossings"
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(UnknownScenarioKey, match="swipe_unit_mode"):
            load_scenario(path)

    def test_unknown_step_key_rejected(self, tmp_path):
        raw = scenario_to_dict(default_scenario())
        raw["steps"][1]["magnitude"] = 3
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(UnknownScenarioKey, match="magnitude"):
            load_scenario(path)

    def test_unknown_step_kind_rejected(self):
        sc = Scenario(initial_text="", steps=(ScenarioStep(kind="dance"),))
        with pytest.raises(ValueError):
            compile_scenario(sc)


MALFORMED_SCRIPTS = {
    "unknown_gesture": {"initial_text": "abc", "steps": [{"kind": "gesture", "gesture": "Nope"}]},
    "unknown_kind": {"initial_text": "abc", "steps": [{"kind": "wave"}]},
    "mode_switch_without_mode": {"initial_text": "abc", "steps": [{"kind": "mode_switch"}]},
    "gesture_without_gesture": {"initial_text": "abc", "steps": [{"kind": "gesture"}]},
    "null_gesture": {"initial_text": "abc", "steps": [{"kind": "gesture", "gesture": "Null"}]},
    "string_duration": {"initial_text": "abc", "steps": [{"kind": "rest", "duration": "x"}]},
    "negative_duration": {"initial_text": "abc", "steps": [{"kind": "rest", "duration": -1.0}]},
    "missing_initial_text": {"steps": [{"kind": "rest"}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SCRIPTS))
def test_malformed_script_is_a_bad_scenario(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_SCRIPTS[name]))
    with pytest.raises(BadScenario):
        load_scenario(path)


class TestSwipeEpisode:
    def episode(self):
        return _SwipeEpisode(GestureEvent(GestureClass.SWIPE, fired_at=1.0, mean_confidence=0.99))

    def test_falling_progress_points_backward(self):
        ep = self.episode()
        for u in (0.9, 0.7, 0.75, 0.4, 0.2):
            ep.observe(u)
        assert ep.direction() == -1

    @pytest.mark.parametrize("samples", [(), (0.8,)])
    def test_fewer_than_two_samples_default_forward(self, samples):
        ep = self.episode()
        for u in samples:
            ep.observe(u)
        assert ep.direction() == 1

    def test_ends_after_consecutive_misses(self):
        ep = self.episode()
        ep.observe(0.5)
        ends = [ep.observe(None) for _ in range(_SwipeEpisode.END_AFTER_MISSES)]
        assert ends == [False] * (_SwipeEpisode.END_AFTER_MISSES - 1) + [True]

    def test_a_sample_resets_the_miss_count(self):
        ep = self.episode()
        for _ in range(_SwipeEpisode.END_AFTER_MISSES - 1):
            assert ep.observe(None) is False
        assert ep.observe(0.5) is False
        assert ep.observe(None) is False


class TestRunSessionWithStub:
    def test_stub_predictor_pipeline(self):
        # a scripted predictor stub keeps this test model-free: whatever the
        # right hand does, claim Null except one fist burst
        from microgext.synth import CLASS_NAMES

        sc = Scenario(
            initial_text="hello world",
            granularity=Granularity.WORD,
            steps=(ScenarioStep(kind="gesture", gesture=GestureClass.FIST, hold=0.4),),
        )
        frames, _ = compile_scenario(sc)
        n_right = sum(1 for f in frames if f.handedness is Handedness.RIGHT)
        fist_at = range(70, 95)

        class Predictor:
            calls = 0

            def push(self, features):
                pass

            def __call__(self):
                i = self.calls
                self.calls += 1
                probs = np.full(8, 0.05 / 7)
                target = CLASS_NAMES.index("Fist") if i in fist_at else CLASS_NAMES.index("Null")
                probs[target] = 0.95
                probs /= probs.sum()
                return probs, np.zeros((20, 5))

        result = run_session(Predictor(), frames, initial_text=sc.initial_text, granularity=sc.granularity)
        assert [e.gesture for e in result.events] == [GestureClass.FIST]
        # Delete without a selection surfaces as a recorded error, not a crash
        assert result.command_errors and "Delete" in result.command_errors[0]
        assert result.right_frames == n_right


@pytest.fixture(scope="module")
def ckpt_path(tiny_trained, tmp_path_factory):
    params, _ = tiny_trained
    path = tmp_path_factory.mktemp("ckpt") / "model.mgc"
    session_io.save_checkpoint(params, path)
    return path


class TestCli:
    def test_unknown_flag_exits_2(self):
        result = CliRunner().invoke(main, ["synth", "--bogus"])
        assert result.exit_code == 2

    def test_synth_counts_and_determinism(self, tmp_path):
        runner = CliRunner()
        r1 = runner.invoke(main, ["synth", "--n-subjects", "1", "--reps", "1", "--null-reps", "1",
                                  "--seed", "5", "--out", str(tmp_path / "a")])
        assert r1.exit_code == 0, r1.output
        assert "wrote 8 clips" in r1.output
        r2 = runner.invoke(main, ["synth", "--n-subjects", "1", "--reps", "1", "--null-reps", "1",
                                  "--seed", "5", "--out", str(tmp_path / "b")])
        assert r2.exit_code == 0
        assert (tmp_path / "a" / "dataset.mgd").read_bytes() == (tmp_path / "b" / "dataset.mgd").read_bytes()

    def test_train_eval_smoke(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "run"
        r = runner.invoke(main, ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2",
                                 "--seed", "3", "--out", str(out)])
        assert r.exit_code == 0, r.output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": 16, "max_epochs": 2}))
        r = runner.invoke(main, ["train", "--dataset", str(out / "dataset.mgd"), "--fold-subject", "0",
                                 "--seed", "1", "--config", str(cfg), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert (out / "checkpoint.mgc").exists()
        assert (out / "config.json").read_text() == cfg.read_text()
        r = runner.invoke(main, ["eval", "--checkpoint", str(out / "checkpoint.mgc"),
                                 "--dataset", str(out / "dataset.mgd"), "--fold-subject", "0",
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert (out / "report.mgr").exists()
        payload = session_io.read_report(out / "report.mgr")
        assert np.array(payload["class_confusion"]).sum() == 2 * 7 + 2

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "1", "--reps", "1", "--null-reps", "1",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["train", "--dataset", str(ds / "dataset.mgd"),
                                      "--config", str(cfg), "--out", str(ds)])
        assert r.exit_code == 2
        assert "nonsense" in r.output

    @pytest.mark.parametrize("key, value", [("t_window", 20), ("val_fraction", 0.15)])
    def test_config_rejects_fixed_sizes_and_dead_knobs(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "hidden": 8, "max_epochs": 1}))
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["train", "--dataset", str(ds / "dataset.mgd"),
                                      "--config", str(cfg), "--out", str(ds)])
        assert r.exit_code == 2
        assert key in r.output

    def test_unsplittable_fold_is_a_usage_error(self, tmp_path, ckpt_path):
        # one repetition per gesture leaves no validation clips; subject 9 does not exist
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "2", "--reps", "1", "--null-reps", "1",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["train", "--dataset", str(ds / "dataset.mgd"), "--out", str(ds)])
        assert r.exit_code == 2, r.output
        assert "validation" in r.output
        assert not (ds / "checkpoint.mgc").exists()
        r = CliRunner().invoke(main, ["eval", "--checkpoint", str(ckpt_path), "--dataset",
                                      str(ds / "dataset.mgd"), "--fold-subject", "9", "--out", str(ds)])
        assert r.exit_code == 2, r.output
        assert "subject 9" in r.output

    def test_train_bad_dataset_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "garbage.mgd"
        bad.write_bytes(b"not a dataset at all")
        r = CliRunner().invoke(main, ["train", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "garbage.mgd" in r.output and "VersionMismatch" in r.output

    def test_sub_state_past_4_is_a_usage_error(self, tmp_path, ckpt_path):
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2",
                                  "--out", str(ds)])
        dataset = session_io.read_dataset(ds / "dataset.mgd")
        clips = list(dataset.clips)
        clips[0] = replace(clips[0], substates=np.full(len(clips[0]), 9))
        bad = tmp_path / "substate9.mgd"
        session_io.write_dataset(replace(dataset, clips=tuple(clips)), bad)
        for argv in (["train"], ["eval", "--checkpoint", str(ckpt_path)]):
            r = CliRunner().invoke(main, [*argv, "--dataset", str(bad), "--out", str(tmp_path / "o")])
            assert r.exit_code == 2, r.output
            assert "substate9.mgd" in r.output and "CorruptRecord" in r.output

    def test_eval_bad_checkpoint_is_a_usage_error(self, tmp_path, ckpt_path):
        bad = tmp_path / "flipped.mgc"
        raw = bytearray(ckpt_path.read_bytes())
        raw[-1] ^= 0xFF  # the content hash no longer matches
        bad.write_bytes(bytes(raw))
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "1", "--reps", "1", "--null-reps", "1",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["eval", "--checkpoint", str(bad), "--dataset", str(ds / "dataset.mgd"),
                                      "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "flipped.mgc" in r.output and "HashMismatch" in r.output

    def test_stream_bad_checkpoint_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "garbage.mgc"
        bad.write_bytes(b"\x00" * 64)
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(bad), "--script", "default",
                                      "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "garbage.mgc" in r.output and "VersionMismatch" in r.output

    def test_stream_undecodable_session_is_a_usage_error(self, tmp_path, ckpt_path):
        bad = tmp_path / "latin1.mgs"
        session_io.write_session(bad, [], [])
        with open(bad, "ab") as fh:
            fh.write(b"E 1.0 Swipe 0.97\xff\n")
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(ckpt_path), "--session", str(bad),
                                      "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "latin1.mgs" in r.output and "CorruptRecord" in r.output

    def test_stream_session_going_back_in_time_is_a_usage_error(self, tmp_path, ckpt_path):
        frames, _ = compile_scenario(default_scenario(7))
        right = [f for f in frames if f.handedness is Handedness.RIGHT][:30]
        bad = tmp_path / "backward.mgs"
        session_io.write_session(bad, right[:25] + [right[10]] + right[25:], [])
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(ckpt_path), "--session", str(bad),
                                      "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "backward.mgs" in r.output and "CorruptRecord" in r.output and "not after" in r.output

    def test_config_with_non_finite_value_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"learning_rate": NaN}')
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "1", "--reps", "1", "--null-reps", "1",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["train", "--dataset", str(ds / "dataset.mgd"),
                                      "--config", str(cfg), "--out", str(ds)])
        assert r.exit_code == 2, r.output
        assert "learning_rate" in r.output

    @pytest.mark.parametrize("name", sorted(MALFORMED_SCRIPTS))
    def test_stream_malformed_script_is_a_usage_error(self, tmp_path, ckpt_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MALFORMED_SCRIPTS[name]))
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(ckpt_path), "--script", str(path),
                                      "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert f"{name}.json" in r.output and "BadScenario" in r.output

    def test_train_rejects_fsm_config_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": 8, "max_epochs": 1, "delta": 0.9}))
        ds = tmp_path / "d"
        CliRunner().invoke(main, ["synth", "--n-subjects", "2", "--reps", "2", "--null-reps", "2",
                                  "--out", str(ds)])
        r = CliRunner().invoke(main, ["train", "--dataset", str(ds / "dataset.mgd"),
                                      "--config", str(cfg), "--out", str(ds)])
        assert r.exit_code == 2, r.output
        assert "delta" in r.output and "hidden" not in r.output
        assert not (ds / "checkpoint.mgc").exists()

    @pytest.mark.parametrize("config, key", [({"hidden": 999}, "hidden"), ({"delta": 1.5}, "delta")])
    def test_stream_rejects_training_keys_and_bad_fsm_values(self, tmp_path, ckpt_path, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(ckpt_path), "--script", "default",
                                      "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert key in r.output
        assert not (tmp_path / "o" / "session.mgs").exists()

    def test_stream_config_overrides_only_the_fields_it_names(self, tmp_path, ckpt_path, monkeypatch):
        # {"delta": 0.95} is the default value: the run must keep the
        # script's own refractory and equal a run without --config
        from microgext import scenario

        cfgs = []
        real_run_session = scenario.run_session

        def recording_run_session(params, frames, cfg, *args, **kwargs):
            cfgs.append(cfg)
            return real_run_session(params, frames, cfg, *args, **kwargs)

        monkeypatch.setattr(scenario, "run_session", recording_run_session)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.95}))
        base = ["stream", "--checkpoint", str(ckpt_path), "--script", "default", "--seed", "7"]
        plain = CliRunner().invoke(main, [*base, "--out", str(tmp_path / "plain")])
        configured = CliRunner().invoke(main, [*base, "--config", str(cfg), "--out", str(tmp_path / "cfg")])
        assert cfgs == [default_scenario(7).fsm_config()] * 2
        assert configured.exit_code == plain.exit_code
        for name in ("session.mgs", "commands.log", "final_document.txt", "events.json"):
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_config_option_rejected_where_unused(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": 16}))
        r = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert r.exit_code == 2, r.output
        assert "--config" in r.output

    def test_stream_requires_exactly_one_source(self, ckpt_path):
        r = CliRunner().invoke(main, ["stream", "--checkpoint", str(ckpt_path)])
        assert r.exit_code == 2
