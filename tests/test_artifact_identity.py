"""tools/artifact_identity.py: one tree against itself, and difference reporting."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_identity.py"


@pytest.fixture(scope="module")
def identity_tool():
    spec = importlib.util.spec_from_file_location("artifact_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself_is_identical(identity_tool, capsys):
    assert identity_tool.main([str(ROOT / "src"), str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # without --checkpoints the stream runs are skipped, and the tool says so
    assert lines[0] == "skipped  stream runs: no --checkpoints given"
    assert all(line.startswith("same") for line in lines[1:-1])
    assert not any("stream-" in line for line in lines)
    n_rows = len(identity_tool.commands(Path("."), None)) + len(identity_tool.artifacts(streams=False))
    assert lines[-1] == f"{n_rows} of {n_rows} identical"


def test_each_tree_streams_with_its_own_checkpoint(identity_tool, tmp_path):
    steps = identity_tool.commands(tmp_path, tmp_path / "own.mgc")
    streams = [argv for name, argv in steps.items() if name.startswith("stream-")]
    assert len(streams) == len(identity_tool.STREAM_SEEDS) == 8
    for argv in streams + [steps["replay"]]:
        assert argv[argv.index("--checkpoint") + 1] == str(tmp_path / "own.mgc")
    # the replay reads the tree's own seed-7 recording, after that run wrote it
    replay = steps["replay"]
    assert replay[replay.index("--session") + 1] == str(tmp_path / "stream-7" / "session.mgs")
    assert list(steps).index("replay") > list(steps).index("stream-7")
    assert set(identity_tool.commands(tmp_path, None)) == {"synth", "train", "eval"}
    # 12 exit codes, 4 fold artifacts, 4 outputs of each of the 9 stream runs,
    # and the change tree's 4 replay outputs against its own seed-7 run
    n_within = len(identity_tool.STREAM_ARTIFACTS)
    assert len(steps) + len(identity_tool.artifacts(streams=True)) + n_within == 56


def test_differences_are_reported(identity_tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        for name in identity_tool.artifacts(streams=True):
            (side / name).parent.mkdir(parents=True, exist_ok=True)
            (side / name).write_bytes(b"same bytes")
    (change / "checkpoint.mgc").write_bytes(b"other bytes")
    (parent / "stream-9" / "events.json").unlink()
    (change / "stream-9" / "events.json").unlink()
    (change / "replay" / "commands.log").write_bytes(b"other bytes")
    # both trees replay to the same events, but not to their own seed-7 run's
    for side in (parent, change):
        (side / "replay" / "events.json").write_bytes(b"doubled events")
    rows = dict(identity_tool.compare(parent, change, {"train": 0, "eval": 0}, {"train": 0, "eval": 2},
                                      streams=True))
    assert len(rows) == 2 + len(identity_tool.artifacts(streams=True)) + 4
    differing = sorted(label for label, same in rows.items() if not same)
    assert differing == [
        "change replay/commands.log == stream-7/commands.log",
        "change replay/events.json == stream-7/events.json",
        "checkpoint.mgc", "exit eval 0 2", "replay/commands.log", "stream-9/events.json",
    ]
