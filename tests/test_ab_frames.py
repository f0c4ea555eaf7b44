"""tools/ab_frames.py: one tree against itself on a tiny random model."""

import importlib.util
from pathlib import Path

import pytest

from microgext import network, session_io

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_frames.py"


@pytest.fixture(scope="module")
def ab_tool():
    spec = importlib.util.spec_from_file_location("ab_frames", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ab") / "tiny.mgc"
    session_io.save_checkpoint(network.init_params(network.HyperParams(hidden=8), seed=1), path)
    return path


def test_tree_against_itself(ab_tool, tiny_checkpoint, capsys, monkeypatch):
    monkeypatch.setattr(ab_tool, "SEEDS", (7,))
    monkeypatch.setattr(ab_tool, "ROUNDS", 2)
    src = str(ROOT / "src")
    assert ab_tool.main([src, src, "--checkpoint", str(tiny_checkpoint)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("script seeds 7, 2 rounds, ")
    assert [line.split()[0] for line in lines[2:7]] == ["A", "B", "A'", "B/A", "floor"]
    for line in lines[2:5]:
        p50, p99 = map(float, line.split()[-2:])
        assert 0.0 < p50 <= p99
    assert lines[-1] == "events, commands and final documents equal on every seed"


def test_a_differing_outcome_is_reported(ab_tool, tiny_checkpoint):
    sides = ab_tool.run(ROOT / "src", ROOT / "src", tiny_checkpoint, [7], 1)
    assert ab_tool.mismatches(sides) == []
    # every copy times each right-hand frame of the session once per round
    assert {len(ab_tool.frame_minima(side)) for side in sides} == {sides[0].frame_ms[7][0].size}
    events, commands, errors, document = sides[1].outcomes[7]
    sides[1].outcomes[7] = (events, commands, errors, ("other text",) + document[1:])
    assert ab_tool.mismatches(sides) == ["B differs from A on script seed 7"]
