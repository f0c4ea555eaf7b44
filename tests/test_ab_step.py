"""tools/ab_step.py: one tree against itself on a tiny dataset."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_step.py"


@pytest.fixture(scope="module")
def ab_tool():
    spec = importlib.util.spec_from_file_location("ab_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_fold(ab_tool, monkeypatch):
    # subject 1 keeps 7 of its 8 repetitions per class: 56 clips, 2 batches
    monkeypatch.setattr(ab_tool, "SUBJECTS", 2)
    monkeypatch.setattr(ab_tool, "REPS", 8)
    monkeypatch.setattr(ab_tool, "NULL_REPS", 8)


def test_tree_against_itself(ab_tool, tiny_fold, capsys, monkeypatch):
    monkeypatch.setattr(ab_tool, "STEPS", 2)
    monkeypatch.setattr(ab_tool, "ROUNDS", 2)
    src = str(ROOT / "src")
    assert ab_tool.main([src, src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fold 0, hidden 64, 2 steps, 2 rounds, per-step minima over rounds"
    assert [line.split()[0] for line in lines[2:7]] == ["A", "B", "A'", "B/A", "floor"]
    for line in lines[2:5]:
        p50, p99 = map(float, line.split()[-2:])
        assert 0.0 < p50 <= p99
    assert lines[-1] == "parameters byte-identical on every side and round"


def test_differing_parameters_are_reported(ab_tool, tiny_fold):
    sides = ab_tool.run(ROOT / "src", ROOT / "src", 2, 1)
    assert ab_tool.mismatches(sides) == []
    # every copy times each step once per round
    assert [len(side.step_ms) for side in sides] == [1, 1, 1]
    assert {len(ab_tool.step_minima(side)) for side in sides} == {2}
    final = dict(sides[1].finals[0])
    final["b_in"] = bytes(len(final["b_in"]))
    sides[1].finals[0] = final
    assert ab_tool.mismatches(sides) == ["B ends round 0 on other parameters than A"]
