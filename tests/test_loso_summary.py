"""tools/loso_summary.py: the ten-fold summary, run on a tiny dataset."""

import importlib.util
from pathlib import Path

import pytest

from microgext import calibration
from microgext.synth import CLASS_NAMES

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "loso_summary.py"


@pytest.fixture(scope="module")
def summary_tool():
    spec = importlib.util.spec_from_file_location("loso_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_folds_through_the_cli(summary_tool, tmp_path):
    synth_args = {"n-subjects": 3, "reps": 2, "null-reps": 2, "seed": 0}
    rows = summary_tool.run_folds(ROOT / "src", tmp_path, synth_args, {"hidden": 8, "max_epochs": 1}, (0, 2))
    assert [r["fold"] for r in rows] == [0, 2]
    for r in rows:
        assert r["class_names"] == list(CLASS_NAMES)
        assert len(r["per_class_accuracy"]) == len(CLASS_NAMES)
        assert calibration.TAU_LO <= r["tau"] <= calibration.TAU_HI
        assert r["train_seconds"] > 0
    text = summary_tool.render(rows, calibration.TAU_LO, calibration.TAU_HI, calibration.TAU_TOL)
    lines = text.splitlines()
    assert lines[1].split()[0] == "0" and lines[2].split()[0] == "2"
    assert [line.split()[0] for line in lines[5 : 5 + len(CLASS_NAMES)]] == list(CLASS_NAMES)
    assert lines[-1].endswith("of 2 folds")


def test_tau_bound_flags_only_a_bound(summary_tool):
    lo, hi, tol = calibration.TAU_LO, calibration.TAU_HI, calibration.TAU_TOL
    assert summary_tool.tau_bound(0.050004, lo, hi, tol) == "TAU_LO"
    assert summary_tool.tau_bound(hi - tol / 2, lo, hi, tol) == "TAU_HI"
    assert summary_tool.tau_bound(0.0579, lo, hi, tol) == ""
