"""tools/loso_summary.py: the ten-fold summary, run on a tiny dataset."""

import importlib.util
import subprocess
import sys
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
    synth, rows = summary_tool.run_folds(ROOT / "src", tmp_path, synth_args, {"hidden": 8, "max_epochs": 1}, (0, 2))
    assert synth["seconds"] > 0 and synth["peak_rss_mb"] > 0
    assert [r["fold"] for r in rows] == [0, 2]
    for r in rows:
        assert r["class_names"] == list(CLASS_NAMES)
        assert len(r["per_class_accuracy"]) == len(CLASS_NAMES)
        assert calibration.TAU_LO <= r["tau"] <= calibration.TAU_HI
        assert r["train_seconds"] > 0
        assert r["train_peak_rss_mb"] > 0
    text = summary_tool.render(synth, rows, calibration.TAU_LO, calibration.TAU_HI, calibration.TAU_TOL)
    lines = text.splitlines()
    assert lines[0] == f"synth {synth['seconds']:.2f} s, peak {synth['peak_rss_mb']:.1f} MB"
    assert lines[1] == ""
    lines = lines[2:]
    assert lines[0].split()[-2:] == ["train", "MB"]
    assert lines[1].split()[0] == "0" and lines[2].split()[0] == "2"
    assert [float(line.split()[-1]) for line in lines[1:3]] == [round(r["train_peak_rss_mb"], 1) for r in rows]
    assert [line.split()[0] for line in lines[5 : 5 + len(CLASS_NAMES)]] == list(CLASS_NAMES)
    assert lines[-1].endswith("of 2 folds")


def test_tau_bound_flags_only_a_bound(summary_tool):
    lo, hi, tol = calibration.TAU_LO, calibration.TAU_HI, calibration.TAU_TOL
    assert summary_tool.tau_bound(0.050004, lo, hi, tol) == "TAU_LO"
    assert summary_tool.tau_bound(hi - tol / 2, lo, hi, tol) == "TAU_HI"
    assert summary_tool.tau_bound(0.0579, lo, hi, tol) == ""


def test_each_child_reports_its_own_peak(tmp_path):
    # a stub CLI whose "big" command touches 64 MB, run big, small, big and
    # then a failing command from a fresh tool process, which holds far less
    # than this test process would carry into its children
    package = tmp_path / "microgext"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\n"
        "block = bytearray(64 * 2**20) if sys.argv[1] == 'big' else None\n"
        "sys.exit(3 if sys.argv[1] == 'fail' else 0)\n"
    )
    driver = (
        "import importlib.util, pathlib, subprocess, sys\n"
        f"spec = importlib.util.spec_from_file_location('loso_summary', {str(TOOL)!r})\n"
        "tool = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tool)\n"
        "src = pathlib.Path(sys.argv[1])\n"
        "print(*(tool._cli(src, c) for c in ('big', 'small', 'big')))\n"
        "try:\n"
        "    tool._cli(src, 'fail')\n"
        "except subprocess.CalledProcessError as exc:\n"
        "    print(exc.returncode)\n"
    )
    out = subprocess.run([sys.executable, "-c", driver, str(tmp_path)], capture_output=True, text=True,
                         check=True)
    big, small, big_again = map(float, out.stdout.split()[:3])
    assert big > small + 48 and big_again > small + 48
    assert out.stdout.split()[3] == "3"
