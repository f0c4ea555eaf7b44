"""Tests of the benchmark itself: ``python3 -m pytest bench/tests``.

They import the benchmark's modules the way ``bench/run.py`` does, with the
benchmark directory on the path, and the program from the checkout's src/.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.import_program()
