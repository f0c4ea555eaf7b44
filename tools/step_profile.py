"""Per-statement timings of the training step, inside one training fold.

    python3 tools/step_profile.py [--json PATH]

Trains fold 0 (subject 0 held out) of the default synthetic dataset (10
subjects, 20 repetitions per gesture and 20 Null, seed 0) at the CI
configuration (hidden 64, learning rate 2e-3, master seed 5, up to 60
epochs) and prints, for ``network.joint_stage``, ``network.heads``,
``network.forward_batch`` and ``network.loss_and_grads``, the median time of
each top-level statement of the function body over every call, beside the
median of the whole call.

The functions are instrumented in memory: the tool parses each one's
source, wraps every top-level statement of its body in a clock reading and
``try``/``finally``, compiles the result in the module's own namespace and
puts it in place of the original until the fold is done. No source file is
edited. A compound statement (``if``, ``for``, ``with``) is timed as one.
Times nest: the ``forward_batch`` statement of ``loss_and_grads`` includes
the whole forward, which is itemized again under ``forward_batch``, and its
``heads`` statement is itemized under ``heads``. ``forward_batch`` rows pool
the cached forwards of the training steps with the validation-loss forwards
of each epoch; ``joint_stage`` and ``heads`` rows likewise.
"""

from __future__ import annotations

import __future__
import argparse
import ast
import functools
import inspect
import json
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = ("joint_stage", "heads", "forward_batch", "loss_and_grads")
CI_HIDDEN, CI_LEARNING_RATE, CI_MASTER_SEED, CI_EPOCHS = 64, 2e-3, 5, 60
SUBJECTS, REPS, NULL_REPS, DATASET_SEED = 10, 20, 20, 0
FOLD = 0


class StatementTimes:
    """Durations in seconds by (function, first line of the statement), and
    the whole-call durations by function."""

    def __init__(self):
        self.statements: dict[tuple[str, int], list[float]] = {}
        self.calls: dict[str, list[float]] = {}

    def record(self, name: str, line: int, seconds: float) -> None:
        self.statements.setdefault((name, line), []).append(seconds)


def timed_function(fn, name: str, times: StatementTimes):
    """``fn`` rebuilt with each top-level statement of its body timed."""
    path = inspect.getsourcefile(fn)
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    ast.increment_lineno(tree, first - 1)
    func = tree.body[0]
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    timed = []
    for stmt in body:
        start = ast.parse("_step_profile_t0 = _step_profile_clock()").body[0]
        stop = ast.parse(
            f"_step_profile_record({name!r}, {stmt.lineno}, _step_profile_clock() - _step_profile_t0)"
        ).body[0]
        timed += [start, ast.Try(body=[stmt], handlers=[], orelse=[], finalbody=[stop])]
    func.body = timed
    # a factory closes over the two helpers; globals stay the module's own,
    # so the rebuilt function calls whatever the module holds at call time
    factory = ast.FunctionDef(
        name="_step_profile_factory",
        args=ast.arguments(posonlyargs=[], args=[ast.arg("_step_profile_clock"), ast.arg("_step_profile_record")],
                           kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=[func, ast.Return(ast.Name(func.name, ast.Load()))],
        decorator_list=[],
    )
    module = ast.fix_missing_locations(ast.Module(body=[factory], type_ignores=[]))
    scope: dict = {}
    exec(compile(module, path, "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True),
         fn.__globals__, scope)
    rebuilt = scope["_step_profile_factory"](time.perf_counter, times.record)

    @functools.wraps(fn)
    def whole_call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return rebuilt(*args, **kwargs)
        finally:
            times.calls.setdefault(name, []).append(time.perf_counter() - t0)

    return whole_call


def summary(times: StatementTimes, network) -> list[dict]:
    """One block per function: its call median and each statement's median,
    in source order."""
    blocks = []
    for fn_name in FUNCTIONS:
        name = f"network.{fn_name}"
        calls = times.calls.get(name, [])
        if not calls:
            continue
        source = inspect.getsourcefile(getattr(network, fn_name))
        text = Path(source).read_text().splitlines()
        call_median = float(np.median(calls))
        rows = []
        for (fn, line), samples in sorted(times.statements.items()):
            if fn != name:
                continue
            med = float(np.median(samples))
            rows.append({
                "line": line, "calls": len(samples), "median_us": med * 1e6,
                "share": med / call_median if call_median > 0 else 0.0,
                "statement": text[line - 1].strip(),
            })
        blocks.append({"function": name, "calls": len(calls), "median_ms": call_median * 1e3,
                       "statements": rows})
    return blocks


def print_summary(blocks: list[dict]) -> None:
    for block in blocks:
        print(f"{block['function']}: {block['calls']} calls, median {block['median_ms']:.3f} ms")
        print(f"  {'line':>5} {'calls':>6} {'median_us':>10} {'share':>6}  statement")
        for row in block["statements"]:
            print(f"  {row['line']:>5} {row['calls']:>6} {row['median_us']:>10.1f} {row['share']:>6.1%}  "
                  f"{row['statement'][:90]}")
        print()


def profile(dataset, hp, fold: int) -> list[dict]:
    """Train ``fold`` of ``dataset`` with the network's step functions timed
    statement by statement, put the originals back and return the summary."""
    from microgext import network, training

    times = StatementTimes()
    originals = {name: getattr(network, name) for name in FUNCTIONS}
    for name, fn in originals.items():
        setattr(network, name, timed_function(fn, f"network.{name}", times))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            training.train(dataset, fold, hp)
    finally:
        for name, fn in originals.items():
            setattr(network, name, fn)
    return summary(times, network)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None, help="also write the summary here")
    args = parser.parse_args(argv)

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from microgext import network, synth

    dataset = synth.make_dataset(SUBJECTS, REPS, NULL_REPS, seed=DATASET_SEED)
    hp = network.HyperParams(hidden=CI_HIDDEN, max_epochs=CI_EPOCHS, learning_rate=CI_LEARNING_RATE,
                             master_seed=CI_MASTER_SEED)
    blocks = profile(dataset, hp, FOLD)
    print_summary(blocks)
    if args.json is not None:
        args.json.write_text(json.dumps({"fold": FOLD, "hidden": CI_HIDDEN, "epochs": CI_EPOCHS,
                                         "functions": blocks}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
