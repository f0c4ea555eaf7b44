"""edit_long_doc: the editor at the paper's long-range scale.

Set-up generates ``POOL`` documents of exactly 27,000 characters (sentences
of random words, varied terminators, blank-line paragraphs) and one round of
commands for each, all from the workload seed, and opens each document with
``Document.create``. One round applies one document's commands through
``editor.apply``; a pass applies every document's round once, and a run
makes at least ``MIN_PASSES`` passes. An operation is one ``apply`` call,
with one clock reading per call.

A round is a block per granularity, in seeded order. Every block holds the
same tasks with the same extents, in seeded order: caret moves and range
selections, short (1, 2 or 3 units) and long (50 characters, 16 words, 6
sentences or 3 paragraphs), with copy, cut and paste back, delete and
undo, and select-all. Only the order and the directions vary with the
seed, so rounds cost alike whatever the seed. A command the editor must refuse (Cut after a selection
that came out empty at the end of the text, say) raises; that is the
editor's specified answer, so it counts as a correct operation when the
reference raises the same error kind.

After each round, outside its timed part, the same commands are replayed
through the naive reference editor of the program's test suite; text,
caret, selection, clipboard and the raised error kind must match after
every command. The reference outcome of a pooled document is computed once.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import harness

POOL = 5
DOC_CHARS = 27_000
TASK_REPEATS = 2  # 4 granularities x (1 + 2 x 29) = 236 commands per round
MIN_PASSES = 2  # 5 documents x 236 = 1180 distinct operations, each timed twice
GRANULARITIES = ("Character", "Word", "Sentence", "Paragraph")
LONG_EXTENT = {"Character": 50, "Word": 16, "Sentence": 6, "Paragraph": 3}
_LETTERS = np.array(list("etaoinshrdlucmfwypvbgkjqxz"))
_LETTER_P = np.array([12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8, 2.4, 2.2,
                      2.4, 2.0, 1.9, 1.0, 1.5, 2.0, 0.8, 0.2, 0.2, 0.1, 0.1])
_LETTER_P = _LETTER_P / _LETTER_P.sum()
_ENDINGS = (".", ".", ".", "!", "?", "...", "?!")


def make_document(rng: np.random.Generator, length: int = DOC_CHARS) -> str:
    """Seeded prose cut to exactly ``length`` characters."""
    paragraphs, total = [], 0
    while total < length:
        sentences = []
        for _ in range(int(rng.integers(3, 9))):
            lengths = rng.integers(1, 11, int(rng.integers(4, 16)))
            letters = rng.choice(_LETTERS, size=int(lengths.sum()), p=_LETTER_P)
            words, at = [], 0
            for n in lengths:
                words.append("".join(letters[at : at + n]))
                at += n
            for k in np.flatnonzero(rng.random(len(words) - 1) < 0.08):
                words[k] += ","
            sep = "  " if rng.random() < 0.1 else " "
            sentences.append(" ".join(words).capitalize() + _ENDINGS[int(rng.integers(len(_ENDINGS)))] + sep)
        paragraphs.append("".join(sentences).rstrip() + ("\n\n\n" if rng.random() < 0.15 else "\n\n"))
        total += len(paragraphs[-1])
    return "".join(paragraphs)[:length]


def _block(rng: np.random.Generator, gran: str):
    """One granularity's share of a round: the same tasks with the same
    extents every time, in a seeded order with seeded directions."""
    shorts = iter([1, 2, 3] * 8 * TASK_REPEATS)

    def sign() -> int:
        return 1 if rng.random() < 0.5 else -1

    def short() -> int:
        return next(shorts) * sign()

    def long() -> int:
        return LONG_EXTENT[gran] * sign()

    tasks = []
    for _ in range(TASK_REPEATS):
        tasks += [[("MoveCaret", short(), None)] for _ in range(4)]
        tasks += [[("MoveCaret", long(), None)] for _ in range(3)]
        tasks += [[("SelectRange", short(), None), ("SelectRange", short(), None), ("Copy", 0, None)]
                  for _ in range(3)]
        tasks += [[("SelectRange", long(), None), ("Copy", 0, None)] for _ in range(2)]
        tasks.append([("SelectRange", short(), None), ("Cut", 0, None), ("MoveCaret", short(), None),
                      ("Paste", 0, None)])
        tasks.append([("SelectRange", short(), None), ("Delete", 0, None), ("Undo", 0, None)])
        tasks.append([("SelectAll", 0, None), ("MoveCaret", -abs(short()), None)])
    out = [("SetGranularity", 0, gran)]
    for k in rng.permutation(len(tasks)):
        out += tasks[k]
    return out


def make_commands(rng: np.random.Generator):
    """One round's (kind, delta, mode) stream: a block per granularity, in
    a seeded order. Every round holds the same tasks, so rounds cost alike
    whatever the seed; cuts are pasted back and deletes undone, so the
    document keeps its length."""
    out = []
    for g in rng.permutation(len(GRANULARITIES)):
        out += _block(rng, GRANULARITIES[g])
    return out


def fingerprint(text: str, caret: int, selection, clipboard: str, error) -> tuple:
    digest = lambda s: hashlib.sha1(s.encode("utf-8")).hexdigest()
    return (digest(text), len(text), caret, tuple(selection) if selection else None, digest(clipboard), error)


def reference_outcome(ref, text: str, commands) -> list[tuple]:
    state = ref.new_state(text)
    outcome = []
    for kind, delta, mode in commands:
        error = None
        try:
            ref.apply_ref(state, kind, delta, mode)
        except ref.RefError as exc:
            error = str(exc)
        outcome.append(fingerprint(state["text"], state["caret"], state["selection"], state["clipboard"], error))
    return outcome


def check_round(docs, raised, expected, spec) -> str | None:
    """The first command after which the program's document or raised error
    differs from the reference outcome, as a message; None if none does."""
    if len(docs) != len(expected):
        return f"{len(docs)} outcomes for {len(expected)} commands"
    for i, (doc, error) in enumerate(zip(docs, raised)):
        if fingerprint(doc.text, doc.caret, doc.selection, doc.clipboard, error) != expected[i]:
            return f"command {i} {spec[i]}: state differs from the reference"
    return None


def to_command(editor, kind: str, delta: int, mode):
    return editor.EditCommand(editor.CommandKind(kind), delta=delta,
                              mode=editor.Granularity(mode) if mode is not None else None)


def _trace(tracer):
    from microgext import editor

    tracer.wrap(editor, "apply", harness.apply_label)
    tracer.wrap(editor, "segment", "editor.segment")


def run(seed: int, seconds: float, tracer=None, min_passes: int = MIN_PASSES, pool: int = POOL,
        doc_chars: int = DOC_CHARS) -> harness.Outcome:
    harness.import_program()
    from microgext import editor

    ref = harness.load_reference_editor()

    def build():
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(pool):
            text = make_document(rng, doc_chars)
            spec = make_commands(rng)
            items.append((text, spec, [to_command(editor, *c) for c in spec], editor.Document.create(text)))
        return items

    out = harness.Outcome()
    items, out.setup_s = harness.timed_setup(build)
    if tracer is not None:
        _trace(tracer)
    expected: dict[int, list[tuple]] = {}
    mismatches: list[str] = []
    errors_raised = 0

    def do_round(slot: int) -> float:
        nonlocal errors_raised
        text, spec, commands, doc = items[slot]
        apply, edit_error, clock = editor.apply, editor.EditError, time.perf_counter
        docs, raised = [], []
        stamps = [clock()]
        for cmd in commands:
            try:
                doc = apply(doc, cmd)
                raised.append(None)
            except edit_error as exc:
                raised.append(type(exc).__name__)
            docs.append(doc)
            stamps.append(clock())
        elapsed = stamps[-1] - stamps[0]
        out.add_round(slot, elapsed, np.diff(stamps) * 1e3)
        errors_raised += sum(e is not None for e in raised)

        if slot not in expected:
            expected[slot] = reference_outcome(ref, text, spec)
        mismatch = check_round(docs, raised, expected[slot], spec)
        if mismatch:
            mismatches.append(f"document {slot}, {mismatch}")
        return elapsed

    try:
        passes = harness.run_passes(seconds, len(items), min_passes, do_round)
    finally:
        if tracer is not None:
            tracer.close()
    out.peak_rss_mb = harness.peak_rss_mb()
    out.errors = mismatches
    out.notes = {
        "passes": passes,
        "document_chars": [len(item[0]) for item in items],
        "edit_errors_raised": errors_raised,
    }
    if tracer is not None:
        out.layers = harness.editor_layers(tracer, GRANULARITIES)
    return out
