"""Document engine: segmentation oracles, command semantics, undo, fuzzing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgext.editor import (
    CommandKind,
    Document,
    EditCommand,
    EmptyClipboard,
    Granularity,
    NoSelection,
    UndoStackEmpty,
    apply,
    move_caret,
    segment,
    select_range,
)

from . import editor_reference as ref

# Letters, terminators, spaces and line breaks, plus every code point
# str.isspace knows, so the unit rules meet every separator they must handle.
ALPHABET = "ab c.\nX!z? " + "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
TEXTS = st.text(alphabet=st.sampled_from(ALPHABET), max_size=60)


class TestSegment:
    def test_empty_text_single_boundary(self):
        for g in Granularity:
            assert segment("", g) == [0]

    def test_character_every_index(self):
        assert segment("abc", Granularity.CHARACTER) == [0, 1, 2]

    def test_word_example(self):
        assert segment("hello world", Granularity.WORD) == [0, 6]

    def test_sentence_hand_scan(self):
        # "A b. C d." -> sentences start at 0 and at 'C' (index 5)
        assert segment("A b. C d.", Granularity.SENTENCE) == [0, 5]

    def test_paragraph_hand_scan(self):
        # "p1\n\np2" -> paragraphs start at 0 and at 'p' (index 4)
        assert segment("p1\n\np2", Granularity.PARAGRAPH) == [0, 4]

    def test_single_newline_not_a_paragraph_break(self):
        assert segment("a\nb", Granularity.PARAGRAPH) == [0]

    @given(TEXTS, st.sampled_from(list(Granularity)))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_and_starts_at_zero(self, text, g):
        starts = segment(text, g)
        assert starts == ref.unit_starts(text, g.value)
        assert starts[0] == 0
        assert all(b > a for a, b in zip(starts, starts[1:]))
        assert all(0 <= s <= max(len(text) - 1, 0) for s in starts)


class TestMoveCaret:
    def test_word_step_example(self):
        doc = Document.create("hello world", Granularity.WORD)
        out = move_caret(doc, +1)
        assert out.caret == 6

    def test_zero_delta_unchanged(self):
        doc = Document.create("hello world", Granularity.WORD)
        assert move_caret(doc, 0).caret == doc.caret

    def test_clamped_at_end(self):
        doc = Document.create("abc", Granularity.CHARACTER)
        doc = move_caret(doc, +10)
        assert doc.caret == 3
        assert move_caret(doc, +1).caret == 3

    def test_clamped_at_start(self):
        doc = Document.create("abc", Granularity.CHARACTER)
        assert move_caret(doc, -5).caret == 0

    def test_clears_selection(self):
        doc = Document.create("abc def", Granularity.WORD)
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        out = move_caret(doc, -1)
        assert out.selection is None


class TestApply:
    def test_cut_example(self):
        doc = Document.create("abc")
        doc = Document(
            text="abc", caret=0, selection=(0, 2), granularity=Granularity.CHARACTER,
            initial=doc.initial,
        )
        out = apply(doc, EditCommand(CommandKind.CUT))
        assert out.text == "c" and out.clipboard == "ab" and out.caret == 0
        assert out.selection is None

    def test_select_all_spans_document(self):
        doc = Document.create("some text here")
        out = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        assert out.selection == (0, len(doc.text))

    def test_delete_keeps_clipboard(self):
        doc = Document.create("abcdef")
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        doc = apply(doc, EditCommand(CommandKind.COPY))
        doc = apply(doc, EditCommand.select_range(2))  # new selection
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        out = apply(doc, EditCommand(CommandKind.DELETE))
        assert out.text == "" and out.clipboard == "abcdef"

    def test_cut_equals_copy_then_delete(self):
        base = Document.create("the lazy dog")
        base = apply(base, EditCommand(CommandKind.SELECT_ALL))
        via_cut = apply(base, EditCommand(CommandKind.CUT))
        via_pair = apply(apply(base, EditCommand(CommandKind.COPY)), EditCommand(CommandKind.DELETE))
        assert (via_cut.text, via_cut.clipboard) == (via_pair.text, via_pair.clipboard)

    def test_paste_replaces_selection(self):
        doc = Document.create("hello world")
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        doc = apply(doc, EditCommand(CommandKind.COPY))
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        out = apply(doc, EditCommand(CommandKind.PASTE))
        assert out.text == "hello world"
        assert out.caret == len("hello world")

    def test_errors(self):
        doc = Document.create("abc")
        with pytest.raises(NoSelection):
            apply(doc, EditCommand(CommandKind.CUT))
        with pytest.raises(NoSelection):
            apply(doc, EditCommand(CommandKind.COPY))
        with pytest.raises(NoSelection):
            apply(doc, EditCommand(CommandKind.DELETE))
        with pytest.raises(EmptyClipboard):
            apply(doc, EditCommand(CommandKind.PASTE))
        with pytest.raises(UndoStackEmpty):
            apply(doc, EditCommand(CommandKind.UNDO))

    def test_reset_task_restores_initial(self):
        doc = Document.create("start text")
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        doc = apply(doc, EditCommand(CommandKind.DELETE))
        out = apply(doc, EditCommand(CommandKind.RESET_TASK))
        assert out.text == "start text" and out.caret == 0 and out.selection is None
        assert out.undo_stack == ()

    def test_undo_depth_bounded(self):
        doc = Document.create("x" * 5)
        for _ in range(120):
            doc = apply(doc, EditCommand.move_caret(1))
        assert len(doc.undo_stack) == 100


class TestSelectRange:
    def test_word_forward_excludes_separator(self):
        doc = Document.create("hello world", Granularity.WORD)
        out = select_range(doc, +1)
        assert out.selection == (0, 5)
        assert out.caret == 5

    def test_second_step_takes_next_word(self):
        doc = Document.create("hello world", Granularity.WORD)
        out = select_range(select_range(doc, +1), +1)
        assert out.selection == (0, 11)

    def test_sentence_keeps_terminator_drops_space(self):
        doc = Document.create("A b. C d.", Granularity.SENTENCE)
        out = select_range(doc, +1)
        assert out.selection == (0, 4)
        assert doc.text[slice(*out.selection)] == "A b."

    def test_backward_from_end(self):
        text = "hello world"
        doc = Document.create(text, Granularity.WORD)
        doc = move_caret(doc, +2)
        out = select_range(doc, -1)
        assert out.selection == (11, 6)
        assert text[6:11] == "world"

    def test_reversal_collapses(self):
        doc = Document.create("hello world", Granularity.WORD)
        out = select_range(select_range(doc, +1), -1)
        assert out.selection is None

    def test_snap_outward_from_mid_word(self):
        doc = Document.create("hello world", Granularity.WORD)
        doc = Document(
            text=doc.text, caret=2, granularity=Granularity.WORD, initial=doc.initial
        )
        out = select_range(doc, +1)
        assert out.selection == (0, 5)


class TestUndoInverse:
    COMMANDS = [
        EditCommand.move_caret(1),
        EditCommand.move_caret(-2),
        EditCommand.select_range(1),
        EditCommand(CommandKind.SELECT_ALL),
        EditCommand(CommandKind.CONFIRM_CARET),
        EditCommand.set_granularity(Granularity.SENTENCE),
    ]

    @given(TEXTS, st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_undo_restores_state(self, text, cmd_index):
        doc = Document.create(text, Granularity.WORD)
        cmd = self.COMMANDS[cmd_index]
        after = apply(doc, cmd)
        restored = apply(after, EditCommand(CommandKind.UNDO))
        assert (restored.text, restored.caret, restored.selection) == (
            doc.text, doc.caret, doc.selection,
        )

    def test_undo_inverts_mutators(self):
        doc = Document.create("alpha beta gamma. next one.\n\npara two", Granularity.WORD)
        doc = apply(doc, EditCommand(CommandKind.SELECT_ALL))
        doc = apply(doc, EditCommand(CommandKind.COPY))
        for cmd in (
            EditCommand(CommandKind.CUT),
            EditCommand(CommandKind.DELETE),
            EditCommand(CommandKind.PASTE),
        ):
            base = apply(doc, EditCommand(CommandKind.SELECT_ALL))
            after = apply(base, cmd)
            restored = apply(after, EditCommand(CommandKind.UNDO))
            assert (restored.text, restored.caret, restored.selection) == (
                base.text, base.caret, base.selection,
            )


# ---------------------------------------------------------------------------
# Fuzzing against the naive reference
# ---------------------------------------------------------------------------

@given(
    st.text(alphabet=st.sampled_from(ALPHABET), max_size=300),
    st.sampled_from(list(Granularity)),
    st.data(),
    st.integers(-60, 60),
)
@settings(max_examples=300, deadline=None)
def test_long_range_steps_match_reference(text, g, data, delta):
    """Caret moves and selection steps of up to 60 units land where the
    reference's one-unit-at-a-time scans do."""
    caret = data.draw(st.integers(0, len(text)), label="caret")
    anchor = data.draw(st.none() | st.integers(0, len(text)), label="anchor")
    selection = None if anchor is None or anchor == caret else (anchor, caret)
    doc = Document(text=text, caret=caret, selection=selection, granularity=g)
    for step, ref_step in ((move_caret, ref.move_caret), (select_range, ref.select_range)):
        state = ref.new_state(text, g.value)
        state["caret"], state["selection"] = caret, selection
        ref_step(state, delta)
        out = step(doc, delta)
        assert (out.caret, out.selection) == (state["caret"], state["selection"]), step.__name__


FUZZ_KINDS = (
    CommandKind.MOVE_CARET,
    CommandKind.SELECT_RANGE,
    CommandKind.CUT,
    CommandKind.COPY,
    CommandKind.PASTE,
    CommandKind.UNDO,
    CommandKind.DELETE,
    CommandKind.SELECT_ALL,
    CommandKind.SET_GRANULARITY,
    CommandKind.CONFIRM_CARET,
    CommandKind.RESET_TASK,
)

SEED_TEXTS = [
    "",
    "a",
    "hello world",
    "A b. C d. Third one here!  And? more",
    "first paragraph line\n\nsecond paragraph\nstill second\n\n\nthird",
    "  leading spaces and trailing  ",
    "dots... and!? runs of terminators.",
]


def random_command(rng):
    kind = FUZZ_KINDS[rng.integers(0, len(FUZZ_KINDS))]
    delta = int(rng.integers(-3, 4))
    mode = list(Granularity)[rng.integers(0, 4)]
    return kind, delta, mode


def run_fuzz_case(seed: int, n_commands: int = 25) -> int:
    """Drive both engines; compare state after every command.

    Returns the number of compared steps (for reporting)."""
    rng = np.random.default_rng(seed)
    text = SEED_TEXTS[rng.integers(0, len(SEED_TEXTS))]
    doc = Document.create(text, Granularity.CHARACTER)
    state = ref.new_state(text, "Character")

    for step in range(n_commands):
        kind, delta, mode = random_command(rng)
        cmd = EditCommand(kind, delta=delta, mode=mode if kind is CommandKind.SET_GRANULARITY else None)
        prod_err = ref_err = None
        try:
            doc2 = apply(doc, cmd)
        except Exception as exc:  # noqa: BLE001 - fuzz compares failure kinds
            prod_err = type(exc).__name__
            doc2 = doc
        try:
            ref.apply_ref(state, kind.value, delta=delta, mode=mode.value)
        except ref.RefError as exc:
            ref_err = str(exc)

        assert (prod_err is None) == (ref_err is None), (seed, step, kind, prod_err, ref_err)
        if prod_err is not None:
            assert prod_err == ref_err, (seed, step, kind, prod_err, ref_err)
        doc = doc2

        ref_sel = state["selection"]
        assert doc.text == state["text"], (seed, step, kind)
        assert doc.caret == state["caret"], (seed, step, kind, doc.caret, state["caret"])
        assert doc.selection == ref_sel, (seed, step, kind, doc.selection, ref_sel)
        assert doc.clipboard == state["clipboard"], (seed, step, kind)
        assert doc.granularity.value == state["granularity"], (seed, step, kind)

        # standing invariants
        assert 0 <= doc.caret <= len(doc.text)
        if doc.selection is not None:
            a, h = doc.selection
            assert 0 <= a <= len(doc.text) and 0 <= h <= len(doc.text) and a != h
    return n_commands


def test_fuzz_against_reference_small():
    for seed in range(400):
        run_fuzz_case(seed)
