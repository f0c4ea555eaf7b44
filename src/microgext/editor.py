"""Deterministic text-editing document model.

A Document is an immutable value: text, caret, optional selection, the
active granularity mode, clipboard, and a bounded undo stack of
(text, caret, selection) snapshots. apply() is a pure transition; every
successfully applied command except Undo and ResetTask pushes a snapshot
first, so Undo restores the prior (text, caret, selection) exactly. The
clipboard is never part of a snapshot: undoing a Cut restores the text but
keeps the captured clipboard, as in conventional editors.

Granularity-aware navigation runs on one unit index per (text,
granularity), built once and cached: the sorted unit starts that segment()
lists, and each unit's content end. A unit spans from its start to the next
start; its content end drops the trailing whitespace of that span (sentence
terminators are content, separator blank lines and inter-word spaces are
not), except in character mode where the unit is the single character
itself. Caret moves and selection steps are bisect lookups into the two
sorted sequences, so once the index is built a command costs O(log n)
however many units it moves. Range selection snaps outward to unit
boundaries but never swallows trailing whitespace.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

UNDO_DEPTH = 100


class Granularity(Enum):
    CHARACTER = "Character"
    WORD = "Word"
    SENTENCE = "Sentence"
    PARAGRAPH = "Paragraph"


# What ends a unit: a unit starts after each match that ends inside the text.
_UNIT_BREAKS = {
    Granularity.WORD: r"\s+",
    Granularity.SENTENCE: r"[.!?]+\s*",
    Granularity.PARAGRAPH: r"\n{2,}",
}


class CommandKind(Enum):
    MOVE_CARET = "MoveCaret"
    SELECT_RANGE = "SelectRange"
    CUT = "Cut"
    COPY = "Copy"
    PASTE = "Paste"
    UNDO = "Undo"
    DELETE = "Delete"
    SELECT_ALL = "SelectAll"
    SET_GRANULARITY = "SetGranularity"
    CONFIRM_CARET = "ConfirmCaret"
    RESET_TASK = "ResetTask"


@dataclass(frozen=True)
class EditCommand:
    kind: CommandKind
    delta: int = 0
    mode: Granularity | None = None

    @staticmethod
    def move_caret(delta: int) -> "EditCommand":
        return EditCommand(CommandKind.MOVE_CARET, delta=delta)

    @staticmethod
    def select_range(delta: int) -> "EditCommand":
        return EditCommand(CommandKind.SELECT_RANGE, delta=delta)

    @staticmethod
    def set_granularity(mode: Granularity) -> "EditCommand":
        return EditCommand(CommandKind.SET_GRANULARITY, mode=mode)


class EditError(ValueError):
    pass


class NoSelection(EditError):
    pass


class EmptyClipboard(EditError):
    pass


class UndoStackEmpty(EditError):
    pass


Snapshot = tuple[str, int, "tuple[int, int] | None"]


@dataclass(frozen=True)
class Document:
    text: str = ""
    caret: int = 0
    selection: tuple[int, int] | None = None  # (anchor, head), head is the caret side
    granularity: Granularity = Granularity.CHARACTER
    clipboard: str = ""
    undo_stack: tuple[Snapshot, ...] = ()
    initial: Snapshot = ("", 0, None)

    def __post_init__(self):
        n = len(self.text)
        if not 0 <= self.caret <= n:
            raise ValueError(f"caret {self.caret} out of bounds for length {n}")
        if self.selection is not None:
            a, h = self.selection
            if a == h:
                raise ValueError("selection must span at least one character")
            if not (0 <= a <= n and 0 <= h <= n):
                raise ValueError("selection out of bounds")

    @staticmethod
    def create(text: str = "", granularity: Granularity = Granularity.CHARACTER) -> "Document":
        return Document(text=text, granularity=granularity, initial=(text, 0, None))

    def span(self) -> tuple[int, int] | None:
        if self.selection is None:
            return None
        a, h = self.selection
        return (a, h) if a < h else (h, a)


# ---------------------------------------------------------------------------
# Segmentation and the unit index
# ---------------------------------------------------------------------------

def segment(text: str, granularity: Granularity) -> list[int]:
    """Ordered unit start indices; empty text yields [0].

    Character: every index. Word: starts of maximal non-whitespace runs.
    Sentence: position after a terminator run (. ! ?) plus trailing
    whitespace. Paragraph: position after a blank line (two or more
    consecutive line breaks). Nonempty text always starts a unit at 0.
    """
    if granularity is Granularity.CHARACTER:
        return list(range(len(text))) or [0]
    n = len(text)
    return [0] + [m.end() for m in re.finditer(_UNIT_BREAKS[granularity], text) if m.end() < n]


@lru_cache(maxsize=8)
def _units(text: str, granularity: Granularity):
    """(starts, content_ends) of every unit, built once per (text, granularity).

    A unit runs from its start to the next start (or the text end); its
    content end strips trailing whitespace, except in character mode where
    the unit is exactly one character. Both sequences strictly increase: a
    word or paragraph start follows whitespace, which the previous unit's
    content end drops, and a sentence starts on a non-whitespace character,
    which its own content end keeps.
    """
    starts = tuple(segment(text, granularity))
    n = len(text)
    if granularity is Granularity.CHARACTER:
        return starts, range(1, n + 1) or (0,)
    return starts, tuple(s + len(text[s:e].rstrip()) for s, e in zip(starts, starts[1:] + (n,)))


# ---------------------------------------------------------------------------
# Caret and selection movement
# ---------------------------------------------------------------------------

def move_caret(doc: Document, delta: int) -> Document:
    """Move the caret |delta| unit boundaries in delta's direction, clamped.

    Boundaries are the unit start indices; stepping right from at-or-past
    the last boundary clamps to the end of the text.
    """
    starts, _ = _units(doc.text, doc.granularity)
    caret = doc.caret
    if delta > 0:
        k = bisect_right(starts, caret) + delta - 1
        caret = starts[k] if k < len(starts) else len(doc.text)
    elif delta < 0:
        caret = starts[max(bisect_left(starts, caret) + delta, 0)]
    return replace(doc, caret=caret, selection=None)


def select_range(doc: Document, delta: int) -> Document:
    """Grow or shrink the selection by |delta| units in delta's direction.

    The head starts at the caret; the anchor is fixed where the selection
    began. A forward step lands on the next content end, a backward step on
    the previous unit start. The resulting span is snapped outward to unit
    boundaries: down to the start of the first touched unit, and up to the
    content end of the last touched unit, so trailing separator whitespace
    is never selected.
    """
    starts, content_ends = _units(doc.text, doc.granularity)
    if doc.selection is None:
        anchor = head = doc.caret
    else:
        anchor, head = doc.selection
    if delta > 0:
        k = bisect_right(content_ends, head)
        if k < len(content_ends):  # past the last content end the head stays put
            head = content_ends[min(k + delta - 1, len(content_ends) - 1)]
    elif delta < 0:
        head = starts[max(bisect_left(starts, head) + delta, 0)]
    if head == anchor:
        return replace(doc, selection=None, caret=head)

    lo, hi = (anchor, head) if anchor < head else (head, anchor)
    lo_s = starts[bisect_right(starts, lo) - 1]
    hi_s = content_ends[bisect_right(starts, hi - 1) - 1]
    if hi_s <= lo_s:
        return replace(doc, selection=None, caret=head)
    if anchor <= head:
        sel = (lo_s, hi_s)
        caret = hi_s
    else:
        sel = (hi_s, lo_s)
        caret = lo_s
    return replace(doc, selection=sel, caret=caret)


# ---------------------------------------------------------------------------
# Command application
# ---------------------------------------------------------------------------

def _push_undo(doc: Document) -> tuple[Snapshot, ...]:
    snap: Snapshot = (doc.text, doc.caret, doc.selection)
    stack = doc.undo_stack + (snap,)
    if len(stack) > UNDO_DEPTH:
        stack = stack[-UNDO_DEPTH:]
    return stack


def apply(doc: Document, cmd: EditCommand) -> Document:
    """Apply one command, returning the next document state.

    Raises NoSelection (Cut/Copy/Delete without a selection), EmptyClipboard
    (Paste with nothing captured) or UndoStackEmpty; the document is
    unchanged when a command raises.
    """
    kind = cmd.kind

    if kind is CommandKind.UNDO:
        if not doc.undo_stack:
            raise UndoStackEmpty("nothing to undo")
        text, caret, selection = doc.undo_stack[-1]
        return replace(doc, text=text, caret=caret, selection=selection, undo_stack=doc.undo_stack[:-1])

    if kind is CommandKind.RESET_TASK:
        text, caret, selection = doc.initial
        return replace(doc, text=text, caret=caret, selection=selection, undo_stack=())

    if kind in (CommandKind.CUT, CommandKind.COPY, CommandKind.DELETE) and doc.selection is None:
        raise NoSelection(f"{kind.value} requires a selection")
    if kind is CommandKind.PASTE and not doc.clipboard:
        raise EmptyClipboard("clipboard is empty")

    stack = _push_undo(doc)
    doc = replace(doc, undo_stack=stack)

    if kind is CommandKind.MOVE_CARET:
        return move_caret(doc, cmd.delta)
    if kind is CommandKind.SELECT_RANGE:
        return select_range(doc, cmd.delta)
    if kind is CommandKind.SELECT_ALL:
        if not doc.text:
            return replace(doc, selection=None, caret=0)
        return replace(doc, selection=(0, len(doc.text)), caret=len(doc.text))
    if kind is CommandKind.SET_GRANULARITY:
        if cmd.mode is None:
            raise EditError("SetGranularity needs a mode")
        return replace(doc, granularity=cmd.mode)
    if kind is CommandKind.CONFIRM_CARET:
        return doc

    lo, hi = doc.span() if doc.selection else (doc.caret, doc.caret)
    if kind is CommandKind.COPY:
        return replace(doc, clipboard=doc.text[lo:hi])
    if kind is CommandKind.CUT:
        return replace(
            doc,
            text=doc.text[:lo] + doc.text[hi:],
            clipboard=doc.text[lo:hi],
            caret=lo,
            selection=None,
        )
    if kind is CommandKind.DELETE:
        # clipboard intentionally untouched
        return replace(doc, text=doc.text[:lo] + doc.text[hi:], caret=lo, selection=None)
    if kind is CommandKind.PASTE:
        new_text = doc.text[:lo] + doc.clipboard + doc.text[hi:]
        return replace(doc, text=new_text, caret=lo + len(doc.clipboard), selection=None)

    raise EditError(f"unhandled command {kind}")
