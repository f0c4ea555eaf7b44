"""Deterministic text-editing document model.

A Document is an immutable value: text, caret, optional selection, the
active granularity mode, clipboard, and a bounded undo stack of
(text, caret, selection) snapshots. apply() is a pure transition; every
successfully applied command except Undo and ResetTask pushes a snapshot
first, so Undo restores the prior (text, caret, selection) exactly. The
clipboard is never part of a snapshot: undoing a Cut restores the text but
keeps the captured clipboard, as in conventional editors.

Granularity-aware navigation is built on segment(), which lists unit start
indices, and on unit "territories": the half-open span from one start to
the next. A unit's content end is its territory end with trailing
whitespace stripped (sentence terminators are content, separator blank
lines and inter-word spaces are not), except in character mode where the
unit is the single character itself. Range selection snaps outward to unit
boundaries but never swallows trailing whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

UNDO_DEPTH = 100
_TERMINATORS = frozenset(".!?")


class Granularity(Enum):
    CHARACTER = "Character"
    WORD = "Word"
    SENTENCE = "Sentence"
    PARAGRAPH = "Paragraph"


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
# Segmentation
# ---------------------------------------------------------------------------

def segment(text: str, granularity: Granularity) -> list[int]:
    """Ordered unit start indices; empty text yields [0].

    Character: every index. Word: starts of maximal non-whitespace runs.
    Sentence: position after a terminator run (. ! ?) plus trailing
    whitespace. Paragraph: position after a blank line (two or more
    consecutive line breaks). Nonempty text always starts a unit at 0.
    """
    if not text:
        return [0]
    if granularity is Granularity.CHARACTER:
        return list(range(len(text)))
    starts = [0]
    if granularity is Granularity.WORD:
        for i in range(1, len(text)):
            if not text[i].isspace() and text[i - 1].isspace():
                starts.append(i)
    elif granularity is Granularity.SENTENCE:
        i = 0
        n = len(text)
        while i < n:
            if text[i] in _TERMINATORS:
                j = i
                while j < n and text[j] in _TERMINATORS:
                    j += 1
                while j < n and text[j].isspace():
                    j += 1
                if j < n and j > starts[-1]:
                    starts.append(j)
                i = j
            else:
                i += 1
    else:  # PARAGRAPH
        i = 0
        n = len(text)
        while i < n - 1:
            if text[i] == "\n" and text[i + 1] == "\n":
                j = i
                while j < n and text[j] == "\n":
                    j += 1
                if j < n and j > starts[-1]:
                    starts.append(j)
                i = j
            else:
                i += 1
    return starts


def _territories(text: str, granularity: Granularity) -> list[tuple[int, int, int]]:
    """(start, content_end, territory_end) per unit.

    The territory of unit k runs to the next unit's start (or text end); the
    content end strips trailing whitespace, except in character mode where
    the unit is exactly one character.
    """
    starts = segment(text, granularity)
    out = []
    for k, start in enumerate(starts):
        end = starts[k + 1] if k + 1 < len(starts) else len(text)
        if granularity is Granularity.CHARACTER:
            content_end = min(start + 1, len(text))
        else:
            content_end = end
            while content_end > start and text[content_end - 1].isspace():
                content_end -= 1
        out.append((start, content_end, end))
    return out


def _territory_index(territories, pos: int) -> int:
    """Unit whose territory contains pos (positions past the last start
    belong to the last unit)."""
    found = 0
    for k, (start, _, _) in enumerate(territories):
        if start <= pos:
            found = k
        else:
            break
    return found


# ---------------------------------------------------------------------------
# Caret and selection movement
# ---------------------------------------------------------------------------

def move_caret(doc: Document, delta: int, granularity: Granularity | None = None) -> Document:
    """Move the caret |delta| unit boundaries in delta's direction, clamped.

    Boundaries are the unit start indices; stepping right from at-or-past
    the last boundary clamps to the end of the text.
    """
    gran = granularity or doc.granularity
    starts = segment(doc.text, gran)
    caret = doc.caret
    n = len(doc.text)
    for _ in range(abs(delta)):
        if delta > 0:
            later = [s for s in starts if s > caret]
            caret = later[0] if later else n
        elif delta < 0:
            earlier = [s for s in starts if s < caret]
            caret = earlier[-1] if earlier else 0
    return replace(doc, caret=caret, selection=None)


def _step_selection_head(territories, pos: int, direction: int) -> int:
    """Move a selection head one unit: forward lands on the next content
    end, backward on the previous unit start."""
    if direction > 0:
        later = [ce for (_, ce, _) in territories if ce > pos]
        return later[0] if later else pos
    earlier = [s for (s, _, _) in territories if s < pos]
    return earlier[-1] if earlier else 0


def select_range(doc: Document, delta: int) -> Document:
    """Grow or shrink the selection by |delta| units in delta's direction.

    The head starts at the caret; the anchor is fixed where the selection
    began. The resulting span is snapped outward to unit boundaries: down to
    the start of the first touched unit, and up to the content end of the
    last touched unit, so trailing separator whitespace is never selected.
    """
    territories = _territories(doc.text, doc.granularity)
    if doc.selection is None:
        anchor = head = doc.caret
    else:
        anchor, head = doc.selection
    for _ in range(abs(delta)):
        head = _step_selection_head(territories, head, 1 if delta > 0 else -1)
    if head == anchor:
        return replace(doc, selection=None, caret=head)

    lo, hi = (anchor, head) if anchor < head else (head, anchor)
    start_lo, _, _ = territories[_territory_index(territories, lo)]
    _, content_end_hi, _ = territories[_territory_index(territories, hi - 1)]
    lo_s = min(start_lo, lo)
    hi_s = content_end_hi
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
