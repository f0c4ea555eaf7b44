"""Persistence: dataset files, checkpoints, session recordings, reports.

All containers are single files with explicit versioned headers. Binary
formats (.mgd datasets, .mgc checkpoints) store float32 little-endian
tensors after a JSON header; text formats (.mgs session recordings, .mgr
reports) are line-delimited with shortest-round-trip float32 rendering.
Every writer is deterministic byte for byte given equal inputs; checkpoints
carry a SHA-256 content hash that load verifies. Readers check each header
against this build and fail only with typed errors. The exact layouts are
documented in docs/formats.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .editor import CommandKind, EditCommand, Granularity
from .evaluation import EvalReport, render_report
from .fsm import GestureEvent
from .network import HyperParams, ModelParams
from .skeleton import JOINT_NAMES, NUM_JOINTS, HandFrame, Handedness
from .synth import CLASS_NAMES, FRAME_RATE, Dataset, GestureClass, LabeledClip, SubState

MGD_MAGIC = b"MGD1"
MGC_MAGIC = b"MGC1"
MGS_VERSION = 2
MGL_VERSION = 1
MGR_VERSION = 1
MGD_VERSION = 1
MGC_VERSION = 3


class VersionMismatch(ValueError):
    pass


class CorruptRecord(ValueError):
    pass


class JointOrderMismatch(ValueError):
    pass


class ClassOrderMismatch(ValueError):
    pass


class HashMismatch(ValueError):
    pass


def _write_json_block(fh, obj) -> None:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def _read_json_block(fh) -> dict:
    raw = fh.read(4)
    if len(raw) != 4:
        raise CorruptRecord("truncated header length")
    (n,) = struct.unpack("<I", raw)
    blob = fh.read(n)
    if len(blob) != n:
        raise CorruptRecord("truncated header block")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorruptRecord(f"undecodable header block: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptRecord("header block is not a JSON object")
    return header


@contextlib.contextmanager
def _open_text(path, kind: str):
    """``path`` open as UTF-8 text; a byte that does not decode raises CorruptRecord."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CorruptRecord(f"{kind} is not UTF-8 text: {exc}") from exc


def _check_header(header: dict, kind: str, version: int) -> None:
    """The version and the joint and class layouts must match this build."""
    if header.get("format_version") != version:
        raise VersionMismatch(f"unsupported {kind} version {header.get('format_version')}")
    if header.get("joint_order") != list(JOINT_NAMES):
        raise JointOrderMismatch(f"{kind} joint ordering does not match this build")
    if header.get("class_names") != list(CLASS_NAMES):
        raise ClassOrderMismatch(f"{kind} class names do not match this build")


# ---------------------------------------------------------------------------
# Dataset files (.mgd)
# ---------------------------------------------------------------------------

def write_dataset(dataset: Dataset, path) -> None:
    header = {
        "format_version": MGD_VERSION,
        "frame_rate": FRAME_RATE,
        "joint_order": list(JOINT_NAMES),
        "class_names": list(CLASS_NAMES),
        "generator_seed": dataset.master_seed,
        "n_clips": len(dataset.clips),
    }
    with open(path, "wb") as fh:
        fh.write(MGD_MAGIC)
        _write_json_block(fh, header)
        for clip in dataset.clips:
            n = len(clip)
            fh.write(
                struct.pack(
                    "<iBBIf",
                    clip.subject_id,
                    CLASS_NAMES.index(clip.gesture.value),
                    0 if clip.handedness is Handedness.RIGHT else 1,
                    n,
                    clip.duration,
                )
            )
            fh.write(clip.timestamps.astype("<f4").tobytes())
            fh.write(clip.joint_positions.astype("<f4").tobytes())
            fh.write(clip.joint_orientations.astype("<f4").tobytes())
            fh.write(clip.substates.astype(np.uint8).tobytes())


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MGD_MAGIC:
            raise VersionMismatch(f"not a dataset file (magic {magic!r})")
        header = _read_json_block(fh)
        _check_header(header, "dataset", MGD_VERSION)
        try:
            records, master_seed = range(header["n_clips"]), header["generator_seed"]
        except (KeyError, TypeError) as exc:
            raise CorruptRecord(f"bad dataset header: {exc!r}") from exc
        clips = []
        for index in records:
            try:
                head = fh.read(struct.calcsize("<iBBIf"))
                subject_id, gesture_idx, hand, n, duration = struct.unpack("<iBBIf", head)
                if gesture_idx >= len(CLASS_NAMES):
                    raise CorruptRecord(f"clip record {index} has class index {gesture_idx}")
                if hand not in (0, 1):
                    raise CorruptRecord(f"clip record {index} has hand byte {hand}")
                sizes = [4 * n, 4 * n * NUM_JOINTS * 3, 4 * n * NUM_JOINTS * 4, n]
                # a frame count past the end of the file is checked before
                # reading, so a corrupt count never sizes a buffer
                if sum(sizes) > file_size - fh.tell():
                    raise CorruptRecord(f"clip record {index} is truncated")
                raw = [fh.read(size) for size in sizes]
                ts, pos, ori = (np.frombuffer(r, dtype="<f4") for r in raw[:3])
                if not (math.isfinite(duration) and all(np.isfinite(a).all() for a in (ts, pos, ori))):
                    raise CorruptRecord(f"clip record {index} has non-finite values")
                sub = np.frombuffer(raw[3], dtype=np.uint8)
                if np.any(sub > SubState.NOT_SWIPING):
                    raise CorruptRecord(f"clip record {index} has sub-state byte {sub.max()}")
                clips.append(
                    LabeledClip(
                        gesture=GestureClass(CLASS_NAMES[gesture_idx]),
                        subject_id=subject_id,
                        timestamps=ts,
                        joint_positions=pos.reshape(n, NUM_JOINTS, 3),
                        joint_orientations=ori.reshape(n, NUM_JOINTS, 4),
                        substates=sub,
                        duration=float(np.float32(duration)),
                        handedness=Handedness.RIGHT if hand == 0 else Handedness.LEFT,
                    )
                )
            except struct.error as exc:
                raise CorruptRecord(f"clip record {index} is truncated") from exc
    return Dataset(tuple(clips), master_seed=master_seed)


# ---------------------------------------------------------------------------
# Checkpoints (.mgc)
# ---------------------------------------------------------------------------

def _checkpoint_payload(params: ModelParams) -> bytes:
    header = {
        "format_version": MGC_VERSION,
        "hyperparams": asdict(params.hp),
        "joint_order": list(JOINT_NAMES),
        "class_names": list(CLASS_NAMES),
        "tau": float(params.tau),
        "tensor_names": sorted(params.tensors),
    }
    out = io.BytesIO()
    _write_json_block(out, header)
    for name in sorted(params.tensors):
        t = params.tensors[name]
        name_b = name.encode("utf-8")
        out.write(struct.pack("<H", len(name_b)) + name_b + struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape))
        out.write(t.astype("<f4").tobytes())
    return out.getvalue()


def save_checkpoint(params: ModelParams, path) -> None:
    payload = _checkpoint_payload(params)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(MGC_MAGIC)
        fh.write(digest)
        fh.write(payload)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MGC_MAGIC:
            raise VersionMismatch(f"not a checkpoint file (magic {magic!r})")
        digest = fh.read(32)
        payload = fh.read()
    if hashlib.sha256(payload).digest() != digest:
        raise HashMismatch("checkpoint content hash does not match")

    buf = io.BytesIO(payload)
    header = _read_json_block(buf)
    _check_header(header, "checkpoint", MGC_VERSION)
    try:
        hp = HyperParams(**header["hyperparams"])
        with np.errstate(over="ignore"):  # beyond float32 is inf, which ModelParams rejects
            tau = float(np.float32(header["tau"]))
        if tau <= 0:
            raise ValueError(f"temperature {tau} is not positive")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptRecord(f"bad checkpoint header: {exc!r}") from exc

    read = []
    try:
        while buf.tell() < len(payload):
            (nlen,) = struct.unpack("<H", buf.read(2))
            name = buf.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", buf.read(1))
            shape = struct.unpack(f"<{ndim}I", buf.read(4 * ndim))
            raw = buf.read(4 * math.prod(shape))
            if len(raw) != 4 * math.prod(shape):
                raise CorruptRecord(f"tensor {name} is truncated")
            read.append((name, np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)))
    except (struct.error, UnicodeDecodeError, OverflowError) as exc:
        raise CorruptRecord(f"bad tensor record: {exc}") from exc
    # one check against the header: no tensor missing, extra, repeated or out of order
    names = [name for name, _ in read]
    if names != header.get("tensor_names") or names != sorted(set(names)):
        raise CorruptRecord("tensor records do not match the header's tensor_names")
    # ModelParams checks the names and shapes against the architecture
    return ModelParams(hp, dict(read), tau=tau)


# ---------------------------------------------------------------------------
# Session recordings (.mgs)
# ---------------------------------------------------------------------------

def _f32s(values) -> str:
    return " ".join(repr(float(np.float32(v))) for v in np.asarray(values).reshape(-1))


def write_session(path, frames: list[HandFrame], events: list[GestureEvent]) -> None:
    """Line-delimited recording: F lines are frames (timestamp, hand,
    11 x 7 floats), E lines are fired events."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"MGS{MGS_VERSION} joints={','.join(JOINT_NAMES)}\n")
        for frame in frames:
            hand = "R" if frame.handedness is Handedness.RIGHT else "L"
            pose = np.concatenate([frame.positions, frame.orientations], axis=1)
            fh.write(f"F {repr(float(np.float32(frame.timestamp)))} {hand} {_f32s(pose)}\n")
        for ev in events:
            fh.write(
                f"E {repr(float(np.float32(ev.fired_at)))} {ev.gesture.value} "
                f"{repr(float(np.float32(ev.mean_confidence)))}\n"
            )


def _finite(text: str, field: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CorruptRecord(f"non-finite {field} {text!r}")
    return value


def read_session(path) -> tuple[list[HandFrame], list[GestureEvent]]:
    """Frames and events of a recording. Timestamps and confidences must be
    finite, and each hand's frames must come in increasing time order."""
    frames: list[HandFrame] = []
    events: list[GestureEvent] = []
    last_ts: dict[Handedness, float] = {}
    with _open_text(path, "session") as fh:
        header = fh.readline().strip()
        if not header.startswith(f"MGS{MGS_VERSION} "):
            raise VersionMismatch(f"unsupported session header: {header!r}")
        joints_decl = header.split("joints=", 1)[-1]
        if joints_decl != ",".join(JOINT_NAMES):
            raise JointOrderMismatch("session joint ordering does not match this build")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "F":
                    ts = _finite(parts[1], "timestamp")
                    if parts[2] not in ("R", "L"):
                        raise CorruptRecord(f"frame record at line {lineno} has hand {parts[2]!r}, not R or L")
                    hand = Handedness.RIGHT if parts[2] == "R" else Handedness.LEFT
                    if ts <= last_ts.get(hand, -math.inf):
                        raise CorruptRecord(f"{hand.value} frame at {ts} is not after the one at {last_ts[hand]}")
                    last_ts[hand] = ts
                    vals = np.array([float(v) for v in parts[3:]])
                    if vals.size != NUM_JOINTS * 7:
                        raise CorruptRecord(f"frame record at line {lineno} has {vals.size} floats")
                    pose = vals.reshape(NUM_JOINTS, 7)
                    frames.append(HandFrame(ts, hand, pose[:, :3], pose[:, 3:]))
                elif parts[0] == "E":
                    if len(parts) != 4:
                        raise CorruptRecord(f"event record at line {lineno} has {len(parts)} fields, not 4")
                    events.append(
                        GestureEvent(
                            gesture=GestureClass(parts[2]),
                            fired_at=_finite(parts[1], "timestamp"),
                            mean_confidence=_finite(parts[3], "confidence"),
                        )
                    )
                else:
                    raise CorruptRecord(f"unknown record type {parts[0]!r} at line {lineno}")
            except (ValueError, IndexError) as exc:
                raise CorruptRecord(f"bad record at line {lineno}: {exc}") from exc
    return frames, events


# ---------------------------------------------------------------------------
# Command logs
# ---------------------------------------------------------------------------

def write_command_log(path, entries) -> None:
    """Line-delimited (timestamp, command, arguments) records.

    Deterministic byte-for-byte, so golden-file comparisons are exact;
    read_command_log replays to the identical command sequence.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"MGL{MGL_VERSION}\n")
        for timestamp, command in entries:
            args = []
            if command.kind in (CommandKind.MOVE_CARET, CommandKind.SELECT_RANGE):
                args.append(str(command.delta))
            if command.kind is CommandKind.SET_GRANULARITY:
                args.append(command.mode.value)
            fh.write(f"{repr(float(np.float32(timestamp)))} {command.kind.value}"
                     + (" " + " ".join(args) if args else "") + "\n")


def read_command_log(path):
    entries = []
    with _open_text(path, "command log") as fh:
        header = fh.readline().strip()
        if header != f"MGL{MGL_VERSION}":
            raise VersionMismatch(f"unsupported command log header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                timestamp = _finite(parts[0], "timestamp")
                kind = CommandKind(parts[1])
                moves = kind in (CommandKind.MOVE_CARET, CommandKind.SELECT_RANGE)
                sets_mode = kind is CommandKind.SET_GRANULARITY
                if len(parts) != 2 + (moves or sets_mode):
                    raise CorruptRecord(f"{kind.value} record has {len(parts)} fields")
                delta = int(parts[2]) if moves else 0
                mode = Granularity(parts[2]) if sets_mode else None
                entries.append((timestamp, EditCommand(kind, delta=delta, mode=mode)))
            except (ValueError, IndexError) as exc:
                raise CorruptRecord(f"bad command record at line {lineno}: {exc}") from exc
    return entries


# ---------------------------------------------------------------------------
# Reports (.mgr)
# ---------------------------------------------------------------------------

def report_payload(report: EvalReport, meta: dict) -> dict:
    return {
        "format_version": MGR_VERSION,
        "meta": dict(sorted(meta.items())),
        "class_names": list(CLASS_NAMES),
        "class_confusion": report.class_confusion.tolist(),
        "state_confusion": report.state_confusion.tolist(),
        "per_class_accuracy": [None if np.isnan(v) else float(v) for v in report.per_class_accuracy],
        "macro_accuracy": report.macro_accuracy,
        "ece_before": report.ece_before,
        "ece_after": report.ece_after,
    }


def emit_report(report: EvalReport, path, meta: dict | None = None, human: bool = False) -> None:
    """Write a report: machine-readable canonical JSON, or a table."""
    if human:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_report(report))
        return
    payload = report_payload(report, meta or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_report(path) -> dict:
    with _open_text(path, "report") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptRecord(f"report is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptRecord("report is not a JSON object")
    if payload.get("format_version") != MGR_VERSION:
        raise VersionMismatch(f"unsupported report version {payload.get('format_version')}")
    return payload
