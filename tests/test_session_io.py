"""File formats: lossless round trips, hash checks, deterministic bytes."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgext import network, synth
from microgext.evaluation import EvalReport
from microgext.fsm import GestureEvent
from microgext.network import NonFiniteActivation, ShapeMismatch
from microgext.session_io import (
    ClassOrderMismatch,
    CorruptRecord,
    HashMismatch,
    JointOrderMismatch,
    VersionMismatch,
    emit_report,
    load_checkpoint,
    read_dataset,
    read_report,
    read_session,
    save_checkpoint,
    write_dataset,
    write_session,
)
from microgext.skeleton import INDEX_TIP, JOINT_NAMES, NUM_JOINTS
from microgext.synth import CLASS_NAMES, GestureClass

from .frames import clip_frames, clips_equal

# every error a binary reader may raise; anything else is a reader bug
TYPED_ERRORS = (
    VersionMismatch, CorruptRecord, HashMismatch, JointOrderMismatch, ClassOrderMismatch,
    ShapeMismatch, NonFiniteActivation,
)


def split_header(blob: bytes, start: int):
    """(bytes before the JSON header, header dict, bytes after it) of a
    container whose u32 header length sits at ``start``."""
    (n,) = struct.unpack_from("<I", blob, start)
    return blob[:start], json.loads(blob[start + 4 : start + 4 + n]), blob[start + 4 + n :]


def join_header(head: bytes, header, tail: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return head + struct.pack("<I", len(text)) + text + tail


def checkpoint_file(path, payload: bytes):
    """A checkpoint whose hash matches its (possibly crafted) payload."""
    path.write_bytes(b"MGC1" + hashlib.sha256(payload).digest() + payload)
    return path


def tensor_record(name: str, t: np.ndarray) -> bytes:
    name_b = name.encode()
    return struct.pack(f"<H{len(name_b)}sB{t.ndim}I", len(name_b), name_b, t.ndim, *t.shape) + t.astype("<f4").tobytes()


@pytest.fixture(scope="module")
def dataset():
    return synth.make_dataset(2, 2, 2, seed=3)


class TestDataset:
    def test_round_trip_equal_clip_by_clip(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        back = read_dataset(path)
        assert back.master_seed == dataset.master_seed
        assert len(back.clips) == len(dataset.clips)
        for a, b in zip(dataset.clips, back.clips):
            assert clips_equal(a, b)

    def test_deterministic_bytes(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.mgd", tmp_path / "b.mgd"
        write_dataset(dataset, p1)
        write_dataset(dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_record(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 2000])
        with pytest.raises(CorruptRecord) as err:
            read_dataset(path)
        assert "record" in str(err.value)

    def test_permuted_joint_order_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        blob = path.read_bytes()
        swapped = blob.replace(b'"Wrist","ThumbTip"', b'"ThumbTip","Wrist"', 1)
        assert swapped != blob
        (tmp_path / "p.mgd").write_bytes(swapped)
        with pytest.raises(JointOrderMismatch):
            read_dataset(tmp_path / "p.mgd")

    @staticmethod
    def _patch_first_record(dataset, path, field_offset, value):
        """Write the dataset, then overwrite one byte of the first clip
        record's fixed header (<iBBIf: class byte at 4, hand byte at 5)."""
        write_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", blob, 4)
        blob[8 + header_len + field_offset] = value
        path.write_bytes(bytes(blob))

    def test_unknown_class_byte_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        self._patch_first_record(dataset, path, 4, 200)
        with pytest.raises(CorruptRecord, match="class index 200"):
            read_dataset(path)

    def test_unknown_hand_byte_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        self._patch_first_record(dataset, path, 5, 2)
        with pytest.raises(CorruptRecord, match="hand byte 2"):
            read_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mgd"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(VersionMismatch):
            read_dataset(path)

    def test_reversed_class_names_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        head, header, tail = split_header(path.read_bytes(), 4)
        header["class_names"] = header["class_names"][::-1]
        path.write_bytes(join_header(head, header, tail))
        with pytest.raises(ClassOrderMismatch):
            read_dataset(path)

    def test_undecodable_header_byte_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"Wrist"', b'"Wr\xffst"', 1))
        with pytest.raises(CorruptRecord, match="undecodable"):
            read_dataset(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def dataset_blob(fuzz_dir):
    path = fuzz_dir / "small.mgd"
    write_dataset(synth.make_dataset(1, 1, 1, seed=5), path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(0, 10**7))
def test_truncated_dataset_fails_typed(dataset_blob, fuzz_dir, cut):
    path = fuzz_dir / "cut.mgd"
    path.write_bytes(dataset_blob[: cut % len(dataset_blob)])
    with pytest.raises(TYPED_ERRORS):
        read_dataset(path)


@settings(max_examples=150, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=3))
def test_dataset_with_flipped_header_bytes_fails_typed(dataset_blob, fuzz_dir, flips):
    (n,) = struct.unpack_from("<I", dataset_blob, 4)
    blob = bytearray(dataset_blob)
    for offset, mask in flips:
        blob[offset % (8 + n)] ^= mask
    path = fuzz_dir / "flipped.mgd"
    path.write_bytes(bytes(blob))
    try:
        read_dataset(path)
    except TYPED_ERRORS:
        pass


@pytest.fixture(scope="module")
def f32_params():
    from microgext.training import round_to_f32

    return round_to_f32(network.init_params(network.HyperParams(hidden=16), seed=2))


class TestCheckpoint:
    @pytest.fixture()
    def params(self, f32_params):
        return f32_params

    def test_round_trip_forward_bit_identical(self, params, tmp_path):
        path = tmp_path / "c.mgc"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(0).normal(0, 0.2, (1, 20, 11, 7))
        a = network.forward_batch(params, x)
        b = network.forward_batch(loaded, x)
        np.testing.assert_array_equal(a["class_logits"], b["class_logits"])
        np.testing.assert_array_equal(a["state_logits"], b["state_logits"])
        assert loaded.tau == params.tau

    def test_flipped_byte_hash_mismatch(self, params, tmp_path):
        path = tmp_path / "c.mgc"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(HashMismatch):
            load_checkpoint(path)

    def test_truncated_payload_with_matching_hash_rejected(self, params, tmp_path):
        path = tmp_path / "c.mgc"
        save_checkpoint(params, path)
        payload = path.read_bytes()[4 + 32 : -10]
        path.write_bytes(b"MGC1" + hashlib.sha256(payload).digest() + payload)
        with pytest.raises(CorruptRecord, match="truncated"):
            load_checkpoint(path)

    def test_wrong_width_shape_mismatch(self, params, tmp_path):
        # constructed fixture: header claims hidden=32, tensors are 16-wide
        path = tmp_path / "c.mgc"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        patched = blob.replace(b'"hidden":16', b'"hidden":32')
        assert patched != blob
        import hashlib

        payload = patched[4 + 32 :]
        fixed = patched[:4] + hashlib.sha256(payload).digest() + payload
        (tmp_path / "w.mgc").write_bytes(fixed)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(tmp_path / "w.mgc")

    def test_deterministic_bytes(self, params, tmp_path):
        p1, p2 = tmp_path / "a.mgc", tmp_path / "b.mgc"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_has_no_fixed_sizes(self, params, tmp_path):
        _, header, _ = split_header(save_checkpoint_bytes(params, tmp_path), 36)
        assert header["format_version"] == 2
        assert sorted(header["hyperparams"]) == sorted(network.HyperParams.__dataclass_fields__)
        assert len(header["hyperparams"]) == 13

    @staticmethod
    def crafted(params, tmp_path, edit, extra_tensors=b""):
        """Save, apply ``edit`` to the header dict, append ``extra_tensors``
        and re-hash, so only the loader's own checks can reject the file."""
        _, header, tail = split_header(save_checkpoint_bytes(params, tmp_path), 36)
        edit(header)
        return checkpoint_file(tmp_path / "crafted.mgc", join_header(b"", header, tail + extra_tensors))

    def test_v1_checkpoint_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(format_version=1))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_reversed_class_names_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(class_names=list(CLASS_NAMES)[::-1]))
        with pytest.raises(ClassOrderMismatch):
            load_checkpoint(path)

    def test_reversed_joint_order_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(joint_order=list(JOINT_NAMES)[::-1]))
        with pytest.raises(JointOrderMismatch):
            load_checkpoint(path)

    def test_unknown_hyperparameter_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h["hyperparams"].update(t_window=20))
        with pytest.raises(CorruptRecord, match="t_window"):
            load_checkpoint(path)

    def test_missing_hyperparams_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.pop("hyperparams"))
        with pytest.raises(CorruptRecord, match="hyperparams"):
            load_checkpoint(path)

    def test_short_payload_rejected(self, tmp_path):
        path = checkpoint_file(tmp_path / "short.mgc", b"\x01\x00")
        with pytest.raises(CorruptRecord, match="truncated"):
            load_checkpoint(path)

    def test_repeated_tensor_rejected(self, params, tmp_path):
        again = tensor_record("b_class", np.ones_like(params.tensors["b_class"]))
        path = self.crafted(params, tmp_path, lambda h: None, extra_tensors=again)
        with pytest.raises(CorruptRecord, match="tensor_names"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h["tensor_names"].append("w_extra"))
        with pytest.raises(CorruptRecord, match="tensor_names"):
            load_checkpoint(path)

    def test_nan_tau_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(tau=float("nan")))
        with pytest.raises(NonFiniteActivation):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("alpha", float("nan")), ("hidden", 16.0), ("batch_size", True)])
    def test_invalid_hyperparameter_value_rejected(self, params, tmp_path, field, value):
        path = self.crafted(params, tmp_path, lambda h: h["hyperparams"].update({field: value}))
        with pytest.raises(CorruptRecord, match=field):
            load_checkpoint(path)

    def test_negative_tau_rejected(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(tau=-1.0))
        with pytest.raises(CorruptRecord, match="temperature"):
            load_checkpoint(path)


def save_checkpoint_bytes(params, directory) -> bytes:
    save_checkpoint(params, directory / "saved.mgc")
    return (directory / "saved.mgc").read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
HEADER_FIELDS = ["format_version", "hyperparams", "joint_order", "class_names", "tau", "tensor_names"] + [
    f"hyperparams.{name}" for name in network.HyperParams.__dataclass_fields__
]


@pytest.fixture(scope="module")
def checkpoint_blob(f32_params, fuzz_dir):
    return save_checkpoint_bytes(f32_params, fuzz_dir)


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, 10**6), rehash=st.booleans())
def test_truncated_checkpoint_fails_typed(checkpoint_blob, fuzz_dir, cut, rehash):
    cut %= len(checkpoint_blob)
    if rehash and cut >= 36:
        path = checkpoint_file(fuzz_dir / "cut.mgc", checkpoint_blob[36:cut])
    else:
        path = fuzz_dir / "cut.mgc"
        path.write_bytes(checkpoint_blob[:cut])
    with pytest.raises(TYPED_ERRORS):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(HEADER_FIELDS), delete=st.booleans(), value=JSON_VALUES)
def test_mutated_checkpoint_header_fails_typed(checkpoint_blob, fuzz_dir, field, delete, value):
    _, header, tail = split_header(checkpoint_blob, 36)
    *parents, key = field.split(".")
    target = header[parents[0]] if parents else header
    if delete:
        del target[key]
    else:
        target[key] = value
    path = checkpoint_file(fuzz_dir / "mutated.mgc", join_header(b"", header, tail))
    try:
        load_checkpoint(path)
    except TYPED_ERRORS:
        pass


class TestSession:
    def test_round_trip(self, tmp_path):
        subject = synth.subjects_for(0, 1)[0]
        clip = synth.synth_clip(GestureClass.FIST, subject, seed=1)
        frames = list(clip_frames(clip))[:40]
        events = [
            GestureEvent(GestureClass.FIST, fired_at=0.5, mean_confidence=0.99),
            GestureEvent(GestureClass.SWIPE, fired_at=1.0, mean_confidence=0.97),
        ]
        path = tmp_path / "s.mgs"
        write_session(path, frames, events)
        back_frames, back_events = read_session(path)
        assert len(back_frames) == len(frames)
        for a, b in zip(frames, back_frames):
            assert a.timestamp == b.timestamp
            assert a.handedness is b.handedness
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.orientations, b.orientations)
        assert [e.gesture for e in back_events] == [GestureClass.FIST, GestureClass.SWIPE]

    def test_v2_events_round_trip(self, tmp_path):
        # float32-exact values, so the text rendering loses nothing
        events = [
            GestureEvent(GestureClass.SWIPE, fired_at=2.5, mean_confidence=0.75),
            GestureEvent(GestureClass.PINKY, fired_at=3.125, mean_confidence=1.0),
        ]
        path = tmp_path / "s.mgs"
        write_session(path, [], events)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("MGS2 ")
        assert lines[1:] == ["E 2.5 Swipe 0.75", "E 3.125 Pinky 1.0"]
        assert read_session(path) == ([], events)

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        path.write_text("MGS1 joints=" + ",".join(JOINT_NAMES) + "\nE 1.0 Swipe 0.97 0,1,1\n")
        with pytest.raises(VersionMismatch):
            read_session(path)

    def test_event_with_trace_column_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        write_session(path, [], [])
        with open(path, "a") as fh:
            fh.write("E 1.0 Swipe 0.97 0,1,1\n")
        with pytest.raises(CorruptRecord):
            read_session(path)

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        write_session(path, [], [])
        with open(path, "a") as fh:
            fh.write("F 1.0 R 0.1 0.2\n")
        with pytest.raises(CorruptRecord):
            read_session(path)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        pose = np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], (NUM_JOINTS, 1))
        pose[INDEX_TIP, 3:] = (1.0, 1.0, 0.0, 0.0)
        path = tmp_path / "s.mgs"
        write_session(path, [], [])
        with open(path, "a") as fh:
            fh.write("F 1.0 R " + " ".join(repr(float(v)) for v in pose.reshape(-1)) + "\n")
        with pytest.raises(CorruptRecord, match="unit quaternion"):
            read_session(path)

    def test_unknown_hand_field_rejected(self, tmp_path):
        pose = np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], (NUM_JOINTS, 1))
        path = tmp_path / "s.mgs"
        write_session(path, [], [])
        with open(path, "a") as fh:
            fh.write("F 1.0 X " + " ".join(repr(float(v)) for v in pose.reshape(-1)) + "\n")
        with pytest.raises(CorruptRecord, match="hand 'X'"):
            read_session(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        path.write_text("MGS9 joints=Wrist\n")
        with pytest.raises(VersionMismatch):
            read_session(path)


def perfect_report():
    class_conf = np.eye(8, dtype=np.int64) * 10
    state_conf = np.eye(5, dtype=np.int64) * 100
    return EvalReport(
        class_confusion=class_conf,
        state_confusion=state_conf,
        per_class_accuracy=np.ones(8),
        macro_accuracy=1.0,
        ece_before=0.01,
        ece_after=0.0,
    )


class TestReports:
    def test_identity_report_renders_full_diagonal(self, tmp_path):
        path = tmp_path / "r.txt"
        emit_report(perfect_report(), path, human=True)
        text = path.read_text()
        assert "100.0" in text
        assert "Macro accuracy: 1.0000" in text

    def test_machine_readable_round_trip(self, tmp_path):
        path = tmp_path / "r.mgr"
        emit_report(perfect_report(), path, meta={"fold_subject": 1, "seed": 2})
        payload = read_report(path)
        assert payload["meta"]["fold_subject"] == 1
        assert payload["class_confusion"][0][0] == 10
        assert all(v == 1.0 for v in payload["per_class_accuracy"])

    def test_reemit_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.mgr", tmp_path / "b.mgr"
        emit_report(perfect_report(), p1, meta={"seed": 5})
        emit_report(perfect_report(), p2, meta={"seed": 5})
        assert p1.read_bytes() == p2.read_bytes()

    def test_off_diagonals_zero_for_perfect_stub(self, tmp_path):
        path = tmp_path / "r.mgr"
        emit_report(perfect_report(), path)
        payload = read_report(path)
        conf = np.array(payload["class_confusion"])
        assert conf.sum() == np.trace(conf)
