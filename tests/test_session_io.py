"""File formats: lossless round trips, hash checks, deterministic bytes."""

import hashlib
import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgext import network, synth
from microgext.editor import CommandKind, EditCommand, Granularity
from microgext.evaluation import EvalReport, render_report
from microgext.fsm import FsmConfig
from microgext.network import NonFiniteActivation, ShapeMismatch
from microgext.session_io import (
    ClassOrderMismatch,
    CorruptRecord,
    HashMismatch,
    JointOrderMismatch,
    VersionMismatch,
    emit_report,
    load_checkpoint,
    read_command_log,
    read_dataset,
    read_report,
    read_session,
    save_checkpoint,
    write_command_log,
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
            for array in (b.joint_positions, b.joint_orientations):
                assert array.dtype == np.float32 and not array.flags.writeable

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

    def test_frame_count_past_the_end_rejected_before_reading(self, dataset, tmp_path):
        # the count's high byte: 2**31 frames would size a buffer of ~700 GB
        path = tmp_path / "d.mgd"
        self._patch_first_record(dataset, path, 9, 0x80)
        with pytest.raises(CorruptRecord, match="record 0 is truncated"):
            read_dataset(path)

    def test_sub_state_byte_past_4_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mgd"
        write_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        first = clip_record_heads(bytes(blob))[0]
        n = len(dataset.clips[0])
        blob[first + struct.calcsize("<iBBIf") + n * (4 + 4 * NUM_JOINTS * 7) + 5] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptRecord, match="record 0 has sub-state byte 9"):
            read_dataset(path)

    def test_non_finite_clip_value_rejected(self, dataset, tmp_path):
        clip = dataset.clips[0]
        positions = clip.joint_positions.copy()
        positions[3, INDEX_TIP, 1] = np.nan
        bad = synth.Dataset((replace(clip, joint_positions=positions), *dataset.clips[1:]), dataset.master_seed)
        path = tmp_path / "d.mgd"
        write_dataset(bad, path)
        with pytest.raises(CorruptRecord, match="record 0 has non-finite values"):
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


# The .mgd properties take the blob through ``request`` inside the test: a
# falsifying example then prints the drawn cut or flips, not 430 KB of bytes.


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(0, 10**7))
def test_truncated_dataset_fails_typed(request, fuzz_dir, cut):
    dataset_blob = request.getfixturevalue("dataset_blob")
    path = fuzz_dir / "cut.mgd"
    path.write_bytes(dataset_blob[: cut % len(dataset_blob)])
    with pytest.raises(TYPED_ERRORS):
        read_dataset(path)


# up to three (offset, xor mask) byte flips; offsets wrap around the target
FLIPS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(flips=FLIPS)
def test_dataset_with_flipped_header_bytes_fails_typed(request, fuzz_dir, flips):
    dataset_blob = request.getfixturevalue("dataset_blob")
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


def clip_record_heads(blob: bytes) -> list[int]:
    """Offset of every clip record of a .mgd file; each record starts with
    its (subject, class, hand, frame count, duration) head."""
    (n,) = struct.unpack_from("<I", blob, 4)
    head = struct.calcsize("<iBBIf")
    offsets, at = [], 8 + n
    while at < len(blob):
        offsets.append(at)
        frames = struct.unpack_from("<iBBIf", blob, at)[3]
        at += head + frames * (4 + 4 * NUM_JOINTS * 3 + 4 * NUM_JOINTS * 4 + 1)
    return offsets


# flips past the header: in a record head (subject, class, hand, frame
# count, duration) or anywhere in the clip records
RECORD_FLIPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(flips=RECORD_FLIPS)
def test_dataset_with_flipped_clip_record_bytes_reads_or_fails_typed(request, fuzz_dir, flips):
    dataset_blob = request.getfixturevalue("dataset_blob")
    heads = clip_record_heads(dataset_blob)
    head_size = struct.calcsize("<iBBIf")
    blob = bytearray(dataset_blob)
    for in_head, offset, mask in flips:
        if in_head:
            offset = heads[offset % len(heads)] + offset % head_size
        else:
            offset = heads[0] + offset % (len(blob) - heads[0])
        blob[offset] ^= mask
    path = fuzz_dir / "flipped-record.mgd"
    path.write_bytes(bytes(blob))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN cast warning would mean non-finite values got through
            dataset = read_dataset(path)
    except TYPED_ERRORS:
        return
    assert len(dataset.clips) == len(heads)


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
        assert header["format_version"] == 3
        assert sorted(header["hyperparams"]) == sorted(network.HyperParams.__dataclass_fields__)
        assert len(header["hyperparams"]) == 4
        assert header["tensor_names"] == sorted(network.param_shapes(params.hp))
        assert len(header["tensor_names"]) == 12

    @staticmethod
    def crafted(params, tmp_path, edit, extra_tensors=b""):
        """Save, apply ``edit`` to the header dict, append ``extra_tensors``
        and re-hash, so only the loader's own checks can reject the file."""
        _, header, tail = split_header(save_checkpoint_bytes(params, tmp_path), 36)
        edit(header)
        return checkpoint_file(tmp_path / "crafted.mgc", join_header(b"", header, tail + extra_tensors))

    def test_v1_checkpoint_rejected(self, params, tmp_path):
        # version 2 carried nine more hyperparams and the spatial embedding
        for version in (1, 2):
            path = self.crafted(params, tmp_path, lambda h: h.update(format_version=version))
            with pytest.raises(VersionMismatch, match=f"version {version}"):
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
        # t_window is a fixed size, alpha a knob retired to a module constant
        for key, value in (("t_window", 20), ("alpha", 0.6)):
            path = self.crafted(params, tmp_path, lambda h: h["hyperparams"].update({key: value}))
            with pytest.raises(CorruptRecord, match=key):
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

    def test_tau_beyond_float32_rejected_without_a_warning(self, params, tmp_path):
        path = self.crafted(params, tmp_path, lambda h: h.update(tau=1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteActivation):
                load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("learning_rate", float("nan")), ("hidden", 16.0), ("max_epochs", True)])
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


# the run inputs of a recording whose header no test looks at
RUN = (FsmConfig(), "", Granularity.CHARACTER)
MISSING = object()  # a header field value that deletes the field
REST_POSE = " ".join(["0.0 0.0 0.0 1.0 0.0 0.0 0.0"] * NUM_JOINTS)


class TestSession:
    def test_round_trip(self, tmp_path):
        subject = synth.subjects_for(0, 1)[0]
        clip = synth.synth_clips([(GestureClass.FIST, subject, 1)])[0]
        frames = list(clip_frames(clip))[:40]
        cfg = FsmConfig(delta=0.9, n_consecutive=7, refractory=33)
        path = tmp_path / "s.mgs"
        write_session(path, frames, cfg, "The text.\n\nTwo", Granularity.SENTENCE)
        back_frames, back_cfg, text, granularity = read_session(path)
        assert (back_cfg, text, granularity) == (cfg, "The text.\n\nTwo", Granularity.SENTENCE)
        assert len(back_frames) == len(frames)
        for a, b in zip(frames, back_frames):
            assert a.timestamp == b.timestamp
            assert a.handedness is b.handedness
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.orientations, b.orientations)

    def test_header_is_one_json_line_of_the_run_inputs(self, tmp_path):
        path = tmp_path / "s.mgs"
        write_session(path, [], FsmConfig(refractory=60), "a\nb", Granularity.WORD)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "format_version": 3,
            "joint_order": list(JOINT_NAMES),
            "class_names": list(CLASS_NAMES),
            "fsm": {"delta": 0.95, "n_consecutive": 10, "refractory": 60},
            "initial_text": "a\nb",
            "granularity": "Word",
        }

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(st.sampled_from("\n\r\x85\u2028 é") | st.characters()),
        granularity=st.sampled_from(Granularity),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        n_consecutive=st.integers(1, 10**6),
        refractory=st.integers(0, 10**6),
    )
    def test_header_round_trips(self, tmp_path_factory, text, granularity, delta, n_consecutive, refractory):
        cfg = FsmConfig(delta=delta, n_consecutive=n_consecutive, refractory=refractory)
        path = tmp_path_factory.mktemp("header") / "s.mgs"
        write_session(path, [], cfg, text, granularity)
        assert read_session(path) == ([], cfg, text, granularity)

    def test_v2_file_rejected(self, tmp_path):
        # a version 2 file starts with a plain-text header line and carries
        # no run inputs
        path = tmp_path / "s.mgs"
        path.write_text("MGS2 joints=" + ",".join(JOINT_NAMES) + f"\nF 1.0 R {REST_POSE}\nE 1.0 Swipe 0.97\n")
        with pytest.raises(VersionMismatch):
            read_session(path)

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        path.write_text("MGS1 joints=" + ",".join(JOINT_NAMES) + "\nE 1.0 Swipe 0.97 0,1,1\n")
        with pytest.raises(VersionMismatch):
            read_session(path)

    @pytest.mark.parametrize("record", ["E 1.0 Swipe 0.97", "E 1.0 Swipe 0.97 0,1,1"])
    def test_event_record_rejected(self, tmp_path, record):
        # events live in the run's events.json, not in the recording
        path = self.recording(tmp_path / "s.mgs", [record])
        with pytest.raises(CorruptRecord, match="unknown record type 'E'"):
            read_session(path)

    def test_corrupt_line_rejected(self, tmp_path):
        path = self.recording(tmp_path / "s.mgs", ["F 1.0 R 0.1 0.2"])
        with pytest.raises(CorruptRecord):
            read_session(path)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        pose = np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], (NUM_JOINTS, 1))
        pose[INDEX_TIP, 3:] = (1.0, 1.0, 0.0, 0.0)
        path = self.recording(tmp_path / "s.mgs", ["F 1.0 R " + " ".join(repr(float(v)) for v in pose.reshape(-1))])
        with pytest.raises(CorruptRecord, match="unit quaternion"):
            read_session(path)

    def test_unknown_hand_field_rejected(self, tmp_path):
        path = self.recording(tmp_path / "s.mgs", [("1.0", "X")])
        with pytest.raises(CorruptRecord, match="hand 'X'"):
            read_session(path)

    @staticmethod
    def recording(path, records, **header):
        """A recording with no frames, whose header fields ``header``
        replaces (or deletes, for MISSING), followed by ``records``:
        (timestamp, hand) for a frame at rest, or an already rendered line."""
        write_session(path, [], *RUN)
        head = {k: v for k, v in dict(json.loads(path.read_text()), **header).items() if v is not MISSING}
        lines = [json.dumps(head)] + [
            record if isinstance(record, str) else f"F {record[0]} {record[1]} {REST_POSE}" for record in records
        ]
        path.write_text("".join(line + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("field, value, error", [
        ("format_version", 2, VersionMismatch),
        ("format_version", "3", VersionMismatch),
        ("format_version", MISSING, VersionMismatch),
        ("joint_order", list(reversed(JOINT_NAMES)), JointOrderMismatch),
        ("class_names", list(reversed(CLASS_NAMES)), ClassOrderMismatch),
        ("fsm", [0.95, 10, 20], CorruptRecord),
        ("fsm", {"delta": 0.95, "n_consecutive": 10}, CorruptRecord),
        ("fsm", {"delta": 1.5}, CorruptRecord),
        ("fsm", {"refractory": "60"}, CorruptRecord),
        ("fsm", {"refractory": 2.5}, CorruptRecord),
        ("fsm", {"refractory": 10**400}, CorruptRecord),
        ("fsm", {"n_consecutive": True}, CorruptRecord),
        ("fsm", {"t_window": 20}, CorruptRecord),
        ("initial_text", 5, CorruptRecord),
        ("initial_text", None, CorruptRecord),
        ("initial_text", ["a"], CorruptRecord),
        ("granularity", "Line", CorruptRecord),
        ("granularity", "character", CorruptRecord),
        ("granularity", 0, CorruptRecord),
        ("granularity", ["Word"], CorruptRecord),
        *((field, MISSING, CorruptRecord) for field in ("fsm", "initial_text", "granularity")),
    ])
    def test_bad_header_field_rejected(self, tmp_path, field, value, error):
        path = self.recording(tmp_path / "s.mgs", [("0.5", "R")], **{field: value})
        with pytest.raises(error):
            read_session(path)

    @pytest.mark.parametrize("first_line", ["", "\n", "{bad\n", "[1, 2]\n", "null\n"],
                             ids=["empty", "blank", "not_json", "array", "null"])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, first_line):
        path = tmp_path / "s.mgs"
        path.write_text(first_line)
        with pytest.raises(CorruptRecord, match="session header"):
            read_session(path)

    @pytest.mark.parametrize("record, field", [
        (("nan", "R"), "timestamp"),
        (("inf", "L"), "timestamp"),
    ])
    def test_non_finite_timestamp_or_confidence_rejected(self, tmp_path, record, field):
        path = self.recording(tmp_path / "s.mgs", [("0.5", "R"), record])
        with pytest.raises(CorruptRecord, match=f"line 3.*non-finite {field}"):
            read_session(path)

    @pytest.mark.parametrize("second", ["1.0", "0.5"], ids=["repeated", "backward"])
    def test_frame_not_after_the_previous_of_its_hand_rejected(self, tmp_path, second):
        path = self.recording(tmp_path / "s.mgs", [("1.0", "R"), ("0.25", "L"), (second, "R")])
        with pytest.raises(CorruptRecord, match=f"line 4.*Right frame at {second} is not after the one at 1.0"):
            read_session(path)

    def test_hands_are_ordered_separately(self, tmp_path):
        # each hand's frames go forward; the merged stream may interleave them
        path = self.recording(tmp_path / "s.mgs", [("1.0", "R"), ("0.5", "L"), ("1.25", "R"), ("0.75", "L")])
        frames = read_session(path)[0]
        assert [(f.timestamp, f.handedness.value) for f in frames] == [
            (1.0, "Right"), (0.5, "Left"), (1.25, "Right"), (0.75, "Left"),
        ]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "s.mgs"
        path.write_text("MGS9 joints=Wrist\n")
        with pytest.raises(VersionMismatch):
            read_session(path)

    def test_non_utf8_byte_rejected(self, tmp_path):
        path = self.recording(tmp_path / "s.mgs", [])
        with open(path, "ab") as fh:
            fh.write(f"F 1.0 R {REST_POSE}".encode() + b"\xff\n")
        with pytest.raises(CorruptRecord, match="UTF-8"):
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
    def test_identity_report_renders_full_diagonal(self):
        text = render_report(perfect_report())
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

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]"], ids=["not_json", "array"])
    def test_non_object_rejected(self, tmp_path, text):
        path = tmp_path / "r.mgr"
        path.write_text(text)
        with pytest.raises(CorruptRecord):
            read_report(path)

    def test_off_diagonals_zero_for_perfect_stub(self, tmp_path):
        path = tmp_path / "r.mgr"
        emit_report(perfect_report(), path)
        payload = read_report(path)
        conf = np.array(payload["class_confusion"])
        assert conf.sum() == np.trace(conf)


# every error a text reader may raise; anything else is a reader bug
TEXT_ERRORS = (VersionMismatch, CorruptRecord, JointOrderMismatch, ClassOrderMismatch)
TEXT_READERS = st.sampled_from([read_session, read_command_log, read_report])


@pytest.fixture(scope="module")
def text_blobs(fuzz_dir):
    """Bytes of one small file per text format, by reader."""
    subject = synth.subjects_for(0, 1)[0]
    frames = list(clip_frames(synth.synth_clips([(GestureClass.FIST, subject, 1)])[0]))[:3]
    write_session(fuzz_dir / "s.mgs", frames, FsmConfig(refractory=60), "Text.\n\nMore", Granularity.WORD)
    write_command_log(fuzz_dir / "c.log", [
        (0.5, EditCommand.set_granularity(Granularity.WORD)),
        (1.0, EditCommand.move_caret(2)),
        (1.5, EditCommand.select_range(-1)),
        (2.0, EditCommand(CommandKind.CUT)),
    ])
    emit_report(perfect_report(), fuzz_dir / "r.mgr", meta={"seed": 1})
    return {
        read_session: (fuzz_dir / "s.mgs").read_bytes(),
        read_command_log: (fuzz_dir / "c.log").read_bytes(),
        read_report: (fuzz_dir / "r.mgr").read_bytes(),
    }


@settings(max_examples=300, deadline=None)
@given(reader=TEXT_READERS, cut=st.integers(0, 10**6))
def test_truncated_text_file_fails_typed(text_blobs, fuzz_dir, reader, cut):
    blob = text_blobs[reader]
    path = fuzz_dir / "cut.txt"
    path.write_bytes(blob[: cut % len(blob)])
    try:
        reader(path)
    except TEXT_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(reader=TEXT_READERS, flips=FLIPS)
def test_text_file_with_flipped_bytes_fails_typed(text_blobs, fuzz_dir, reader, flips):
    blob = bytearray(text_blobs[reader])
    for offset, mask in flips:
        blob[offset % len(blob)] ^= mask
    path = fuzz_dir / "flipped.txt"
    path.write_bytes(bytes(blob))
    try:
        reader(path)
    except TEXT_ERRORS:
        pass
