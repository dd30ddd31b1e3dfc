import gc
import os
import stat
import struct

import numpy as np
import pytest

from subnetpack import checkpoint
from subnetpack.checkpoint import (MAGIC, VERSION, decode_state, encode_state,
                                   load_checkpoint, save_checkpoint)
from subnetpack.errors import CheckpointError


def deep_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(deep_equal(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(deep_equal(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


SAMPLE = {
    "int": 42,
    "negative": -(2**40),
    "float": 0.1,
    "text": "subnet ✓",
    "list": [1, [2.5, []], "x"],
    "nested": {"z": 1, "a": ["q"]},
    "f64": np.linspace(-1, 1, 7),
    "f32": np.float32([[1.5, -2.25], [0.0, 3.125]]),
    "i64": np.int64([[-5], [9]]),
    "u32": np.uint32([0, 1, 2**32 - 1]),
    "bools": np.array([True, False, True]),
    "empty": np.zeros((0, 3)),
}


def test_encode_decode_identity():
    back = decode_state(encode_state(SAMPLE))
    assert deep_equal(back, SAMPLE)


def test_encode_is_deterministic():
    assert encode_state(SAMPLE) == encode_state(SAMPLE)
    # key order never changes the bytes
    a = encode_state({"a": 1, "b": 2})
    b = encode_state({"b": 2, "a": 1})
    assert a == b


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode_state({"x": object()})
    with pytest.raises(TypeError):
        encode_state({"x": True})  # bools are not silently stored as ints
    with pytest.raises(TypeError):
        encode_state({1: "non-string key"})
    for kind in (None, b"raw"):  # no checkpoint format holds either
        with pytest.raises(TypeError):
            encode_state({"x": kind})


def test_decode_rejects_stray_bytes():
    payload = encode_state({"a": 1})
    with pytest.raises(CheckpointError):
        decode_state(payload + b"\x00")


def test_decode_rejects_tags_that_name_no_node_kind():
    # tags 0 and 4 name no node kind: no checkpoint format holds None or bytes
    for payload in (bytes([0]), bytes([4]) + struct.pack("<Q", 1) + b"q"):
        with pytest.raises(CheckpointError, match="unknown node tag"):
            decode_state(payload)


def test_decode_rejects_truncation():
    payload = encode_state(SAMPLE)
    with pytest.raises(CheckpointError):
        decode_state(payload[:-3])


def test_decode_makes_no_reference_cycle():
    # a cycle through the decoder would keep each payload it read alive
    # until the garbage collector ran
    payload = encode_state(SAMPLE)
    gc.collect()
    gc.disable()
    try:
        for data in (payload, payload[:-3], payload + b"\x00"):
            try:
                decode_state(data)
            except CheckpointError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_encode_rejects_arrays_the_decoder_refuses():
    for arr in (np.array(["text"]), np.array([object()]),
                np.array(["2024-01-01"], dtype="datetime64[D]")):
        with pytest.raises(TypeError):
            encode_state({"x": arr})


def test_decoder_fuzz_decodes_or_raises_checkpoint_error():
    # a payload that passed its checksum may still be malformed; whatever its
    # bytes, decoding either succeeds or raises CheckpointError
    payload = encode_state(SAMPLE)
    rng = np.random.default_rng(20240)
    for _ in range(5000):
        mutated = bytearray(payload)
        for pos in rng.integers(0, len(mutated), rng.integers(1, 5)):
            mutated[pos] = rng.integers(0, 256)
        try:
            decode_state(bytes(mutated))
        except CheckpointError:
            pass
    nested = bytes([5]) + struct.pack("<Q", 1)  # a one-item list
    with pytest.raises(CheckpointError):
        decode_state(nested * 100_000 + bytes([1]) + struct.pack("<q", 0))


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    version, payload = load_checkpoint(path)
    assert version == VERSION
    assert deep_equal(payload, SAMPLE)


def test_save_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, SAMPLE)
    save_checkpoint(p2, SAMPLE)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_detects_flipped_payload_byte(tmp_path):
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTAPACK"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_load_rejects_future_version(tmp_path, capsys):
    from subnetpack.cli import EXIT_CHECKPOINT, main
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="newer"):
        load_checkpoint(path)
    assert main(["inspect-checkpoint", "--checkpoint", str(path)]) == EXIT_CHECKPOINT
    assert "newer than supported" in capsys.readouterr().err


def test_load_rejects_version_zero(tmp_path):
    # no format 0 was ever written, and the header lies outside the digest,
    # so only the version check can refuse such a file
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 0"):
        load_checkpoint(path)


def test_load_rejects_short_file(tmp_path):
    path = tmp_path / "stub.bin"
    path.write_bytes(MAGIC)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_arrays_survive_non_native_order(tmp_path):
    # big-endian input is normalized on write and reads back little-endian
    arr = np.arange(6, dtype=">f8").reshape(2, 3)
    path = tmp_path / "be.bin"
    save_checkpoint(path, {"arr": arr})
    back = load_checkpoint(path)[1]["arr"]
    np.testing.assert_array_equal(back, arr.astype("<f8"))
    assert back.dtype == np.dtype("float64")


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "state.bin"
    save_checkpoint(path, SAMPLE)
    before = path.read_bytes()

    class TornFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    monkeypatch.setattr(checkpoint, "open",
                        lambda p, mode: TornFile(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {"replacement": np.arange(1000)})
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert deep_equal(load_checkpoint(path)[1], SAMPLE)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.bin"]


def test_a_save_inside_another_save_loses_neither(tmp_path, monkeypatch):
    # two writers of one checkpoint: the second saves whole between the
    # first's write and its rename, and each rename still finds its own temp
    # file; one temp name shared by both raised FileNotFoundError there
    path = tmp_path / "state.bin"
    replace = os.replace

    def saving_in_between(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(path, {"second": np.arange(3)})
        assert deep_equal(load_checkpoint(path)[1], {"second": np.arange(3)})
        replace(src, dst)

    monkeypatch.setattr(os, "replace", saving_in_between)
    save_checkpoint(path, SAMPLE)
    monkeypatch.undo()
    assert deep_equal(load_checkpoint(path)[1], SAMPLE)  # the last rename wins
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.bin"]
    # with the mode open() gives a new file, not mkstemp's owner-only one
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
