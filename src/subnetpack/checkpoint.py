"""Self-validating binary checkpoints.

Layout: 8-byte magic, little-endian u32 format version, payload, and a
trailing little-endian u64 BLAKE2b digest of the payload. The payload is a
tagged tree of None/int/float/str/bytes/list/dict/ndarray nodes, everything
little-endian, dict keys sorted so equal states serialize to equal bytes.
Arrays hold bool or little-endian numbers only. The decoder accepts exactly
what the encoder writes and raises CheckpointError for anything else.

Version 2 stores the slot store bit-packed (see `store`); version 1 held
bool masks and uint32 codes. Both are read, and `load_checkpoint` returns the
version with the payload; saves write version 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"SUBNPACK"
VERSION = 2

_T_NONE = 0
_T_INT = 1
_T_FLOAT = 2
_T_STR = 3
_T_BYTES = 4
_T_LIST = 5
_T_DICT = 6
_T_ARRAY = 7

_DTYPES = {d.str.encode("ascii"): d  # the array dtypes a checkpoint may hold
           for d in (np.dtype(c).newbyteorder("<") for c in "?bBhHiIqQefdFD")}


def _encode_into(buf: bytearray, node) -> None:
    if node is None:
        buf.append(_T_NONE)
    elif isinstance(node, bool):
        raise TypeError("encode booleans as ints explicitly")
    elif isinstance(node, (int, np.integer)):
        buf.append(_T_INT)
        buf += struct.pack("<q", int(node))
    elif isinstance(node, (float, np.floating)):
        buf.append(_T_FLOAT)
        buf += struct.pack("<d", float(node))
    elif isinstance(node, str):
        raw = node.encode("utf-8")
        buf.append(_T_STR)
        buf += struct.pack("<Q", len(raw))
        buf += raw
    elif isinstance(node, (bytes, bytearray)):
        buf.append(_T_BYTES)
        buf += struct.pack("<Q", len(node))
        buf += node
    elif isinstance(node, (list, tuple)):
        buf.append(_T_LIST)
        buf += struct.pack("<Q", len(node))
        for item in node:
            _encode_into(buf, item)
    elif isinstance(node, dict):
        buf.append(_T_DICT)
        buf += struct.pack("<Q", len(node))
        for key in sorted(node):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(buf, key)
            _encode_into(buf, node[key])
    elif isinstance(node, np.ndarray):
        arr = np.ascontiguousarray(node)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        dtype_text = arr.dtype.str.encode("ascii")
        if dtype_text not in _DTYPES:
            raise TypeError(f"cannot encode {arr.dtype} arrays")
        buf.append(_T_ARRAY)
        buf += struct.pack("<B", len(dtype_text))
        buf += dtype_text
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        raw = arr.tobytes()
        buf += struct.pack("<Q", len(raw))
        buf += raw
    else:
        raise TypeError(f"cannot encode {type(node).__name__}")


_U8 = struct.Struct("<B")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


class _Reader:
    """Reads fields in place: at an offset into a memoryview of the payload."""

    def __init__(self, data, path: str):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def truncated(self) -> CheckpointError:
        return CheckpointError(f"{self.path}: payload truncated at byte {self.pos}")

    def take(self, n: int) -> memoryview:
        at = self.pos
        if at + n > len(self.data):
            raise self.truncated()
        self.pos = at + n
        return self.data[at:at + n]

    def unpack(self, fmt: struct.Struct):
        try:
            out = fmt.unpack_from(self.data, self.pos)
        except struct.error:
            raise self.truncated() from None
        self.pos += fmt.size
        return out


def _decode_node(r: _Reader):
    (tag,) = r.unpack(_U8)
    if tag == _T_NONE:
        return None
    if tag == _T_INT:
        return r.unpack(_I64)[0]
    if tag == _T_FLOAT:
        return r.unpack(_F64)[0]
    if tag == _T_STR:
        (n,) = r.unpack(_U64)
        return str(r.take(n), "utf-8")
    if tag == _T_BYTES:
        (n,) = r.unpack(_U64)
        return bytes(r.take(n))
    if tag == _T_LIST:
        (n,) = r.unpack(_U64)
        return [_decode_node(r) for _ in range(n)]
    if tag == _T_DICT:
        (n,) = r.unpack(_U64)
        out = {}
        last = None
        for _ in range(n):
            at = r.pos
            key = _decode_node(r)
            if not isinstance(key, str) or (last is not None and key <= last):
                raise CheckpointError(f"{r.path}: dict key at byte {at} not a str in order")
            out[key] = _decode_node(r)
            last = key
        return out
    if tag == _T_ARRAY:
        (dlen,) = r.unpack(_U8)
        dtype_text = bytes(r.take(dlen))
        dtype = _DTYPES.get(dtype_text)
        if dtype is None:
            raise CheckpointError(f"{r.path}: array dtype {dtype_text!r} at byte {r.pos}")
        (ndim,) = r.unpack(_U8)
        shape = r.unpack(struct.Struct(f"<{ndim}Q")) if ndim else ()
        (nbytes,) = r.unpack(_U64)
        return np.frombuffer(r.take(nbytes), dtype=dtype).reshape(shape).copy()
    raise CheckpointError(f"{r.path}: unknown node tag {tag} at byte {r.pos - 1}")


def encode_state(state: dict) -> bytes:
    buf = bytearray()
    _encode_into(buf, state)
    return bytes(buf)


def decode_state(payload, path: str = "<memory>") -> dict:
    """The state `encode_state` wrote into `payload`, any bytes-like object."""
    r = _Reader(payload, path)
    try:
        node = _decode_node(r)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, array bytes that do not fit their shape, deep nesting
        raise CheckpointError(f"{path}: bad node before byte {r.pos}: {exc}") from None
    if r.pos != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - r.pos} stray payload bytes")
    return node


def _digest(payload: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little")


def save_checkpoint(path, state: dict) -> None:
    """Write the checkpoint whole or not at all.

    The bytes go to a temp file beside `path`, are fsynced, then renamed over
    `path`, so a crash or error mid-write leaves the previous checkpoint intact.
    """
    payload = encode_state(state)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(payload)
            fh.write(struct.pack("<Q", _digest(payload)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[int, dict]:
    """(format version, payload); CheckpointError unless a save wrote the file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
    head = len(MAGIC) + 4
    if len(blob) < head + 8:
        raise CheckpointError(f"{path}: file too short ({len(blob)} bytes)")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if not 1 <= version <= VERSION:
        age = "newer than supported" if version > VERSION else "unknown"
        raise CheckpointError(
            f"{path}: format version {version} {age} (reads 1 to {VERSION})")
    payload = memoryview(blob)[head:-8]
    (stored,) = _U64.unpack_from(blob, len(blob) - 8)
    actual = _digest(payload)
    if stored != actual:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {stored:#018x}, "
            f"computed {actual:#018x})")
    return version, decode_state(payload, str(path))
