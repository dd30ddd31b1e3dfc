"""Self-validating binary checkpoints.

Layout: 8-byte magic, little-endian u32 format version, payload, and a
trailing little-endian u64 BLAKE2b digest of the payload. The payload is a
tagged tree of int/float/str/list/dict/ndarray nodes, everything
little-endian, dict keys sorted so equal states serialize to equal bytes.
Arrays hold bool or little-endian numbers only. The decoder accepts exactly
what the encoder writes and raises CheckpointError for anything else. It
reads the payload once, in place: each field is unpacked at an offset into a
memoryview, and only strings and array contents are copied out. Tags 0
and 4 name no node kind, so a payload holding either is refused.

Version 2 stores the slot store bit-packed (see `store`); version 1 held
bool masks and uint32 codes. Both are read, and `load_checkpoint` returns the
version with the payload; saves write version 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointError

MAGIC = b"SUBNPACK"
VERSION = 2

_T_INT = 1
_T_FLOAT = 2
_T_STR = 3
_T_LIST = 5
_T_DICT = 6
_T_ARRAY = 7

_DTYPES = {d.str.encode("ascii"): d  # the array dtypes a checkpoint may hold
           for d in (np.dtype(c).newbyteorder("<") for c in "?bBhHiIqQefdFD")}


def _encode_into(buf: bytearray, node) -> None:
    if isinstance(node, bool):
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


_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def _truncated(path: str, pos: int) -> CheckpointError:
    return CheckpointError(f"{path}: payload truncated after byte {pos}")


def _decode_node(data: memoryview, pos: int, path: str):
    """(node, end offset) of the node at `pos` in the payload `data`.

    Reads each field in place with `unpack_from`; a module-level function,
    so decoding makes no reference cycle that would keep the payload alive.
    """
    try:
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            return _I64.unpack_from(data, pos)[0], pos + 8
        if tag == _T_FLOAT:
            return _F64.unpack_from(data, pos)[0], pos + 8
        if tag == _T_STR:
            (n,) = _U64.unpack_from(data, pos)
            pos += 8
            end = pos + n
            if end > len(data):
                raise _truncated(path, pos)
            return str(data[pos:end], "utf-8"), end
        if tag == _T_LIST:
            (n,) = _U64.unpack_from(data, pos)
            pos += 8
            out = []
            for _ in range(n):
                item, pos = _decode_node(data, pos, path)
                out.append(item)
            return out, pos
        if tag == _T_DICT:
            (n,) = _U64.unpack_from(data, pos)
            pos += 8
            out = {}
            last = None
            for _ in range(n):
                if data[pos] != _T_STR:
                    raise CheckpointError(f"{path}: dict key at byte {pos} not a str")
                (klen,) = _U64.unpack_from(data, pos + 1)
                pos += 9
                end = pos + klen
                if end > len(data):
                    raise _truncated(path, pos)
                key = str(data[pos:end], "utf-8")
                if last is not None and key <= last:
                    raise CheckpointError(f"{path}: dict key at byte {pos} out of order")
                out[key], pos = _decode_node(data, end, path)
                last = key
            return out, pos
        if tag == _T_ARRAY:
            dlen = data[pos]
            dtype_text = bytes(data[pos + 1:pos + 1 + dlen])
            dtype = _DTYPES.get(dtype_text)
            if dtype is None:
                raise CheckpointError(f"{path}: array dtype {dtype_text!r} at byte {pos}")
            pos += 1 + dlen
            ndim = data[pos]
            shape = struct.unpack_from(f"<{ndim}Q", data, pos + 1)
            pos += 1 + 8 * ndim
            (nbytes,) = _U64.unpack_from(data, pos)
            pos += 8
            end = pos + nbytes
            if end > len(data):
                raise _truncated(path, pos)
            return np.frombuffer(data[pos:end], dtype=dtype).reshape(shape).copy(), end
    except (IndexError, struct.error):
        raise _truncated(path, pos) from None
    raise CheckpointError(f"{path}: unknown node tag {tag} at byte {pos - 1}")


def encode_state(state: dict) -> bytes:
    buf = bytearray()
    _encode_into(buf, state)
    return bytes(buf)


def decode_state(payload, path: str = "<memory>") -> dict:
    """The state `encode_state` wrote into `payload`, any bytes-like object."""
    data = memoryview(payload).cast("B")
    try:
        node, end = _decode_node(data, 0, path)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, array bytes that do not fit their shape, deep nesting
        raise CheckpointError(f"{path}: bad node: {exc}") from None
    if end != len(data):
        raise CheckpointError(f"{path}: {len(data) - end} stray payload bytes")
    return node


def _digest(payload: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little")


def save_checkpoint(path, state: dict) -> None:
    """Write the checkpoint whole or not at all.

    The bytes go to a temp file of its own beside `path`, are fsynced, then
    renamed over `path`, so a crash or error mid-write leaves the previous
    checkpoint intact, and a save running at the same time into the same
    directory neither takes nor removes this one's temp file.
    """
    payload = encode_state(state)
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{os.path.basename(path)}.",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "wb") as fh:
            # mkstemp makes the file its owner's alone; give it the mode
            # open() gives the reports beside it
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
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
