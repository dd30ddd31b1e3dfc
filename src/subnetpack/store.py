"""Bit-budgeted weight-slot store, per-task masks, sparsity, candidate sampling.

Every weight position is a 32-bit slot carved into task-exclusive components.
A component is (task_id, bit_width, code). The store owns each committed
task's record (`TaskAllocation`) and two uint8 tables per layer: each slot's
component count and the bits its components use. A slot holds at most 32
bits, so at most 32 components, and both fit in a byte.
A mask is a list of per-layer bool arrays shaped like the layers' weights.
`t_max` is the one cap on components per slot. A run sets it once, from its
pruning config's component cap, in `runner.new_state`; eligibility, sampling
and commit all read it from the store.

A task enters the store one way: `commit` and `from_state_dict` both hand
the record to `_add`, which checks it, adds its mask bytes into the tables
and, if a slot then holds over `t_max` components or SLOT_BITS bits, takes
them back and refuses the record. A loaded record is checked as its commit
was.

`state_dict` packs each task's layers when it writes them: the mask as
`np.packbits(flat, bitorder="little")` of its row-major slots (ceil(slots/8)
bytes), the codes as one little-endian psi-bit stream in slot order
(ceil(used*psi/8) bytes), both with zero pad bits. `from_state_dict` reads
that layout, or the bool masks and uint32 codes of checkpoint format 1.
In memory a record's codes are as wide as its bit-width needs,
`code_dtype(psi)`: uint8 to 8 bits, uint16 to 16 and uint32 above, so 32-bit
float patterns still view as float32. The layer readers `_add` takes,
`_checked_layer` on a commit and `_read_packed_layer` on a load, narrow them.

`projected` copies the budgets with one more component under a mask, for a
run that samples the next task before the current one commits.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExhausted, CapacityWarning, CommitRejected

SLOT_BITS = 32


@dataclass(frozen=True)
class SparsityReport:
    """Per-layer free-slot ratios and their sum weighted by layer size."""

    per_layer: tuple[float, ...]
    weighted: float


@dataclass
class TaskAllocation:
    """One committed task: bit-width, masks, per-layer codes and centroid tables.

    mask[i] is layer i's bool mask, shaped like its weights; codes[i] holds
    one `code_dtype(psi)` integer per active mask slot of layer i, in
    row-major slot order, and indexes the float32 table centroids[i] (empty
    at SLOT_BITS bits, where each code is a float32 bit pattern).
    """

    psi: int
    mask: list[np.ndarray]
    codes: list[np.ndarray]
    centroids: list[np.ndarray]

    def active_counts(self) -> list[int]:
        """Masked slots per layer: a layer holds one code per masked slot."""
        return [c.size for c in self.codes]


class WeightSlotStore:
    def __init__(self, layer_shapes, t_max: int = 4):
        self.layer_shapes = tuple((int(r), int(c)) for r, c in layer_shapes)
        self.layer_sizes = tuple(r * c for r, c in self.layer_shapes)
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("every layer needs at least one slot")
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.t_max = int(t_max)
        # per slot: components held, and the bits they use
        self._count = [np.zeros(s, dtype=np.uint8) for s in self.layer_sizes]
        self._used = [np.zeros(s, dtype=np.uint8) for s in self.layer_sizes]
        self.tasks: dict[int, TaskAllocation] = {}

    @property
    def layer_count(self) -> int:
        return len(self.layer_shapes)

    @property
    def total_slots(self) -> int:
        return sum(self.layer_sizes)

    # -- sparsity ----------------------------------------------------------

    def hypothetical_sparsity(self, mask) -> SparsityReport:
        """Free-slot ratios as if `mask` were committed on top of the current tasks.

        An all-False mask gives the store's own sparsity.
        """
        per_layer = tuple(
            (size - int(np.count_nonzero((counts > 0) | m.ravel()))) / size
            for size, counts, m in zip(self.layer_sizes, self._count, mask))
        return SparsityReport(per_layer,
                              sum(s * u for s, u in zip(self.layer_sizes, per_layer)))

    # -- eligibility and sampling -------------------------------------------

    def eligible_slots(self, layer: int, psi_min: int) -> np.ndarray:
        return (self._count[layer] < self.t_max) & (self._used[layer] <= SLOT_BITS - psi_min)

    def mask_bit_budget(self, mask) -> int:
        """Tightest remaining-bit budget over the mask's slots."""
        budget = SLOT_BITS
        for used, m in zip(self._used, mask):
            flat = m.ravel()
            if flat.any():
                budget = min(budget, SLOT_BITS - int(used[flat].max()))
        return budget

    # -- commit --------------------------------------------------------------

    def commit(self, task_id: int, mask, psi: int, codes, centroids) -> None:
        """Append (task_id, psi, code) components to every masked slot.

        `mask` is a sequence of per-layer bool arrays; the store keeps them as
        a list, with the task's codes and centroid tables. All-or-nothing: a
        record `_add` refuses, an ineligible slot or a duplicate task id
        included, rejects the whole commit and leaves the store untouched.
        """
        self._add(task_id, psi, mask, codes, centroids, _checked_layer)

    def projected(self, mask, psi: int) -> "WeightSlotStore":
        """A copy whose slots under `mask` hold one more psi-bit component.

        It records no task. Eligibility, sampling and sparsity read it as they
        would read this store after committing `mask` at psi bits.
        """
        copy = WeightSlotStore(self.layer_shapes, t_max=self.t_max)
        copy._count = [c.copy() for c in self._count]
        copy._used = [u.copy() for u in self._used]
        copy._occupy(mask, psi)
        return copy

    def _occupy(self, mask, psi: int, undo: bool = False) -> None:
        """Add one psi-bit component to every masked slot, in the mask's own
        bytes; `undo` takes it back. A zero-bit component moves only the
        component counts."""
        step = np.subtract if undo else np.add
        for count, used, m in zip(self._count, self._used, mask):
            bits = np.asarray(m, dtype=bool).ravel().view(np.uint8)
            step(count, bits, out=count)
            if psi:
                step(used, bits * np.uint8(psi), out=used)

    def _add(self, task_id, psi, masks, codes, centroids, read_layer) -> None:
        """Record a task, or raise CommitRejected and leave the store as it was.

        The record needs a new integer task id, a bit-width in [1, SLOT_BITS],
        and per layer a mask and codes `read_layer` accepts and a 1-D float32
        centroid table of at most 2^psi entries (none at SLOT_BITS) that every
        code indexes. Its slots are then occupied, and taken back if any slot
        holds over t_max components or SLOT_BITS bits. Every slot was within
        both before, so that is each masked slot's eligibility for psi bits,
        and a uint8 table adds at most one component and SLOT_BITS bits to a
        slot holding at most SLOT_BITS of each, so it cannot wrap.
        """
        if not isinstance(task_id, numbers.Integral) or task_id in self.tasks:
            raise CommitRejected(f"task id {task_id!r} is not new")
        if not isinstance(psi, numbers.Integral) or not 1 <= psi <= SLOT_BITS:
            raise CommitRejected(f"task {task_id}: bit-width {psi!r} "
                                 f"outside [1, {SLOT_BITS}]")
        if centroids is None or not (len(masks) == len(codes) == len(centroids)
                                     == self.layer_count):
            raise CommitRejected(f"task {task_id}: masks, codes and centroid tables "
                                 "need one entry per layer")
        layers = [read_layer(masks[i], codes[i], psi, shape, f"task {task_id} layer {i}")
                  for i, shape in enumerate(self.layer_shapes)]
        room = 0 if psi == SLOT_BITS else 1 << psi
        for i, ((_, c), table) in enumerate(zip(layers, centroids)):
            if not (isinstance(table, np.ndarray) and table.dtype == np.float32
                    and table.ndim == 1):
                raise CommitRejected(f"task {task_id} layer {i}: centroids are not "
                                     "a 1-D float32 table")
            # a psi-bit code is below 2^psi, so only a shorter table needs the max
            if len(table) > room or (len(table) < room and c.size
                                     and int(c.max()) >= len(table)):
                raise CommitRejected(f"task {task_id} layer {i}: codes do not all "
                                     f"index a centroid table of {len(table)} entries")
        mask = [m for m, _ in layers]
        self._occupy(mask, psi)
        over = [i for i, (count, used) in enumerate(zip(self._count, self._used))
                if int(count.max()) > self.t_max or int(used.max()) > SLOT_BITS]
        if over:
            self._occupy(mask, psi, undo=True)
            raise CommitRejected(f"task {task_id}: ineligible slots for bit-width "
                                 f"{psi} in layers {over}")
        self.tasks[task_id] = TaskAllocation(psi, mask, [c for _, c in layers],
                                             list(centroids))

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "layer_shapes": [list(s) for s in self.layer_shapes],
            "t_max": self.t_max,
            "tasks": [
                {
                    "task_id": t,
                    "psi": a.psi,
                    "mask": [np.packbits(m.ravel(), bitorder="little") for m in a.mask],
                    "codes": [_pack_codes(c, a.psi) for c in a.codes],
                }
                for t, a in self.tasks.items()
            ],
        }

    def packed_bytes(self, task_id: int) -> tuple[int, int]:
        """(mask, codes) bytes of a task's record as `state_dict` writes it."""
        a = self.tasks[task_id]
        return (sum(_nbytes(size) for size in self.layer_sizes),
                sum(_nbytes(c.size * a.psi) for c in a.codes))

    @classmethod
    def from_state_dict(cls, state: dict, centroids: dict,
                        packed: bool = True) -> "WeightSlotStore":
        """Rebuild a store from `state_dict` output and each task's centroid
        tables, `centroids[task_id]`; packed=False reads format 1.

        Each record enters through `_add`, in order, as its commit did, so
        this rejects with CommitRejected exactly what replaying the commits
        would reject.
        """
        store = cls(state["layer_shapes"], t_max=state["t_max"])
        read_layer = _read_packed_layer if packed else _read_v1_layer
        for rec in state["tasks"]:
            store._add(rec["task_id"], rec["psi"], rec["mask"], rec["codes"],
                       centroids.get(rec["task_id"]), read_layer)
        return store


def code_dtype(psi: int) -> np.dtype:
    """The narrowest unsigned integer that holds a psi-bit code."""
    return np.min_scalar_type((1 << psi) - 1)


def _nbytes(bits: int) -> int:
    return -(-bits // 8)


def _pack_codes(codes: np.ndarray, psi: int) -> np.ndarray:
    """Codes as one little-endian psi-bit stream, zero pad bits."""
    bits = np.empty((codes.size, psi), dtype=np.uint8)
    for b in range(psi):
        np.bitwise_and(codes >> b, 1, out=bits[:, b], casting="unsafe")
    return np.packbits(bits, bitorder="little")


def _unpack_bits(buf, nbits: int, what: str) -> np.ndarray:
    """The nbits bits of a packed buffer, which must hold exactly them."""
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.uint8 and buf.ndim == 1):
        raise CommitRejected(f"{what}: expected a flat uint8 array")
    if buf.size != _nbytes(nbits):
        raise CommitRejected(f"{what}: {buf.size} bytes for {nbits} bits")
    if nbits % 8 and buf[-1] >> (nbits % 8):
        raise CommitRejected(f"{what}: nonzero pad bits")
    return np.unpackbits(buf, count=nbits, bitorder="little")


def _read_packed_layer(mask_buf, code_buf, psi, shape, what):
    """(bool mask, `code_dtype(psi)` codes) of one layer from its packed record."""
    flat = _unpack_bits(mask_buf, shape[0] * shape[1], f"{what} mask").view(bool)
    used = int(np.count_nonzero(flat))
    bits = _unpack_bits(code_buf, used * psi, f"{what} codes").reshape(used, psi)
    dtype = code_dtype(psi)
    codes = np.zeros(used, dtype=dtype)
    for b in range(psi):
        codes |= bits[:, b].astype(dtype) << b
    return flat.reshape(shape), codes


def _read_v1_layer(mask, codes, psi, shape, what):
    """(bool mask, `code_dtype(psi)` codes) of one layer from the bool mask
    and uint32 codes checkpoint format 1 holds."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool
            and isinstance(codes, np.ndarray) and codes.dtype == np.uint32):
        raise CommitRejected(f"{what}: expected a bool mask and uint32 codes")
    return _checked_layer(mask, codes, psi, shape, what)


def _checked_layer(mask, codes, psi, shape, what):
    """(bool mask, `code_dtype(psi)` codes) of one layer: the mask must have
    `shape`, and the codes must be one integer in [0, 2^psi) per masked slot."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise CommitRejected(f"{what}: mask shape {mask.shape} != {shape}")
    used = int(np.count_nonzero(mask))
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu" or codes.shape != (used,):
        raise CommitRejected(f"{what}: codes are not {used} integers")
    if used and (int(codes.min()) < 0 or int(codes.max()) >= 1 << psi):
        raise CommitRejected(f"{what}: code outside the {psi}-bit range")
    return mask, codes.astype(code_dtype(psi))


def sample_candidate_mask(store, layer, target_sparsity, psi_min, rng) -> np.ndarray:
    """Random lottery-ticket mask for one layer at the given sparsity.

    Keeps ceil((1 - s) * slots) uniformly drawn eligible slots; a too-small
    eligible set is taken whole with a CapacityWarning.
    """
    size = store.layer_sizes[layer]
    eligible = np.flatnonzero(store.eligible_slots(layer, psi_min))
    if eligible.size == 0:
        raise CapacityExhausted([layer], f"no eligible slots left in layer {layer}")
    want = math.ceil((1.0 - target_sparsity) * size)
    if want > eligible.size:
        warnings.warn(
            f"layer {layer}: wanted {want} slots, only {eligible.size} eligible",
            CapacityWarning,
            stacklevel=2,
        )
        chosen = eligible
    else:
        chosen = rng.choice(eligible, size=want, replace=False)
    flat = np.zeros(size, dtype=bool)
    flat[chosen] = True
    return flat.reshape(store.layer_shapes[layer])


def sample_candidate_full(store, v_min, v_max, psi_min, rng) -> list[np.ndarray]:
    """Candidate mask over all layers, target sparsity ~ U[v_min, v_max] per layer."""
    if not (0.0 <= v_min <= v_max <= 1.0):
        raise ValueError(f"need 0 <= v_min <= v_max <= 1, got [{v_min}, {v_max}]")
    layers = []
    for i in range(store.layer_count):
        s = rng.uniform(v_min, v_max)
        layers.append(sample_candidate_mask(store, i, s, psi_min, rng))
    return layers
