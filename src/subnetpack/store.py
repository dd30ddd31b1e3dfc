"""Bit-budgeted weight-slot store, per-task masks, sparsity, candidate sampling.

Every weight position is a 32-bit slot carved into task-exclusive components.
A component is (task_id, bit_width, code); the store tracks per-slot component
counts and remaining bits, and owns the committed per-task masks and codes.
`t_max` is the one cap on components per slot. A run sets it once, from its
pruning config's component cap, in `runner.new_state`; eligibility, sampling
and commit all read it from the store.

`state_dict` writes each task's layers bit-packed: the mask as
`np.packbits(flat, bitorder="little")` of its row-major slots (ceil(slots/8)
bytes), the codes as one little-endian psi-bit stream in slot order
(ceil(used*psi/8) bytes), both with zero pad bits. `from_state_dict` reads
that layout, or the bool masks and uint32 codes of checkpoint format 1, and
rebuilds counts and budgets in one pass instead of replaying commits.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExhausted, CapacityWarning, CommitRejected

SLOT_BITS = 32


class TaskMask:
    """Per-layer boolean masks for one task; layer arrays match weight shapes."""

    def __init__(self, layers):
        self.layers = [np.asarray(m, dtype=bool) for m in layers]

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)

    def __getitem__(self, i):
        return self.layers[i]

    def active_counts(self) -> list[int]:
        return [int(m.sum()) for m in self.layers]

    def same_as(self, other: "TaskMask") -> bool:
        return len(self) == len(other) and all(
            a.shape == b.shape and np.array_equal(a, b) for a, b in zip(self, other)
        )


@dataclass(frozen=True)
class SparsityReport:
    """Per-layer free-slot ratios with their weighted and normalized sums."""

    per_layer: tuple[float, ...]
    weighted: float
    normalized: float


@dataclass
class TaskAllocation:
    """One committed task: bit-width, masks, and per-layer codes.

    codes[i] holds one uint32 per active mask slot of layer i, in row-major
    slot order.
    """

    task_id: int
    psi: int
    mask: TaskMask
    codes: list[np.ndarray]


class WeightSlotStore:
    def __init__(self, layer_shapes, t_max: int = 4):
        self.layer_shapes = tuple((int(r), int(c)) for r, c in layer_shapes)
        self.layer_sizes = tuple(r * c for r, c in self.layer_shapes)
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("every layer needs at least one slot")
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.t_max = int(t_max)
        self._comp_count = [np.zeros(s, dtype=np.int32) for s in self.layer_sizes]
        self._remaining = [np.full(s, SLOT_BITS, dtype=np.int32) for s in self.layer_sizes]
        self.tasks: dict[int, TaskAllocation] = {}

    @property
    def layer_count(self) -> int:
        return len(self.layer_shapes)

    @property
    def total_slots(self) -> int:
        return sum(self.layer_sizes)

    def remaining_bits(self, layer: int) -> np.ndarray:
        return self._remaining[layer].copy()

    def component_counts(self, layer: int) -> np.ndarray:
        return self._comp_count[layer].copy()

    def slot_components(self, layer: int, slot: int) -> list[tuple[int, int, int]]:
        """(task_id, bit_width, code) entries of one slot, in commit order."""
        out = []
        for alloc in self.tasks.values():
            flat = alloc.mask[layer].ravel()
            if flat[slot]:
                pos = int(np.count_nonzero(flat[:slot]))
                out.append((alloc.task_id, alloc.psi, int(alloc.codes[layer][pos])))
        return out

    # -- sparsity ----------------------------------------------------------

    def sparsity_level(self, layer: int) -> float:
        """Fraction of the layer's slots not yet assigned to any task."""
        used = int(np.count_nonzero(self._comp_count[layer]))
        return (self.layer_sizes[layer] - used) / self.layer_sizes[layer]

    def weighted_sparsity(self) -> SparsityReport:
        per_layer = tuple(self.sparsity_level(i) for i in range(self.layer_count))
        return self._report(per_layer)

    def hypothetical_sparsity(self, mask: TaskMask) -> SparsityReport:
        """Sparsity as if `mask` were committed on top of the current tasks."""
        per_layer = []
        for i in range(self.layer_count):
            used = np.count_nonzero(
                (self._comp_count[i] > 0) | mask[i].ravel()
            )
            per_layer.append((self.layer_sizes[i] - int(used)) / self.layer_sizes[i])
        return self._report(tuple(per_layer))

    def _report(self, per_layer) -> SparsityReport:
        weighted = sum(s * u for s, u in zip(self.layer_sizes, per_layer))
        return SparsityReport(per_layer, weighted, weighted / self.total_slots)

    # -- eligibility and sampling -------------------------------------------

    def eligible_slots(self, layer: int, psi_min: int) -> np.ndarray:
        return (self._comp_count[layer] < self.t_max) & (self._remaining[layer] >= psi_min)

    def eligible(self, layer: int, slot: int, psi_min: int) -> bool:
        return bool(self.eligible_slots(layer, psi_min)[slot])

    # -- commit --------------------------------------------------------------

    def commit(self, task_id: int, mask, psi: int, codes) -> None:
        """Append (task_id, psi, code) components to every masked slot.

        `mask` is a TaskMask or any sequence of per-layer bool arrays; the
        store keeps it as a TaskMask. All-or-nothing: any ineligible slot,
        duplicate task id, or malformed codes rejects the whole commit and
        leaves the store untouched.
        """
        mask = TaskMask(mask)
        if task_id in self.tasks:
            raise CommitRejected(f"task {task_id} is already committed")
        if not (1 <= psi <= SLOT_BITS):
            raise CommitRejected(f"bit-width {psi} outside [1, {SLOT_BITS}]")
        if len(mask) != self.layer_count or len(codes) != self.layer_count:
            raise CommitRejected("mask/codes layer count mismatch")

        clean_codes = []
        bad_layers = []
        for i in range(self.layer_count):
            if mask[i].shape != self.layer_shapes[i]:
                raise CommitRejected(
                    f"layer {i}: mask shape {mask[i].shape} != {self.layer_shapes[i]}"
                )
            flat = mask[i].ravel()
            layer_codes = np.asarray(codes[i], dtype=np.uint64)
            if layer_codes.shape != (int(flat.sum()),):
                raise CommitRejected(
                    f"layer {i}: got {layer_codes.shape[0]} codes for {int(flat.sum())} slots"
                )
            if psi < SLOT_BITS and layer_codes.size and layer_codes.max() >= (1 << psi):
                raise CommitRejected(f"layer {i}: code exceeds {psi}-bit range")
            clean_codes.append(layer_codes.astype(np.uint32))
            if np.any(flat & ~self.eligible_slots(i, psi)):
                bad_layers.append(i)
        if bad_layers:
            raise CommitRejected(
                f"ineligible slots for bit-width {psi} in layers {bad_layers}"
            )

        self._occupy(mask, psi)
        self.tasks[task_id] = TaskAllocation(task_id, psi, mask, clean_codes)

    def _occupy(self, mask: TaskMask, psi: int) -> None:
        """Add one psi-bit component to every masked slot, densely."""
        for i, m in enumerate(mask):
            flat = m.ravel()
            self._comp_count[i] += flat
            self._remaining[i] -= np.multiply(flat, psi, dtype=np.int32)

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "layer_shapes": [list(s) for s in self.layer_shapes],
            "t_max": self.t_max,
            "tasks": [
                {
                    "task_id": a.task_id,
                    "psi": a.psi,
                    "mask": [np.packbits(m.ravel(), bitorder="little") for m in a.mask],
                    "codes": [_pack_codes(c, a.psi) for c in a.codes],
                }
                for a in self.tasks.values()
            ],
        }

    def packed_bytes(self, task_id: int) -> tuple[int, int]:
        """(mask, codes) bytes of a task's record as `state_dict` writes it."""
        alloc = self.tasks[task_id]
        return (sum(_nbytes(size) for size in self.layer_sizes),
                sum(_nbytes(n * alloc.psi) for n in alloc.mask.active_counts()))

    @classmethod
    def from_state_dict(cls, state: dict, packed: bool = True) -> "WeightSlotStore":
        """Rebuild a store from `state_dict` output; packed=False reads format 1.

        Rejects with CommitRejected whatever replaying the commits in order
        would reject. Counts and used bits only grow, so checking the cap and
        the budgets on the final state is the same as checking each commit.
        """
        store = cls(state["layer_shapes"], t_max=state["t_max"])
        read_layer = _read_packed_layer if packed else _read_v1_layer
        for rec in state["tasks"]:
            task_id, psi = rec["task_id"], rec["psi"]
            if not isinstance(task_id, numbers.Integral) or task_id in store.tasks:
                raise CommitRejected(f"task id {task_id!r} is not new")
            if not isinstance(psi, numbers.Integral) or not 1 <= psi <= SLOT_BITS:
                raise CommitRejected(f"task {task_id}: bit-width {psi!r} "
                                     f"outside [1, {SLOT_BITS}]")
            if len(rec["mask"]) != store.layer_count or len(rec["codes"]) != store.layer_count:
                raise CommitRejected(f"task {task_id}: mask/codes layer count mismatch")
            layers = [read_layer(rec["mask"][i], rec["codes"][i], psi, shape,
                                 f"task {task_id} layer {i}")
                      for i, shape in enumerate(store.layer_shapes)]
            mask = TaskMask([m for m, _ in layers])
            store._occupy(mask, psi)
            store.tasks[task_id] = TaskAllocation(task_id, psi, mask,
                                                  [c for _, c in layers])
        over = [i for i in range(store.layer_count)
                if store._comp_count[i].max() > store.t_max
                or store._remaining[i].min() < 0]
        if over:
            raise CommitRejected(f"layers {over} hold slots over {store.t_max} "
                                 f"components or {SLOT_BITS} bits")
        return store


def _nbytes(bits: int) -> int:
    return -(-bits // 8)


def _pack_codes(codes: np.ndarray, psi: int) -> np.ndarray:
    """Codes as one little-endian psi-bit stream, zero pad bits."""
    bits = np.empty((codes.size, psi), dtype=np.uint8)
    for b in range(psi):
        np.bitwise_and(codes >> np.uint32(b), 1, out=bits[:, b], casting="unsafe")
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
    """(bool mask, uint32 codes) of one layer from its packed record."""
    flat = _unpack_bits(mask_buf, shape[0] * shape[1], f"{what} mask").view(bool)
    used = int(np.count_nonzero(flat))
    bits = _unpack_bits(code_buf, used * psi, f"{what} codes").reshape(used, psi)
    codes = np.zeros(used, dtype=np.uint32)
    for b in range(psi):
        codes |= bits[:, b].astype(np.uint32) << np.uint32(b)
    return flat.reshape(shape), codes


def _read_v1_layer(mask, codes, psi, shape, what):
    """(bool mask, uint32 codes) of one layer as checkpoint format 1 holds it."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape):
        raise CommitRejected(f"{what}: mask is not a {shape} bool array")
    used = int(np.count_nonzero(mask))
    if not (isinstance(codes, np.ndarray) and codes.dtype == np.uint32
            and codes.shape == (used,)):
        raise CommitRejected(f"{what}: codes are not {used} uint32 values")
    if psi < SLOT_BITS and used and codes.max() >= (1 << psi):
        raise CommitRejected(f"{what}: code exceeds {psi}-bit range")
    return mask, codes


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


def sample_candidate_full(store, v_min, v_max, psi_min, rng) -> TaskMask:
    """Candidate mask over all layers, target sparsity ~ U[v_min, v_max] per layer."""
    if not (0.0 <= v_min <= v_max <= 1.0):
        raise ValueError(f"need 0 <= v_min <= v_max <= 1, got [{v_min}, {v_max}]")
    layers = []
    for i in range(store.layer_count):
        s = rng.uniform(v_min, v_max)
        layers.append(sample_candidate_mask(store, i, s, psi_min, rng))
    return TaskMask(layers)
