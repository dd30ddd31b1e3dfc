"""Bit-budgeted weight-slot store, per-task masks, sparsity, candidate sampling.

Every weight position is a 32-bit slot carved into task-exclusive components.
A component is (task_id, bit_width, code); the store tracks per-slot component
counts and remaining bits, and owns the committed per-task masks and codes.
A mask is a list of per-layer bool arrays shaped like the layers' weights.
`t_max` is the one cap on components per slot. A run sets it once, from its
pruning config's component cap, in `runner.new_state`; eligibility, sampling
and commit all read it from the store.

`state_dict` writes each task's layers bit-packed: the mask as
`np.packbits(flat, bitorder="little")` of its row-major slots (ceil(slots/8)
bytes), the codes as one little-endian psi-bit stream in slot order
(ceil(used*psi/8) bytes), both with zero pad bits. `from_state_dict` reads
that layout, or the bool masks and uint32 codes of checkpoint format 1, and
rebuilds counts and budgets by adding each task's mask bytes into uint8 sums
instead of replaying commits. A committed task never changes, so each
allocation is packed once, on the first save, and a loaded one keeps the
packed arrays it was read from.

`projected` copies the budgets with one more component under a mask, for a
run that samples the next task before the current one commits.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExhausted, CapacityWarning, CommitRejected

SLOT_BITS = 32
# tasks a slot's uint8 sums can take on top of SLOT_BITS bits without wrapping
_UINT8_TASKS = (255 - SLOT_BITS) // SLOT_BITS


@dataclass(frozen=True)
class SparsityReport:
    """Per-layer free-slot ratios and their sum weighted by layer size."""

    per_layer: tuple[float, ...]
    weighted: float


@dataclass
class TaskAllocation:
    """One committed task: bit-width, masks, and per-layer codes.

    mask[i] is layer i's bool mask, shaped like its weights; codes[i] holds
    one uint32 per active mask slot of layer i, in row-major slot order.
    """

    task_id: int
    psi: int
    mask: list[np.ndarray]
    codes: list[np.ndarray]
    # (masks, codes) as state_dict writes them: packed once, on the first
    # save, or kept as from_state_dict read them. A committed task never changes.
    packed: tuple | None = field(default=None, repr=False, compare=False)

    def packed_layers(self) -> tuple[list, list]:
        if self.packed is None:
            self.packed = ([np.packbits(m.ravel(), bitorder="little") for m in self.mask],
                           [_pack_codes(c, self.psi) for c in self.codes])
        return self.packed

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
        self._comp_count = [np.zeros(s, dtype=np.int32) for s in self.layer_sizes]
        self._remaining = [np.full(s, SLOT_BITS, dtype=np.int32) for s in self.layer_sizes]
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
            for size, counts, m in zip(self.layer_sizes, self._comp_count, mask))
        return SparsityReport(per_layer,
                              sum(s * u for s, u in zip(self.layer_sizes, per_layer)))

    # -- eligibility and sampling -------------------------------------------

    def eligible_slots(self, layer: int, psi_min: int) -> np.ndarray:
        return (self._comp_count[layer] < self.t_max) & (self._remaining[layer] >= psi_min)

    def mask_bit_budget(self, mask) -> int:
        """Tightest remaining-bit budget over the mask's slots."""
        budget = SLOT_BITS
        for remaining, m in zip(self._remaining, mask):
            flat = m.ravel()
            if flat.any():
                budget = min(budget, int(remaining[flat].min()))
        return budget

    # -- commit --------------------------------------------------------------

    def commit(self, task_id: int, mask, psi: int, codes) -> None:
        """Append (task_id, psi, code) components to every masked slot.

        `mask` is a sequence of per-layer bool arrays; the store keeps them as
        a list. All-or-nothing: any ineligible slot, duplicate task id, or
        malformed codes rejects the whole commit and leaves the store
        untouched.
        """
        mask = [np.asarray(m, dtype=bool) for m in mask]
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

    def projected(self, mask, psi: int) -> "WeightSlotStore":
        """A copy whose slots under `mask` hold one more psi-bit component.

        It records no task. Eligibility, sampling and sparsity read it as they
        would read this store after committing `mask` at psi bits.
        """
        copy = WeightSlotStore(self.layer_shapes, t_max=self.t_max)
        copy._comp_count = [c.copy() for c in self._comp_count]
        copy._remaining = [r.copy() for r in self._remaining]
        copy._occupy(mask, psi)
        return copy

    def _occupy(self, mask, psi: int) -> None:
        """Add one psi-bit component to every masked slot, densely."""
        for i, m in enumerate(mask):
            flat = m.ravel().astype(np.int32)
            self._comp_count[i] += flat
            flat *= psi
            self._remaining[i] -= flat

    # -- serialization ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "layer_shapes": [list(s) for s in self.layer_shapes],
            "t_max": self.t_max,
            "tasks": [
                {
                    "task_id": a.task_id,
                    "psi": a.psi,
                    "mask": list(a.packed_layers()[0]),
                    "codes": list(a.packed_layers()[1]),
                }
                for a in self.tasks.values()
            ],
        }

    def packed_bytes(self, task_id: int) -> tuple[int, int]:
        """(mask, codes) bytes of a task's record as `state_dict` writes it."""
        masks, codes = self.tasks[task_id].packed_layers()
        return sum(m.nbytes for m in masks), sum(c.nbytes for c in codes)

    @classmethod
    def from_state_dict(cls, state: dict, packed: bool = True) -> "WeightSlotStore":
        """Rebuild a store from `state_dict` output; packed=False reads format 1.

        Rejects with CommitRejected whatever replaying the commits in order
        would reject. Counts and used bits only grow, so checking the cap and
        the budgets after any prefix of the tasks, and on the final state, is
        the same as checking each commit.

        Each layer's counts and used bits add up in uint8, one pass per task
        mask in the mask's own bytes. A slot that passed a check holds at most
        SLOT_BITS bits, and so at most SLOT_BITS components; each task adds at
        most SLOT_BITS bits, so checking every `_UINT8_TASKS` tasks keeps every
        sum below 256 and the check exact for any number of tasks.
        """
        store = cls(state["layer_shapes"], t_max=state["t_max"])
        read_layer = _read_packed_layer if packed else _read_v1_layer
        counts = [np.zeros(s, dtype=np.uint8) for s in store.layer_sizes]
        used = [np.zeros(s, dtype=np.uint8) for s in store.layer_sizes]
        for k, rec in enumerate(state["tasks"]):
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
            for i, (m, _) in enumerate(layers):
                bits = m.ravel().view(np.uint8)
                counts[i] += bits
                used[i] += bits * np.uint8(psi)
            store.tasks[task_id] = TaskAllocation(
                task_id, psi, [m for m, _ in layers], [c for _, c in layers],
                packed=(list(rec["mask"]), list(rec["codes"])) if packed else None)
            if k % _UINT8_TASKS == _UINT8_TASKS - 1:
                store._reject_over(counts, used)
        store._reject_over(counts, used)
        for i in range(store.layer_count):
            store._comp_count[i] += counts[i]
            store._remaining[i] -= used[i]
        return store

    def _reject_over(self, counts, used) -> None:
        over = [i for i in range(self.layer_count)
                if int(counts[i].max()) > self.t_max or int(used[i].max()) > SLOT_BITS]
        if over:
            raise CommitRejected(f"layers {over} hold slots over {self.t_max} "
                                 f"components or {SLOT_BITS} bits")


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


def sample_candidate_full(store, v_min, v_max, psi_min, rng) -> list[np.ndarray]:
    """Candidate mask over all layers, target sparsity ~ U[v_min, v_max] per layer."""
    if not (0.0 <= v_min <= v_max <= 1.0):
        raise ValueError(f"need 0 <= v_min <= v_max <= 1, got [{v_min}, {v_max}]")
    layers = []
    for i in range(store.layer_count):
        s = rng.uniform(v_min, v_max)
        layers.append(sample_candidate_mask(store, i, s, psi_min, rng))
    return layers
