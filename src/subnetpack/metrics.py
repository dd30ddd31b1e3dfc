"""Accuracy bookkeeping and per-task storage cost.

The accuracy matrix records R[e][t], task t's accuracy after episode e.
Committed components never change, so past-task entries must stay bit-equal
down the column; forget_check verifies exactly that. Capacity counts the bits
a task occupies: coded weights, centroid tables, and one mask bit per used
slot, all read from the task's record in the store. capacity_report returns
summary.json's capacity section.
"""

from __future__ import annotations

from .store import SLOT_BITS, WeightSlotStore


class AccuracyMatrix:
    """Lower-triangular accuracy record; row e holds tasks 0..e."""

    def __init__(self, rows=None):
        self.rows: list[tuple[float, ...]] = []
        for row in rows or []:
            self.append_row(row)

    def append_row(self, row) -> None:
        row = tuple(float(v) for v in row)
        if len(row) != len(self.rows) + 1:
            raise ValueError(
                f"episode {len(self.rows)} row must cover {len(self.rows) + 1} tasks, got {len(row)}"
            )
        if any(not (0.0 <= v <= 1.0) for v in row):
            raise ValueError("accuracies must lie in [0, 1]")
        self.rows.append(row)

    @property
    def n_episodes(self) -> int:
        return len(self.rows)

    def final_row(self) -> tuple[float, ...]:
        if not self.rows:
            raise ValueError("empty accuracy matrix")
        return self.rows[-1]


def lifelong_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean accuracy over all tasks after the final episode."""
    row = matrix.final_row()
    if len(row) != matrix.n_episodes:
        raise ValueError("final row does not cover every task")
    return sum(row) / len(row)


def forget_check(matrix: AccuracyMatrix) -> list[tuple[int, int]]:
    """Every (episode, task) where a past task's accuracy moved at all.

    The comparison is exact: re-evaluating an immutable component is
    deterministic, so even a one-ulp drift counts as forgetting.
    """
    violations = []
    for e in range(matrix.n_episodes):
        for t in range(e):
            if matrix.rows[e][t] != matrix.rows[t][t]:
                violations.append((e, t))
    return violations


def _task_bits(alloc, table_entries: int) -> int:
    """Coded weights + table entries * (32-bit value + psi-bit code) + mask."""
    used = sum(alloc.active_counts())
    return used * alloc.psi + table_entries * (SLOT_BITS + alloc.psi) + used


def capacity(store: WeightSlotStore, task_id: int) -> int:
    """Bits occupied by one committed task: coded weights + codebook + mask.

    The codebook term charges the worst case, full 2^psi tables of one 32-bit
    value and one psi-bit code each. 32-bit tasks store raw bit patterns and
    need no codebook at all.
    """
    alloc = store.tasks[task_id]
    worst = 0 if alloc.psi >= SLOT_BITS else store.layer_count * (1 << alloc.psi)
    return _task_bits(alloc, worst)


def capacity_actual(store: WeightSlotStore, task_id: int) -> int:
    """Like capacity, but charges the task's centroid tables at their real lengths."""
    alloc = store.tasks[task_id]
    return _task_bits(alloc, sum(len(t) for t in alloc.centroids))


def capacity_report(store: WeightSlotStore) -> dict:
    """summary.json's capacity section: every committed task, in task order.

    Percents are of `dense_bits`, the dense 32-bit weight footprint; each
    `per_task` row is one line of capacity.csv.
    """
    dense = store.total_slots * SLOT_BITS
    rows = []
    running = 0
    for task_id in sorted(store.tasks):
        bits = capacity(store, task_id)
        actual = capacity_actual(store, task_id)
        running += bits
        rows.append({
            "task": task_id, "psi": store.tasks[task_id].psi, "bits": bits,
            "bits_actual": actual, "percent": 100.0 * bits / dense,
            "percent_actual": 100.0 * actual / dense, "cumulative_bits": running,
        })
    return {"dense_bits": dense, "total_bits": running,
            "total_percent": 100.0 * running / dense, "per_task": rows}
