import numpy as np
import pytest

from helpers import slot_occupancy
from subnetpack.metrics import (AccuracyMatrix, capacity, capacity_actual,
                                capacity_report, forget_check,
                                lifelong_accuracy)
from subnetpack.store import SLOT_BITS, WeightSlotStore


def full_tables(psi, layers=2):
    """Zero float32 centroid tables of 2^psi entries, none at SLOT_BITS bits."""
    return [np.zeros(0 if psi == SLOT_BITS else 1 << psi, dtype=np.float32)] * layers


def half_used_store(psi=2, tables=None):
    # 2 layers of 100 slots, 50 used per layer; full centroid tables by default
    store = WeightSlotStore([(10, 10), (10, 10)])
    layers = []
    for _ in range(2):
        m = np.zeros(100, dtype=bool)
        m[:50] = True
        layers.append(m.reshape(10, 10))
    store.commit(0, layers, psi, [np.zeros(50, dtype=np.uint32) for _ in range(2)],
                 full_tables(psi) if tables is None else tables)
    return store


def test_capacity_worked_example():
    # frozen: 100 coded bits * 2 + 2 layers * 4 entries * 34 bits + 100 mask
    # bits = 200 + 272 + 100 = 572
    store = half_used_store(psi=2)
    assert capacity(store, 0) == 572


def test_capacity_unknown_task():
    store = half_used_store()
    with pytest.raises(KeyError):
        capacity(store, 1)
    with pytest.raises(KeyError):
        capacity_actual(store, 1)


def test_capacity_psi_override_monotone():
    values = [capacity(half_used_store(psi=b), 0) for b in range(1, 9)]
    assert values == sorted(values)
    assert values[1] == 572


def test_capacity_no_codebook_at_32_bits():
    store = half_used_store(psi=32)
    # raw bit patterns: 100*32 coded + 0 codebook + 100 mask bits
    assert capacity(store, 0) == 100 * 32 + 100


def test_capacity_empty_mask_is_codebook_only():
    store = WeightSlotStore([(10, 10), (10, 10)])
    mask = [np.zeros((10, 10), dtype=bool)] * 2
    store.commit(0, mask, 2, [np.zeros(0, dtype=np.uint32)] * 2, full_tables(2))
    assert capacity(store, 0) == 272


def test_capacity_actual_uses_real_table_lengths():
    store = half_used_store(psi=2, tables=[np.zeros(3, dtype=np.float32),
                                          np.zeros(4, dtype=np.float32)])
    # 200 coded + (3+4)*34 table + 100 mask
    assert capacity_actual(store, 0) == 200 + 7 * 34 + 100
    full = half_used_store(psi=2, tables=[np.zeros(4, dtype=np.float32)] * 2)
    assert capacity_actual(full, 0) == capacity(full, 0)


def test_capacity_report_accumulates():
    store = WeightSlotStore([(10, 10), (10, 10)])
    rng = np.random.default_rng(0)
    for t, psi in enumerate((2, 3)):
        layers = []
        for i in range(2):
            free = slot_occupancy(store, i)[0] == 0
            pick = rng.choice(np.flatnonzero(free), size=20, replace=False)
            m = np.zeros(100, dtype=bool)
            m[pick] = True
            layers.append(m.reshape(10, 10))
        tables = {0: [np.zeros(4, dtype=np.float32)] * 2,
                  1: [np.zeros(8, dtype=np.float32)] * 2}[t]
        store.commit(t, layers, psi, [np.zeros(20, dtype=np.uint32)] * 2, tables)
    report = capacity_report(store)
    rows = report["per_task"]
    assert [e["task"] for e in rows] == [0, 1]
    assert report["dense_bits"] == 200 * 32
    assert rows[0]["cumulative_bits"] == rows[0]["bits"]
    assert rows[1]["cumulative_bits"] == rows[0]["bits"] + rows[1]["bits"]
    assert report["total_bits"] == sum(e["bits"] for e in rows)
    for e in rows:
        assert e["percent"] == pytest.approx(100.0 * e["bits"] / report["dense_bits"])
        assert e["percent_actual"] == pytest.approx(
            100.0 * e["bits_actual"] / report["dense_bits"])
    # task 1's full tables cost the worst case in both columns
    assert rows[1]["bits_actual"] == rows[1]["bits"]
    assert report["total_percent"] == pytest.approx(
        100.0 * report["total_bits"] / report["dense_bits"])


def test_matrix_row_shape_enforced():
    m = AccuracyMatrix()
    m.append_row((0.5,))
    with pytest.raises(ValueError):
        m.append_row((0.5,))
    with pytest.raises(ValueError):
        m.append_row((0.5, 0.6, 0.7))
    with pytest.raises(ValueError):
        m.append_row((0.5, 1.2))
    m.append_row((0.5, 0.9))
    assert m.n_episodes == 2


def test_matrix_rows_hold_each_episode():
    # row e holds tasks 0..e: a task not yet seen has no cell
    m = AccuracyMatrix([(0.8,), (0.8, 0.6)])
    assert m.rows == [(0.8,), (0.8, 0.6)]
    assert m.rows[1][0] == 0.8
    with pytest.raises(IndexError):
        m.rows[0][1]


def test_lifelong_accuracy_mean_of_final_row():
    m = AccuracyMatrix([(0.9,), (0.9, 0.8), (0.97, 0.95, 0.99)])
    assert lifelong_accuracy(m) == pytest.approx((0.97 + 0.95 + 0.99) / 3)


def test_lifelong_accuracy_empty_matrix():
    with pytest.raises(ValueError):
        lifelong_accuracy(AccuracyMatrix())


def test_forget_check_clean():
    m = AccuracyMatrix([(0.9,), (0.9, 0.8), (0.9, 0.8, 0.7)])
    assert forget_check(m) == []


def test_forget_check_flags_exact_cell():
    m = AccuracyMatrix([(0.9,), (0.9, 0.8), (0.8999999999999999, 0.8, 0.7)])
    assert forget_check(m) == [(2, 0)]


def test_forget_check_one_ulp_counts():
    base = 0.9
    drifted = np.nextafter(base, 0.0)
    m = AccuracyMatrix([(base,), (drifted, 0.8)])
    assert forget_check(m) == [(1, 0)]
