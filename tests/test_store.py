import math
import os

import numpy as np
import pytest

from helpers import same_masks, slot_components, slot_occupancy, tables_for, tables_of
from subnetpack.errors import CapacityExhausted, CapacityWarning, CommitRejected
from subnetpack.metrics import capacity
from subnetpack.network import ModelSpec, full_mask
from subnetpack.store import (SLOT_BITS, WeightSlotStore, sample_candidate_full,
                              sample_candidate_mask)


def mask_of(store, layer_flats):
    return [np.asarray(flat, dtype=bool).reshape(shape)
            for flat, shape in zip(layer_flats, store.layer_shapes)]


def sparsity(store):
    """The store's own free-slot ratios: a hypothetical commit of nothing."""
    return store.hypothetical_sparsity([np.zeros(s, dtype=bool)
                                        for s in store.layer_shapes])


def codes_for(mask, value=0):
    return [np.full(int(m.sum()), value, dtype=np.uint32) for m in mask]


def record(mask, psi, value=0):
    """(codes, centroid tables) of a psi-bit record whose codes all hold `value`."""
    codes = codes_for(mask, value)
    return codes, tables_for(psi, codes)


def test_fresh_store_state():
    store = WeightSlotStore([(2, 3), (4, 1)])
    assert store.layer_count == 2
    assert store.total_slots == 10
    np.testing.assert_array_equal(slot_occupancy(store, 0), [np.zeros(6), np.full(6, SLOT_BITS)])
    np.testing.assert_array_equal(slot_occupancy(store, 1), [np.zeros(4), np.full(4, SLOT_BITS)])
    assert sparsity(store).per_layer == (1.0, 1.0)
    assert sparsity(store).weighted == 10.0


def test_commit_updates_budget_and_components():
    store = WeightSlotStore([(2, 3)])
    mask = mask_of(store, [[1, 1, 0, 0, 1, 0]])
    store.commit(0, mask, 4, *record(mask, 4, 3))
    np.testing.assert_array_equal(slot_occupancy(store, 0),
                                  [[1, 1, 0, 0, 1, 0], [28, 28, 32, 32, 28, 32]])
    alloc = store.tasks[0]
    assert alloc.psi == 4 and alloc.active_counts() == [3]
    np.testing.assert_array_equal(alloc.mask[0].ravel(), [1, 1, 0, 0, 1, 0])
    np.testing.assert_array_equal(alloc.codes[0], [3, 3, 3])
    assert slot_components(store, 0, 0) == [(0, 4, 3)]
    assert slot_components(store, 0, 2) == []
    assert sparsity(store).per_layer == (0.5,)


def test_commit_rejections():
    store = WeightSlotStore([(2, 2)])
    mask = mask_of(store, [[1, 0, 1, 0]])
    store.commit(0, mask, 2, *record(mask, 2))
    with pytest.raises(CommitRejected):
        store.commit(0, mask, 2, *record(mask, 2))  # duplicate id
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 0, *record(mask, 0))  # psi out of range
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 33, *record(mask, 33))
    full = [np.zeros(4, np.float32)]  # every 2-bit code indexes it
    with pytest.raises(CommitRejected):
        store.commit(1, [np.ones((3, 2), dtype=bool)], 2, [np.zeros(6, np.uint32)], full)
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 2, [np.zeros(1, np.uint32)], full)  # wrong code count
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 2, [np.array([0, 4], np.uint32)], full)  # code >= 2^psi
    # malformed code arrays for one slot: a 0-d array, a negative code, a
    # float code, and a 32-bit code that does not fit in 32 bits
    one = WeightSlotStore([(1, 1)])
    for psi, codes in ((2, [np.uint32(0)]), (2, [[-1]]), (2, [np.array([0.7])]),
                       (32, [np.array([2**32 + 5], np.uint64)])):
        with pytest.raises(CommitRejected):
            one.commit(0, [np.ones((1, 1), dtype=bool)], psi, codes,
                       full if psi < SLOT_BITS else [np.zeros(0, np.float32)])
    assert one.tasks == {}


def test_commit_rejects_what_a_checkpoint_load_rejects_in_tables():
    # each record passes every check but its centroid tables'; commit refuses
    # it as from_state_dict does, and the store stays empty
    store = WeightSlotStore([(2, 2), (1, 2)])
    mask = mask_of(store, [[1, 0, 1, 0], [1, 1]])
    codes = [np.array([0, 2], np.uint32), np.array([1, 0], np.uint32)]
    good = [np.zeros(3, np.float32), np.zeros(2, np.float32)]
    accepted = WeightSlotStore(store.layer_shapes)
    accepted.commit(0, mask, 2, codes, good)
    assert list(accepted.tasks) == [0]
    for name, psi, tables in (
            ("a code past a shorter table", 2, [good[0][:2], good[1]]),
            ("a table longer than 2^psi", 2, [np.zeros(5, np.float32), good[1]]),
            ("a non-empty table at psi 32", SLOT_BITS, [np.zeros(0, np.float32), good[1]]),
            ("a float64 table", 2, [good[0].astype(np.float64), good[1]]),
            ("a 2-d table", 2, [good[0].reshape(1, 3), good[1]]),
            ("a table for one layer of two", 2, good[:1]),
            ("no tables", 2, None)):
        with pytest.raises(CommitRejected):
            store.commit(0, mask, psi, codes, tables)
            pytest.fail(f"accepted: {name}")
        assert store.tasks == {}
        state = {"layer_shapes": [list(s) for s in store.layer_shapes], "t_max": 4,
                 "tasks": [packed_record(0, psi, mask, codes)]}
        with pytest.raises(CommitRejected):
            WeightSlotStore.from_state_dict(state, {0: tables})
            pytest.fail(f"loaded: {name}")
    assert np.array_equal(slot_occupancy(store, 0)[0], np.zeros(4))


def test_commit_respects_t_l():
    store = WeightSlotStore([(1, 2)], t_max=2)
    mask = mask_of(store, [[1, 0]])
    store.commit(0, mask, 2, *record(mask, 2))
    store.commit(1, mask, 2, *record(mask, 2))
    assert slot_components(store, 0, 0) == [(0, 2, 0), (1, 2, 0)]
    with pytest.raises(CommitRejected):
        store.commit(2, mask, 2, *record(mask, 2))
    # the other slot is still free
    other = mask_of(store, [[0, 1]])
    store.commit(3, other, 2, *record(other, 2))


def test_commit_respects_bit_budget():
    store = WeightSlotStore([(1, 1)], t_max=8)
    mask = mask_of(store, [[1]])
    store.commit(0, mask, 30, *record(mask, 30))
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 3, *record(mask, 3))
    store.commit(1, mask, 2, *record(mask, 2))
    np.testing.assert_array_equal(slot_occupancy(store, 0)[1], [0])


def test_commit_is_atomic():
    # second layer ineligible, first layer must stay untouched
    store = WeightSlotStore([(1, 2), (1, 2)], t_max=1)
    first = mask_of(store, [[1, 1], [1, 0]])
    store.commit(0, first, 2, *record(first, 2))
    before = [slot_occupancy(store, i) for i in range(2)]
    overlap = mask_of(store, [[1, 0], [1, 0]])
    with pytest.raises(CommitRejected):
        store.commit(1, overlap, 2, *record(overlap, 2))
    for i in range(2):
        np.testing.assert_array_equal(slot_occupancy(store, i), before[i])
    assert 1 not in store.tasks


def test_eligibility_rules():
    store = WeightSlotStore([(1, 3)], t_max=2)
    mask = mask_of(store, [[1, 1, 0]])
    store.commit(0, mask, 31, *record(mask, 31))
    # slot 0,1: one component, 1 bit left; slot 2 untouched
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=1), [True, True, True])
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=2), [False, False, True])
    second = mask_of(store, [[1, 0, 0]])
    store.commit(1, second, 1, *record(second, 1))
    # slot 0 now has two components, t_max reached
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=1), [False, True, True])


def test_sparsity_weighted_and_hypothetical():
    store = WeightSlotStore([(2, 3), (1, 4)])
    mask = mask_of(store, [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1]])
    store.commit(0, mask, 2, *record(mask, 2))
    rep = sparsity(store)
    assert rep.per_layer == (0.5, 0.0)
    assert rep.weighted == 6 * 0.5 + 4 * 0.0

    hypo = store.hypothetical_sparsity(mask_of(store, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0]]))
    assert hypo.per_layer == (1.0 / 3.0, 0.0)
    # store state is unchanged by the hypothetical
    assert sparsity(store).per_layer == (0.5, 0.0)


def test_sample_candidate_mask_size():
    store = WeightSlotStore([(10, 10)])
    rng = np.random.default_rng(0)
    for s in (0.0, 0.3, 0.45, 0.85, 1.0):
        m = sample_candidate_mask(store, 0, s, psi_min=2, rng=rng)
        assert int(m.sum()) == math.ceil((1.0 - s) * 100)


def test_sample_candidate_mask_respects_eligibility():
    store = WeightSlotStore([(1, 4)], t_max=1)
    first = mask_of(store, [[1, 1, 0, 0]])
    store.commit(0, first, 2, *record(first, 2))
    rng = np.random.default_rng(1)
    with pytest.warns(CapacityWarning):
        m = sample_candidate_mask(store, 0, 0.0, psi_min=2, rng=rng)
    np.testing.assert_array_equal(m.ravel(), [False, False, True, True])


def test_sample_candidate_mask_exhausted():
    store = WeightSlotStore([(1, 2)], t_max=1)
    both = mask_of(store, [[1, 1]])
    store.commit(0, both, 2, *record(both, 2))
    with pytest.raises(CapacityExhausted) as err:
        sample_candidate_mask(store, 0, 0.5, psi_min=2,
                              rng=np.random.default_rng(0))
    assert err.value.layers == (0,)


def test_sample_candidate_full_bounds():
    store = WeightSlotStore([(6, 6), (4, 4)])
    v_min, v_max = 0.45, 0.85
    for seed in range(30):
        mask = sample_candidate_full(store, v_min, v_max, 2,
                                     np.random.default_rng(seed))
        for i, m in enumerate(mask):
            size = store.layer_sizes[i]
            # sampling bound: at most (1 - v_min) * size + 1 slots
            assert m.sum() <= (1.0 - v_min) * size + 1
            assert m.sum() >= math.ceil((1.0 - v_max) * size)


def test_sample_candidate_full_validates_range():
    store = WeightSlotStore([(2, 2)])
    with pytest.raises(ValueError):
        sample_candidate_full(store, 0.9, 0.2, 2, np.random.default_rng(0))


def test_commit_keeps_a_bool_mask_list():
    # a mask of 0/1 ints is kept as per-layer bool arrays in a list
    spec = ModelSpec((3, 4, 2))
    store = WeightSlotStore(spec.shapes)
    mask = [m.astype(np.uint8) for m in full_mask(spec)]
    codes = [np.zeros(m.size, dtype=np.uint32) for m in mask]
    store.commit(0, mask, 2, codes, tables_for(2, codes))
    kept = store.tasks[0].mask
    assert isinstance(kept, list) and all(m.dtype == bool for m in kept)
    assert same_masks(kept, full_mask(spec))
    # 20 slots * 2 bits + 2 layers * 4 entries * 34 bits + 20 mask bits
    assert capacity(store, 0) == 40 + 272 + 20
    clone = WeightSlotStore.from_state_dict(store.state_dict(), tables_of(store))
    assert same_masks(clone.tasks[0].mask, store.tasks[0].mask)


def test_state_dict_round_trip():
    store = WeightSlotStore([(2, 3), (3, 2)], t_max=3)
    rng = np.random.default_rng(5)
    for task in range(3):
        mask = [rng.random(s) < 0.4 for s in store.layer_shapes]
        psi = int(rng.integers(1, 6))
        codes = [rng.integers(0, 1 << psi, size=int(m.sum())).astype(np.uint32)
                 for m in mask]
        store.commit(task, mask, psi, codes, tables_for(psi, codes))
    clone = WeightSlotStore.from_state_dict(store.state_dict(), tables_of(store))
    assert clone.t_max == store.t_max
    assert clone.layer_shapes == store.layer_shapes
    for i in range(store.layer_count):
        np.testing.assert_array_equal(slot_occupancy(clone, i), slot_occupancy(store, i))
    for t, alloc in store.tasks.items():
        for m1, m2 in zip(alloc.mask, clone.tasks[t].mask):
            np.testing.assert_array_equal(m1, m2)
        for c1, c2 in zip(alloc.codes, clone.tasks[t].codes):
            np.testing.assert_array_equal(c1, c2)
        assert all(np.array_equal(a, b) for a, b in zip(clone.tasks[t].centroids,
                                                        alloc.centroids, strict=True))


def test_budget_fuzz_small():
    # random commit attempts against a naive per-slot reference model
    rng = np.random.default_rng(77)
    store = WeightSlotStore([(2, 4), (3, 2)], t_max=3)
    slots = {(i, s): [] for i in range(2) for s in range(store.layer_sizes[i])}
    for task in range(400):
        psi = int(rng.integers(1, 34))
        mask = [rng.random(shape) < rng.random()
                for shape in store.layer_shapes]
        codes = [
            rng.integers(0, 1 << min(psi, 31), size=int(m.sum())).astype(np.uint32)
            for m in mask
        ]
        if psi < SLOT_BITS:  # into centroid tables of at most 256 entries
            codes = [c % min(1 << psi, 256) for c in codes]
        ok_psi = 1 <= psi <= 32
        ok_fit = ok_psi and all(
            len(slots[(i, s)]) < 3 and 32 - sum(p for p in slots[(i, s)]) >= psi
            for i in range(2)
            for s in np.flatnonzero(mask[i].ravel())
        )
        ok_codes = ok_psi and all(
            psi >= 32 or not c.size or c.max() < (1 << psi) for c in codes)
        try:
            store.commit(task, mask, psi, codes, tables_for(psi, codes))
            committed = True
        except CommitRejected:
            committed = False
        assert committed == (ok_fit and ok_codes)
        if committed:
            for i in range(2):
                for s in np.flatnonzero(mask[i].ravel()):
                    slots[(i, s)].append(psi)
    # final state agrees with the reference
    for i in range(2):
        counts, bits = slot_occupancy(store, i)
        for s in range(store.layer_sizes[i]):
            assert counts[s] == len(slots[(i, s)])
            assert bits[s] == 32 - sum(slots[(i, s)])
            assert sum(slots[(i, s)]) <= 32


# -- packed state dict -----------------------------------------------------------

def pack_bits(bits):
    """Independent little-endian bit packer: bit k of byte j is bits[8j + k]."""
    bits = [int(b) for b in bits] + [0] * (-len(bits) % 8)
    return np.array([sum(bits[j + k] << k for k in range(8))
                     for j in range(0, len(bits), 8)], dtype=np.uint8)


def packed_record(task_id, psi, mask, codes):
    return {
        "task_id": task_id,
        "psi": psi,
        "mask": [pack_bits(m.ravel()) for m in mask],
        "codes": [pack_bits([(int(c) >> b) & 1 for c in layer for b in range(psi)])
                  for layer in codes],
    }


def v1_record(task_id, psi, mask, codes):
    return {"task_id": task_id, "psi": psi, "mask": [m.copy() for m in mask],
            "codes": [np.asarray(c, dtype=np.uint32) for c in codes]}


def test_state_dict_layout_is_bit_packed():
    store = WeightSlotStore([(3, 3)])
    mask = mask_of(store, [[1, 0, 1, 1, 0, 0, 0, 0, 1]])
    codes = [np.array([1, 2, 3, 0], np.uint32)]
    store.commit(0, mask, 2, codes, tables_for(2, codes))
    rec = store.state_dict()["tasks"][0]
    # slots 0, 2, 3, 8: bits 0b00001101 then 0b00000001
    np.testing.assert_array_equal(rec["mask"][0], np.array([0x0D, 0x01], np.uint8))
    # codes 1, 2, 3, 0 as 2-bit fields from bit 0 up: 01 10 11 00 -> 0b00111001
    np.testing.assert_array_equal(rec["codes"][0], np.array([0x39], np.uint8))


def test_state_dict_round_trip_every_bit_width():
    # psi = 32 is the pruning-only width; every width shares one code path.
    # Codes over each width's whole range go through the code packer and the
    # record reader; the store round trip takes them folded into centroid
    # tables of at most 256 entries. A committed and a loaded record hold
    # its codes in the narrowest unsigned integer of psi bits
    from subnetpack.store import _pack_codes, _read_packed_layer
    rng = np.random.default_rng(11)
    for psi in range(1, SLOT_BITS + 1):
        narrow = np.uint8 if psi <= 8 else np.uint16 if psi <= 16 else np.uint32
        store = WeightSlotStore([(5, 7), (3, 1)], t_max=1)
        mask = [rng.random(s) < 0.6 for s in store.layer_shapes]
        codes = [rng.integers(0, 1 << psi, int(m.sum()), dtype=np.uint64).astype(np.uint32)
                 for m in mask]
        expected = packed_record(0, psi, mask, codes)
        for i, shape in enumerate(store.layer_shapes):
            np.testing.assert_array_equal(_pack_codes(codes[i], psi), expected["codes"][i])
            got_mask, got = _read_packed_layer(expected["mask"][i], expected["codes"][i],
                                               psi, shape, f"layer {i}")
            assert got.dtype == narrow
            np.testing.assert_array_equal(got, codes[i])
            np.testing.assert_array_equal(got_mask, mask[i])
        if psi < SLOT_BITS:
            codes = [c % min(1 << psi, 256) for c in codes]
        store.commit(0, mask, psi, codes, tables_for(psi, codes))
        assert [c.dtype for c in store.tasks[0].codes] == [narrow] * 2
        state = store.state_dict()
        written = state["tasks"][0]
        assert store.packed_bytes(0) == (sum(m.nbytes for m in written["mask"]),
                                         sum(c.nbytes for c in written["codes"]))
        expected = packed_record(0, psi, mask, codes)
        for got, want in zip(state["tasks"][0]["codes"], expected["codes"]):
            np.testing.assert_array_equal(got, want)
        clone = WeightSlotStore.from_state_dict(state, tables_of(store))
        for c1, c2 in zip(clone.tasks[0].codes, codes):
            assert c1.dtype == narrow
            np.testing.assert_array_equal(c1, c2)
        # format 1 stored uint32 codes; they load as narrow
        v1 = {**state, "tasks": [{"task_id": 0, "psi": psi, "mask": mask,
                                  "codes": [c.astype(np.uint32) for c in codes]}]}
        old = WeightSlotStore.from_state_dict(v1, tables_of(store), packed=False)
        assert [c.dtype for c in old.tasks[0].codes] == [narrow] * 2
        for i in range(2):
            np.testing.assert_array_equal(slot_occupancy(clone, i), slot_occupancy(store, i))


# tables every record of `_one_task_state` indexes, as task 0 and as task 1
ONE_TASK_TABLES = {t: [np.zeros(3, np.float32)] for t in (0, 1)}


def _one_task_state(packed=True, psi=3, shapes=((3, 3),), t_max=4):
    store = WeightSlotStore(shapes, t_max=t_max)
    mask = [np.eye(*s, dtype=bool) for s in shapes]
    codes = [np.arange(int(m.sum()), dtype=np.uint32) % (1 << psi) for m in mask]
    make = packed_record if packed else v1_record
    return {"layer_shapes": [list(s) for s in shapes], "t_max": t_max,
            "tasks": [make(0, psi, mask, codes)]}


def _malformed(packed):
    """(name, state) pairs that replaying the commits would reject, plus
    arrays of a dtype the format never writes."""
    cases = []

    def case(name, change):
        state = _one_task_state(packed)
        change(state["tasks"])
        cases.append((name, state))

    case("duplicate id", lambda tasks: tasks.append(dict(tasks[0])))
    case("psi 0", lambda tasks: tasks[0].update(psi=0))
    case("psi 33", lambda tasks: tasks[0].update(psi=33))
    case("float psi", lambda tasks: tasks[0].update(psi=3.0))
    case("missing layer", lambda tasks: tasks[0].update(
        mask=tasks[0]["mask"] * 2, codes=tasks[0]["codes"] * 2))
    case("codes for fewer layers", lambda tasks: tasks[0].update(codes=[]))
    over_cap = _one_task_state(packed, t_max=1)
    over_cap["tasks"].append(dict(over_cap["tasks"][0], task_id=1))
    cases.append(("over the component cap", over_cap))
    over_bits = _one_task_state(packed, psi=20)
    over_bits["tasks"].append(dict(over_bits["tasks"][0], task_id=1))
    cases.append(("over the bit budget", over_bits))
    if packed:
        def pad_mask(tasks):
            # 9 slots in 2 bytes: the last 7 bits are pad
            tasks[0]["mask"][0][-1] |= 0x80

        def pad_codes(tasks):
            # 3 used slots * 3 bits = 9 bits in 2 bytes
            tasks[0]["codes"][0][-1] |= 0x80

        case("long mask", lambda tasks: tasks[0]["mask"].__setitem__(
            0, np.append(tasks[0]["mask"][0], np.uint8(0))))
        case("short codes", lambda tasks: tasks[0]["codes"].__setitem__(
            0, tasks[0]["codes"][0][:-1]))
        case("mask pad bits", pad_mask)
        case("code pad bits", pad_codes)
        case("unpacked mask", lambda tasks: tasks[0]["mask"].__setitem__(
            0, np.eye(3, dtype=bool)))
        case("2-d buffer", lambda tasks: tasks[0]["codes"].__setitem__(
            0, tasks[0]["codes"][0].reshape(1, -1)))
    else:
        case("wrong shape", lambda tasks: tasks[0]["mask"].__setitem__(
            0, np.eye(3, 4, dtype=bool)))
        case("wrong code count", lambda tasks: tasks[0]["codes"].__setitem__(
            0, tasks[0]["codes"][0][:-1]))
        case("code out of range", lambda tasks: tasks[0]["codes"].__setitem__(
            0, np.array([0, 1, 8], np.uint32)))
        case("packed mask", lambda tasks: tasks[0]["mask"].__setitem__(
            0, pack_bits(np.eye(3, dtype=bool).ravel())))
        case("uint8 mask", lambda tasks: tasks[0]["mask"].__setitem__(
            0, np.eye(3, dtype=np.uint8)))
        case("int64 codes", lambda tasks: tasks[0]["codes"].__setitem__(
            0, tasks[0]["codes"][0].astype(np.int64)))
    return cases


@pytest.mark.parametrize("packed", [True, False])
def test_from_state_dict_rejects_malformed_records(packed):
    assert WeightSlotStore.from_state_dict(_one_task_state(packed), ONE_TASK_TABLES,
                                           packed=packed)
    for name, state in _malformed(packed):
        with pytest.raises(CommitRejected):
            WeightSlotStore.from_state_dict(state, ONE_TASK_TABLES, packed=packed)
            pytest.fail(f"accepted: {name}")


def test_from_state_dict_agrees_with_replay():
    # random record lists, many of them overfilling slots: the one-pass load
    # (packed and format 1) accepts exactly the lists that replaying their
    # commits accepts, and then holds the replayed state
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(300):
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
                  for _ in range(int(rng.integers(1, 3)))]
        t_max = int(rng.integers(1, 4))
        records = []
        for task in range(int(rng.integers(1, 5))):
            psi = int(rng.integers(1, 33))
            mask = [rng.random(s) < rng.random() for s in shapes]
            codes = [rng.integers(0, 1 << psi, int(m.sum()), dtype=np.uint64).astype(np.uint32)
                     for m in mask]
            if psi < SLOT_BITS:  # into centroid tables of at most 256 entries
                codes = [c % min(1 << psi, 256) for c in codes]
            records.append((task, psi, mask, codes))
        tables = {task: tables_for(psi, codes) for task, psi, _, codes in records}
        replay = WeightSlotStore(shapes, t_max=t_max)
        try:
            for task, psi, mask, codes in records:
                replay.commit(task, mask, psi, codes, tables[task])
            ok = True
        except CommitRejected:
            ok = False
        accepted += ok
        for packed, make in ((True, packed_record), (False, v1_record)):
            state = {"layer_shapes": [list(s) for s in shapes], "t_max": t_max,
                     "tasks": [make(*rec) for rec in records]}
            try:
                loaded = WeightSlotStore.from_state_dict(state, tables, packed=packed)
            except CommitRejected:
                loaded = None
            assert (loaded is not None) == ok
            if loaded is not None:
                for i in range(len(shapes)):
                    np.testing.assert_array_equal(slot_occupancy(loaded, i),
                                                  slot_occupancy(replay, i))
    assert 30 < accepted < 270  # both outcomes well represented


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("tasks, psi, ok", [
    (32, 1, True), (33, 1, False), (256, 1, False), (300, 1, False),
    (1, 32, True), (8, 32, False), (9, 32, False), (16, 16, False),
])
def test_from_state_dict_counts_any_number_of_tasks(tasks, psi, ok, packed):
    # every task holds slot 0 of a (1, tasks) layer and one slot of its own,
    # under a cap no count reaches: the load keeps its sums exact however
    # many tasks share a slot, so 256 one-bit tasks do not wrap back to zero
    size = tasks + 1
    make = packed_record if packed else v1_record
    records = []
    for t in range(tasks):
        m = np.zeros((1, size), dtype=bool)
        m[0, [0, t + 1]] = True
        records.append(make(t, psi, [m], [np.zeros(2, dtype=np.uint32)]))
    state = {"layer_shapes": [[1, size]], "t_max": 1000, "tasks": records}
    tables = {t: tables_for(psi, [np.zeros(2)]) for t in range(tasks)}
    if not ok:
        with pytest.raises(CommitRejected):
            WeightSlotStore.from_state_dict(state, tables, packed=packed)
        return
    loaded = WeightSlotStore.from_state_dict(state, tables, packed=packed)
    counts, bits = slot_occupancy(loaded, 0)
    np.testing.assert_array_equal(counts, [tasks] + [1] * tasks)
    np.testing.assert_array_equal(bits, [SLOT_BITS - tasks * psi] + [SLOT_BITS - psi] * tasks)


# Encoded bytes around each packed array: tag, dtype text, ndim, shape, length.
ARRAY_OVERHEAD = 22
# Encoded bytes of one task record beside its arrays: the dict and list
# headers, the four keys and the two ints.
TASK_OVERHEAD = 100


def test_encoded_store_size_gate():
    from subnetpack.checkpoint import encode_state
    rng = np.random.default_rng(3)
    store = WeightSlotStore([(40, 25), (25, 10)], t_max=4)
    for task in range(6):
        psi = int(rng.integers(1, 9))
        mask = [rng.random(s) < 0.2 for s in store.layer_shapes]
        codes = [rng.integers(0, 1 << psi, int(m.sum())).astype(np.uint32) for m in mask]
        store.commit(task, mask, psi, codes, tables_for(psi, codes))
    empty = len(encode_state(WeightSlotStore(store.layer_shapes).state_dict()))
    payload = sum(math.ceil(used * a.psi / 8) + math.ceil(size / 8)
                  for a in store.tasks.values()
                  for used, size in zip(a.active_counts(), store.layer_sizes))
    arrays = 2 * store.layer_count * len(store.tasks)
    bound = empty + payload + arrays * ARRAY_OVERHEAD + len(store.tasks) * TASK_OVERHEAD
    assert len(encode_state(store.state_dict())) <= bound
    assert sum(sum(store.packed_bytes(t)) for t in store.tasks) == payload


def test_projected_store_reads_as_the_committed_one():
    # the copy a run samples the next task from: every slot under the mask
    # holds one more psi-bit component, and the store itself is untouched
    rng = np.random.default_rng(5)
    store = WeightSlotStore([(6, 5), (3, 6)], t_max=3)
    first = [rng.random(s) < 0.5 for s in store.layer_shapes]
    store.commit(0, first, 9, *record(first, 9))
    mask = [rng.random(s) < 0.5 for s in store.layer_shapes]
    before = [slot_occupancy(store, i) for i in range(store.layer_count)]
    projected = store.projected(mask, 7)
    committed = WeightSlotStore.from_state_dict(store.state_dict(), tables_of(store))
    committed.commit(1, mask, 7, *record(mask, 7))
    other = [rng.random(s) < 0.5 for s in store.layer_shapes]
    assert projected.hypothetical_sparsity(other) == committed.hypothetical_sparsity(other)
    for i in range(store.layer_count):
        np.testing.assert_array_equal(slot_occupancy(projected, i),
                                      slot_occupancy(committed, i))
        np.testing.assert_array_equal(slot_occupancy(store, i), before[i])
    assert projected.tasks == {} and sorted(store.tasks) == [0]


@pytest.mark.filterwarnings("ignore::subnetpack.errors.CapacityWarning")
@pytest.mark.parametrize("seed", range(20))
def test_budget_rule_makes_the_projection_exact(seed):
    # runner._lookahead_is_exact: when every slot under the mask has
    # psi_max + psi_min bits free, a copy holding psi_max-bit components
    # draws the same next mask as the store after a commit at any bit-width
    # up to psi_max
    rng = np.random.default_rng(seed)
    psi_max, psi_min = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    store = WeightSlotStore([(5, 8), (4, 5)], t_max=int(rng.integers(2, 5)))
    for t in range(int(rng.integers(0, 4))):
        m = [rng.random(s) < 0.4 for s in store.layer_shapes]
        m = [m[i] & store.eligible_slots(i, 8).reshape(m[i].shape)
             for i in range(store.layer_count)]
        store.commit(t, m, 8, *record(m, 8))
    roomy = [store.eligible_slots(i, psi_max + psi_min).reshape(s)
             for i, s in enumerate(store.layer_shapes)]
    mask = [r & (rng.random(r.shape) < 0.5) for r in roomy]
    projected = store.projected(mask, psi_max)
    for psi in range(1, psi_max + 1):
        committed = WeightSlotStore.from_state_dict(store.state_dict(), tables_of(store))
        committed.commit(99, mask, psi, *record(mask, psi))
        for i in range(store.layer_count):
            np.testing.assert_array_equal(projected.eligible_slots(i, psi_min),
                                          committed.eligible_slots(i, psi_min))
        draws = [sample_candidate_full(s, 0.3, 0.6, psi_min,
                                       np.random.default_rng(seed))
                 for s in (projected, committed)]
        assert same_masks(draws[0], draws[1])


def test_resaving_a_loaded_checkpoint_writes_the_same_bytes(tmp_path):
    # state_dict packs each record when it writes it: a run's checkpoint, and
    # the format-1 fixture once rewritten as format 2, come back unchanged
    from subnetpack.config import build_run_config, parse_config_text
    from subnetpack.runner import (execute_run, new_state, save_run_checkpoint,
                                   state_from_checkpoint)
    cfg = build_run_config(parse_config_text(f"""
scenario.kind = synthetic
scenario.n_tasks = 3
scenario.classes = 4
scenario.dim = 12
scenario.samples = 40
model.layers = 12,16,4
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 5
run.output_dir = {tmp_path / "out"}
"""))
    execute_run(new_state(cfg))
    path = tmp_path / "out" / "checkpoint.bin"
    written = path.read_bytes()
    save_run_checkpoint(state_from_checkpoint(str(path)))
    assert path.read_bytes() == written

    saves, out = [], str(tmp_path / "v1")
    source = os.path.join(os.path.dirname(__file__), "fixtures", "v1_blob", "checkpoint.bin")
    for _ in range(2):
        source = save_run_checkpoint(state_from_checkpoint(source, need_suite=False,
                                                           output_dir=out))
        saves.append((tmp_path / "v1" / "checkpoint.bin").read_bytes())
    assert saves[0] == saves[1]
