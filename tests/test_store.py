import math

import numpy as np
import pytest

from subnetpack.errors import CapacityExhausted, CapacityWarning, CommitRejected
from subnetpack.metrics import capacity
from subnetpack.network import ModelSpec, full_mask
from subnetpack.store import (SLOT_BITS, TaskMask, WeightSlotStore,
                              sample_candidate_full, sample_candidate_mask)


def mask_of(store, layer_flats):
    return TaskMask([
        np.asarray(flat, dtype=bool).reshape(shape)
        for flat, shape in zip(layer_flats, store.layer_shapes)
    ])


def codes_for(mask, value=0):
    return [np.full(int(m.sum()), value, dtype=np.uint32) for m in mask]


def test_fresh_store_state():
    store = WeightSlotStore([(2, 3), (4, 1)])
    assert store.layer_count == 2
    assert store.total_slots == 10
    np.testing.assert_array_equal(store.remaining_bits(0), np.full(6, SLOT_BITS))
    np.testing.assert_array_equal(store.component_counts(1), np.zeros(4))
    assert store.sparsity_level(0) == 1.0
    assert store.weighted_sparsity().weighted == 10.0
    assert store.weighted_sparsity().normalized == 1.0


def test_commit_updates_budget_and_components():
    store = WeightSlotStore([(2, 3)])
    mask = mask_of(store, [[1, 1, 0, 0, 1, 0]])
    store.commit(0, mask, 4, codes_for(mask, 3))
    np.testing.assert_array_equal(store.component_counts(0), [1, 1, 0, 0, 1, 0])
    np.testing.assert_array_equal(store.remaining_bits(0), [28, 28, 32, 32, 28, 32])
    assert store.slot_components(0, 0) == [(0, 4, 3)]
    assert store.slot_components(0, 2) == []
    assert store.sparsity_level(0) == 0.5


def test_commit_rejections():
    store = WeightSlotStore([(2, 2)])
    mask = mask_of(store, [[1, 0, 1, 0]])
    store.commit(0, mask, 2, codes_for(mask))
    with pytest.raises(CommitRejected):
        store.commit(0, mask, 2, codes_for(mask))  # duplicate id
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 0, codes_for(mask))  # psi out of range
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 33, codes_for(mask))
    with pytest.raises(CommitRejected):
        store.commit(1, TaskMask([np.ones((3, 2), dtype=bool)]), 2, [np.zeros(6, np.uint32)])
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 2, [np.zeros(1, np.uint32)])  # wrong code count
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 2, [np.array([0, 4], np.uint32)])  # code >= 2^psi


def test_commit_respects_t_l():
    store = WeightSlotStore([(1, 2)], t_max=2)
    mask = mask_of(store, [[1, 0]])
    store.commit(0, mask, 2, codes_for(mask))
    store.commit(1, mask, 2, codes_for(mask))
    assert store.slot_components(0, 0) == [(0, 2, 0), (1, 2, 0)]
    with pytest.raises(CommitRejected):
        store.commit(2, mask, 2, codes_for(mask))
    # the other slot is still free
    other = mask_of(store, [[0, 1]])
    store.commit(3, other, 2, codes_for(other))


def test_commit_respects_bit_budget():
    store = WeightSlotStore([(1, 1)], t_max=8)
    mask = mask_of(store, [[1]])
    store.commit(0, mask, 30, codes_for(mask))
    with pytest.raises(CommitRejected):
        store.commit(1, mask, 3, codes_for(mask))
    store.commit(1, mask, 2, codes_for(mask))
    np.testing.assert_array_equal(store.remaining_bits(0), [0])


def test_commit_is_atomic():
    # second layer ineligible, first layer must stay untouched
    store = WeightSlotStore([(1, 2), (1, 2)], t_max=1)
    first = mask_of(store, [[1, 1], [1, 0]])
    store.commit(0, first, 2, codes_for(first))
    before_counts = [store.component_counts(i).copy() for i in range(2)]
    before_bits = [store.remaining_bits(i).copy() for i in range(2)]
    overlap = mask_of(store, [[1, 0], [1, 0]])
    with pytest.raises(CommitRejected):
        store.commit(1, overlap, 2, codes_for(overlap))
    for i in range(2):
        np.testing.assert_array_equal(store.component_counts(i), before_counts[i])
        np.testing.assert_array_equal(store.remaining_bits(i), before_bits[i])
    assert 1 not in store.tasks


def test_eligibility_rules():
    store = WeightSlotStore([(1, 3)], t_max=2)
    mask = mask_of(store, [[1, 1, 0]])
    store.commit(0, mask, 31, codes_for(mask))
    # slot 0,1: one component, 1 bit left; slot 2 untouched
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=1), [True, True, True])
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=2), [False, False, True])
    second = mask_of(store, [[1, 0, 0]])
    store.commit(1, second, 1, codes_for(second))
    # slot 0 now has two components, t_max reached
    np.testing.assert_array_equal(store.eligible_slots(0, psi_min=1), [False, True, True])
    assert store.eligible(0, 1, psi_min=1)
    assert not store.eligible(0, 0, psi_min=1)


def test_sparsity_weighted_and_hypothetical():
    store = WeightSlotStore([(2, 3), (1, 4)])
    mask = mask_of(store, [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1]])
    store.commit(0, mask, 2, codes_for(mask))
    rep = store.weighted_sparsity()
    assert rep.per_layer == (0.5, 0.0)
    assert rep.weighted == 6 * 0.5 + 4 * 0.0
    assert rep.normalized == 3.0 / 10.0

    hypo = store.hypothetical_sparsity(mask_of(store, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0]]))
    assert hypo.per_layer == (1.0 / 3.0, 0.0)
    # store state is unchanged by the hypothetical
    assert store.weighted_sparsity().per_layer == (0.5, 0.0)


def test_sample_candidate_mask_size():
    store = WeightSlotStore([(10, 10)])
    rng = np.random.default_rng(0)
    for s in (0.0, 0.3, 0.45, 0.85, 1.0):
        m = sample_candidate_mask(store, 0, s, psi_min=2, rng=rng)
        assert int(m.sum()) == math.ceil((1.0 - s) * 100)


def test_sample_candidate_mask_respects_eligibility():
    store = WeightSlotStore([(1, 4)], t_max=1)
    first = mask_of(store, [[1, 1, 0, 0]])
    store.commit(0, first, 2, codes_for(first))
    rng = np.random.default_rng(1)
    with pytest.warns(CapacityWarning):
        m = sample_candidate_mask(store, 0, 0.0, psi_min=2, rng=rng)
    np.testing.assert_array_equal(m.ravel(), [False, False, True, True])


def test_sample_candidate_mask_exhausted():
    store = WeightSlotStore([(1, 2)], t_max=1)
    both = mask_of(store, [[1, 1]])
    store.commit(0, both, 2, codes_for(both))
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


def test_commit_keeps_a_task_mask_for_a_plain_list():
    # full_mask returns a list of arrays; the store must still hold a TaskMask
    spec = ModelSpec((3, 4, 2))
    store = WeightSlotStore(spec.shapes)
    mask = full_mask(spec)
    store.commit(0, mask, 2, [np.zeros(m.size, dtype=np.uint32) for m in mask])
    assert isinstance(store.tasks[0].mask, TaskMask)
    # 20 slots * 2 bits + 2 layers * 4 entries * 34 bits + 20 mask bits
    assert capacity(store, 0) == 40 + 272 + 20
    clone = WeightSlotStore.from_state_dict(store.state_dict())
    assert clone.tasks[0].mask.same_as(store.tasks[0].mask)


def test_state_dict_round_trip():
    store = WeightSlotStore([(2, 3), (3, 2)], t_max=3)
    rng = np.random.default_rng(5)
    for task in range(3):
        mask = TaskMask([rng.random(s) < 0.4 for s in store.layer_shapes])
        psi = int(rng.integers(1, 6))
        codes = [rng.integers(0, 1 << psi, size=int(m.sum())).astype(np.uint32)
                 for m in mask]
        store.commit(task, mask, psi, codes)
    clone = WeightSlotStore.from_state_dict(store.state_dict())
    assert clone.t_max == store.t_max
    assert clone.layer_shapes == store.layer_shapes
    for i in range(store.layer_count):
        np.testing.assert_array_equal(clone.component_counts(i), store.component_counts(i))
        np.testing.assert_array_equal(clone.remaining_bits(i), store.remaining_bits(i))
    for t, alloc in store.tasks.items():
        for m1, m2 in zip(alloc.mask, clone.tasks[t].mask):
            np.testing.assert_array_equal(m1, m2)
        for c1, c2 in zip(alloc.codes, clone.tasks[t].codes):
            np.testing.assert_array_equal(c1, c2)


def test_budget_fuzz_small():
    # random commit attempts against a naive per-slot reference model
    rng = np.random.default_rng(77)
    store = WeightSlotStore([(2, 4), (3, 2)], t_max=3)
    slots = {(i, s): [] for i in range(2) for s in range(store.layer_sizes[i])}
    for task in range(400):
        psi = int(rng.integers(1, 34))
        mask = TaskMask([rng.random(shape) < rng.random()
                         for shape in store.layer_shapes])
        codes = [
            rng.integers(0, 1 << min(psi, 31), size=int(m.sum())).astype(np.uint32)
            for m in mask
        ]
        ok_psi = 1 <= psi <= 32
        ok_fit = ok_psi and all(
            len(slots[(i, s)]) < 3 and 32 - sum(p for p in slots[(i, s)]) >= psi
            for i in range(2)
            for s in np.flatnonzero(mask[i].ravel())
        )
        ok_codes = ok_psi and all(
            psi >= 32 or not c.size or c.max() < (1 << psi) for c in codes)
        try:
            store.commit(task, mask, psi, codes)
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
        for s in range(store.layer_sizes[i]):
            assert store.component_counts(i)[s] == len(slots[(i, s)])
            assert store.remaining_bits(i)[s] == 32 - sum(slots[(i, s)])
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
    store.commit(0, mask, 2, [np.array([1, 2, 3, 0], np.uint32)])
    rec = store.state_dict()["tasks"][0]
    # slots 0, 2, 3, 8: bits 0b00001101 then 0b00000001
    np.testing.assert_array_equal(rec["mask"][0], np.array([0x0D, 0x01], np.uint8))
    # codes 1, 2, 3, 0 as 2-bit fields from bit 0 up: 01 10 11 00 -> 0b00111001
    np.testing.assert_array_equal(rec["codes"][0], np.array([0x39], np.uint8))


def test_state_dict_round_trip_every_bit_width():
    # psi = 32 is the pruning-only width; every width shares one code path
    rng = np.random.default_rng(11)
    for psi in range(1, SLOT_BITS + 1):
        store = WeightSlotStore([(5, 7), (3, 1)], t_max=1)
        mask = TaskMask([rng.random(s) < 0.6 for s in store.layer_shapes])
        codes = [rng.integers(0, 1 << psi, int(m.sum()), dtype=np.uint64).astype(np.uint32)
                 for m in mask]
        store.commit(0, mask, psi, codes)
        state = store.state_dict()
        expected = packed_record(0, psi, mask, codes)
        for got, want in zip(state["tasks"][0]["codes"], expected["codes"]):
            np.testing.assert_array_equal(got, want)
        clone = WeightSlotStore.from_state_dict(state)
        for c1, c2 in zip(clone.tasks[0].codes, codes):
            assert c1.dtype == np.uint32
            np.testing.assert_array_equal(c1, c2)
        for i in range(2):
            np.testing.assert_array_equal(clone.remaining_bits(i), store.remaining_bits(i))


def _one_task_state(packed=True, psi=3, shapes=((3, 3),), t_max=4):
    store = WeightSlotStore(shapes, t_max=t_max)
    mask = TaskMask([np.eye(*s, dtype=bool) for s in shapes])
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
    assert WeightSlotStore.from_state_dict(_one_task_state(packed), packed=packed)
    for name, state in _malformed(packed):
        with pytest.raises(CommitRejected):
            WeightSlotStore.from_state_dict(state, packed=packed)
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
            mask = TaskMask([rng.random(s) < rng.random() for s in shapes])
            codes = [rng.integers(0, 1 << psi, int(m.sum()), dtype=np.uint64).astype(np.uint32)
                     for m in mask]
            records.append((task, psi, mask, codes))
        replay = WeightSlotStore(shapes, t_max=t_max)
        try:
            for task, psi, mask, codes in records:
                replay.commit(task, mask, psi, codes)
            ok = True
        except CommitRejected:
            ok = False
        accepted += ok
        for packed, make in ((True, packed_record), (False, v1_record)):
            state = {"layer_shapes": [list(s) for s in shapes], "t_max": t_max,
                     "tasks": [make(*rec) for rec in records]}
            try:
                loaded = WeightSlotStore.from_state_dict(state, packed=packed)
            except CommitRejected:
                loaded = None
            assert (loaded is not None) == ok
            if loaded is not None:
                for i in range(len(shapes)):
                    np.testing.assert_array_equal(loaded.component_counts(i),
                                                  replay.component_counts(i))
                    np.testing.assert_array_equal(loaded.remaining_bits(i),
                                                  replay.remaining_bits(i))
    assert 30 < accepted < 270  # both outcomes well represented


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
        mask = TaskMask([rng.random(s) < 0.2 for s in store.layer_shapes])
        codes = [rng.integers(0, 1 << psi, int(m.sum())).astype(np.uint32) for m in mask]
        store.commit(task, mask, psi, codes)
    empty = len(encode_state(WeightSlotStore(store.layer_shapes).state_dict()))
    payload = sum(math.ceil(used * a.psi / 8) + math.ceil(size / 8)
                  for a in store.tasks.values()
                  for used, size in zip(a.mask.active_counts(), store.layer_sizes))
    arrays = 2 * store.layer_count * len(store.tasks)
    bound = empty + payload + arrays * ARRAY_OVERHEAD + len(store.tasks) * TASK_OVERHEAD
    assert len(encode_state(store.state_dict())) <= bound
    assert sum(sum(store.packed_bytes(t)) for t in store.tasks) == payload


def test_projected_store_reads_as_the_committed_one():
    # the copy a run samples the next task from: every slot under the mask
    # holds one more psi-bit component, and the store itself is untouched
    rng = np.random.default_rng(5)
    store = WeightSlotStore([(6, 5), (3, 6)], t_max=3)
    first = TaskMask([rng.random(s) < 0.5 for s in store.layer_shapes])
    store.commit(0, first, 9, codes_for(first))
    mask = TaskMask([rng.random(s) < 0.5 for s in store.layer_shapes])
    before = [store.remaining_bits(i) for i in range(store.layer_count)]
    projected = store.projected(mask, 7)
    committed = WeightSlotStore.from_state_dict(store.state_dict())
    committed.commit(1, mask, 7, codes_for(mask))
    other = TaskMask([rng.random(s) < 0.5 for s in store.layer_shapes])
    assert projected.hypothetical_sparsity(other) == committed.hypothetical_sparsity(other)
    for i in range(store.layer_count):
        np.testing.assert_array_equal(projected.remaining_bits(i),
                                      committed.remaining_bits(i))
        np.testing.assert_array_equal(projected.component_counts(i),
                                      committed.component_counts(i))
        np.testing.assert_array_equal(store.remaining_bits(i), before[i])
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
        m = TaskMask([rng.random(s) < 0.4 for s in store.layer_shapes])
        m = TaskMask([m[i] & store.eligible_slots(i, 8).reshape(m[i].shape)
                      for i in range(store.layer_count)])
        store.commit(t, m, 8, codes_for(m))
    roomy = [store.eligible_slots(i, psi_max + psi_min).reshape(s)
             for i, s in enumerate(store.layer_shapes)]
    mask = TaskMask([r & (rng.random(r.shape) < 0.5) for r in roomy])
    projected = store.projected(mask, psi_max)
    for psi in range(1, psi_max + 1):
        committed = WeightSlotStore.from_state_dict(store.state_dict())
        committed.commit(99, mask, psi, codes_for(mask))
        for i in range(store.layer_count):
            np.testing.assert_array_equal(projected.eligible_slots(i, psi_min),
                                          committed.eligible_slots(i, psi_min))
        draws = [sample_candidate_full(s, 0.3, 0.6, psi_min,
                                       np.random.default_rng(seed))
                 for s in (projected, committed)]
        assert draws[0].same_as(draws[1])


def test_a_run_packs_each_task_once(tmp_path, monkeypatch):
    # a committed task never changes, so later checkpoint saves reuse its
    # packed arrays, and a loaded store reuses the arrays it read
    from subnetpack import store as store_module
    from subnetpack.config import build_run_config, parse_config_text
    from subnetpack.runner import (execute_run, new_state, save_run_checkpoint,
                                   state_from_checkpoint)
    packs = []
    pack = store_module._pack_codes

    def counting_pack(codes, psi):
        packs.append(psi)
        return pack(codes, psi)

    monkeypatch.setattr(store_module, "_pack_codes", counting_pack)
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
    state = new_state(cfg)
    execute_run(state)
    assert len(packs) == 3 * state.store.layer_count  # one call per layer
    written = (tmp_path / "out" / "checkpoint.bin").read_bytes()
    loaded = state_from_checkpoint(str(tmp_path / "out" / "checkpoint.bin"))
    del packs[:]
    save_run_checkpoint(loaded)
    assert packs == []
    assert (tmp_path / "out" / "checkpoint.bin").read_bytes() == written
