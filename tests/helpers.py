"""Shared test oracles: exhaustive 1-D k-means, least-squares separability,
readers of a slot store's committed masks, codes and slot occupancy, centroid
tables for hand-made records, a run stopped after a given checkpoint, and the
winners a run commits."""

import itertools
from unittest import mock

import numpy as np

from subnetpack.store import SLOT_BITS


def contiguous_optimum(values, k):
    """Exact 1-D k-means optimum by enumerating contiguous partitions.

    The optimal 1-D clustering always splits the sorted values into
    contiguous runs, so trying every cut set of at most k-1 cuts is exact.
    Returns (wcss, centroids as an ascending tuple).
    """
    vs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vs)
    best = None
    for parts in range(1, min(k, n) + 1):
        for cuts in itertools.combinations(range(1, n), parts - 1):
            bounds = (0,) + cuts + (n,)
            wcss, cents = 0.0, []
            for a, b in zip(bounds[:-1], bounds[1:]):
                seg = vs[a:b]
                m = seg.mean()
                cents.append(float(m))
                wcss += float(((seg - m) ** 2).sum())
            if best is None or wcss < best[0]:
                best = (wcss, tuple(cents))
    return best


def kmeans_wcss(values, centroids):
    values = np.asarray(values, dtype=np.float64).ravel()
    d = (values[:, None] - np.asarray(centroids)[None, :]) ** 2
    return float(d.min(axis=1).sum())


def lstsq_accuracy(x_train, y_train, x_test, y_test, classes):
    """Test accuracy of a closed-form one-hot least-squares classifier."""
    X = np.hstack([x_train, np.ones((len(x_train), 1))])
    W, *_ = np.linalg.lstsq(X, np.eye(classes)[y_train], rcond=None)
    Xt = np.hstack([x_test, np.ones((len(x_test), 1))])
    return float((np.argmax(Xt @ W, axis=1) == y_test).mean())


def same_masks(a, b):
    """Whether two masks (lists of per-layer bool arrays) are equal."""
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def slot_components(store, layer, slot):
    """(task_id, bit_width, code) entries of one slot, in commit order.

    Read from the committed tasks' masks and codes: a task's codes hold one
    entry per masked slot, in row-major slot order.
    """
    out = []
    for task_id, alloc in store.tasks.items():
        flat = alloc.mask[layer].ravel()
        if flat[slot]:
            pos = int(np.count_nonzero(flat[:slot]))
            out.append((task_id, alloc.psi, int(alloc.codes[layer][pos])))
    return out


def tables_for(psi, codes):
    """Zero float32 centroid tables that a psi-bit record's codes index: none
    at SLOT_BITS bits or more, else one entry past each layer's largest code,
    at most 2^psi."""
    if psi >= SLOT_BITS:
        return [np.zeros(0, dtype=np.float32) for _ in codes]
    return [np.zeros(min(int(np.max(c)) + 1 if np.size(c) else 0, 1 << max(psi, 0)),
                     dtype=np.float32) for c in codes]


def tables_of(store):
    """Every committed task's centroid tables, as `from_state_dict` takes them."""
    return {t: a.centroids for t, a in store.tasks.items()}


def slot_occupancy(store, layer):
    """(component counts, remaining bits) of one layer's slots, as int32 copies."""
    return (store._count[layer].astype(np.int32),
            SLOT_BITS - store._used[layer].astype(np.int32))


class Interrupted(Exception):
    """Raised by a patched checkpoint save to stop a run."""


def record_winners(patch):
    """Have `runner._run_task` keep each task's finished winner, its trained
    in-mask `values` included, in the dict returned; `patch` is a
    pytest MonkeyPatch, which undoes this."""
    from subnetpack import runner
    winners, run_task = {}, runner._run_task

    def recording(state, t, ahead):
        winner, ahead = run_task(state, t, ahead)
        winners[t] = winner
        return winner, ahead

    patch.setattr(runner, "_run_task", recording)
    return winners


def run_until_saved(state, saves):
    """execute_run(state), stopped by an error raised after its saves-th save.

    Returns the ids of the tasks whose search had started by then. The run
    looks one task ahead, so the next task's search is among them: it is in
    flight when the run stops, and the run drops it.
    """
    from subnetpack import runner
    save, start = runner.save_checkpoint, runner.start_search
    saved, started = [], []

    def save_then_stop(path, payload):
        save(path, payload)
        saved.append(path)
        if len(saved) == saves:
            raise Interrupted(f"stopped after checkpoint {saves}")

    def recording_start(task_id, *args):
        started.append(task_id)
        return start(task_id, *args)

    with mock.patch.object(runner, "save_checkpoint", save_then_stop), \
            mock.patch.object(runner, "start_search", recording_start):
        try:
            runner.execute_run(state)
        except Interrupted:
            return started
    raise AssertionError(f"the run wrote fewer than {saves} checkpoints")
