"""Shared test oracles: exhaustive 1-D k-means, least-squares separability,
readers of a slot store's committed masks, codes and slot occupancy, centroid
tables for hand-made records, a run stopped after a given checkpoint, the
winners a run commits, and a reference SGD step."""

import itertools
from unittest import mock

import numpy as np

from subnetpack.network import DenseWeights, as_floats
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


def reference_train(spec, weights, mask, data, cfg):
    """`network.train_masked` as plain array expressions, for bit comparison.

    The same SGD on a float32 copy pre-multiplied by the bool mask: each step
    computes its loss, the weight gradients `(dz.T @ a) * m` and the updates
    `w -= lr * g`, each into a fresh array. Returns float64 weights with
    the trained entries inside the mask and the input's entries outside it.
    """
    X, y = np.asarray(data[0]), np.asarray(data[1])
    work_w = [np.asarray(w, dtype=np.float32) * m for w, m in zip(weights.weights, mask)]
    work_b = [np.asarray(b, dtype=np.float32) for b in weights.biases]
    rng = np.random.default_rng(cfg.seed)
    n_layers = spec.n_layers
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr_at(epoch)
            order = rng.permutation(X.shape[0])
            for start in range(0, X.shape[0], cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                acts, zs = [as_floats(X[idx], np.float32)], []
                for i in range(n_layers):
                    z = acts[-1] @ work_w[i].T + work_b[i]
                    zs.append(z)
                    acts.append(np.maximum(z, 0.0) if i < n_layers - 1 else z)
                n = len(idx)
                shifted = zs[-1] - zs[-1].max(axis=1, keepdims=True)
                log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                loss = -log_p[np.arange(n), y[idx]].mean()
                dz = np.exp(log_p)
                dz[np.arange(n), y[idx]] -= 1.0
                dz /= n
                grads_w, grads_b = [None] * n_layers, [None] * n_layers
                for i in range(n_layers - 1, -1, -1):
                    grads_w[i] = (dz.T @ acts[i]) * mask[i]
                    grads_b[i] = dz.sum(axis=0)
                    if i > 0:
                        dz = (dz @ work_w[i]) * (zs[i - 1] > 0)
                for i in range(n_layers):
                    work_w[i] -= lr * grads_w[i]
                    work_b[i] -= lr * grads_b[i]
    return DenseWeights([np.where(m, t, g) for m, t, g in zip(mask, work_w, weights.weights)],
                        work_b)
