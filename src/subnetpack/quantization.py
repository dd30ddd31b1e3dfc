"""Nonlinear quantization: 1-D k-means, centroid tables, adaptive bit-width.

Weights inside a task's mask are clustered into 2^psi centroids per layer;
codes index the centroid table. A quantized task is its bit-width psi, its
mask, its codes (one integer array per layer, in the row-major order of the
masked slots) and its centroid tables (one float32 array per layer, held as
IEEE-754 32-bit values like their serialized form); a committed task keeps
them together in its `store.TaskAllocation`. This module makes uint32 codes;
the store holds them in `store.code_dtype(psi)`, the narrowest unsigned
integer of psi bits, and `dequantize` reads either. `dequantized_weights`
rebuilds every quantized task that is scored, with its biases (float32 in a
run): its weights are float32, the values the store holds, and `evaluate`
widens weights and biases to float64 where it scores them. The adaptive loop
raises psi one bit at a time until validation accuracy is within delta of the
full-precision reference, or psi_max.

In a run, the winner's job quantizes its task in the worker that trained it
(`workers`), with `adaptive_quantize` or, in pruning-only runs,
`identity_quantize`. The ladder reads no slot budget: k-means seeds from
(seed, layer, psi), so its bit-widths are the same whatever the budget, and
the run process applies the mask's budget to its choice with `fit_budget`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExhausted, CorruptCodesError, ToleranceWarning
from .network import DenseWeights, evaluate
from .seeding import rng_from


@dataclass(frozen=True)
class QuantConfig:
    psi_init: int = 2
    psi_max: int = 8
    delta: float = 0.01
    kmeans_iters: int = 50
    kmeans_restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.psi_init <= self.psi_max <= 16):
            raise ValueError("need 1 <= psi_init <= psi_max <= 16")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.kmeans_iters < 1 or self.kmeans_restarts < 1:
            raise ValueError("kmeans_iters and kmeans_restarts must be >= 1")


def _prefix_sums(sorted_values):
    p1 = np.concatenate(([0.0], np.cumsum(sorted_values)))
    p2 = np.concatenate(([0.0], np.cumsum(sorted_values**2)))
    return p1, p2


def _cluster_bounds(sorted_values, centroids):
    """Right-open boundary indices per cluster; midpoint ties go to the lower cluster."""
    mids = (centroids[:-1] + centroids[1:]) / 2.0
    inner = np.searchsorted(sorted_values, mids, side="right")
    return np.concatenate((inner, [len(sorted_values)]))

def _wcss_per_cluster(p1, p2, bounds):
    lo = np.concatenate(([0], bounds[:-1]))
    counts = bounds - lo
    sums = p1[bounds] - p1[lo]
    sqs = p2[bounds] - p2[lo]
    wcss = np.zeros(len(bounds))
    nz = counts > 0
    wcss[nz] = sqs[nz] - sums[nz] ** 2 / counts[nz]
    return wcss, counts, sums


def _lloyd(sorted_values, p1, p2, init, iters):
    """Lloyd iterations on sorted scalars; returns (centroids, wcss)."""
    cent = np.sort(np.asarray(init, dtype=np.float64))
    for _ in range(iters):
        bounds = _cluster_bounds(sorted_values, cent)
        _, counts, sums = _wcss_per_cluster(p1, p2, bounds)
        new = cent.copy()
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz]
        new = np.sort(new)
        if np.array_equal(new, cent):
            break
        cent = new
    bounds = _cluster_bounds(sorted_values, cent)
    wcss, counts, _ = _wcss_per_cluster(p1, p2, bounds)
    # drop clusters that ended up empty; total error is unaffected
    return cent[counts > 0], float(wcss.sum())


def _assign(values, centroids):
    mids = (centroids[:-1] + centroids[1:]) / 2.0
    return np.searchsorted(mids, values, side="left").astype(np.uint32)


# Distinct-value count up to which the global optimum is computed outright
# instead of trusting restarts to find it.
_EXACT_LIMIT = 64


def _optimal_contiguous(uniq, counts, k):
    """Exact 1-D k-means over weighted distinct values.

    The optimal 1-D partition is contiguous in sorted order, so dynamic
    programming over distinct values with multiplicity weights finds the
    global minimum. Cost is O(k d^2) for d distinct values; callers gate on
    _EXACT_LIMIT. Returns ascending cluster means.
    """
    d = uniq.size
    cw = counts.astype(np.float64)
    w = np.concatenate(([0.0], np.cumsum(cw)))
    s = np.concatenate(([0.0], np.cumsum(cw * uniq)))
    q = np.concatenate(([0.0], np.cumsum(cw * uniq * uniq)))

    dp = np.full((k + 1, d), np.inf)
    cut = np.zeros((k + 1, d), dtype=np.int64)
    dp[1] = q[1:] - s[1:] ** 2 / w[1:]
    for m in range(2, k + 1):
        for j in range(m - 1, d):
            i = np.arange(m - 1, j + 1)
            left = w[j + 1] - w[i]
            mass = s[j + 1] - s[i]
            cost = dp[m - 1][i - 1] + q[j + 1] - q[i] - mass**2 / left
            arg = int(np.argmin(cost))
            dp[m][j] = cost[arg]
            cut[m][j] = m - 1 + arg

    cent = np.empty(k)
    j = d - 1
    for m in range(k, 0, -1):
        i = int(cut[m][j])
        cent[m - 1] = (s[j + 1] - s[i]) / (w[j + 1] - w[i])
        j = i - 1
    return cent


def kmeans_1d(values, k, cfg: QuantConfig, rng=None, extra_init=None):
    """Minimum within-cluster-sum-of-squares clustering of scalars.

    Small inputs (at most _EXACT_LIMIT distinct values) are solved exactly by
    dynamic programming. Larger inputs run best-of-restarts Lloyd iterations:
    restart 0 starts from k evenly spaced quantiles, later restarts pick k
    distinct values at random, and extra_init, when given, competes as one
    more start (used to warm-start bit-width increments). Returns ascending
    centroids and per-value nearest-centroid assignments, ties to the lower
    index. k of at least the distinct-value count reproduces the values
    exactly.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot cluster an empty value set")
    if k < 1:
        raise ValueError("k must be >= 1")

    uniq, uniq_counts = np.unique(values, return_counts=True)
    if uniq.size <= k:
        return uniq.copy(), _assign(values, uniq)

    if uniq.size <= _EXACT_LIMIT:
        centroids = _optimal_contiguous(uniq, uniq_counts, k)
        return centroids, _assign(values, centroids)

    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sorted_values = np.sort(values)
    p1, p2 = _prefix_sums(sorted_values)

    inits = [np.quantile(sorted_values, (np.arange(k) + 0.5) / k)]
    if extra_init is not None:
        inits.append(np.asarray(extra_init, dtype=np.float64))
    for _ in range(cfg.kmeans_restarts - 1):
        inits.append(rng.choice(uniq, size=k, replace=False))

    best = None
    for init in inits:
        cent, err = _lloyd(sorted_values, p1, p2, np.unique(init), cfg.kmeans_iters)
        if best is None or err < best[1]:
            best = (cent, err)
    centroids = best[0]
    return centroids, _assign(values, centroids)


def _split_worst(values, centroids, k_target):
    """Grow a centroid set toward k_target by quantile-splitting worst clusters.

    The input centroids are all kept, so a Lloyd run from the result can never
    end with a higher objective than the run that produced them.
    """
    sorted_values = np.sort(values)
    p1, p2 = _prefix_sums(sorted_values)
    cent = list(np.sort(centroids.astype(np.float64)))
    while len(cent) < k_target:
        bounds = _cluster_bounds(sorted_values, np.asarray(cent))
        wcss, _, _ = _wcss_per_cluster(p1, p2, bounds)
        order = np.argsort(wcss)[::-1]
        added = False
        for j in order:
            if wcss[j] <= 0.0:
                break
            lo = 0 if j == 0 else bounds[j - 1]
            members = sorted_values[lo : bounds[j]]
            for q in (0.25, 0.75):
                if len(cent) >= k_target:
                    break
                candidate = float(np.quantile(members, q))
                if candidate not in cent:
                    cent.append(candidate)
                    added = True
            if added:
                break
        if not added:
            break  # every cluster already has zero error
        cent.sort()
    return np.asarray(cent)


def nonlinear_quantize(psi, masked_values, cfg: QuantConfig, warm=None):
    """(codes, centroids): each layer's masked weights clustered into 2^psi codes.

    masked_values is one 1-D array per layer (row-major slot order); codes
    holds one uint32 array per layer in the same order, and centroids one
    float32 table per layer. Layers with no masked weights get an empty
    table. Warm tables from a lower bit-width seed the restarts so
    reconstruction error cannot rise.
    """
    if psi < 1:
        raise ValueError("psi must be >= 1")
    k = 1 << psi
    centroid_tables, code_arrays = [], []
    for layer_idx, vals in enumerate(masked_values):
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if vals.size == 0:
            centroid_tables.append(np.zeros(0, dtype=np.float32))
            code_arrays.append(np.zeros(0, dtype=np.uint32))
            continue
        extra = None
        if warm is not None and len(warm[layer_idx]):
            extra = _split_worst(vals, warm[layer_idx], k)
        rng = rng_from(cfg.seed, layer_idx, psi)
        centroids, codes = kmeans_1d(vals, k, cfg, rng=rng, extra_init=extra)
        centroid_tables.append(centroids.astype(np.float32))
        code_arrays.append(codes)
    return code_arrays, centroid_tables


def identity_quantize(mask, trained_weights: DenseWeights):
    """(codes, centroids) of 32-bit storage for pruning-only runs.

    Each code is the float32 bit pattern of a masked weight, so every layer's
    table is empty; dequantize at psi 32 recovers the float32 cast of each
    masked weight directly from its code.
    """
    codes = [w[np.asarray(m, dtype=bool)].astype(np.float32).view(np.uint32)
             for w, m in zip(trained_weights.weights, mask)]
    return codes, [np.zeros(0, dtype=np.float32) for _ in codes]


def dequantize(psi, mask, codes, centroids) -> list[np.ndarray]:
    """Full-shape float32 weight arrays of a task from its bit-width, mask,
    codes and tables.

    `codes[i]` holds layer i's codes, integers of any width, in the
    row-major order of the slots `mask[i]` marks; slots outside the mask are
    zero. At psi 32 a code is a uint32 float32 bit pattern; below, it indexes
    `centroids[i]`, and a code outside that table raises CorruptCodesError.
    Tables and bit patterns are float32 already, so the scatter copies the
    stored values without a cast.
    """
    out = []
    for i, m in enumerate(mask):
        m, c = np.asarray(m, dtype=bool), codes[i]
        full = np.zeros(m.size, dtype=np.float32)
        if psi == 32:
            values = c.view(np.float32)
        else:
            table = centroids[i]
            try:
                values = table.take(c)
            except IndexError:
                raise CorruptCodesError(
                    f"layer {i}: code {int(c.max())} outside codebook of {len(table)}"
                ) from None
        if c.size:
            # scattering through indices is about 3x faster than a bool mask
            full[np.flatnonzero(m)] = values
        out.append(full.reshape(m.shape))
    return out


def dequantized_weights(psi, mask, codes, centroids, biases) -> DenseWeights:
    """A quantized task's DenseWeights: `dequantize`'s float32 arrays and a
    copy of `biases` in their own dtype."""
    return DenseWeights(dequantize(psi, mask, codes, centroids),
                        [b.copy() for b in biases], dtype=None)


def adaptive_quantize(spec, mask, trained_weights: DenseWeights, q_ref, val_data,
                      cfg: QuantConfig):
    """Escalate bit-width until quantized accuracy is within delta of q_ref.

    Starts at psi_init and stops at psi_max whatever the accuracy. Returns
    (psi, codes, centroids, quantized accuracy), with the codes and tables
    `nonlinear_quantize` gives at the chosen bit-width psi. It reads no slot
    budget: `fit_budget` holds the choice to one afterwards.
    """
    X_val, y_val = val_data
    masked_values = [w[np.asarray(m, dtype=bool)]
                     for w, m in zip(trained_weights.weights, mask)]
    warm = None
    for psi in range(cfg.psi_init, cfg.psi_max + 1):
        codes, centroids = nonlinear_quantize(psi, masked_values, cfg, warm=warm)
        view = dequantized_weights(psi, mask, codes, centroids, trained_weights.biases)
        acc = evaluate(spec, view, mask, X_val, y_val)
        if acc >= q_ref - cfg.delta:
            break
        warm = centroids
    return psi, codes, centroids, acc


def fit_budget(task_id, spec, psi, q_acc, q_ref, cfg: QuantConfig, budget) -> None:
    """Hold adaptive_quantize's choice of `psi` to a mask's slot budget.

    `budget` is the tightest remaining-bit budget over the masked slots. A
    ladder that stopped at min(psi_max, budget) bits would try the same
    bit-widths up to there, so this raises the CapacityExhausted it would
    raise, or issues its ToleranceWarning when psi_max fits the budget and
    is still above tolerance; otherwise the choice is its result.
    """
    cap = min(cfg.psi_max, budget)
    if psi > cap:  # psi >= psi_init, so this also covers psi_init > cap
        raise CapacityExhausted(
            range(spec.n_layers),
            f"bit-width {max(cap + 1, cfg.psi_init)} exceeds the {cap}-bit slot "
            "budget of the mask",
        )
    if not q_acc >= q_ref - cfg.delta:
        warnings.warn(
            f"task {task_id}: accuracy {q_acc:.4f} still below {q_ref - cfg.delta:.4f} "
            f"at psi_max={cfg.psi_max}",
            ToleranceWarning,
            stacklevel=2,
        )
