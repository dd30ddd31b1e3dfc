import warnings

import numpy as np
import pytest
from helpers import contiguous_optimum, kmeans_wcss

from subnetpack.errors import (CapacityExhausted, CorruptCodesError,
                               ToleranceWarning)
from subnetpack.network import DenseWeights, ModelSpec, evaluate, forward, full_mask
from subnetpack.quantization import (QuantConfig, adaptive_quantize, dequantize,
                                     fit_budget, identity_quantize, kmeans_1d,
                                     nonlinear_quantize)

CFG = QuantConfig(psi_init=1, psi_max=8, kmeans_iters=50, kmeans_restarts=3, seed=0)


def reconstruction_error(codes, centroids, masked_values) -> float:
    """Total squared error between masked weights and their centroid values."""
    total = 0.0
    for vals, layer_codes, table in zip(masked_values, codes, centroids):
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if vals.size:
            total += float(((vals - table[layer_codes].astype(np.float64)) ** 2).sum())
    return total


def test_quant_config_validation():
    with pytest.raises(ValueError):
        QuantConfig(psi_init=0)
    with pytest.raises(ValueError):
        QuantConfig(psi_init=5, psi_max=4)
    with pytest.raises(ValueError):
        QuantConfig(psi_max=17)
    with pytest.raises(ValueError):
        QuantConfig(delta=-0.1)


def test_kmeans_four_value_optimum():
    # frozen oracle: optimal 2-means partition {-1.0,-0.9} | {0.8,1.1}
    centroids, codes = kmeans_1d([-1.0, -0.9, 0.8, 1.1], 2, CFG)
    np.testing.assert_allclose(centroids, [-0.95, 0.95], atol=1e-12)
    np.testing.assert_array_equal(codes, [0, 0, 1, 1])


def test_kmeans_six_value_optimum():
    # frozen oracle: wcss 0.00165, centroids (0.11, 0.51, 0.925)
    values = [0.1, 0.12, 0.5, 0.52, 0.9, 0.95]
    centroids, codes = kmeans_1d(values, 3, CFG)
    np.testing.assert_allclose(centroids, [0.11, 0.51, 0.925], atol=1e-12)
    np.testing.assert_array_equal(codes, [0, 0, 1, 1, 2, 2])
    assert kmeans_wcss(values, centroids) == pytest.approx(0.00165, abs=1e-12)


def test_kmeans_constant_values():
    centroids, codes = kmeans_1d([0.7] * 9, 4, CFG)
    np.testing.assert_array_equal(centroids, [0.7])
    np.testing.assert_array_equal(codes, np.zeros(9))


def test_kmeans_exact_when_k_covers_distinct():
    values = [3.0, -1.0, 3.0, 2.0, -1.0]
    centroids, codes = kmeans_1d(values, 8, CFG)
    np.testing.assert_array_equal(centroids, [-1.0, 2.0, 3.0])
    np.testing.assert_array_equal(centroids[codes], values)
    assert kmeans_wcss(values, centroids) == 0.0


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans_1d([], 2, CFG)
    with pytest.raises(ValueError):
        kmeans_1d([1.0], 0, CFG)


def test_kmeans_assignments_are_nearest():
    rng = np.random.default_rng(3)
    for trial in range(40):
        values = rng.normal(size=rng.integers(4, 40))
        k = int(rng.integers(1, 6))
        centroids, codes = kmeans_1d(values, k, CFG)
        assert len(centroids) <= k
        assert np.all(np.diff(centroids) > 0)
        assert codes.max() < len(centroids)
        dist = (values[:, None] - centroids[None, :]) ** 2
        best = dist.min(axis=1)
        chosen = dist[np.arange(len(values)), codes]
        np.testing.assert_allclose(chosen, best, rtol=0, atol=0)
        # ties resolve to the lower centroid index
        for v, c in zip(values, codes):
            nearest = np.flatnonzero(dist[0] == dist[0].min()) if False else None
        ties = np.isclose(dist, best[:, None], rtol=0, atol=0)
        first_best = ties.argmax(axis=1)
        np.testing.assert_array_equal(codes, first_best)


def test_kmeans_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 4))
        values = np.round(rng.normal(size=n), 3)
        opt_wcss, _ = contiguous_optimum(values, k)
        centroids, _ = kmeans_1d(values, k, CFG)
        got = kmeans_wcss(values, centroids)
        assert got <= opt_wcss + 1e-9 * max(1.0, opt_wcss)


def test_nonlinear_quantize_psi1_example():
    # frozen oracle: codes (0,0,1,1), codebook (-0.95, 0.95)
    codes, tables = nonlinear_quantize(1, [np.array([-1.0, -0.9, 0.8, 1.1])], CFG)
    assert len(tables) == 1
    np.testing.assert_allclose(tables[0], [-0.95, 0.95], atol=1e-6)
    np.testing.assert_array_equal(codes[0], [0, 0, 1, 1])
    assert tables[0].dtype == np.float32


def test_nonlinear_quantize_table_sizes():
    rng = np.random.default_rng(0)
    vals = [rng.normal(size=500), rng.normal(size=300)]
    codes, tables = nonlinear_quantize(3, vals, CFG)
    for layer_codes, table in zip(codes, tables):
        assert len(table) <= 8
        assert layer_codes.max() < len(table)


def test_nonlinear_quantize_empty_layer():
    codes, tables = nonlinear_quantize(2, [np.zeros(0), np.array([1.0, 2.0])], CFG)
    assert len(tables[0]) == 0
    assert len(codes[0]) == 0
    assert len(tables[1]) == 2


def test_dequantize_table_lookup():
    mask = [np.ones((1, 4), dtype=bool)]
    tables = [np.array([-0.95, 0.95], dtype=np.float32)]
    out = dequantize(1, mask, [np.array([0, 1, 1, 0], dtype=np.uint32)], tables)
    np.testing.assert_allclose(
        out[0], [[-0.95, 0.95, 0.95, -0.95]], atol=1e-6)


def test_dequantize_zeros_outside_mask():
    mask = [np.array([[True, False], [False, True]])]
    tables = [np.array([2.0, -3.0], dtype=np.float32)]
    out = dequantize(1, mask, [np.array([1, 0], dtype=np.uint32)], tables)
    np.testing.assert_array_equal(out[0], [[-3.0, 0.0], [0.0, 2.0]])


def test_dequantize_rejects_bad_codes():
    mask = [np.ones((1, 2), dtype=bool)]
    tables = [np.array([0.5, 1.5], dtype=np.float32)]
    with pytest.raises(CorruptCodesError):
        dequantize(1, mask, [np.array([0, 2], dtype=np.uint32)], tables)


@pytest.mark.parametrize("psi", [2, 32])
def test_dequantize_returns_the_stored_float32_values(psi):
    # below 32 bits codes index float32 tables; at 32 each code is a float32
    # bit pattern: either way the arrays hold the stored values unwidened
    mask = [np.array([[True, False, True], [False, True, True]]), np.ones((1, 2), bool)]
    values = [np.array([0.1, -2.5, 3.0, 0.1], np.float32), np.array([7.25, -0.0], np.float32)]
    if psi == 32:
        codes, tables = [v.view(np.uint32) for v in values], [np.zeros(0, np.float32)] * 2
    else:
        tables = [np.unique(v) for v in values]
        codes = [np.searchsorted(t, v).astype(np.uint32) for t, v in zip(tables, values)]
    out = dequantize(psi, mask, codes, tables)
    for w, m, v in zip(out, mask, values, strict=True):
        assert w.dtype == np.float32 and w.shape == m.shape
        assert w[m].tobytes() == v.tobytes() and not w[~m].any()


def test_round_trip_exact_on_representable_values():
    # float32-representable values, fewer distinct than 2^psi
    levels = np.array([-0.5, 0.25, 0.75, 1.0], dtype=np.float32).astype(np.float64)
    rng = np.random.default_rng(4)
    vals = levels[rng.integers(0, 4, size=50)]
    mask = [np.ones((5, 10), dtype=bool)]
    codes, tables = nonlinear_quantize(2, [vals], CFG)
    out = dequantize(2, mask, codes, tables)
    np.testing.assert_array_equal(out[0].ravel(), vals)


def test_reconstruction_error_bounded_by_cluster_radius():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=200)
    codes, tables = nonlinear_quantize(2, [vals], CFG)
    table = tables[0].astype(np.float64)
    recon = table[codes[0]]
    mids = (table[:-1] + table[1:]) / 2.0
    radius = max(abs(np.concatenate([table[:1] - vals.min(),
                                     np.diff(table) / 2,
                                     vals.max() - table[-1:]])))
    assert np.abs(vals - recon).max() <= radius + 1e-12


def test_monotone_reconstruction_with_warm_start():
    rng = np.random.default_rng(21)
    vals = [rng.normal(size=400), rng.normal(size=250) * 2.0]
    prev_tables = None
    prev_err = np.inf
    for psi in range(1, 7):
        codes, tables = nonlinear_quantize(psi, vals, CFG, warm=prev_tables)
        err = reconstruction_error(codes, tables, vals)
        assert err <= prev_err + 1e-12
        prev_tables, prev_err = tables, err


def test_identity_quantize_round_trip():
    spec = ModelSpec((3, 4, 2))
    rng = np.random.default_rng(2)
    w = DenseWeights([rng.normal(size=s) for s in spec.shapes],
                     [rng.normal(size=s[0]) for s in spec.shapes])
    mask = [rng.random(s) < 0.6 for s in spec.shapes]
    codes, tables = identity_quantize(mask, w)
    assert all(len(t) == 0 for t in tables)
    out = dequantize(32, mask, codes, tables)
    for i in range(spec.n_layers):
        expect = np.where(mask[i], w.weights[i].astype(np.float32).astype(np.float64), 0.0)
        np.testing.assert_array_equal(out[i], expect)


def _two_sample_problem():
    # full precision separates the two samples; 1-bit quantization maps both
    # weight columns to one level and ties the logits
    spec = ModelSpec((2, 2))
    w = DenseWeights([np.array([[1.0, 0.0], [0.9, 0.2]])], [np.zeros(2)])
    mask = full_mask(spec)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    return spec, w, mask, (x, y)


def test_adaptive_quantize_escalates_until_tolerance():
    spec, w, mask, val = _two_sample_problem()
    cfg = QuantConfig(psi_init=1, psi_max=4, delta=0.0, seed=0)
    psi, _, _, acc = adaptive_quantize(spec, mask, w, 1.0, val, cfg)
    assert psi == 2
    assert acc == 1.0


def test_adaptive_quantize_warns_at_psi_max():
    # the ladder stops at psi_max above tolerance; fit_budget warns
    spec, w, mask, val = _two_sample_problem()
    cfg = QuantConfig(psi_init=1, psi_max=1, delta=0.3, seed=0)
    psi, _, _, acc = adaptive_quantize(spec, mask, w, 1.0, val, cfg)
    assert psi == 1
    assert acc == 0.5
    with pytest.warns(ToleranceWarning):
        fit_budget(0, spec, psi, acc, 1.0, cfg, budget=32)


def test_adaptive_quantize_trivial_when_representable():
    spec = ModelSpec((2, 2))
    w = DenseWeights([np.array([[0.5, -0.5], [-0.5, 0.5]])], [np.zeros(2)])
    mask = full_mask(spec)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    cfg = QuantConfig(psi_init=1, psi_max=8, delta=0.0, seed=0)
    psi, _, _, acc = adaptive_quantize(spec, mask, w, 1.0, (x, y), cfg)
    assert psi == 1
    assert acc == 1.0


def test_adaptive_quantize_vacuous_delta():
    spec, w, mask, val = _two_sample_problem()
    cfg = QuantConfig(psi_init=1, psi_max=8, delta=1.0, seed=0)
    psi = adaptive_quantize(spec, mask, w, 1.0, val, cfg)[0]
    assert psi == 1


def test_adaptive_quantize_respects_bit_budget():
    spec, w, mask, val = _two_sample_problem()
    cfg = QuantConfig(psi_init=1, psi_max=4, delta=0.0, seed=0)
    psi, _, _, acc = adaptive_quantize(spec, mask, w, 1.0, val, cfg)
    with pytest.raises(CapacityExhausted):
        fit_budget(0, spec, psi, acc, 1.0, cfg, budget=1)
    with pytest.raises(CapacityExhausted):
        fit_budget(0, spec, psi, acc, 1.0, cfg, budget=0)


def capped_ladder(task_id, spec, mask, weights, q_ref, val, cfg, budget):
    """The bit-width ladder stopped at the slot budget: the reference for
    adaptive_quantize plus fit_budget. It quantizes and scores one bit-width
    at a time and raises as soon as the next one would not fit."""
    cap = min(cfg.psi_max, budget)
    layers = range(spec.n_layers)
    if cfg.psi_init > cap:
        raise CapacityExhausted(
            layers, f"bit-width {cfg.psi_init} exceeds the {cap}-bit slot budget of the mask")
    masked = [w[m] for w, m in zip(weights.weights, mask)]
    psi, warm = cfg.psi_init, None
    while True:
        codes, tables = nonlinear_quantize(psi, masked, cfg, warm=warm)
        acc = evaluate(spec, DenseWeights(dequantize(psi, mask, codes, tables),
                                          weights.biases), mask, *val)
        if acc >= q_ref - cfg.delta:
            return psi, codes, tables, acc
        if psi >= cfg.psi_max:
            warnings.warn(f"task {task_id}: accuracy {acc:.4f} still below "
                          f"{q_ref - cfg.delta:.4f} at psi_max={cfg.psi_max}",
                          ToleranceWarning)
            return psi, codes, tables, acc
        if psi + 1 > cap:
            raise CapacityExhausted(
                layers, f"bit-width {psi + 1} exceeds the {cap}-bit slot budget of the mask")
        warm, psi = tables, psi + 1


def _outcome(fn):
    """(result or the CapacityExhausted's layers and message, warnings issued)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            psi, codes, tables, acc = fn()
            out = (psi, acc, [c.tolist() for c in codes], [c.tolist() for c in tables])
        except CapacityExhausted as exc:
            out = ("CapacityExhausted", exc.layers, str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("psi_init, psi_max, q_ref, chosen, warns", [
    (1, 6, 1.0, 4, False),  # within tolerance partway up the ladder
    (4, 8, 1.0, 4, False),  # within tolerance at psi_init
    (1, 4, 2.0, 4, True),  # never within tolerance: psi_max, with a warning
    (2, 2, 1.0, 2, True),  # one bit-width, above tolerance
])
def test_uncapped_ladder_and_budget_give_the_capped_ladder(psi_init, psi_max, q_ref,
                                                           chosen, warns):
    # labels are the full-precision network's own predictions, so q_ref 1.0
    # is reachable and 2.0 is not
    rng = np.random.default_rng(4)
    spec = ModelSpec((6, 5, 3))
    w = DenseWeights([rng.normal(size=s) for s in spec.shapes],
                     [rng.normal(size=s[0]) for s in spec.shapes])
    mask = [rng.random(s) < 0.7 for s in spec.shapes]
    x = rng.random((40, 6))
    val = (x, np.argmax(forward(spec, w, mask, x), axis=1))
    cfg = QuantConfig(psi_init=psi_init, psi_max=psi_max, delta=0.0, seed=3)
    psi, codes, tables, acc = adaptive_quantize(spec, mask, w, q_ref, val, cfg)
    assert psi == chosen

    for budget in range(psi_init - 1, psi_max + 1):
        def fitted():
            fit_budget(7, spec, psi, acc, q_ref, cfg, budget)
            return psi, codes, tables, acc
        want = _outcome(lambda: capped_ladder(7, spec, mask, w, q_ref, val, cfg, budget))
        assert _outcome(fitted) == want, budget
        (kind, *_), caught = want
        assert (kind == "CapacityExhausted") == (budget < chosen), budget
        assert bool(caught) == (warns and budget >= chosen), budget


def test_quantization_deterministic():
    rng = np.random.default_rng(6)
    vals = [rng.normal(size=300)]
    codes_a, tables_a = nonlinear_quantize(3, vals, CFG)
    codes_b, tables_b = nonlinear_quantize(3, vals, CFG)
    np.testing.assert_array_equal(tables_a[0], tables_b[0])
    np.testing.assert_array_equal(codes_a[0], codes_b[0])


def test_centroids_serialize_bit_exact():
    rng = np.random.default_rng(12)
    _, tables = nonlinear_quantize(4, [rng.normal(size=200)], CFG)
    raw = tables[0].tobytes()
    back = np.frombuffer(raw, dtype=np.float32)
    np.testing.assert_array_equal(back, tables[0])
