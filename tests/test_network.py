import numpy as np
import pytest

from subnetpack import network
from subnetpack.errors import DegenerateMaskWarning, ShapeMismatchError
from subnetpack.network import (DenseWeights, ModelSpec, TrainConfig, as_floats,
                                evaluate, forward, full_mask, loss_and_grads,
                                train_masked, xavier_init)

from helpers import reference_train


def small_problem(seed=0, n=64, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec((5,))
    with pytest.raises(ValueError):
        ModelSpec((5, 0, 2))
    spec = ModelSpec((4, 7, 3))
    assert spec.n_layers == 2
    assert spec.shapes == ((7, 4), (3, 7))


def test_xavier_bounds_and_zero_biases():
    spec = ModelSpec((30, 20, 5))
    w = xavier_init(spec, seed=4)
    for (out_dim, in_dim), wi, bi in zip(spec.shapes, w.weights, w.biases):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        assert np.abs(wi).max() <= bound
        assert wi.std() > 0
        np.testing.assert_array_equal(bi, np.zeros(out_dim))


def test_xavier_seeded():
    spec = ModelSpec((8, 4, 2))
    a = xavier_init(spec, seed=1)
    b = xavier_init(spec, seed=1)
    c = xavier_init(spec, seed=2)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_masks_contribute_zero():
    spec = ModelSpec((3, 2))
    w = DenseWeights([np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])],
                     [np.array([0.5, -0.5])])
    mask = [np.array([[True, False, True], [False, False, False]])]
    logits = forward(spec, w, mask, np.array([[1.0, 1.0, 1.0]]))
    np.testing.assert_allclose(logits, [[1.0 + 3.0 + 0.5, -0.5]])


def test_forward_shape_errors():
    spec = ModelSpec((4, 3, 2))
    w = xavier_init(spec, 0)
    mask = full_mask(spec)
    with pytest.raises(ShapeMismatchError):
        forward(spec, w, mask, np.zeros((5, 7)))
    bad = full_mask(spec)
    bad[1] = np.ones((2, 9), dtype=bool)
    with pytest.raises(ShapeMismatchError):
        forward(spec, w, bad, np.zeros((5, 4)))
    short = DenseWeights([w.weights[0]], [w.biases[0]])
    with pytest.raises((ShapeMismatchError, ValueError)):
        forward(spec, short, mask, np.zeros((5, 4)))


def test_gradients_match_finite_differences():
    # central differences on every parameter of a few random small nets
    h = 1e-4
    for seed in range(5):
        rng = np.random.default_rng(seed)
        spec = ModelSpec((4, 5, 3))
        w = xavier_init(spec, seed)
        mask = [rng.random(s) < 0.8 for s in spec.shapes]
        x = rng.random((12, 4))
        y = rng.integers(0, 3, size=12)
        loss, gw, gb = loss_and_grads(spec, w, mask, x, y)

        def loss_at(weights):
            l, _, _ = loss_and_grads(spec, weights, mask, x, y)
            return l

        for i in range(spec.n_layers):
            for idx in np.ndindex(w.weights[i].shape):
                wp = w.copy()
                wp.weights[i][idx] += h
                wm = w.copy()
                wm.weights[i][idx] -= h
                num = (loss_at(wp) - loss_at(wm)) / (2 * h)
                if not mask[i][idx]:
                    assert gw[i][idx] == 0.0
                    continue
                assert abs(num - gw[i][idx]) <= 1e-4 * max(1.0, abs(num))
            for j in range(len(w.biases[i])):
                wp = w.copy()
                wp.biases[i][j] += h
                wm = w.copy()
                wm.biases[i][j] -= h
                num = (loss_at(wp) - loss_at(wm)) / (2 * h)
                assert abs(num - gb[i][j]) <= 1e-4 * max(1.0, abs(num))


def test_as_floats_gives_the_bits_of_p_over_255():
    # every pixel value, as integer views: float64 must give p / 255.0 and
    # float32 its float32 cast, under value-based casting and under NEP 50
    pixels = np.arange(256, dtype=np.uint8)
    want64 = np.array([p / 255.0 for p in range(256)], dtype=np.float64)
    want32 = np.array([np.float32(p / 255.0) for p in range(256)], dtype=np.float32)
    got64 = as_floats(pixels, np.float64)
    got32 = as_floats(pixels.reshape(16, 16), np.float32)
    assert got64.dtype == np.float64 and got32.dtype == np.float32
    np.testing.assert_array_equal(got64.view(np.uint64), want64.view(np.uint64))
    np.testing.assert_array_equal(got32.ravel().view(np.uint32), want32.view(np.uint32))
    # float features are cast, not scaled
    x = np.random.default_rng(0).random((3, 4))
    assert as_floats(x, np.float64) is x
    np.testing.assert_array_equal(as_floats(x, np.float32), x.astype(np.float32))


def test_uint8_batches_give_the_results_of_their_floats():
    spec = ModelSpec((6, 8, 3))
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, size=(64, 6)).astype(np.uint8)
    floats = pixels / 255.0
    y = rng.integers(0, 3, size=64)
    init = xavier_init(spec, 6)
    mask = [rng.random(s) < 0.7 for s in spec.shapes]
    np.testing.assert_array_equal(forward(spec, init, mask, pixels),
                                  forward(spec, init, mask, floats))
    loss_p, gw_p, gb_p = loss_and_grads(spec, init, mask, pixels, y)
    loss_f, gw_f, gb_f = loss_and_grads(spec, init, mask, floats, y)
    assert loss_p == loss_f
    for gp, gf in zip(gw_p + gb_p, gw_f + gb_f):
        np.testing.assert_array_equal(gp, gf)
    cfg = TrainConfig(epochs=3, batch_size=16, lr_initial=0.1, seed=1)
    a = train_masked(spec, init, mask, (pixels, y), cfg)
    b = train_masked(spec, init, mask, (floats, y), cfg)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(wa.view(np.uint64), wb.view(np.uint64))
    assert evaluate(spec, a, mask, pixels, y) == evaluate(spec, b, mask, floats, y)


def test_masked_weights_frozen_bit_identical():
    spec = ModelSpec((6, 8, 3))
    x, y = small_problem(3)
    init = xavier_init(spec, 7)
    rng = np.random.default_rng(5)
    mask = [rng.random(s) < 0.5 for s in spec.shapes]
    cfg = TrainConfig(epochs=4, batch_size=16, lr_initial=0.1, seed=2)
    out = train_masked(spec, init, mask, (x, y), cfg)
    for i in range(spec.n_layers):
        frozen = ~mask[i]
        np.testing.assert_array_equal(out.weights[i][frozen], init.weights[i][frozen])
        assert not np.array_equal(out.weights[i][mask[i]], init.weights[i][mask[i]])


def test_train_returns_float32_values_in_mask_and_input_outside():
    # SGD runs on a float32 copy: trained entries are float32 values, frozen
    # entries come back with the input's exact bits
    spec = ModelSpec((6, 8, 3))
    x, y = small_problem(4)
    init = xavier_init(spec, 3)
    rng = np.random.default_rng(8)
    mask = [rng.random(s) < 0.5 for s in spec.shapes]
    cfg = TrainConfig(epochs=5, batch_size=16, lr_initial=0.1, seed=4)
    out = train_masked(spec, init, mask, (x, y), cfg)
    for i in range(spec.n_layers):
        w = out.weights[i]
        assert w.dtype == np.float64 and out.biases[i].dtype == np.float64
        np.testing.assert_array_equal(w[mask[i]].astype(np.float32), w[mask[i]])
        np.testing.assert_array_equal(out.biases[i].astype(np.float32), out.biases[i])
        np.testing.assert_array_equal(w[~mask[i]].view(np.uint64),
                                      init.weights[i][~mask[i]].view(np.uint64))


@pytest.mark.parametrize("case", ["uint8", "float", "three layers", "empty row"])
def test_train_matches_the_reference_step_bit_for_bit(case):
    # 70 rows in batches of 16 end each epoch on a partial minibatch of 6
    rng = np.random.default_rng(11)
    spec = ModelSpec((12, 9, 7, 4) if case == "three layers" else (12, 9, 4))
    x = rng.integers(0, 256, size=(70, 12)).astype(np.uint8)
    if case != "uint8":
        x = x / 255.0 + rng.normal(0, 0.1, x.shape)
    y = rng.integers(0, 4, size=70)
    init = xavier_init(spec, 11)
    for b in init.biases:
        b[:] = rng.normal(0, 0.2, b.shape)
    mask = [rng.random(s) < 0.6 for s in spec.shapes]
    if case == "empty row":
        mask[0][3] = False
    cfg = TrainConfig(epochs=3, batch_size=16, lr_initial=0.2, lr_decay=0.7, seed=5)
    got = train_masked(spec, init, mask, (x, y), cfg)
    want = reference_train(spec, init, mask, (x, y), cfg)
    for g, w in zip(got.weights + got.biases, want.weights + want.biases):
        assert g.dtype == np.float64 and g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.uint64),
                                      w.astype(np.float64).view(np.uint64))


def test_loss_and_grads_compute_in_the_weights_dtype():
    spec = ModelSpec((6, 8, 3))
    x, y = small_problem(5)
    w64 = xavier_init(spec, 5)
    w32 = DenseWeights(w64.weights, w64.biases, dtype=np.float32)
    rng = np.random.default_rng(9)
    mask = [rng.random(s) < 0.7 for s in spec.shapes]
    loss64, gw64, gb64 = loss_and_grads(spec, w64, mask, x, y)
    loss32, gw32, gb32 = loss_and_grads(spec, w32, mask, x.astype(np.float32), y)
    assert np.asarray(loss32).dtype == np.float32
    assert abs(float(loss32) - float(loss64)) <= 1e-5 * max(1.0, abs(float(loss64)))
    for g32, g64 in zip(gw32 + gb32, gw64 + gb64):
        assert g32.dtype == np.float32
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-6)
    for i in range(spec.n_layers):
        assert (gw32[i][~mask[i]] == 0).all()


def test_train_epochs_zero_is_identity():
    spec = ModelSpec((5, 4, 2))
    x, y = small_problem(1, dim=5, classes=2)
    init = xavier_init(spec, 1)
    out = train_masked(spec, init, full_mask(spec), (x, y),
                       TrainConfig(epochs=0, seed=0))
    for wi, wo in zip(init.weights, out.weights):
        np.testing.assert_array_equal(wi, wo)
    assert out is not init


def test_train_deterministic():
    spec = ModelSpec((6, 5, 3))
    x, y = small_problem(9)
    init = xavier_init(spec, 2)
    cfg = TrainConfig(epochs=3, batch_size=8, lr_initial=0.05, seed=13)
    a = train_masked(spec, init.copy(), full_mask(spec), (x, y), cfg)
    b = train_masked(spec, init.copy(), full_mask(spec), (x, y), cfg)
    acc_a = evaluate(spec, a, full_mask(spec), x, y)
    acc_b = evaluate(spec, b, full_mask(spec), x, y)
    assert acc_a == acc_b
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_train_learns_separable_data():
    rng = np.random.default_rng(0)
    x0 = rng.normal(0.2, 0.05, size=(40, 4))
    x1 = rng.normal(0.8, 0.05, size=(40, 4))
    x = np.vstack([x0, x1])
    y = np.array([0] * 40 + [1] * 40)
    spec = ModelSpec((4, 6, 2))
    out = train_masked(spec, xavier_init(spec, 0), full_mask(spec),
                       (x, y), TrainConfig(epochs=40, lr_initial=0.5,
                                           batch_size=16, seed=1))
    train_acc = evaluate(spec, out, full_mask(spec), x, y)
    assert train_acc >= 0.99


def test_degenerate_mask_warns():
    spec = ModelSpec((4, 3, 2))
    x, y = small_problem(2, dim=4, classes=2)
    mask = full_mask(spec)
    mask[0] = np.zeros_like(mask[0])
    with pytest.warns(DegenerateMaskWarning):
        train_masked(spec, xavier_init(spec, 0), mask, (x, y),
                     TrainConfig(epochs=1, seed=0))


def test_evaluate_tie_goes_to_lowest_class():
    spec = ModelSpec((3, 2))
    w = DenseWeights([np.zeros((2, 3))], [np.zeros(2)])
    x = np.ones((4, 3))
    assert evaluate(spec, w, full_mask(spec), x, np.zeros(4)) == 1.0
    assert evaluate(spec, w, full_mask(spec), x, np.ones(4)) == 0.0


def test_evaluate_empty_batch_errors():
    spec = ModelSpec((3, 2))
    w = xavier_init(spec, 0)
    with pytest.raises(ValueError):
        evaluate(spec, w, full_mask(spec), np.zeros((0, 3)), np.zeros(0))


@pytest.mark.parametrize("use", ["evaluate", "train_masked"])
def test_evaluate_refuses_labels_that_are_not_one_per_row(use):
    # (n, 1) labels once broadcast into an n x n comparison and gave a wrong
    # accuracy, or trained different weights; surplus labels past the batch
    # would go unread. The train_masked cases fail on the parent
    spec = ModelSpec((3, 2))
    w = xavier_init(spec, 0)
    x = np.random.default_rng(0).random((5, 3))
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    for labels in (np.zeros((5, 1)), np.zeros(6), np.zeros(4), np.zeros((1, 5)),
                   np.int64(0)):
        with pytest.raises(ShapeMismatchError) as info:
            if use == "evaluate":
                evaluate(spec, w, full_mask(spec), x, labels)
            else:
                train_masked(spec, w, full_mask(spec), (x, labels.astype(int)), cfg)
        assert info.value.what == "labels"
        assert info.value.got == np.shape(labels)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
# one row; one block, a row short of it and a row past it; three blocks and a
# partial one; and longer splits of many blocks, with and without a partial
# last one
@pytest.mark.parametrize("n", [1, network._EVAL_ROWS - 1, network._EVAL_ROWS,
                               network._EVAL_ROWS + 1, 3 * network._EVAL_ROWS + 7,
                               511, 512, 513, 1543])
def test_evaluate_in_blocks_equals_one_pass(n, dtype):
    spec = ModelSpec((20, 16, 5))
    rng = np.random.default_rng(n)
    x = rng.integers(0, 256, size=(n, 20)).astype(dtype)
    if dtype == np.float64:
        x /= 255.0
    y = rng.integers(0, 5, size=n)
    w = xavier_init(spec, n)
    mask = [rng.random(s) < 0.6 for s in spec.shapes]
    want = np.mean(np.argmax(forward(spec, w, mask, x), axis=1) == y)
    assert evaluate(spec, w, mask, x, y) == want


def test_evaluate_holds_one_block_of_floats():
    # a whole 4096-row split as float64 would be 25.7 MB on its own
    import tracemalloc

    spec = ModelSpec((784, 100, 10))
    rng = np.random.default_rng(2)
    x = rng.integers(0, 256, size=(4096, 784), dtype=np.uint8)
    y = rng.integers(0, 10, size=4096)
    w = xavier_init(spec, 2)
    mask = full_mask(spec)
    tracemalloc.start()
    try:
        evaluate(spec, w, mask, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 weight copy is 0.6 MB and a 64-row block 0.4 MB
    assert peak < 2 * 2**20


def test_lr_schedule():
    cfg = TrainConfig(lr_initial=0.1, lr_decay=0.5, lr_floor=0.02)
    assert cfg.lr_at(0) == 0.1
    assert cfg.lr_at(1) == 0.05
    assert cfg.lr_at(2) == 0.025
    assert cfg.lr_at(3) == 0.02
    assert cfg.lr_at(50) == 0.02


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=0.0001, lr_floor=0.01)
