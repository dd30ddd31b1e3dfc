import struct
import tracemalloc

import numpy as np
import pytest
from helpers import lstsq_accuracy

from subnetpack.errors import IdxFormatError
from subnetpack.network import as_floats
from subnetpack.scenario import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, TaskData,
                                 load_idx, make_digit_images,
                                 permuted_scenario, save_idx, split_scenario,
                                 synthetic_blobs, write_digit_idx, _val_mask)
from subnetpack.seeding import derive_seed


def write_pair(tmp_path, img_bytes, lbl_bytes):
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lbl.idx"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lbl_bytes)
    return str(ip), str(lp)


def good_pair(tmp_path):
    img = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(
        [0, 128, 255, 64, 10, 20, 30, 40])
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes([3, 7])
    return write_pair(tmp_path, img, lbl)


def test_load_idx_hand_crafted(tmp_path):
    features, labels = load_idx(*good_pair(tmp_path))
    assert features.shape == (2, 4)
    assert features.dtype == np.uint8 and features.flags.writeable
    np.testing.assert_array_equal(features, [[0, 128, 255, 64], [10, 20, 30, 40]])
    np.testing.assert_array_equal(labels, [3, 7])
    scaled = as_floats(features, np.float64)
    np.testing.assert_allclose(
        scaled[0], [0.0, 128 / 255.0, 1.0, 64 / 255.0], rtol=0, atol=0)
    assert scaled[0, 2] == 1.0


def test_load_idx_bad_magic(tmp_path):
    img = struct.pack(">IIII", IDX_LABELS_MAGIC, 2, 2, 2) + bytes(8)
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes(2)
    ip, lp = write_pair(tmp_path, img, lbl)
    with pytest.raises(IdxFormatError) as err:
        load_idx(ip, lp)
    assert err.value.offset == 0
    assert "0x00000803" in str(err.value)


def test_load_idx_empty_file(tmp_path):
    ip, lp = write_pair(tmp_path, b"", b"")
    with pytest.raises(IdxFormatError) as err:
        load_idx(ip, lp)
    assert err.value.offset == 0


def test_load_idx_truncated_pixels(tmp_path):
    img = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(5)
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes(2)
    ip, lp = write_pair(tmp_path, img, lbl)
    with pytest.raises(IdxFormatError) as err:
        load_idx(ip, lp)
    assert err.value.offset == 21  # actual file length


def test_load_idx_trailing_bytes(tmp_path):
    img = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(11)
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes(2)
    ip, lp = write_pair(tmp_path, img, lbl)
    with pytest.raises(IdxFormatError) as err:
        load_idx(ip, lp)
    assert err.value.offset == 24  # expected end of payload
    assert "trailing" in str(err.value)


def test_load_idx_header_sizes_past_int64_read_as_truncated(tmp_path):
    # the sizes multiply to 2^80 bytes: a Python int product, never an int64
    # overflow or an allocation of that size
    img = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**32 - 1, 2**32 - 1, 2**16) + bytes(8)
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes(2)
    ip, lp = write_pair(tmp_path, img, lbl)
    with pytest.raises(IdxFormatError, match="truncated") as err:
        load_idx(ip, lp)
    assert err.value.offset == 24  # actual file length


def test_load_idx_count_mismatch(tmp_path):
    img = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(8)
    lbl = struct.pack(">II", IDX_LABELS_MAGIC, 3) + bytes(3)
    ip, lp = write_pair(tmp_path, img, lbl)
    with pytest.raises(IdxFormatError) as err:
        load_idx(ip, lp)
    assert err.value.offset == 4
    assert "2" in str(err.value) and "3" in str(err.value)


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    # grid of representable levels so the uint8 round trip is exact
    features = rng.integers(0, 256, size=(7, 16)).astype(np.float64) / 255.0
    labels = rng.integers(0, 10, size=7)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    save_idx(ip, lp, features, labels)
    back_x, back_y = load_idx(ip, lp)
    np.testing.assert_array_equal(back_x, np.round(features * 255))
    np.testing.assert_array_equal(as_floats(back_x, np.float64), features)
    np.testing.assert_array_equal(back_y, labels)
    # uint8 pixels are written as they are
    save_idx(ip, lp, back_x, back_y)
    again_x, _ = load_idx(ip, lp)
    np.testing.assert_array_equal(again_x, back_x)


def test_save_idx_validation(tmp_path):
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    with pytest.raises(ValueError):
        save_idx(ip, lp, np.full((2, 4), 1.5), np.zeros(2))
    with pytest.raises(ValueError):
        save_idx(ip, lp, np.zeros((2, 6)), np.zeros(2))  # non-square, no dims
    save_idx(ip, lp, np.zeros((2, 6)), np.zeros(2), rows=2, cols=3)
    x, y = load_idx(ip, lp)
    assert x.shape == (2, 6)
    # what load_idx would refuse or misread is refused before a file opens:
    # labels 259 and -1 would read back wrapped to 3 and 255
    pixels = np.zeros((2, 4), np.uint8)
    for name, feats, labels, dims in (
            ("label above 255", pixels, [3, 259], {}),
            ("negative label", pixels, [3, -1], {}),
            ("fractional label", pixels, [3, 0.5], {}),
            ("nan label", pixels, [3, np.nan], {}),
            ("text labels", pixels, ["3", "1"], {}),
            ("three labels for two images", pixels, [0, 1, 2], {}),
            ("2-d labels", pixels, [[0, 1]], {}),
            ("1-d features", np.zeros(4, np.uint8), [0], {}),
            ("3-d features", np.zeros((2, 2, 2), np.uint8), [0, 1], {}),
            ("rows * cols above the width", np.zeros((2, 6)), [0, 1], dict(rows=2, cols=4)),
            ("rows * cols below the width", np.zeros((2, 6)), [0, 1], dict(rows=1, cols=5)),
            ("negative rows and cols", np.zeros((2, 6)), [0, 1], dict(rows=-2, cols=-3)),
            ("float rows and cols", np.zeros((2, 6)), [0, 1], dict(rows=2.0, cols=3.0)),
            ("nan features", np.full((2, 4), np.nan), [0, 1], {})):
        missing = tmp_path / "missing"
        with pytest.raises(ValueError):
            save_idx(str(missing / "i.idx"), str(missing / "l.idx"), feats, labels, **dims)
            pytest.fail(f"accepted: {name}")


@pytest.mark.parametrize("features, labels, dims", [
    (np.arange(12, dtype=np.uint8).reshape(3, 4), [0, 255, 7], {}),
    (np.arange(12, dtype=np.uint8).reshape(2, 6), np.array([1, 2], np.uint8),
     dict(rows=2, cols=3)),
    (np.array([[0.0, 1.0, 0.5, 0.25]]), np.array([9.0]), {}),
    (np.zeros((0, 9), np.uint8), [], {}),
])
def test_what_save_idx_accepts_load_idx_returns(tmp_path, features, labels, dims):
    # pixels at the nearest of the 256 levels, labels as integers
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    save_idx(ip, lp, features, labels, **dims)
    x, y = load_idx(ip, lp)
    features = np.asarray(features)
    want = features if features.dtype == np.uint8 else np.round(features * 255.0)
    np.testing.assert_array_equal(x, want)
    assert x.shape == features.shape and x.dtype == np.uint8
    np.testing.assert_array_equal(y, np.asarray(labels, dtype=np.int64))
    assert y.shape == (len(features),)


def tiny_base(classes=3, dim=9, per_class=8, seed=0):
    rng = np.random.default_rng(seed)
    n = classes * per_class
    x = rng.random((n, dim))
    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    order = rng.permutation(n)
    return x[order], y[order]


def test_permuted_scenario_task0_identity():
    train = tiny_base(seed=1)
    test = tiny_base(per_class=4, seed=2)
    suite = permuted_scenario(train, test, n_tasks=3, seed=5)
    assert suite.descriptors[0] is None
    task0 = suite.get_task(0)
    np.testing.assert_array_equal(task0.x_test, test[0])
    np.testing.assert_array_equal(task0.y_test, test[1])
    assert "task.0.permutation=identity" in suite.manifest_text()


def test_permuted_scenario_applies_descriptor():
    train = tiny_base(seed=1)
    test = tiny_base(per_class=4, seed=2)
    suite = permuted_scenario(train, test, n_tasks=3, seed=5)
    perm = suite.descriptors[1]
    task1 = suite.get_task(1)
    np.testing.assert_array_equal(task1.x_test, test[0][:, perm])
    # a permutation preserves each row's multiset of pixel values
    np.testing.assert_array_equal(np.sort(task1.x_test, axis=1),
                                  np.sort(test[0], axis=1))
    assert not np.array_equal(suite.descriptors[1], suite.descriptors[2])


def test_permuted_scenario_deterministic():
    train = tiny_base(seed=1)
    test = tiny_base(per_class=4, seed=2)
    a = permuted_scenario(train, test, 4, seed=9)
    b = permuted_scenario(train, test, 4, seed=9)
    for da, db in zip(a.descriptors[1:], b.descriptors[1:]):
        np.testing.assert_array_equal(da, db)
    ta, tb = a.get_task(2), b.get_task(2)
    np.testing.assert_array_equal(ta.x_train, tb.x_train)
    np.testing.assert_array_equal(ta.y_val, tb.y_val)


def test_get_task_bounds():
    train = tiny_base()
    suite = permuted_scenario(train, tiny_base(seed=3), 2, seed=0)
    with pytest.raises(IndexError):
        suite.get_task(2)
    with pytest.raises(IndexError):
        suite.get_task(-1)


def test_test_split_matches_get_task_bit_for_bit():
    train = tiny_base(classes=4, per_class=10, seed=1)
    test = tiny_base(classes=4, per_class=4, seed=2)
    cases = [
        (permuted_scenario(train, test, n_tasks=3, seed=5), (0, 2)),
        (split_scenario(train, test, classes_per_task=2, seed=1), (0, 1)),
        (synthetic_blobs(2, 3, 6, 20, 6.0, seed=3), (0, 1)),
    ]
    for suite, tasks in cases:
        for i in tasks:
            task = suite.get_task(i)
            x_test, y_test = suite.test_split(i)
            for got, want in ((x_test, task.x_test), (y_test, task.y_test)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (suite.kind, i)
        with pytest.raises(IndexError):
            suite.test_split(suite.n_tasks)


def test_split_scenario_partitions_classes():
    train = tiny_base(classes=5, per_class=10, seed=4)
    test = tiny_base(classes=5, per_class=4, seed=6)
    with pytest.warns(UserWarning, match="dropping 1"):
        suite = split_scenario(train, test, classes_per_task=2, seed=1)
    assert suite.n_tasks == 2
    groups = [set(d) for d in suite.descriptors]
    assert groups[0].isdisjoint(groups[1])
    assert all(len(g) == 2 for g in groups)
    for i in range(2):
        task = suite.get_task(i)
        assert task.n_classes == 2
        assert set(np.unique(task.y_test)) <= {0, 1}
        # sample counts survive the relabeling
        original = sum(int((train[1] == c).sum()) for c in suite.descriptors[i])
        assert len(task.y_train) + len(task.y_val) == original


def test_split_scenario_too_many_classes():
    train = tiny_base(classes=3)
    with pytest.raises(ValueError):
        split_scenario(train, tiny_base(classes=3, seed=7), 4, seed=0)


def test_blobs_separable_by_linear_oracle():
    # frozen: least squares reaches 1.0 on every task at separation 8
    suite = synthetic_blobs(n_tasks=3, classes=4, dim=12, samples=80,
                            separation=8.0, seed=11)
    for i in range(3):
        task = suite.get_task(i)
        acc = lstsq_accuracy(task.x_train, task.y_train,
                             task.x_test, task.y_test, 4)
        assert acc == 1.0


def test_blobs_shapes_and_range():
    suite = synthetic_blobs(n_tasks=2, classes=4, dim=12, samples=80,
                            separation=8.0, seed=11)
    task = suite.get_task(0)
    assert task.x_test.shape == (4 * 20, 12)  # test split is samples // 4
    assert len(task.y_train) + len(task.y_val) == 4 * 80
    full = np.concatenate([task.x_train, task.x_val, task.x_test])
    assert full.min() >= 0.0 and full.max() <= 1.0
    assert full.min() == 0.0 and full.max() == 1.0  # min-max scaled jointly


def test_blobs_deterministic_and_task_varied():
    a = synthetic_blobs(2, 3, 6, 20, 6.0, seed=3)
    b = synthetic_blobs(2, 3, 6, 20, 6.0, seed=3)
    ta, tb = a.get_task(1), b.get_task(1)
    np.testing.assert_array_equal(ta.x_train, tb.x_train)
    np.testing.assert_array_equal(ta.y_test, tb.y_test)
    assert not np.array_equal(a.get_task(0).x_train, ta.x_train)


def test_blobs_validation():
    with pytest.raises(ValueError):
        synthetic_blobs(2, 3, 6, 20, 0.0, seed=0)
    with pytest.raises(ValueError):
        synthetic_blobs(0, 3, 6, 20, 5.0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        synthetic_blobs(1, 3, 6, 0, 5.0, seed=0)  # refused before a task is drawn


def test_blobs_impossible_placement():
    with pytest.raises(ValueError, match="could not place"):
        synthetic_blobs(1, 40, 1, 5, 50.0, seed=0)


def test_stratified_val_split_counts():
    rng = np.random.default_rng(0)
    x = rng.random((16, 3))
    y = np.array([0] * 10 + [1] * 5 + [2], dtype=np.int64)
    val = _val_mask(y, 0.2, np.random.default_rng(1))
    xtr, ytr, xv, yv = x[~val], y[~val], x[val], y[val]
    assert sorted(yv.tolist()) == [0, 0, 1]  # floor(2.0), max(1, floor(1.0)), skip
    assert len(ytr) == 13
    # the split is a partition of the input rows
    joined = np.concatenate([xtr, xv])
    assert joined.shape == x.shape
    np.testing.assert_array_equal(
        np.sort(joined.ravel()), np.sort(x.ravel()))


def test_task_data_validation():
    x = np.zeros((4, 3))
    y = np.zeros(4, dtype=np.int64)
    TaskData(0, 2, x, y, x, y, x, y)
    with pytest.raises(ValueError):
        TaskData(0, 2, x, np.zeros(3, dtype=np.int64), x, y, x, y)
    with pytest.raises(ValueError):
        TaskData(0, 2, x, y, np.zeros((2, 5)), np.zeros(2, dtype=np.int64), x, y)
    with pytest.raises(ValueError):
        TaskData(0, 2, x, np.full(4, 2, dtype=np.int64), x, y, x, y)


def test_digit_images_deterministic_and_balanced():
    a_img, a_lbl = make_digit_images(1000, seed=42)
    b_img, b_lbl = make_digit_images(1000, seed=42)
    np.testing.assert_array_equal(a_img, b_img)
    np.testing.assert_array_equal(a_lbl, b_lbl)
    assert a_img.dtype == np.uint8
    assert a_img.shape == (1000, 28, 28)
    counts = np.bincount(a_lbl, minlength=10)
    assert counts.min() >= 60 and counts.max() <= 140
    c_img, _ = make_digit_images(1000, seed=43)
    assert not np.array_equal(a_img, c_img)


def test_digit_images_content_varies_within_class():
    img, lbl = make_digit_images(200, seed=0)
    rows = np.flatnonzero(lbl == 3)[:2]
    assert not np.array_equal(img[rows[0]], img[rows[1]])


def test_write_digit_idx_round_trip(tmp_path):
    paths = write_digit_idx(str(tmp_path), n_train=50, n_test=20, seed=7)
    xtr, ytr = load_idx(paths["train_images"], paths["train_labels"])
    xte, yte = load_idx(paths["test_images"], paths["test_labels"])
    assert xtr.shape == (50, 784)
    assert xte.shape == (20, 784)
    assert set(np.unique(np.concatenate([ytr, yte]))) <= set(range(10))
    # train and test streams are independent draws
    assert not np.array_equal(xtr[:20], xte)


def test_write_digit_idx_matches_the_float_path(tmp_path):
    # write_digit_idx used to write its images as p / 255.0 floats, which
    # save_idx rounds back to p; writing the uint8 images must give the
    # same bytes
    seed, counts = 7, {"train": 50, "test": 20}
    paths = write_digit_idx(str(tmp_path / "new"), n_train=counts["train"],
                            n_test=counts["test"], seed=seed)
    (tmp_path / "old").mkdir()
    for tag, stream in (("train", 1), ("test", 2)):
        n = counts[tag]
        images, labels = make_digit_images(n, derive_seed(seed, 0x5EED, stream))
        old = (str(tmp_path / "old" / "img.idx"), str(tmp_path / "old" / "lbl.idx"))
        save_idx(*old, images.reshape(n, 784).astype(np.float64) / 255.0, labels)
        for path, ref in zip((paths[f"{tag}_images"], paths[f"{tag}_labels"]), old):
            with open(path, "rb") as got, open(ref, "rb") as want:
                assert got.read() == want.read(), path


@pytest.fixture(scope="module")
def digits(tmp_path_factory):
    """600/200 procedural digits as load_idx returns them."""
    p = write_digit_idx(str(tmp_path_factory.mktemp("digits")),
                        n_train=600, n_test=200, seed=0)
    return (load_idx(p["train_images"], p["train_labels"]),
            load_idx(p["test_images"], p["test_labels"]))


def test_image_suites_keep_uint8_pixels(digits):
    train, test = digits
    # the old way: p / 255.0 at load, then the same selection and split rng
    as_old = [(x.astype(np.float64) / 255.0, y) for x, y in (train, test)]
    cases = [
        (permuted_scenario(train, test, 3, seed=5),
         permuted_scenario(*as_old, 3, seed=5)),
        (split_scenario(train, test, 5, seed=1),
         split_scenario(*as_old, 5, seed=1)),
    ]
    for suite, ref in cases:
        for i in range(suite.n_tasks):
            task, want = suite.get_task(i), ref.get_task(i)
            x_test, _ = suite.test_split(i)
            for got, old in ((task.x_train, want.x_train), (task.x_val, want.x_val),
                             (task.x_test, want.x_test), (x_test, want.x_test)):
                assert got.dtype == np.uint8 and old.dtype == np.float64
                np.testing.assert_array_equal(
                    as_floats(got, np.float64).view(np.uint64), old.view(np.uint64))
            for got, old in ((task.y_train, want.y_train), (task.y_val, want.y_val),
                             (task.y_test, want.y_test)):
                np.testing.assert_array_equal(got, old)


def test_synthetic_suites_stay_float64():
    suite = synthetic_blobs(2, 3, 6, 20, 6.0, seed=3)
    task = suite.get_task(1)
    x_test, _ = suite.test_split(1)
    for x in (task.x_train, task.x_val, task.x_test, x_test):
        assert x.dtype == np.float64


def test_get_task_peaks_below_one_float64_copy(digits):
    # a task's pixels take 1 byte each; float64 features held 8, and the
    # selection plus split copies peaked near 16 bytes per task pixel
    train, test = digits
    suite = permuted_scenario(train, test, 2, seed=0)
    task_pixels = (len(train[1]) + len(test[1])) * 784
    tracemalloc.start()
    try:
        suite.get_task(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * task_pixels
