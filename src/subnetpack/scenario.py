"""Task scenarios and data ingestion.

Three scenario kinds share one suite shape: pixel-permutation tasks over a
base image dataset, class-split tasks, and synthetic Gaussian blobs. Image
data enters through IDX files (big-endian magic, dimension sizes, uint8
payload), and its tasks keep the uint8 pixels; the network turns a batch into
floats when it reads it. A procedural digit-glyph generator can emit IDX files
with the same geometry as handwritten-digit sets for machines without the real
data.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IdxFormatError
from .seeding import derive_seed, rng_from

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# rng stream tags within a suite seed
_TAG_PERM = 1
_TAG_SPLIT = 2
_TAG_VAL = 3
_TAG_BLOBS = 4

_GATHER_ROWS = 512  # rows per permuting gather: bounds its scratch copy


@dataclass
class TaskData:
    """One task's splits; labels are class indices.

    Features are uint8 pixels for image scenarios (IDX bytes as read) and
    float64 reals in [0, 1] for synthetic ones; `network.as_floats` turns
    either into floats.
    """

    task_id: int
    n_classes: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        dim = self.x_train.shape[1]
        for x, y, name in ((self.x_train, self.y_train, "train"),
                           (self.x_val, self.y_val, "val"),
                           (self.x_test, self.y_test, "test")):
            if x.ndim != 2 or x.shape[1] != dim:
                raise ValueError(f"{name} features must be 2-D with {dim} columns")
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"{name} features and labels disagree on sample count")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(f"{name} labels outside [0, {self.n_classes})")


@dataclass
class ScenarioSuite:
    """Ordered task list built lazily from a base dataset plus descriptors.

    Descriptors are per-task: a pixel permutation (permuted), a class-id tuple
    (split), or a task seed (synthetic). get_task materializes TaskData on
    demand so only the tasks in use hold tensors: a run holds its current
    task and, while that finishes, the next. test_split builds only a
    task's test arrays, for re-evaluating past tasks; synthetic tasks draw
    train and test from one rng stream, so there it draws the whole task.
    """

    kind: str
    seed: int
    n_tasks: int
    input_dim: int
    n_classes: int
    descriptors: list = field(default_factory=list)
    _train: tuple | None = None
    _test: tuple | None = None
    _blob_params: dict | None = None

    def get_task(self, i: int) -> TaskData:
        self._check_index(i)
        rng = rng_from(self.seed, i, _TAG_VAL)
        if self.kind == "synthetic":
            x_train, y_train, x_test, y_test = self._blobs(i)
            xtr, ytr, xv, yv = stratified_val_split(x_train, y_train, 0.1, rng)
        else:
            # validation rows come from the labels alone, so each split's
            # pixels are gathered once, never as a whole permuted train set
            x, y = self._train
            rows, y = self._rows(i, y)
            val = _val_mask(y, 0.1, rng)
            xtr, ytr = self._pixels(i, x, rows[~val]), y[~val]
            xv, yv = self._pixels(i, x, rows[val]), y[val]
            x_test, y_test = self.test_split(i)
        return TaskData(i, self.n_classes, xtr, ytr, xv, yv, x_test, y_test)

    def test_split(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Task i's (x_test, y_test), equal to get_task(i)'s test arrays."""
        self._check_index(i)
        if self.kind == "synthetic":
            # train and test come from one rng stream: draw them both
            _, _, x_test, y_test = self._blobs(i)
            return x_test, y_test
        x, y = self._test
        rows, y = self._rows(i, y)
        return self._pixels(i, x, rows), y

    def _check_index(self, i):
        if not (0 <= i < self.n_tasks):
            raise IndexError(f"task {i} outside [0, {self.n_tasks})")

    def _rows(self, i, y):
        """Task i's rows of a base split, and their labels: relabelled classes."""
        d = self.descriptors[i]
        if self.kind == "permuted":
            return np.arange(len(y)), y.copy()
        keep = np.flatnonzero(np.isin(y, d))
        relabel = {c: j for j, c in enumerate(d)}
        return keep, np.array([relabel[int(c)] for c in y[keep]], dtype=np.int64)

    def _pixels(self, i, x, rows):
        """Base features x at `rows`, in task i's pixel order."""
        d = self.descriptors[i]
        if self.kind != "permuted" or d is None:
            return x[rows]
        out = np.empty((len(rows), x.shape[1]), dtype=x.dtype)
        for start in range(0, len(rows), _GATHER_ROWS):
            np.take(x[rows[start:start + _GATHER_ROWS]], d, axis=1,
                    out=out[start:start + _GATHER_ROWS])
        return out

    def _blobs(self, i):
        p = self._blob_params
        return _make_blobs(self.n_classes, p["dim"], p["samples"], p["separation"],
                           rng_from(self.seed, i, _TAG_BLOBS))

    def manifest_text(self) -> str:
        lines = [
            f"kind={self.kind}",
            f"seed={self.seed}",
            f"n_tasks={self.n_tasks}",
            f"input_dim={self.input_dim}",
            f"classes={self.n_classes}",
        ]
        for i, d in enumerate(self.descriptors):
            if self.kind == "permuted":
                val = "identity" if d is None else ",".join(str(int(v)) for v in d)
                lines.append(f"task.{i}.permutation={val}")
            elif self.kind == "split":
                lines.append(f"task.{i}.classes={','.join(str(int(c)) for c in d)}")
            else:
                lines.append(f"task.{i}.generator_seed={self.seed},{i},{_TAG_BLOBS}")
        return "\n".join(lines) + "\n"


def stratified_val_split(x, y, fraction, rng):
    """Carve a per-class validation slice out of (x, y).

    Each class with at least two samples contributes max(1, floor(fraction *
    count)) validation rows, chosen by seeded shuffle within the class.
    """
    mask = _val_mask(y, fraction, rng)
    return x[~mask], y[~mask], x[mask], y[mask]


def _val_mask(y, fraction, rng) -> np.ndarray:
    """stratified_val_split's validation rows of labels y, as a bool mask."""
    val_idx = []
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        if len(rows) < 2:
            continue
        take = max(1, int(fraction * len(rows)))
        picked = rng.permutation(rows)[:take]
        val_idx.append(picked)
    val_idx = np.sort(np.concatenate(val_idx)) if val_idx else np.zeros(0, dtype=int)
    mask = np.zeros(len(y), dtype=bool)
    mask[val_idx] = True
    return mask


# -- IDX ingestion -----------------------------------------------------------

def _need(data, end, path):
    if len(data) < end:
        raise IdxFormatError(path, len(data), f"truncated: expected {end} bytes")


def _read_header(data, path, expected_magic, n_dims):
    _need(data, 4, path)
    magic = struct.unpack_from(">I", data, 0)[0]
    if magic != expected_magic:
        raise IdxFormatError(
            path, 0, f"bad magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    end = 4 + 4 * n_dims
    _need(data, end, path)
    dims = struct.unpack_from(f">{n_dims}I", data, 4)
    return dims, end


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into (uint8 pixels, int64 labels).

    The pixels are an owned (n, rows * cols) array, one byte per pixel as
    stored; `network.as_floats` scales them to [0, 1].
    """
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    (n, rows, cols), offset = _read_header(img_data, images_path, IDX_IMAGES_MAGIC, 3)
    expected = offset + n * rows * cols
    _need(img_data, expected, images_path)
    if len(img_data) != expected:
        raise IdxFormatError(images_path, expected,
                             f"{len(img_data) - expected} trailing bytes")
    pixels = np.frombuffer(img_data, dtype=np.uint8, count=n * rows * cols,
                           offset=offset)
    features = pixels.reshape(n, rows * cols).copy()

    with open(labels_path, "rb") as fh:
        lbl_data = fh.read()
    (n_lbl,), offset = _read_header(lbl_data, labels_path, IDX_LABELS_MAGIC, 1)
    expected = offset + n_lbl
    _need(lbl_data, expected, labels_path)
    if len(lbl_data) != expected:
        raise IdxFormatError(labels_path, expected,
                             f"{len(lbl_data) - expected} trailing bytes")
    labels = np.frombuffer(lbl_data, dtype=np.uint8, count=n_lbl,
                           offset=offset).astype(np.int64)

    if n != n_lbl:
        raise IdxFormatError(images_path, 4,
                             f"image count {n} != label count {n_lbl}")
    return features, labels


def save_idx(images_path, labels_path, features, labels, rows=None, cols=None):
    """Write features and labels as an IDX pair (inverse of load_idx).

    uint8 features are written as they are; other features must lie in
    [0, 1] and are rounded to the nearest of the 256 pixel levels.
    """
    features = np.asarray(features)
    if features.dtype == np.uint8:
        pixels = features
    else:
        features = features.astype(np.float64, copy=False)
        if features.min() < 0.0 or features.max() > 1.0:
            raise ValueError("features must lie in [0, 1]")
        pixels = np.round(features * 255.0).astype(np.uint8)
    n, dim = features.shape
    if rows is None or cols is None:
        side = int(round(dim**0.5))
        if side * side != dim:
            raise ValueError("non-square feature dim needs explicit rows/cols")
        rows = cols = side
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


# -- scenario constructors ---------------------------------------------------

def permuted_scenario(train, test, n_tasks, seed) -> ScenarioSuite:
    """Pixel-permutation tasks; task 0 keeps the identity ordering."""
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    x_train, _ = train
    dim = x_train.shape[1]
    descriptors = [None]
    for t in range(1, n_tasks):
        descriptors.append(rng_from(seed, t, _TAG_PERM).permutation(dim))
    n_classes = int(max(train[1].max(), test[1].max())) + 1
    return ScenarioSuite("permuted", seed, n_tasks, dim, n_classes,
                         descriptors, _train=train, _test=test)


def split_scenario(train, test, classes_per_task, seed) -> ScenarioSuite:
    """Disjoint class-group tasks over a seeded shuffle of the class ids."""
    x_train, y_train = train
    all_classes = np.unique(np.concatenate((y_train, test[1])))
    if classes_per_task > len(all_classes):
        raise ValueError(
            f"classes_per_task {classes_per_task} exceeds {len(all_classes)} classes")
    order = rng_from(seed, 0, _TAG_SPLIT).permutation(all_classes)
    n_tasks = len(all_classes) // classes_per_task
    dropped = len(all_classes) - n_tasks * classes_per_task
    if dropped:
        warnings.warn(f"dropping {dropped} leftover class(es)", stacklevel=2)
    descriptors = [
        tuple(int(c) for c in order[i * classes_per_task:(i + 1) * classes_per_task])
        for i in range(n_tasks)
    ]
    return ScenarioSuite("split", seed, n_tasks, x_train.shape[1],
                         classes_per_task, descriptors, _train=train, _test=test)


def _make_blobs(classes, dim, samples, separation, rng):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    means = []
    for _ in range(classes):
        placed = False
        for _ in range(200):
            candidate = rng.normal(0.0, separation, size=dim)
            if all(np.linalg.norm(candidate - m) >= separation for m in means):
                means.append(candidate)
                placed = True
                break
        if not placed:
            raise ValueError(
                f"could not place {classes} means at separation {separation}")
    n_test = max(1, samples // 4)
    xs, ys = [], []
    for split_n in (samples, n_test):
        x = np.concatenate([
            m + rng.normal(0.0, 1.0, size=(split_n, dim)) for m in means])
        y = np.repeat(np.arange(classes, dtype=np.int64), split_n)
        xs.append(x)
        ys.append(y)
    lo = min(x.min() for x in xs)
    hi = max(x.max() for x in xs)
    xs = [(x - lo) / (hi - lo) for x in xs]
    return xs[0], ys[0], xs[1], ys[1]


def synthetic_blobs(n_tasks, classes, dim, samples, separation, seed) -> ScenarioSuite:
    """Per-task Gaussian clusters with means at pairwise distance >= separation."""
    if separation <= 0:
        raise ValueError("separation must be > 0")
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    suite = ScenarioSuite("synthetic", seed, n_tasks, dim, classes,
                          [seed] * n_tasks,
                          _blob_params={"dim": dim, "samples": samples,
                                        "separation": separation})
    return suite


# -- procedural digit glyphs -------------------------------------------------

_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11111 00010 00100 00010 00001 10001 01110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _glyph_bank():
    """Ten 28x28 digit templates from 7x5 bitmaps, upscaled and centered."""
    bank = np.zeros((10, 28, 28))
    for d, rows in enumerate(_GLYPHS):
        bitmap = np.array([[int(ch) for ch in row] for row in rows.split()],
                          dtype=np.float64)
        big = np.kron(bitmap, np.ones((3, 4)))  # 21 x 20
        bank[d, 3:24, 4:24] = big
    return bank


def _blur_matrix(sigma, size=28):
    radius = int(np.ceil(2.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    K = np.zeros((size, size))
    for i in range(size):
        for off, w in zip(offsets, kernel):
            j = i + off
            if 0 <= j < size:
                K[i, j] += w
    return K


def make_digit_images(n, seed, noise=0.12):
    """Deterministic handwritten-digit stand-in: (uint8 images (n,28,28), labels).

    Each sample is a glyph template with a random shift of up to 3 pixels,
    random intensity, one of three blur widths, and additive noise, quantized
    to uint8.
    """
    rng = rng_from(seed, 0xD161)
    bank = _glyph_bank()
    labels = rng.integers(0, 10, size=n)
    images = bank[labels]

    dy = rng.integers(-3, 4, size=n)
    dx = rng.integers(-3, 4, size=n)
    for sy in range(-3, 4):
        for sx in range(-3, 4):
            sel = (dy == sy) & (dx == sx)
            if sel.any():
                images[sel] = np.roll(images[sel], (sy, sx), axis=(1, 2))

    images *= rng.uniform(0.55, 1.0, size=n)[:, None, None]

    blur_pick = rng.integers(0, 3, size=n)
    for b, sigma in enumerate((0.5, 0.8, 1.1)):
        sel = blur_pick == b
        if sel.any():
            K = _blur_matrix(sigma)
            images[sel] = K @ images[sel] @ K.T

    images += rng.normal(0.0, noise, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return np.round(images * 255.0).astype(np.uint8), labels.astype(np.int64)


def write_digit_idx(out_dir, n_train=24000, n_test=4000, seed=0, noise=0.12):
    """Emit train/test IDX pairs of procedural digits; returns the four paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for tag, n, stream in (("train", n_train, 1), ("test", n_test, 2)):
        images, labels = make_digit_images(n, derive_seed(seed, 0x5EED, stream), noise)
        img_path = os.path.join(out_dir, f"{tag}-images.idx")
        lbl_path = os.path.join(out_dir, f"{tag}-labels.idx")
        save_idx(img_path, lbl_path, images.reshape(n, 784), labels)
        paths[f"{tag}_images"] = img_path
        paths[f"{tag}_labels"] = lbl_path
    return paths
