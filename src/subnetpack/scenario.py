"""Task scenarios and data ingestion.

Three scenario kinds share one suite shape and one way to build a task:
pixel-permutation tasks over a base image dataset, class-split tasks, and
synthetic Gaussian blobs. Image data enters through IDX files (big-endian
magic, dimension sizes, uint8 payload), each read by `_read_idx_file`; an
image suite keeps the uint8 pixels, the network turns a batch into floats
when it reads it, and a suite with a task whose validation or test split
would be empty is refused when it is built. A procedural digit-glyph
generator can emit IDX files with the same geometry as handwritten-digit
sets for machines without the real data.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IdxFormatError
from .seeding import derive_seed, rng_from

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# rng stream tags within a suite seed
_TAG_PERM = 1
_TAG_SPLIT = 2
_TAG_VAL = 3
_TAG_BLOBS = 4

_GATHER_ROWS = 512  # rows per permuting gather: bounds its scratch copy
DIGIT_NOISE = 0.12  # pixel noise sigma of the procedural digits


@dataclass
class TaskData:
    """One task's splits; labels are class indices.

    Features are uint8 pixels for image scenarios (IDX bytes as read) and
    float64 reals in [0, 1] for synthetic ones. Training and evaluation take
    them as they are: `network.as_floats` turns one minibatch or block of
    rows at a time into floats.
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
    (split), or a task seed (synthetic). Every kind builds a task one way:
    `_base` gives the (train, test) pairs, the suite's images or the task's
    blobs, and `_rows`, `_val_mask` and `_pixels` cut the task from them.
    get_task materializes TaskData on demand; the training workers do, each
    from its own copy of the suite (see `workers`). test_split builds only a
    task's test arrays, for re-evaluating a changed past task; synthetic
    tasks draw train and test from one rng stream, so there it draws both.
    """

    kind: str
    seed: int
    n_tasks: int
    input_dim: int
    n_classes: int
    descriptors: list = field(default_factory=list)
    _train: tuple | None = None
    _test: tuple | None = None
    _blob_params: tuple | None = None  # synthetic: (dim, samples, separation)

    def get_task(self, i: int) -> TaskData:
        # validation rows come from the labels alone, so each split's
        # features are gathered once, never as a whole permuted train set
        (x, y), (x_test, y_test) = self._base(i)
        rows, y = self._rows(i, y)
        test_rows, y_test = self._rows(i, y_test)
        val = _val_mask(y, 0.1, rng_from(self.seed, i, _TAG_VAL))
        return TaskData(i, self.n_classes,
                        self._pixels(i, x, rows[~val]), y[~val],
                        self._pixels(i, x, rows[val]), y[val],
                        self._pixels(i, x_test, test_rows), y_test)

    def test_split(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Task i's (x_test, y_test), equal to get_task(i)'s test arrays."""
        x, y = self._base(i)[1]
        rows, y = self._rows(i, y)
        return self._pixels(i, x, rows), y

    def _base(self, i):
        """Task i's base ((x_train, y_train), (x_test, y_test)) pairs."""
        if not (0 <= i < self.n_tasks):
            raise IndexError(f"task {i} outside [0, {self.n_tasks})")
        if self.kind != "synthetic":
            return self._train, self._test
        return _make_blobs(self.n_classes, *self._blob_params,
                           rng_from(self.seed, i, _TAG_BLOBS))

    def _rows(self, i, y):
        """Task i's rows of a base split, and their labels: relabelled classes."""
        d = self.descriptors[i]
        if self.kind != "split":
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


def _val_mask(y, fraction, rng) -> np.ndarray:
    """A per-class validation slice of labels y, as a bool mask.

    Each class with at least two samples contributes max(1, floor(fraction *
    count)) validation rows, chosen by seeded shuffle within the class.
    """
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


def _read_idx_file(path, magic, n_dims):
    """An IDX file's dimension sizes and its uint8 payload.

    IdxFormatError unless the file holds `magic`, `n_dims` sizes and exactly
    their product of payload bytes; the product is a Python int, so no
    header can overflow it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    _need(data, 4, path)
    found = struct.unpack_from(">I", data)[0]
    if found != magic:
        raise IdxFormatError(path, 0, f"bad magic 0x{found:08x}, expected 0x{magic:08x}")
    offset = 4 + 4 * n_dims
    _need(data, offset, path)
    dims = struct.unpack_from(f">{n_dims}I", data, 4)
    expected = offset + math.prod(dims)
    _need(data, expected, path)
    if len(data) != expected:
        raise IdxFormatError(path, expected, f"{len(data) - expected} trailing bytes")
    return dims, np.frombuffer(data, dtype=np.uint8, offset=offset)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into (uint8 pixels, int64 labels).

    The pixels are an owned (n, rows * cols) array, one byte per pixel as
    stored; `network.as_floats` scales them to [0, 1].
    """
    (n, rows, cols), pixels = _read_idx_file(images_path, IDX_IMAGES_MAGIC, 3)
    (n_lbl,), labels = _read_idx_file(labels_path, IDX_LABELS_MAGIC, 1)
    if n != n_lbl:
        raise IdxFormatError(images_path, 4,
                             f"image count {n} != label count {n_lbl}")
    return pixels.reshape(n, rows * cols).copy(), labels.astype(np.int64)


def save_idx(images_path, labels_path, features, labels, rows=None, cols=None):
    """Write features and labels as an IDX pair (inverse of load_idx).

    uint8 features are written as they are; other features must lie in
    [0, 1] and are rounded to the nearest of the 256 pixel levels. ValueError,
    before either file is opened, for what load_idx would refuse or misread:
    features that are not 2-D, a label count other than the image count,
    labels that are not integers in [0, 255], or rows * cols other than the
    feature width.
    """
    features, labels = np.asarray(features), np.asarray(labels)
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValueError(f"need 2-D features and one label per row, got shapes "
                         f"{features.shape} and {labels.shape}")
    if labels.dtype.kind not in "iuf" or not np.all(
            (labels >= 0) & (labels <= 255) & (labels == np.round(labels))):
        raise ValueError("labels must be integers in [0, 255]")
    n, dim = features.shape
    if rows is None or cols is None:
        side = int(round(dim**0.5))
        if side * side != dim:
            raise ValueError("non-square feature dim needs explicit rows/cols")
        rows = cols = side
    elif not (all(isinstance(v, (int, np.integer)) and 0 <= v < 2**32
                  for v in (rows, cols)) and rows * cols == dim):
        raise ValueError(f"rows * cols = {rows} * {cols} is not the feature width {dim}")
    if features.dtype == np.uint8:
        pixels = features
    else:
        features = features.astype(np.float64, copy=False)
        if features.size and not (features.min() >= 0.0 and features.max() <= 1.0):
            raise ValueError("features must lie in [0, 1]")
        pixels = np.round(features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


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
    return _refuse_empty_splits(ScenarioSuite(
        "permuted", seed, n_tasks, dim, n_classes, descriptors, _train=train, _test=test))


def split_scenario(train, test, classes_per_task, seed) -> ScenarioSuite:
    """Disjoint class-group tasks over a seeded shuffle of the class ids."""
    x_train, y_train = train
    all_classes = np.unique(np.concatenate((y_train, test[1])))
    if classes_per_task < 1:
        raise ValueError("classes_per_task must be >= 1")
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
    return _refuse_empty_splits(ScenarioSuite(
        "split", seed, n_tasks, x_train.shape[1], classes_per_task, descriptors,
        _train=train, _test=test))


def _refuse_empty_splits(suite):
    """`suite`, or ValueError naming a task whose validation or test split
    would be empty. `_val_mask` takes rows only from a class with two or more
    train rows, so the labels alone decide."""
    labels = (suite._train[1], suite._test[1])
    top = int(max(y.max(initial=0) for y in labels)) + 1
    n_train, n_test = (np.bincount(y, minlength=top) for y in labels)
    for i, d in enumerate(suite.descriptors):
        classes = list(d) if suite.kind == "split" else slice(None)
        if not (n_train[classes] >= 2).any():
            raise ValueError(f"task {i}'s validation split is empty: none of its "
                             "classes has two train images")
        if not n_test[classes].any():
            raise ValueError(f"task {i}'s test split is empty: none of its "
                             "classes has a test image")
    return suite


def _place_means(classes, dim, separation, rng):
    """`classes` means drawn from rng, pairwise at least `separation` apart.

    Each mean gets 200 draws; a mean that none of them can place raises
    ValueError, and so does a separation so large that a distance between
    two means overflows, which would pass every spacing check.
    """
    means = []
    for _ in range(classes):
        for _ in range(200):
            candidate = rng.normal(0.0, separation, size=dim)
            with np.errstate(over="ignore", invalid="ignore"):
                dists = [np.linalg.norm(candidate - m) for m in means]
            if not np.isfinite(dists).all():
                raise ValueError(f"scenario.separation = {separation}: the squared "
                                 "distance between two class means overflows")
            if all(d >= separation for d in dists):
                means.append(candidate)
                break
        else:
            raise ValueError(
                f"could not place {classes} means at separation {separation}")
    return means


def _make_blobs(classes, dim, samples, separation, rng):
    """[(x_train, y_train), (x_test, y_test)] of one task's blobs, whose
    features are min-max scaled to [0, 1] together."""
    means = _place_means(classes, dim, separation, rng)
    sizes = (samples, max(1, samples // 4))  # per class
    xs = [np.concatenate([m + rng.normal(0.0, 1.0, size=(n, dim)) for m in means])
          for n in sizes]
    lo, hi = min(x.min() for x in xs), max(x.max() for x in xs)
    return [((x - lo) / (hi - lo), np.repeat(np.arange(classes, dtype=np.int64), n))
            for x, n in zip(xs, sizes)]


def synthetic_blobs(n_tasks, classes, dim, samples, separation, seed) -> ScenarioSuite:
    """Per-task Gaussian clusters with means at pairwise distance >= separation."""
    if separation <= 0:
        raise ValueError("separation must be > 0")
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    if samples < 2:
        # _val_mask takes validation rows only from a class with two or more
        # train samples
        raise ValueError(f"samples must be >= 2, got {samples}: with fewer, "
                         "every task's validation split is empty")
    # each task draws its means again from the same stream when it is built;
    # drawing them here refuses a separation they cannot meet before any task
    for i in range(n_tasks):
        _place_means(classes, dim, separation, rng_from(seed, i, _TAG_BLOBS))
    return ScenarioSuite("synthetic", seed, n_tasks, dim, classes,
                         [seed] * n_tasks, _blob_params=(dim, samples, separation))


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


def make_digit_images(n, seed, noise=DIGIT_NOISE):
    """Deterministic handwritten-digit stand-in: (uint8 images (n,28,28), labels).

    Each sample is a glyph template with a random shift of up to 3 pixels,
    random intensity, one of three blur widths, and additive noise, quantized
    to uint8. ValueError unless `noise` is a finite number >= 0.
    """
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be a finite number >= 0, got {noise}")
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


def make_output_dir(path) -> None:
    """Create the directory `path` unless it exists.

    ConfigError, naming the path, if it cannot be created: a file in its
    place, say.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {os.fspath(path)!r}: "
                          f"{exc.strerror}") from None


def write_digit_idx(out_dir, n_train=24000, n_test=4000, seed=0, noise=DIGIT_NOISE):
    """Emit train/test IDX pairs of procedural digits; returns the four paths."""
    if min(n_train, n_test) < 0:
        raise ValueError(f"image counts must be >= 0, got {n_train} and {n_test}")
    paths = {}
    for tag, n, stream in (("train", n_train, 1), ("test", n_test, 2)):
        images, labels = make_digit_images(n, derive_seed(seed, 0x5EED, stream), noise)
        make_output_dir(out_dir)  # after the first draw, which checks the noise
        img_path = os.path.join(out_dir, f"{tag}-images.idx")
        lbl_path = os.path.join(out_dir, f"{tag}-labels.idx")
        save_idx(img_path, lbl_path, images.reshape(n, 784), labels)
        paths[f"{tag}_images"] = img_path
        paths[f"{tag}_labels"] = lbl_path
    return paths
