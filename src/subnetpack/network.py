"""Dense-layer network with masked forward/backward passes and SGD training.

`DenseWeights` hold float64 arrays unless built with another dtype, or with
none to keep each array's own. The forward and backward passes compute in
the dtype of the weights they are given: `train_masked` runs SGD on a
float32 working copy and hands back float64 weights whose trained entries
are float32 values, while `evaluate` masks a float64 copy of the weights,
so a task view's float32 weights score as their float64 casts do.
Input batches may be floats or uint8 pixels; `as_floats` turns either into
the dtype of the weights where it is read: per minibatch in `train_masked`,
per block of `_EVAL_ROWS` rows in `evaluate`, so neither holds a float copy
of a whole split. A mask entry of 0 removes the weight from the
forward pass and freezes it bit-identically through training. Biases are
never masked and always train.

`train_masked` multiplies its working copy by the mask once per call, so each
SGD step runs the forward pass and the hidden-layer deltas on the pre-masked
weights and masks only the weight gradients. It writes each step's gradients
into buffers allocated once per call, updates the weights in place and
computes no loss; `evaluate` holds one block of `_EVAL_ROWS` rows of float64
activations at a time. One backward pass,
`_masked_grads`, serves training and `loss_and_grads`. A run never calls
`train_masked` in its own process: `workers` runs every call in
single-BLAS-thread worker processes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMaskWarning, ShapeMismatchError

_EVAL_ROWS = 64  # rows `evaluate` turns into floats at a time


@dataclass(frozen=True)
class ModelSpec:
    """Layer layout of a fully-connected classifier.

    layer_sizes runs input dim, hidden dims, output dim. Hidden layers are
    rectified-linear; the output layer is linear logits trained with softmax
    cross-entropy.
    """

    layer_sizes: tuple[int, ...] = (784, 100, 10)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least two layer sizes (one weight tensor)")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        """Per-layer weight shapes, rows = destination, cols = source."""
        s = self.layer_sizes
        return tuple((s[i + 1], s[i]) for i in range(self.n_layers))


class DenseWeights:
    """Per-layer weight matrices plus bias vectors, float64 unless dtype says;
    dtype=None keeps each array's dtype."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 dtype=np.float64):
        self.weights = [np.asarray(w, dtype=dtype) for w in weights]
        self.biases = [np.asarray(b, dtype=dtype) for b in biases]
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must have one entry per layer")

    def copy(self) -> "DenseWeights":
        """A deep copy; each list keeps its dtype."""
        return DenseWeights([w.copy() for w in self.weights],
                            [b.copy() for b in self.biases], dtype=None)

    def validate(self, spec: ModelSpec) -> None:
        for i, (shape, w, b) in enumerate(zip(spec.shapes, self.weights, self.biases)):
            if w.shape != shape:
                raise ShapeMismatchError(i, shape, w.shape)
            if b.shape != (shape[0],):
                raise ShapeMismatchError(i, (shape[0],), b.shape, what="bias")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite values")
        if len(self.weights) != spec.n_layers:
            raise ValueError(f"expected {spec.n_layers} layers, got {len(self.weights)}")


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings: epoch count, batch size, LR schedule, seed.

    The schedule is lr_epoch = max(lr_initial * lr_decay**epoch, lr_floor).
    """

    epochs: int = 50
    batch_size: int = 128
    lr_initial: float = 0.01
    lr_decay: float = 0.9
    lr_floor: float = 0.0001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.lr_initial > self.lr_floor > 0):
            raise ValueError("need lr_initial > lr_floor > 0")
        # a decay above 1 grows the rate until it overflows; one at or below
        # 0 makes every odd epoch's rate fall to lr_floor
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")

    def lr_at(self, epoch: int) -> float:
        return max(self.lr_initial * self.lr_decay**epoch, self.lr_floor)


def xavier_init(spec: ModelSpec, seed) -> DenseWeights:
    """Uniform Xavier draw per layer, bound sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in spec.shapes:
        a = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-a, a, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return DenseWeights(weights, biases)


def _check_shapes(spec: ModelSpec, weights: DenseWeights, mask, batch: np.ndarray,
                  labels=None) -> None:
    """ShapeMismatchError unless the arguments fit `spec`; `labels`, when
    given, must be 1-D with one entry per row of `batch`."""
    if batch.ndim != 2 or batch.shape[1] != spec.layer_sizes[0]:
        raise ShapeMismatchError(
            0, ("*", spec.layer_sizes[0]), batch.shape, what="input batch"
        )
    weights.validate(spec)
    for i, (shape, m) in enumerate(zip(spec.shapes, mask)):
        if np.shape(m) != shape:
            raise ShapeMismatchError(i, shape, np.shape(m), what="mask")
    if labels is not None and labels.shape != batch.shape[:1]:
        raise ShapeMismatchError(0, batch.shape[:1], labels.shape, what="labels")


def _apply_mask(weights: DenseWeights, mask) -> DenseWeights:
    """Weights times mask, in the weights' dtype; the biases are shared."""
    return DenseWeights([w * m for w, m in zip(weights.weights, mask)],
                        weights.biases, dtype=weights.weights[0].dtype)


def as_floats(x, dtype) -> np.ndarray:
    """Features `x` as `dtype` floats; uint8 pixels p become p / 255.

    Dividing in the target dtype gives the bits of `p / 255.0` in float64
    and of its float32 cast in float32 (rounding a float64 quotient to
    float32 is exact for division). Other inputs are cast as they are.
    """
    x = np.asarray(x)
    if x.dtype == np.uint8:
        return np.divide(x, 255, dtype=dtype)
    return x.astype(dtype, copy=False)


def _forward_cached(spec, masked, batch):
    """Returns the activations of every layer: the batch as floats, each
    hidden layer's rectified output, and the logits last.

    `masked` holds weights already multiplied by their mask. Computes in
    their dtype; the batch is turned into it by `as_floats`. Each layer's
    bias is added and rectified in place, and a hidden output is positive
    exactly where its pre-activation is, so backprop reads its sign there.
    """
    acts = [as_floats(batch, masked.weights[0].dtype)]
    n = spec.n_layers
    for i in range(n):
        z = acts[-1] @ masked.weights[i].T
        z += masked.biases[i]
        if i < n - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(spec: ModelSpec, weights: DenseWeights, mask, batch: np.ndarray) -> np.ndarray:
    """Masked forward pass to logits; masked-out weights contribute exactly zero."""
    batch = np.asarray(batch)
    _check_shapes(spec, weights, mask, batch)
    return _forward_cached(spec, _apply_mask(weights, mask), batch)[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grads(spec, weights, mask, batch, labels):
    """Mean softmax cross-entropy and its gradients, weight grads pre-masked.

    Computes in the weights' dtype with the backward pass `train_masked`
    steps with, on fresh gradient arrays, and takes the loss from the logits
    that pass returns.
    """
    masked = _apply_mask(weights, mask)
    grads_w = [np.empty_like(w) for w in masked.weights]
    grads_b = [np.empty_like(b) for b in masked.biases]
    fmask = [np.asarray(m, dtype=masked.weights[0].dtype) for m in mask]
    logits = _masked_grads(spec, masked, fmask, batch, labels, grads_w, grads_b)
    log_p = _log_softmax(logits)
    loss = -log_p[np.arange(batch.shape[0]), labels].mean()
    return loss, grads_w, grads_b


def _masked_grads(spec, masked, fmask, batch, labels, grads_w, grads_b):
    """Writes the gradients of the mean softmax cross-entropy into `grads_w`
    and `grads_b`, and returns the logits; computes no loss.

    `masked` holds weights already multiplied by the mask, and `fmask` is
    the mask in their dtype, which multiplies each weight gradient in place.
    The gradient arrays match the weights and biases in shape and dtype.
    """
    acts = _forward_cached(spec, masked, batch)
    logits = acts[-1]
    n = batch.shape[0]
    dz = _log_softmax(logits)
    np.exp(dz, out=dz)
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    for i in range(spec.n_layers - 1, -1, -1):
        np.matmul(dz.T, acts[i], out=grads_w[i])
        grads_w[i] *= fmask[i]
        np.sum(dz, axis=0, out=grads_b[i])
        if i > 0:
            dz = dz @ masked.weights[i]
            dz *= acts[i] > 0
    return logits


def train_masked(spec, weights, mask, data, cfg: TrainConfig):
    """SGD on the masked sub-network; returns the new float64 weights.

    SGD runs on a float32 working copy, multiplied by the mask once here, and
    each minibatch is turned into float32 by `as_floats` as it is gathered (a
    float32 X is used as is, with the same bits). The call allocates one
    float32 gradient array per weight and bias and a float32 copy of the
    mask; each step writes its gradients into those arrays, masks and scales
    them in place and subtracts them, and computes no loss. Masked gradients
    keep the copy's masked-out entries at zero, so the steps need no further
    mask products on the weights. Trained entries come back as float32
    values; entries outside the mask come back bit-identical to the input.
    epochs=0 returns an untouched copy. `y` must be 1-D with one label per
    row of `X`. For an accuracy, call evaluate on the returned weights.
    """
    X, y = data
    X = np.asarray(X)
    y = np.asarray(y)
    _check_shapes(spec, weights, mask, X, y)
    for i in range(spec.n_layers):
        if not np.any(mask[i]):
            warnings.warn(
                f"layer {i} mask is empty; training proceeds on a degenerate network",
                DegenerateMaskWarning,
                stacklevel=2,
            )
    if cfg.epochs == 0:
        return weights.copy()

    fmask = [np.asarray(m, dtype=np.float32) for m in mask]
    work = _apply_mask(DenseWeights(weights.weights, weights.biases,
                                    dtype=np.float32), fmask)
    grads_w = [np.empty_like(w) for w in work.weights]
    grads_b = [np.empty_like(b) for b in work.biases]
    updates = list(zip(work.weights + work.biases, grads_w + grads_b))
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    # a diverging run overflows here; the caller finds its non-finite weights
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr_at(epoch)  # a Python float keeps g *= lr in float32
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _masked_grads(spec, work, fmask, X[idx], y[idx], grads_w, grads_b)
                for param, grad in updates:
                    grad *= lr
                    param -= grad
    return DenseWeights(
        [np.where(m, trained, given)
         for m, trained, given in zip(mask, work.weights, weights.weights)],
        work.biases)


def evaluate(spec, weights, mask, batch, labels) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest class.

    Computes in float64 whatever the weights' dtype: the mask multiplies a
    float64 copy of the weights in place, so float32 weights score exactly
    as their float64 casts, with no float32 temporary beside the copy.
    Scores the batch in blocks of `_EVAL_ROWS` rows, so a call holds that
    copy and one block's float64 activations (0.4 MB for 784 features),
    never a whole split as floats, and returns the same float as `np.mean`
    over the whole batch's correct predictions. `labels` must be 1-D with
    one entry per row.
    """
    batch = np.asarray(batch)
    labels = np.asarray(labels)
    _check_shapes(spec, weights, mask, batch, labels)
    n = batch.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    masked = DenseWeights([w.astype(np.float64) for w in weights.weights],
                          weights.biases)
    for w, m in zip(masked.weights, mask):
        w *= m
    correct = 0
    for start in range(0, n, _EVAL_ROWS):
        rows = slice(start, start + _EVAL_ROWS)
        logits = _forward_cached(spec, masked, batch[rows])[-1]
        correct += int(np.count_nonzero(np.argmax(logits, axis=1) == labels[rows]))
    return correct / n


def full_mask(spec: ModelSpec) -> list[np.ndarray]:
    """All-ones mask, one layer per weight matrix of `spec`."""
    return [np.ones(shape, dtype=bool) for shape in spec.shapes]
