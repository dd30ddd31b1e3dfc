"""Shared exceptions and warning categories."""

from __future__ import annotations


class ShapeMismatchError(ValueError):
    """Tensor shapes disagree with the model layout."""

    def __init__(self, layer: int, expected, got, what: str = "weights"):
        self.layer = layer
        self.expected = tuple(expected)
        self.got = tuple(got)
        self.what = what
        super().__init__(
            f"layer {layer}: {what} shape mismatch, expected {self.expected}, got {self.got}"
        )

    def __reduce__(self):  # a training worker sends it back pickled
        return type(self), (self.layer, self.expected, self.got, self.what)


class CapacityExhausted(RuntimeError):
    """No eligible weight slots remain in one or more layers."""

    def __init__(self, layers, message: str | None = None):
        self.layers = tuple(layers)
        super().__init__(message or f"capacity exhausted in layers {self.layers}")


class CommitRejected(ValueError):
    """A store commit violated eligibility; the store is unchanged."""


class ConfigError(ValueError):
    """Run configuration is invalid or unparsable."""


class TrainingDiverged(ConfigError):
    """SGD gave non-finite weights: the learning rate is too large for the task."""


class CheckpointError(RuntimeError):
    """Checkpoint payload is corrupt, truncated, or of an unknown version."""


class CorruptCodesError(CheckpointError):
    """A stored code does not index a valid codebook entry."""


class IdxFormatError(ValueError):
    """An IDX file failed to parse; carries the byte offset of the failure."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: {message} (at byte offset {offset})")


class WorkerDied(RuntimeError):
    """A training worker process exited while the run still needed it."""

    def __init__(self, pid: int, status: int):
        self.pid = pid
        self.status = status
        super().__init__(f"training worker {pid} exited with status {status}")


class CapacityWarning(UserWarning):
    """A sampled mask was truncated to the eligible slot set."""


class DegenerateMaskWarning(UserWarning):
    """A mask leaves a layer with no trainable weights."""


class SelectionWarning(UserWarning):
    """Candidate selection fell back to sparsity-only scoring."""


class ToleranceWarning(UserWarning):
    """Adaptive quantization hit the maximum bit-width above tolerance."""
