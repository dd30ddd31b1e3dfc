"""Forget-free continual learning on bit-budgeted weight slots.

Per-task sub-networks are found by a population search over lottery-ticket
masks, quantized against per-layer centroid tables at an adaptively chosen
bit-width, and committed as immutable task-exclusive components of shared
32-bit weight slots.
"""

from .errors import (CapacityExhausted, CapacityWarning, CheckpointError,
                     CommitRejected, ConfigError, CorruptCodesError,
                     DegenerateMaskWarning, IdxFormatError, SelectionWarning,
                     ShapeMismatchError, ToleranceWarning, WorkerDied)
from .network import (DenseWeights, ModelSpec, TrainConfig, evaluate,
                      full_mask, loss_and_grads, train_masked, xavier_init)
from .store import (SLOT_BITS, SparsityReport, WeightSlotStore,
                    sample_candidate_full, sample_candidate_mask)
from .quantization import (QuantConfig, adaptive_quantize, dequantize, fit_budget,
                           identity_quantize, kmeans_1d, nonlinear_quantize)
from .pruning import PruneConfig, PruneLog, adaptive_prune, select_best
from .metrics import (AccuracyMatrix, capacity, capacity_actual, capacity_report,
                      forget_check, lifelong_accuracy)
from .scenario import (ScenarioSuite, TaskData, load_idx, make_digit_images,
                       permuted_scenario, save_idx, split_scenario,
                       synthetic_blobs, write_digit_idx)
from .config import RunConfig, build_run_config, build_suite, load_run_config
from .checkpoint import load_checkpoint, save_checkpoint
from .runner import (RunState, TaskRecord, execute_run, execute_task,
                     new_state, state_from_checkpoint, task_view, write_reports)
from .seeding import derive_seed, rng_from

__version__ = "0.1.0"
