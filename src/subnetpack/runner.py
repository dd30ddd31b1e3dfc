"""Sequential task loop: prune, quantize, commit, evaluate, checkpoint.

Each task carves its sub-network out of the shared slot store, quantizes it,
and commits. Every task seen so far is then re-evaluated from the store's
dequantized components, which is what makes the past-task columns of the
accuracy matrix bit-stable. A checkpoint lands after every task so a run can
resume from any prefix and reproduce the uninterrupted result exactly.

`execute_run` looks one task ahead. Once task t's winner is chosen and
submitted for full training, task t+1's population is sampled from a copy
of the store in which t's mask already holds a component of the most bits t
can commit, and submitted behind it; t+1's winner is chosen and submitted as
soon as that population returns. So the workers train t+1 while t's winner
trains and while this process quantizes, commits, re-evaluates and
checkpoints task t, which still happen in task order. The copy draws the
masks the real commit would, bit for bit, when `_lookahead_is_exact` holds;
otherwise task t+1 starts after task t's checkpoint, through the same
functions. Warnings, errors and the prune log of work done ahead are held
back until task t+1 starts, after task t's checkpoint, where a run without
the lookahead would report them.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .checkpoint import checkpoint_version, load_checkpoint, save_checkpoint
from .config import RunConfig, build_run_config, build_suite, parse_config_text
from .errors import CapacityExhausted, CheckpointError, ConfigError
from .metrics import AccuracyMatrix, capacity_report, forget_check, lifelong_accuracy
from .network import DenseWeights, evaluate, full_mask, xavier_init
from .pruning import (ROLE_INIT, PruneLog, Search, choose_winner, start_search,
                      submit_full_training)
from .quantization import (Codebook, QuantizedTaskWeights, adaptive_quantize,
                           dequantize, identity_quantize)
from .scenario import ScenarioSuite
from .seeding import derive_seed
from .store import SLOT_BITS, WeightSlotStore
from .workers import POOL

CHECKPOINT_NAME = "checkpoint.bin"


@dataclass
class TaskRecord:
    """What a committed task keeps beside its allocation in `store.tasks`.

    The bit-width, mask and codes live only in the store. `values` are the
    full-precision winner's weights inside its mask, per layer in row-major
    slot order (float32 after any SGD step), held in memory only: None after
    a load.
    """

    codebook: Codebook
    biases: list
    q_ref: float
    q_quant: float
    values: list | None = None


@dataclass
class RunState:
    config: RunConfig
    suite: ScenarioSuite | None
    store: WeightSlotStore
    matrix: AccuracyMatrix
    manifest: str
    tasks: dict[int, TaskRecord] = field(default_factory=dict)
    prune_logs: list = field(default_factory=list)
    next_task: int = 0

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.config.output_dir, CHECKPOINT_NAME)


def new_state(cfg: RunConfig) -> RunState:
    suite = build_suite(cfg.scenario)
    spec = cfg.model
    if spec.layer_sizes[0] != suite.input_dim:
        raise ConfigError(
            f"model input {spec.layer_sizes[0]} != scenario dim {suite.input_dim}")
    if spec.layer_sizes[-1] != suite.n_classes:
        raise ConfigError(
            f"model output {spec.layer_sizes[-1]} != {suite.n_classes} classes")
    store = WeightSlotStore(spec.shapes, t_max=cfg.prune.t_l)
    return RunState(cfg, suite, store, AccuracyMatrix(), suite.manifest_text())


def task_view(state: RunState, task_id: int):
    """(weights, mask) for a committed task, rebuilt from store components."""
    alloc = state.store.tasks[task_id]
    rec = state.tasks[task_id]
    q = QuantizedTaskWeights(alloc.mask, alloc.codes, rec.codebook)
    weights = DenseWeights(dequantize(q), [b.copy() for b in rec.biases])
    return weights, list(alloc.mask)


def _mask_bit_budget(store: WeightSlotStore, mask) -> int:
    """Tightest remaining-bit budget over the mask's slots."""
    budget = SLOT_BITS
    for i in range(store.layer_count):
        flat = mask[i].ravel()
        if flat.any():
            budget = min(budget, int(store.remaining_bits(i)[flat].min()))
    return budget


class _Ahead:
    """Task t+1's search begun during task t, its warnings and error held back."""

    def __init__(self):
        self.search: Search | None = None
        self.val = None  # the task's validation split
        self.error: Exception | None = None
        self.caught = []

    def run(self, fn, *args):
        """fn(*args), recording its warnings and any error; None after an error."""
        if self.error is not None:
            return None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return fn(*args)
            except Exception as exc:
                self.error = exc
                return None
            finally:
                self.caught += caught

    def take(self) -> tuple[Search, tuple]:
        """(search, validation split), after the held-back warnings and error.

        Warnings are issued as `warnings.warn` issued them; the error is
        raised. The _Ahead keeps no reference to what it hands over.
        """
        modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
        for w in self.caught:
            mod = modules.get(w.filename)
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno,
                module=None if mod is None else mod.__name__,
                registry=None if mod is None else vars(mod).setdefault(
                    "__warningregistry__", {}))
        if self.error is not None:
            raise self.error
        taken = self.search, self.val
        self.search = self.val = None
        return taken


def _search_bits(state: RunState) -> tuple[int, int]:
    """(psi_min of a task's first search, most bits its winner can commit)."""
    if state.config.mode == "pruning-only":
        return SLOT_BITS, SLOT_BITS
    return state.config.prune.psi_min, state.config.quant.psi_max


def _lookahead_is_exact(state: RunState, mask) -> bool:
    """Whether the next task draws the same masks before `mask` commits as after.

    The next task samples from `store.projected(mask, most)`, with (psi_min,
    most) from `_search_bits`; a slot is eligible while it holds fewer than
    t_max components and at least psi_min free bits. Pruning-only commits
    exactly 32 bits, as the copy does. Otherwise the task commits at most
    psi_max bits; if every slot under `mask` has psi_max + psi_min bits free,
    each keeps psi_min free whatever bit-width is picked, and
    adaptive_quantize, capped at psi_max, cannot run out of bits, so the
    task is not resampled either.
    """
    if state.config.mode == "pruning-only":
        return True
    psi_min, most = _search_bits(state)
    return _mask_bit_budget(state.store, mask) >= most + psi_min


def _start(state: RunState, t, store: WeightSlotStore, psi_min):
    """(task t's search on `store`, its validation split).

    Past this call only the search and its batches hold the task's data, and
    they let it go once the winner's training is sent to a worker.
    """
    cfg = state.config
    data = state.suite.get_task(t)
    return (start_search(t, store, cfg.model, data,
                         replace(cfg.prune, psi_min=psi_min), cfg.train),
            (data.x_val, data.y_val))


def _begin_ahead(state: RunState, t: int, mask) -> _Ahead:
    """Start task t's search on the store as it will be once `mask` commits."""
    psi_min, most = _search_bits(state)
    ahead = _Ahead()
    started = ahead.run(_start, state, t, state.store.projected(mask, most), psi_min)
    if started is not None:
        ahead.search, ahead.val = started
    return ahead


def _trained_winner(state: RunState, t, ahead: _Ahead | None, psi_min,
                    look_ahead: bool):
    """(winner's mask, its JobResult, validation split, next _Ahead or None).

    Task t's search comes from `ahead`, or starts here. Its winner is chosen
    unless that is done, and the choice is logged. With look_ahead, task
    t+1's search begins before the wait for the winner, if that is exact;
    while the winner trains, t+1's winner is chosen as soon as its
    population is in.
    """
    search, val = (_start(state, t, state.store, psi_min) if ahead is None
                   else ahead.take())
    if search.log is None:
        choose_winner(search)
    state.prune_logs.append(search.log)
    ahead = None
    if (look_ahead and t + 1 < state.suite.n_tasks
            and _lookahead_is_exact(state, search.mask)):
        ahead = _begin_ahead(state, t + 1, search.mask)
    while (ahead is not None and ahead.error is None
           and ahead.search.log is None and not search.winner.ready):
        POOL.wait_any([search.winner, ahead.search.population])
        if ahead.search.population.ready:
            ahead.run(choose_winner, ahead.search)
    return search.mask, search.trained(), val, ahead


def _run_task_full(state: RunState, t, ahead, look_ahead):
    """Population pruning then adaptive quantization, with budget retries.

    A quantizer that needs more bits than the sampled slots can hold triggers
    a fresh population restricted to roomier slots, over the task's data
    built again; the floor rises each round, so the loop ends at psi_max. A
    retry never follows a lookahead: `_lookahead_is_exact` rules it out.
    """
    cfg = state.config
    psi_min = cfg.prune.psi_min
    while True:
        mask, result, val, next_ahead = _trained_winner(state, t, ahead, psi_min,
                                                        look_ahead)
        budget = _mask_bit_budget(state.store, mask)
        try:
            q, q_acc = adaptive_quantize(t, cfg.model, mask, result.weights(),
                                         result.accuracy, val, cfg.quant,
                                         psi_cap=budget)
        except CapacityExhausted as exc:
            if budget + 1 > cfg.quant.psi_max:
                raise CapacityExhausted(
                    exc.layers,
                    f"task {t}: no slot set can hold more than {budget} bits",
                ) from exc
            psi_min, ahead = budget + 1, None
            continue
        return q, result, q_acc, next_ahead


def _run_task_pruning_only(state: RunState, t, ahead, look_ahead):
    """Population pruning, then store the winner as raw 32-bit patterns.

    The patterns hold the trained float32 values exactly, so q_quant is q_ref.
    """
    mask, result, _, next_ahead = _trained_winner(state, t, ahead, SLOT_BITS,
                                                  look_ahead)
    q = identity_quantize(mask, result.weights())
    return q, result, result.accuracy, next_ahead


def _run_task_quantization_only(state: RunState, t, ahead, look_ahead):
    """No pruning: train the dense network and quantize every slot.

    With no population to search, nothing is begun ahead, so `ahead` is None.
    """
    cfg = state.config
    spec = cfg.model
    data = state.suite.get_task(t)
    mask = full_mask(spec)
    init = xavier_init(spec, derive_seed(cfg.prune.seed, t, ROLE_INIT, 0))
    result, = submit_full_training(t, 0, spec, init, mask, data, cfg.prune,
                                   cfg.train).wait()
    saturated = tuple(
        i for i in range(state.store.layer_count)
        if not state.store.eligible_slots(i, cfg.quant.psi_init).all()
    )
    if saturated:
        raise CapacityExhausted(
            saturated,
            f"task {t}: a dense mask needs every slot eligible for "
            f"{cfg.quant.psi_init}-bit components")
    budget = _mask_bit_budget(state.store, mask)
    q, q_acc = adaptive_quantize(
        t, spec, mask, result.weights(), result.accuracy,
        (data.x_val, data.y_val), cfg.quant, psi_cap=budget)
    return q, result, q_acc, None


# Each takes (state, task, its _Ahead or None, look_ahead) and returns
# (quantized winner, the winner's JobResult, its validation accuracy after
# quantization, task t+1's _Ahead or None).
_MODE_RUNNERS = {
    "full": _run_task_full,
    "pruning-only": _run_task_pruning_only,
    "quantization-only": _run_task_quantization_only,
}


def execute_task(state: RunState, t: int, ahead: _Ahead | None = None,
                 look_ahead: bool = False) -> _Ahead | None:
    """Run task t: search, quantize, commit, re-evaluate, checkpoint.

    `ahead` holds task t's search begun during task t-1; its held-back
    warnings and error surface first. With look_ahead, task t+1's search
    may begin while task t's winner trains; it is returned, for the call
    that runs task t+1.
    """
    q, result, q_acc, ahead = _MODE_RUNNERS[state.config.mode](
        state, t, ahead, look_ahead)
    state.store.commit(t, q.mask, q.codebook.psi, q.codes)
    state.tasks[t] = TaskRecord(q.codebook,
                                [np.array(b, dtype=np.float64) for b in result.biases],
                                result.accuracy, q_acc, result.values)

    row = []
    for e in range(t + 1):
        x_test, y_test = state.suite.test_split(e)
        view, view_mask = task_view(state, e)
        row.append(evaluate(state.config.model, view, view_mask, x_test, y_test))
    state.matrix.append_row(row)
    state.next_task = t + 1
    save_run_checkpoint(state)
    return ahead


def execute_run(state: RunState) -> None:
    """Run every remaining task, one task ahead, then write reports.

    On capacity exhaustion the current state is checkpointed before the error
    propagates, so the run can be inspected or resumed with a wider budget.
    On any error, training jobs still in flight are dropped.
    """
    os.makedirs(state.config.output_dir, exist_ok=True)
    ahead = None
    try:
        for t in range(state.next_task, state.suite.n_tasks):
            ahead = execute_task(state, t, ahead, look_ahead=True)
    except CapacityExhausted:
        save_run_checkpoint(state)
        raise
    finally:
        POOL.cancel()
    write_reports(state)


# -- checkpoint round trip ----------------------------------------------------

def _state_payload(state: RunState) -> dict:
    """The one writer of task records; state_from_checkpoint reads them back."""
    tasks = state.tasks
    return {
        "store": state.store.state_dict(),
        "codebooks": {
            str(t): {"psi": r.codebook.psi, "centroids": list(r.codebook.centroids)}
            for t, r in tasks.items()
        },
        "biases": {str(t): list(r.biases) for t, r in tasks.items()},
        "matrix": [list(row) for row in state.matrix.rows],
        "manifest": state.manifest,
        "config": state.config.canonical_text(),
        "next_task": state.next_task,
        "q_ref": {str(t): r.q_ref for t, r in tasks.items()},
        "q_quant": {str(t): r.q_quant for t, r in tasks.items()},
        "psi_star": {str(t): a.psi for t, a in state.store.tasks.items()},
        "prune_logs": [asdict(log) for log in state.prune_logs],
    }


def save_run_checkpoint(state: RunState) -> str:
    os.makedirs(state.config.output_dir, exist_ok=True)
    save_checkpoint(state.checkpoint_path, _state_payload(state))
    return state.checkpoint_path


def _expect(value, kind):
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _read_records(payload: dict, store: WeightSlotStore) -> dict[int, TaskRecord]:
    """Task records from a payload, checked against the rebuilt store."""
    cols = {key: {int(t): v for t, v in payload[key].items()}
            for key in ("codebooks", "biases", "q_ref", "q_quant", "psi_star")}
    for key, col in cols.items():
        if col.keys() != store.tasks.keys():
            raise CheckpointError(f"{key} covers tasks {sorted(col)}, "
                                  f"the store holds {sorted(store.tasks)}")
    records = {}
    for t, alloc in store.tasks.items():
        book, biases = cols["codebooks"][t], cols["biases"][t]
        if not cols["psi_star"][t] == book["psi"] == alloc.psi:
            raise CheckpointError(
                f"task {t}: psi_star {cols['psi_star'][t]} and codebook psi "
                f"{book['psi']} disagree with the stored bit-width {alloc.psi}")
        for arrays in (book["centroids"], biases):
            if (not isinstance(arrays, list) or len(arrays) != store.layer_count
                    or not all(isinstance(a, np.ndarray) for a in arrays)):
                raise CheckpointError(f"task {t}: centroids and biases need one "
                                      "array per layer")
        records[t] = TaskRecord(
            Codebook(alloc.psi, book["centroids"]), biases,
            _expect(cols["q_ref"][t], float), _expect(cols["q_quant"][t], float))
    return records


def state_from_checkpoint(path, need_suite=True, output_dir=None) -> RunState:
    """Rebuild a RunState; with need_suite=False, reports only (no resume).

    A payload that does not hold a state this module wrote raises
    CheckpointError, as does one whose copies of a fact disagree. The
    scenario data is opened only with need_suite.
    """
    payload = load_checkpoint(path)
    # format 1 stored the slot store unpacked; each store reader refuses the
    # other's dtypes, so a file swapped between these two reads is rejected
    packed = checkpoint_version(path) >= 2
    try:
        cfg = build_run_config(parse_config_text(payload["config"]))
        store = WeightSlotStore.from_state_dict(payload["store"], packed=packed)
        state = RunState(cfg, None, store, AccuracyMatrix(payload["matrix"]),
                         _expect(payload["manifest"], str),
                         tasks=_read_records(payload, store),
                         next_task=_expect(payload["next_task"], int))
        state.prune_logs = [
            PruneLog(**{k: tuple(v) if isinstance(v, list) else v for k, v in rec.items()})
            for rec in payload["prune_logs"]]
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        # ValueError covers a store's CommitRejected and a ConfigError from
        # the stored config text
        raise CheckpointError(f"{path}: malformed state: {exc!r}") from None
    # (next_task, stored task ids, slot cap, layer shapes), each held twice
    held = (state.next_task, sorted(store.tasks), store.t_max, store.layer_shapes)
    want = (state.matrix.n_episodes, list(range(state.next_task)), cfg.prune.t_l,
            cfg.model.shapes)
    if held != want:
        raise CheckpointError(f"{path}: next_task, task ids, slot cap and layer "
                              f"shapes {held} disagree with {want}")
    if output_dir is not None:
        cfg.output_dir = output_dir
    if need_suite:
        state.suite = build_suite(cfg.scenario)
    return state


# -- reports -------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def write_reports(state: RunState) -> dict:
    """accuracy_matrix.csv, capacity.csv, summary.json, scenario_manifest.txt.

    Files are byte-identical across reruns of the same seeded config; the one
    timestamp sits alone on its own line of summary.json.
    """
    if state.matrix.n_episodes == 0:
        raise ValueError("nothing to report: no task has completed")
    out = state.config.output_dir
    os.makedirs(out, exist_ok=True)
    paths = {}

    n = state.matrix.n_episodes
    lines = ["episode," + ",".join(f"task_{t}" for t in range(n))]
    for e, row in enumerate(state.matrix.rows):
        cells = [_fmt(v) for v in row] + [""] * (n - len(row))
        lines.append(f"{e}," + ",".join(cells))
    paths["accuracy_matrix"] = os.path.join(out, "accuracy_matrix.csv")
    with open(paths["accuracy_matrix"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    cap = capacity_report(state.store,
                          {t: r.codebook for t, r in state.tasks.items()})
    lines = ["task,mode,psi,bits,bits_actual,percent,percent_actual,cumulative_bits"]
    for entry in cap.entries:
        lines.append(
            f"{entry.task_id},{state.config.mode},{entry.psi},{entry.bits},"
            f"{entry.bits_actual},{_fmt(entry.percent)},"
            f"{_fmt(entry.percent_actual)},{entry.cumulative_bits}")
    paths["capacity"] = os.path.join(out, "capacity.csv")
    with open(paths["capacity"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    per_task_sparsity = {
        str(t): [
            1.0 - used / size
            for used, size in zip(state.store.tasks[t].mask.active_counts(),
                                  state.store.layer_sizes)
        ]
        for t in sorted(state.store.tasks)
    }
    summary = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "mode": state.config.mode,
        "tasks_completed": state.matrix.n_episodes,
        "lifelong_accuracy": lifelong_accuracy(state.matrix),
        "final_row": list(state.matrix.final_row()),
        "forget_violations": forget_check(state.matrix),
        "psi_star": {str(t): a.psi for t, a in state.store.tasks.items()},
        "accuracy_full_precision": {str(t): r.q_ref for t, r in state.tasks.items()},
        "accuracy_quantized": {str(t): r.q_quant for t, r in state.tasks.items()},
        "quantization_drop": {str(t): r.q_ref - r.q_quant for t, r in state.tasks.items()},
        "task_layer_usage_sparsity": per_task_sparsity,
        "capacity": {
            "dense_bits": cap.dense_bits,
            "total_bits": cap.total_bits,
            "total_percent": cap.total_percent,
            "per_task": [
                {
                    "task": e.task_id, "psi": e.psi, "bits": e.bits,
                    "bits_actual": e.bits_actual, "percent": e.percent,
                    "percent_actual": e.percent_actual,
                    "cumulative_bits": e.cumulative_bits,
                }
                for e in cap.entries
            ],
        },
        "prune_logs": [asdict(log) for log in state.prune_logs],
    }
    paths["summary"] = os.path.join(out, "summary.json")
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    paths["manifest"] = os.path.join(out, "scenario_manifest.txt")
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        fh.write(state.manifest)
    return paths
