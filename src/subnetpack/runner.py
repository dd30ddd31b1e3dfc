"""Sequential task loop: prune, quantize, commit, evaluate, checkpoint.

Each task carves its sub-network out of the shared slot store, quantizes it,
and commits. The numeric work runs in the training workers: the winner's job
trains, quantizes with the bit-width ladder uncapped, and scores the
quantized weights on the task's test split (see `workers`). This process
holds the ladder's choice to the mask's slot budget in `_run_task`, the one
loop every mode runs and the one place the modes differ, commits, and
appends the accuracy-matrix row; on a clean run it makes no BLAS call.

A row holds every task seen so far. Task t's own cell is the worker's test
accuracy; a past task's cell is its diagonal cell, because its committed
record never changes. That is checked, not assumed: each task's record
(its store allocation and its biases) has a blake2b digest taken at commit, and
a task whose record no longer matches it is re-evaluated from the store's
dequantized components, so a changed task shows in `forget_check`. A
checkpoint lands after every task so a run can resume from any prefix and
reproduce the uninterrupted result exactly.

`execute_run` looks one task ahead, in every mode. Once task t's winner is
submitted for full training, `_start` begins task t+1: its population is
sampled from a copy of the store in which t's mask already holds a component
of the most bits t can commit, and submitted behind it; t+1's winner is
chosen and submitted as soon as that population returns. A quantization-only
task's dense training is its winner from the start. So the workers train t+1
while t's winner trains and quantizes and while this process commits and
checkpoints task t, which still happen in task order. The copy draws the
masks the real commit would, bit for bit, when `_lookahead_is_exact` holds;
otherwise task t+1 starts after task t's checkpoint, through the same
functions. The warnings the run's filters let through, the error and the
prune log of work done ahead are held back until task t+1 starts, where a
run without the lookahead reports them; an error filter stops the work at
the warning.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import zip_longest

import numpy as np

from .checkpoint import VERSION, load_checkpoint, save_checkpoint
from .config import RunConfig, build_run_config, build_suite, parse_config_text
from .errors import CapacityExhausted, CheckpointError, ConfigError
from .metrics import AccuracyMatrix, capacity_report, forget_check, lifelong_accuracy
from .network import evaluate
from .pruning import (PruneConfig, PruneLog, Search, check_log, choice, choose_winner,
                      start_dense, start_search)
from .quantization import dequantized_weights, fit_budget
from .scenario import ScenarioSuite, make_output_dir
from .store import SLOT_BITS, WeightSlotStore
from .workers import POOL

CHECKPOINT_NAME = "checkpoint.bin"


@dataclass
class TaskRecord:
    """What a committed task keeps beside its allocation in `store.tasks`.

    The bit-width, mask, codes and centroid tables live only in the store.
    `biases` are the winner's biases: float32 in a run, as its worker's reply
    narrows them, and in the float width a checkpoint stored them in after a
    load (float64 in files written before). `digest` is `_record_digest` of
    the record that scored the task's diagonal accuracy cell, held in memory
    only: None after a load until a re-evaluation reproduces that cell.
    """

    biases: list
    q_ref: float
    q_quant: float
    digest: bytes | None = None


@dataclass
class RunState:
    """A run's state; `next_task`, the count of finished tasks, is the
    matrix's row count."""

    config: RunConfig
    suite: ScenarioSuite | None
    store: WeightSlotStore
    matrix: AccuracyMatrix
    manifest: str
    format_version: int  # of the checkpoint it was read from; VERSION in a new run
    tasks: dict[int, TaskRecord] = field(default_factory=dict)
    prune_logs: list = field(default_factory=list)

    @property
    def next_task(self) -> int:
        return self.matrix.n_episodes

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.config.output_dir, CHECKPOINT_NAME)


def _checked_suite(cfg: RunConfig, manifest: str | None = None) -> ScenarioSuite:
    """cfg's suite; ConfigError unless it fits the model and `manifest`, if given."""
    suite = build_suite(cfg.scenario)
    if manifest is not None:
        for was, now in zip_longest(manifest.splitlines(),
                                    suite.manifest_text().splitlines(), fillvalue=""):
            if was != now:
                raise ConfigError("the scenario data changed since the checkpoint: "
                                  f"manifest line {was!r} is now {now!r}")
    spec = cfg.model
    if spec.layer_sizes[0] != suite.input_dim:
        raise ConfigError(
            f"model input {spec.layer_sizes[0]} != scenario dim {suite.input_dim}")
    if spec.layer_sizes[-1] != suite.n_classes:
        raise ConfigError(
            f"model output {spec.layer_sizes[-1]} != {suite.n_classes} classes")
    return suite


def new_state(cfg: RunConfig) -> RunState:
    suite = _checked_suite(cfg)
    store = WeightSlotStore(cfg.model.shapes, t_max=cfg.prune.t_l)
    return RunState(cfg, suite, store, AccuracyMatrix(), suite.manifest_text(), VERSION)


def task_view(state: RunState, task_id: int):
    """(weights, mask) for a committed task, rebuilt from store components.

    The weights are float32, the values the store holds, beside a copy of
    the task's biases in their stored width; `evaluate` widens both to the
    same float64 values and scores them in float64.
    """
    alloc = state.store.tasks[task_id]
    weights = dequantized_weights(alloc.psi, alloc.mask, alloc.codes, alloc.centroids,
                                  state.tasks[task_id].biases)
    return weights, list(alloc.mask)


def _record_digest(state: RunState, task_id: int) -> bytes:
    """blake2b of what task_view rebuilds a task from: psi, mask, codes, tables, biases."""
    alloc = state.store.tasks[task_id]
    h = hashlib.blake2b(str(alloc.psi).encode())
    for arrays in (alloc.mask, alloc.codes, alloc.centroids, state.tasks[task_id].biases):
        for a in arrays:
            h.update(np.ascontiguousarray(a))
    return h.digest()


def _past_accuracy(state: RunState, task_id: int) -> float:
    """A committed task's test accuracy as the store holds it now.

    While its record matches its digest this is its diagonal cell; otherwise
    the task is evaluated again, from `task_view`.
    """
    rec = state.tasks[task_id]
    digest = _record_digest(state, task_id)
    scored = state.matrix.rows[task_id][task_id]
    if digest == rec.digest:
        return scored
    x_test, y_test = state.suite.test_split(task_id)
    view, mask = task_view(state, task_id)
    acc = evaluate(state.config.model, view, mask, x_test, y_test)
    if rec.digest is None and acc == scored:
        rec.digest = digest  # a loaded task, as it was scored
    return acc


class _Ahead:
    """A task's work, begun: its search, its warnings and error held back."""

    def __init__(self):
        self.search: Search | None = None
        self.error: Exception | None = None
        self.caught = []

    def run(self, fn, *args):
        """fn(*args), recording the warnings the run's filters let through and
        any error, a warning a filter turned into one included; None after an
        error."""
        if self.error is not None:
            return None
        with warnings.catch_warnings(record=True) as caught:
            try:
                return fn(*args)
            except Exception as exc:
                self.error = exc
                return None
            finally:
                self.caught += caught

    def take(self) -> Search:
        """The search, after the held-back warnings and error.

        The filters chose each warning where it was issued; it is shown
        here, pointing there. The error is raised. The _Ahead keeps no
        reference to what it hands over.
        """
        for w in self.caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                                 w.file, w.line)
        if self.error is not None:
            raise self.error
        taken, self.search = self.search, None
        return taken


def _search_bits(state: RunState) -> tuple[int, int]:
    """(psi_min of a task's first search, most bits its winner can commit)."""
    if state.config.mode == "pruning-only":
        return SLOT_BITS, SLOT_BITS
    return state.config.prune.psi_min, state.config.quant.psi_max


def _lookahead_is_exact(state: RunState, mask) -> bool:
    """Whether the next task begins the same work before `mask` commits as after.

    Dense training reads no store. A search samples from
    `store.projected(mask, most)`, with (psi_min, most) from `_search_bits`;
    a slot is eligible while it holds fewer than t_max components and at
    least psi_min free bits. Pruning-only commits exactly 32 bits, as the
    copy does. A full task commits at most psi_max bits; if every slot under
    `mask` has psi_max + psi_min bits free, each keeps psi_min free whatever
    bit-width is picked, and `fit_budget` passes any choice up to psi_max,
    so the task is not resampled either.
    """
    if state.config.mode != "full":
        return True
    psi_min, most = _search_bits(state)
    return state.store.mask_bit_budget(mask) >= most + psi_min


def _start(state: RunState, t, psi_min, after=None) -> _Ahead:
    """Begin task t's search or dense training; warnings and error wait for `take()`.

    A search samples from the store as it is, or as it will be once the mask
    `after` commits. The winner's job quantizes with the ladder, or stores
    32-bit patterns in pruning-only runs. The jobs name the task, and the
    workers build it: this process never does.
    """
    cfg = state.config
    prune = replace(cfg.prune, psi_min=psi_min)
    ahead = _Ahead()
    if cfg.mode == "quantization-only":
        ahead.search = ahead.run(start_dense, t, cfg.model, state.suite, prune,
                                 cfg.train, cfg.quant)
        return ahead
    store = state.store if after is None else state.store.projected(
        after, _search_bits(state)[1])
    quant = None if cfg.mode == "pruning-only" else cfg.quant
    ahead.search = ahead.run(start_search, t, store, cfg.model, state.suite, prune,
                             cfg.train, quant)
    return ahead


def _trained_winner(state: RunState, t, ahead: _Ahead | None, psi_min):
    """(the winner's finished JobResult, which holds its mask; next _Ahead or None).

    Task t's work comes from `ahead`, or starts here with the floor `psi_min`
    the caller gives. Its winner is chosen unless it has one, and a search's
    choice is logged. Task t+1's work begins before the wait for the winner,
    if that is exact, with a first search's floor; while the winner trains,
    t+1's winner is chosen as soon as its population is in.
    """
    if ahead is None:
        ahead = _start(state, t, psi_min)
    search = ahead.take()
    if search.winner is None:
        choose_winner(search)
    if search.log is not None:
        state.prune_logs.append(search.log)
    ahead = None
    if t + 1 < state.suite.n_tasks and _lookahead_is_exact(state, search.mask):
        ahead = _start(state, t + 1, _search_bits(state)[0], after=search.mask)
    while (ahead is not None and ahead.error is None
           and ahead.search.winner is None and not search.winner.ready):
        POOL.wait_any([search.winner, ahead.search.population])
        if ahead.search.population.ready:
            ahead.run(choose_winner, ahead.search)
    return search.trained(), ahead


def _run_task(state: RunState, t, ahead):
    """(task t's winner, mask included, held to its slot budget; next _Ahead or None).

    `ahead` is the work begun for task t during task t-1, or None. The modes
    differ only in the winner's bit budget:
    - pruning-only fits none: its winner is stored as raw 32-bit patterns,
      which hold the trained float32 values exactly (so q_quant is q_ref),
      drawn from slots with all 32 bits free;
    - quantization-only fails a saturated store before its dense training is
      waited on, and a choice over budget fails the task, since a dense mask
      cannot be drawn again;
    - full draws the task again from slots with one bit more free than the
      mask's budget. `fit_budget` fails only a budget below the choice, which
      is at most psi_max, so that floor never passes psi_max; a run fails
      when the sampler finds no slot with that many bits free. A retry never
      follows a lookahead: `_lookahead_is_exact` rules it out.
    """
    cfg = state.config
    if cfg.mode == "quantization-only":
        saturated = tuple(
            i for i in range(state.store.layer_count)
            if not state.store.eligible_slots(i, cfg.quant.psi_init).all()
        )
        if saturated:
            raise CapacityExhausted(
                saturated,
                f"task {t}: a dense mask needs every slot eligible for "
                f"{cfg.quant.psi_init}-bit components")
    psi_min = _search_bits(state)[0]
    while True:
        result, next_ahead = _trained_winner(state, t, ahead, psi_min)
        if cfg.mode == "pruning-only":
            return result, next_ahead
        budget = state.store.mask_bit_budget(result.mask)
        try:
            fit_budget(t, cfg.model, result.psi, result.q_acc, result.accuracy,
                       cfg.quant, budget)
            return result, next_ahead
        except CapacityExhausted:
            if cfg.mode == "quantization-only":
                raise
            psi_min, ahead = budget + 1, None


def execute_task(state: RunState, t: int, ahead: _Ahead | None = None) -> _Ahead | None:
    """Run task t: search, quantize, commit, fill its accuracy row, checkpoint.

    `ahead` is the work begun for task t during task t-1; its held-back
    warnings and error surface first. The work begun for task t+1 while task
    t's winner trains is returned, for the call that runs task t+1.
    """
    result, ahead = _run_task(state, t, ahead)
    state.store.commit(t, result.mask, result.psi, result.codes, result.centroids)
    state.tasks[t] = TaskRecord(result.biases, result.accuracy, result.q_acc)
    state.tasks[t].digest = _record_digest(state, t)
    state.matrix.append_row([_past_accuracy(state, e) for e in range(t)]
                            + [result.test_acc])
    save_run_checkpoint(state)
    return ahead


def execute_run(state: RunState) -> None:
    """Run every remaining task, one task ahead, then write reports.

    An output directory that cannot be created raises ConfigError before any
    task trains. On capacity exhaustion the current state is checkpointed
    before the error propagates, so the run can be inspected or resumed with
    a wider budget. On any error, training jobs still in flight are dropped.
    A loaded run first drops the prune logs of the task it redoes.
    """
    make_output_dir(state.config.output_dir)
    state.prune_logs = [log for log in state.prune_logs if log.task_id < state.next_task]
    ahead = None
    try:
        for t in range(state.next_task, state.suite.n_tasks):
            ahead = execute_task(state, t, ahead)
    except CapacityExhausted:
        save_run_checkpoint(state)
        raise
    finally:
        POOL.cancel()
    write_reports(state)


# -- checkpoint round trip ----------------------------------------------------

def _state_payload(state: RunState) -> dict:
    """The one writer of task records; state_from_checkpoint reads them back."""
    tasks, allocs = state.tasks, state.store.tasks
    return {
        "store": state.store.state_dict(),
        "codebooks": {str(t): {"psi": a.psi, "centroids": list(a.centroids)}
                      for t, a in allocs.items()},
        "biases": {str(t): list(r.biases) for t, r in tasks.items()},
        "matrix": [list(row) for row in state.matrix.rows],
        "manifest": state.manifest,
        "config": state.config.canonical_text(),
        "next_task": state.next_task,
        "q_ref": {str(t): r.q_ref for t, r in tasks.items()},
        "q_quant": {str(t): r.q_quant for t, r in tasks.items()},
        "psi_star": {str(t): a.psi for t, a in allocs.items()},
        "prune_logs": [vars(log) for log in state.prune_logs],
    }


def save_run_checkpoint(state: RunState) -> str:
    make_output_dir(state.config.output_dir)
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
        book_psi, biases = cols["codebooks"][t]["psi"], cols["biases"][t]
        if not cols["psi_star"][t] == book_psi == alloc.psi:
            raise CheckpointError(
                f"task {t}: psi_star {cols['psi_star'][t]} and codebook psi "
                f"{book_psi} disagree with the stored bit-width {alloc.psi}")
        if (not isinstance(biases, list) or len(biases) != store.layer_count
                or not all(isinstance(b, np.ndarray) and b.dtype.kind == "f"
                           and b.shape == shape[:1] and np.isfinite(b).all()
                           for b, shape in zip(biases, store.layer_shapes))):
            raise CheckpointError(f"task {t}: biases need one finite float array "
                                  "per layer, one entry per output")
        q_ref, q_quant = cols["q_ref"][t], cols["q_quant"][t]
        if not all(isinstance(q, float) and 0.0 <= q <= 1.0 for q in (q_ref, q_quant)):
            raise CheckpointError(f"task {t}: accuracies {q_ref!r} and {q_quant!r} "
                                  "need to be floats in [0, 1]")
        records[t] = TaskRecord(biases, q_ref, q_quant)
    return records


def _read_log(rec: dict, store: WeightSlotStore, prune: PruneConfig) -> PruneLog:
    """A payload's prune log: ints task_id and chosen, a list of finite floats
    for each of its four sequences, values `check_log` accepts for the
    store's layers and slots, and the scores and choice that `choice` makes
    of its accuracies and sparsities under the run's alpha and beta."""
    seqs = {k: v for k, v in rec.items() if k not in ("task_id", "chosen")}
    if not all(isinstance(seq, list) and all(isinstance(v, float) and math.isfinite(v)
                                             for v in seq) for seq in seqs.values()):
        raise CheckpointError("a prune log's sequences need to be lists of finite floats")
    for key in ("task_id", "chosen"):
        _expect(rec[key], int)
    log = PruneLog(**{**rec, **{k: tuple(v) for k, v in seqs.items()}})
    try:
        check_log(log, store.layer_count, store.total_slots)
        rule = choice(log.accuracies, log.sparsities, prune.alpha, prune.beta)
    except ValueError as exc:
        raise CheckpointError(f"the prune log of task {log.task_id}: {exc}") from None
    if (log.scores, log.chosen) != rule:
        raise CheckpointError(f"the prune log of task {log.task_id}: its scores or "
                              "choice are not those of its accuracies and sparsities")
    return log


def _check_logs_against_store(logs, store: WeightSlotStore) -> None:
    """CheckpointError unless the last log of each stored task measured the
    winner the store holds: its winner sparsities and chosen sparsity are
    `hypothetical_sparsity` of the task's mask over the tasks before it. One
    scratch store counts those tasks, each task occupying its slots in turn
    as a zero-bit component, since the sparsity reads only the counts."""
    last = {log.task_id: log for log in logs}
    before = WeightSlotStore(store.layer_shapes, t_max=store.t_max)
    for t in sorted(store.tasks):
        alloc = store.tasks[t]
        if t in last:
            log, report = last[t], before.hypothetical_sparsity(alloc.mask)
            if (log.winner_layer_sparsity, log.sparsities[log.chosen]) != (
                    report.per_layer, report.weighted):
                raise CheckpointError(f"the last prune log of task {t} disagrees "
                                      "with the sparsity of its stored mask")
        before._occupy(alloc.mask, 0)


def state_from_checkpoint(path, need_suite=True, output_dir=None) -> RunState:
    """Rebuild a RunState; with need_suite=False, reports only (no resume).

    A payload that does not hold a state this module wrote raises
    CheckpointError, as does one whose copies of a fact disagree. The
    scenario data is opened only with need_suite; a suite whose manifest
    differs from the stored one, because its files changed, raises
    ConfigError. `output_dir` replaces the stored `run.output_dir`, so the
    checkpoints and reports the state writes, and what resumes them, stay
    there.
    """
    version, payload = load_checkpoint(path)
    try:
        raw = parse_config_text(payload["config"])
        if output_dir is not None:
            raw["run.output_dir"] = output_dir
        cfg = build_run_config(raw)
        matrix = AccuracyMatrix(payload["matrix"])
        next_task = _expect(payload["next_task"], int)
        # next_task, slot cap and layer shapes, each held twice, agree before
        # the task list or the store is allocated from them
        held = (next_task, payload["store"]["t_max"], payload["store"]["layer_shapes"])
        want = (matrix.n_episodes, cfg.prune.t_l, [list(s) for s in cfg.model.shapes])
        if held != want:
            raise CheckpointError(f"{path}: next_task, slot cap and layer shapes "
                                  f"{held} disagree with {want}")
        # format 1 stored the slot store unpacked
        store = WeightSlotStore.from_state_dict(
            payload["store"],
            {int(t): book["centroids"] for t, book in payload["codebooks"].items()},
            packed=version >= 2)
        if sorted(store.tasks) != list(range(next_task)):
            raise CheckpointError(f"{path}: the store holds tasks {sorted(store.tasks)}, "
                                  f"not the {next_task} the matrix covers")
        state = RunState(cfg, None, store, matrix, _expect(payload["manifest"], str),
                         version, tasks=_read_records(payload, store))
        state.prune_logs = [_read_log(rec, store, cfg.prune)
                            for rec in payload["prune_logs"]]
        # a run that stops on capacity exhaustion saves the log of the task
        # it could not finish, so a log may name next_task
        ids = [log.task_id for log in state.prune_logs]
        if not all(a <= b for a, b in zip([0] + ids, ids + [next_task])):
            raise CheckpointError(f"{path}: prune logs of tasks {ids} are not in "
                                  f"task order from 0 to {next_task}")
        # a task of a mode that searches finishes only after its search is logged
        if cfg.mode != "quantization-only" and not set(range(next_task)) <= set(ids):
            raise CheckpointError(f"{path}: prune logs of tasks {ids} do not cover "
                                  f"the {next_task} finished tasks")
        _check_logs_against_store(state.prune_logs, store)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        # ValueError covers a store's CommitRejected and a ConfigError from
        # the stored config text
        raise CheckpointError(f"{path}: malformed state: {exc!r}") from None
    if need_suite:
        state.suite = _checked_suite(cfg, state.manifest)
    return state


# -- reports -------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def _write_report(path: str, text: str) -> None:
    """Write `text` as UTF-8 over the file's old bytes, then cut it to length.

    The file never passes through zero bytes: ext4 flushes a file that was
    truncated to zero and rewritten when it closes (its auto_da_alloc
    heuristic), a median 64-69 us a report on a 2-core Xeon against 7-11 us
    in place. A new file gets mode 0o666 under the umask, as `open` gives it.
    A failed write cuts the file to the bytes written so far, the state a
    truncate-first write would leave, and raises.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def write_reports(state: RunState) -> dict:
    """accuracy_matrix.csv, capacity.csv, summary.json, scenario_manifest.txt.

    Files are byte-identical across reruns of the same seeded config; the one
    timestamp sits alone on its own line of summary.json. Each is rewritten
    in place and cut to length (`_write_report`); they derive from the
    checkpoint, so writing them again mends one a crash left half written.
    """
    if state.matrix.n_episodes == 0:
        raise ValueError("nothing to report: no task has completed")
    out = state.config.output_dir
    make_output_dir(out)
    paths = {}

    n = state.matrix.n_episodes
    lines = ["episode," + ",".join(f"task_{t}" for t in range(n))]
    for e, row in enumerate(state.matrix.rows):
        cells = [_fmt(v) for v in row] + [""] * (n - len(row))
        lines.append(f"{e}," + ",".join(cells))
    paths["accuracy_matrix"] = os.path.join(out, "accuracy_matrix.csv")
    _write_report(paths["accuracy_matrix"], "\n".join(lines) + "\n")

    cap = capacity_report(state.store)
    lines = ["task,mode,psi,bits,bits_actual,percent,percent_actual,cumulative_bits"]
    for row in cap["per_task"]:
        lines.append(
            f"{row['task']},{state.config.mode},{row['psi']},{row['bits']},"
            f"{row['bits_actual']},{_fmt(row['percent'])},"
            f"{_fmt(row['percent_actual'])},{row['cumulative_bits']}")
    paths["capacity"] = os.path.join(out, "capacity.csv")
    _write_report(paths["capacity"], "\n".join(lines) + "\n")

    per_task_sparsity = {
        str(t): [
            1.0 - used / size
            for used, size in zip(state.store.tasks[t].active_counts(),
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
        "capacity": cap,
        "prune_logs": [vars(log) for log in state.prune_logs],
    }
    paths["summary"] = os.path.join(out, "summary.json")
    _write_report(paths["summary"], json.dumps(summary, indent=2, sort_keys=True) + "\n")

    paths["manifest"] = os.path.join(out, "scenario_manifest.txt")
    _write_report(paths["manifest"], state.manifest)
    return paths
