"""Adaptive pruning: population search over lottery-ticket masks.

For each task a population of candidate masks is sampled under the store's
eligibility rules, each candidate short-trains from the same fresh
initializer, and the winner of a blended accuracy/sparsity score is trained
in full. The winner's mask and weights feed the quantization stage.

Masks are sampled, and candidates scored, in the calling process. Training
and the validation accuracy run in `workers`: the whole population goes to
the pool as one job list, so candidates short-train in parallel, each in a
single-BLAS-thread process running the pre-masked float32 SGD of
`network.train_masked`. Every job derives its seed from (seed, task, index),
so neither the pool size nor the job order changes a result.

`adaptive_prune` is its two halves run in sequence: `start_search` samples
the population and submits its training, and `choose_winner` waits for it,
chooses the winner and submits the winner's full training; neither blocks
on the winner. Between them the caller is free, which `runner` uses to start
the next task's search while this task's winner trains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import SelectionWarning
from .network import DenseWeights, ModelSpec, TrainConfig, xavier_init
from .scenario import TaskData
from .seeding import derive_seed, rng_from
from .store import TaskMask, WeightSlotStore, sample_candidate_full
from .workers import Batch, JobResult, submit

# rng stream roles, combined as (seed, task_id, role, index)
ROLE_INIT = 0
ROLE_CANDIDATE = 1
ROLE_FULLTRAIN = 2


@dataclass
class Candidate:
    """One population member: mask plus its short-training result and score."""

    index: int
    mask: TaskMask
    result: JobResult
    sparsity: float

    @property
    def accuracy(self) -> float:
        return self.result.accuracy

    @property
    def weights(self) -> DenseWeights:
        """The short-trained weights, rebuilt from the result when asked."""
        return self.result.weights()


@dataclass(frozen=True)
class PruneConfig:
    population: int = 16
    alpha: float = 0.9
    beta: float = 0.1
    v_min: float = 0.45
    v_max: float = 0.85
    short_epochs: int = 5
    full_epochs: int = 50
    t_l: int = 4
    psi_min: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        if not (0.0 <= self.v_min <= self.v_max <= 1.0):
            raise ValueError("need 0 <= v_min <= v_max <= 1")
        if self.short_epochs < 0 or self.full_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.t_l < 1 or not (1 <= self.psi_min <= 32):
            raise ValueError("t_l must be >= 1 and psi_min in [1, 32]")


@dataclass
class PruneLog:
    """Per-task record of the population search, kept for reports."""

    task_id: int
    accuracies: tuple[float, ...]
    sparsities: tuple[float, ...]
    scores: tuple[float, ...]
    chosen: int
    winner_layer_sparsity: tuple[float, ...]


def select_best(accuracies, sparsities, alpha, beta) -> int:
    """Index of the highest alpha*A/max(A) + beta*S/max(S); ties to lowest.

    A zero max turns that term into zero for every candidate rather than
    dividing by it.
    """
    return int(np.argmax(_scores(accuracies, sparsities, alpha, beta)))


def _scores(accuracies, sparsities, alpha, beta):
    """Every candidate's score under select_best's formula."""
    A = np.asarray(accuracies, dtype=np.float64)
    S = np.asarray(sparsities, dtype=np.float64)
    if A.size == 0 or A.shape != S.shape:
        raise ValueError("need equal-length nonempty score lists")
    a_term = A / A.max() if A.max() > 0 else np.zeros_like(A)
    s_term = S / S.max() if S.max() > 0 else np.zeros_like(S)
    return tuple(float(v) for v in alpha * a_term + beta * s_term)


def _short_job(index, task_id, store: WeightSlotStore, cfg: PruneConfig,
               train_cfg: TrainConfig):
    """Candidate `index`'s mask and short-training TrainConfig.

    Every candidate derives its own rng streams from (seed, task, index), so
    population members are independent of generation order.
    """
    rng = rng_from(cfg.seed, task_id, ROLE_CANDIDATE, index)
    mask = sample_candidate_full(store, cfg.v_min, cfg.v_max, cfg.psi_min, rng)
    short_cfg = replace(
        train_cfg,
        epochs=cfg.short_epochs,
        seed=derive_seed(cfg.seed, task_id, ROLE_CANDIDATE, index),
    )
    return mask, short_cfg


@dataclass
class Search:
    """One task's population search, from `start_search` to its winner.

    `population` trains the members `indices`; `choose_winner` then sets
    `log`, submits `winner`, the chosen member's full training, and lets go
    of `data`.
    """

    task_id: int
    store: WeightSlotStore  # the store the masks were drawn from
    spec: ModelSpec
    data: TaskData | None
    cfg: PruneConfig
    train_cfg: TrainConfig
    indices: list
    population: Batch
    log: PruneLog | None = None
    winner: Batch | None = None

    def candidates(self) -> list[Candidate]:
        """The population, once trained, scored on the search's store."""
        return [Candidate(i, r.mask, r, self.store.hypothetical_sparsity(r.mask).weighted)
                for i, r in zip(self.indices, self.population.wait())]

    @property
    def mask(self) -> TaskMask:
        """The winner's mask, once chosen."""
        return self.winner.jobs[0][1]

    def trained(self) -> JobResult:
        """The winner after full training; waits for it."""
        return self.winner.wait()[0]


def _search(indices, task_id, store: WeightSlotStore, spec, init_weights,
            data, cfg: PruneConfig, train_cfg: TrainConfig) -> Search:
    """Sample the members `indices` and submit their short training."""
    jobs = [_short_job(i, task_id, store, cfg, train_cfg) for i in indices]
    batch = submit(spec, data, [(init_weights, mask, short_cfg)
                                for mask, short_cfg in jobs])
    return Search(task_id, store, spec, data, cfg, train_cfg, list(indices), batch)


def start_search(task_id, store: WeightSlotStore, spec, data,
                 cfg: PruneConfig, train_cfg: TrainConfig) -> Search:
    """First half of adaptive_prune: sample the population, submit its training.

    Does not wait for the workers.
    """
    init_weights = xavier_init(spec, derive_seed(cfg.seed, task_id, ROLE_INIT, 0))
    return _search(range(cfg.population), task_id, store, spec, init_weights,
                   data, cfg, train_cfg)


def make_candidate(index, task_id, store: WeightSlotStore, spec, init_weights,
                   data, cfg: PruneConfig, train_cfg: TrainConfig) -> Candidate:
    """Sample, short-train, and score candidate `index` on its own.

    It equals member `index` of adaptive_prune's population.
    """
    return _search([index], task_id, store, spec, init_weights, data, cfg,
                   train_cfg).candidates()[0]


def submit_full_training(task_id, index, spec, weights, mask, data,
                         cfg: PruneConfig, train_cfg: TrainConfig) -> Batch:
    """Submit the full training of the chosen member `index`.

    Trains for cfg.full_epochs on the train split with the member's
    ROLE_FULLTRAIN seed; the batch's one result is scored on the validation
    split. Both run in a training worker.
    """
    full_cfg = replace(
        train_cfg,
        epochs=cfg.full_epochs,
        seed=derive_seed(cfg.seed, task_id, ROLE_FULLTRAIN, index),
    )
    return submit(spec, data, [(weights, mask, full_cfg)])


def choose_winner(search: Search) -> PruneLog:
    """Second half of adaptive_prune: choose the winner, submit its training.

    Waits for the population, scores it, and returns the PruneLog of the
    choice; `search.trained()` then waits for the winner.
    """
    population = search.candidates()
    cfg = search.cfg
    accuracies = tuple(c.accuracy for c in population)
    sparsities = tuple(c.sparsity for c in population)
    if max(accuracies) == 0.0:
        warnings.warn(
            f"task {search.task_id}: every candidate scored zero accuracy; "
            "selecting on sparsity alone",
            SelectionWarning,
            stacklevel=2,
        )
    chosen = select_best(accuracies, sparsities, cfg.alpha, cfg.beta)
    winner = population[chosen]
    search.winner = submit_full_training(search.task_id, chosen, search.spec,
                                         winner.weights, winner.mask, search.data,
                                         cfg, search.train_cfg)
    search.data = None
    search.log = PruneLog(
        search.task_id,
        accuracies,
        sparsities,
        _scores(accuracies, sparsities, cfg.alpha, cfg.beta),
        chosen,
        search.store.hypothetical_sparsity(winner.mask).per_layer,
    )
    return search.log


def adaptive_prune(task_id, store: WeightSlotStore, spec, data,
                   cfg: PruneConfig, train_cfg: TrainConfig, sink=None):
    """Population search for one task; returns (mask, weights, accuracy).

    The returned weights are the winner's after full training on the task's
    train split, and the accuracy is measured on its validation split. `sink`,
    when given, receives one PruneLog. It is start_search, then choose_winner,
    then a wait for the winner.
    """
    search = start_search(task_id, store, spec, data, cfg, train_cfg)
    log = choose_winner(search)
    result = search.trained()
    if sink is not None:
        sink(log)
    return search.mask, result.weights(), result.accuracy
