"""Adaptive pruning: population search over lottery-ticket masks.

For each task a population of candidate masks is sampled under the store's
eligibility rules, each candidate short-trains from the same fresh
initializer, and the winner of a blended accuracy/sparsity score is trained
in full. The winner's job then quantizes its task and scores it on the test
split, in the worker that trained it (see `workers`).

Masks are sampled, and candidates scored, in the calling process. Training
and the validation accuracy run in `workers`: the whole population goes to
the pool as one job list naming the task by its suite and id, so candidates
short-train in parallel, each in a single-BLAS-thread process that builds the
task's splits itself and runs the pre-masked float32 SGD of
`network.train_masked`. Every job derives its seed from (seed, task, index),
so neither the pool size nor the job order changes a result.

A search has two halves: `start_search` samples the population and submits
its training, and `choose_winner` waits for it, chooses the winner and
submits the winner's full training; neither blocks on the winner, which
`Search.trained` waits for. Between them the caller is free, which `runner`
uses to start the next task's search while this task's winner trains.
`adaptive_prune` runs the three in sequence. `start_dense` begins a search
with no population: the dense network's full training is its winner.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .errors import SelectionWarning
from .network import TrainConfig, full_mask, xavier_init
from .quantization import QuantConfig
from .seeding import derive_seed, rng_from
from .store import WeightSlotStore, sample_candidate_full
from .workers import Batch, JobResult, submit

# rng stream roles, combined as (seed, task_id, role, index)
ROLE_INIT = 0
ROLE_CANDIDATE = 1
ROLE_FULLTRAIN = 2


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
    """Index of the highest alpha*A/max(A) + beta*S/max(S); ties to lowest."""
    return choice(accuracies, sparsities, alpha, beta)[1]


def choice(accuracies, sparsities, alpha, beta) -> tuple[tuple[float, ...], int]:
    """The choice rule: (every candidate's score, the first index of the highest).

    A candidate scores alpha*A/max(A) + beta*S/max(S) in float64; a zero max
    turns that term into zero for every candidate rather than dividing by it.
    """
    if len(accuracies) == 0 or len(accuracies) != len(sparsities):
        raise ValueError("need equal-length nonempty score lists")
    top_a, top_s = float(max(accuracies)), float(max(sparsities))
    scores = tuple(alpha * (float(a) / top_a if top_a > 0 else 0.0)
                   + beta * (float(s) / top_s if top_s > 0 else 0.0)
                   for a, s in zip(accuracies, sparsities))
    return scores, scores.index(max(scores))


def check_log(log: PruneLog, n_layers: int, slots: int) -> None:
    """ValueError unless a log's measured values are in range: accuracies in
    [0, 1], sparsities (free slots) in [0, slots], and one winner sparsity
    in [0, 1] per layer."""
    if not (all(0.0 <= a <= 1.0 for a in log.accuracies)
            and all(0.0 <= s <= slots for s in log.sparsities)
            and len(log.winner_layer_sparsity) == n_layers
            and all(0.0 <= s <= 1.0 for s in log.winner_layer_sparsity)):
        raise ValueError("accuracies and winner sparsities need to be in [0, 1], "
                         f"with one winner sparsity per layer ({n_layers}), "
                         f"and sparsities in [0, {slots}]")


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

    `population` trains the members on the task; each JobResult holds its
    member's mask and short-trained weights. `choose_winner` then sets `log`,
    submits `winner`, the chosen member's full training finishing the task
    with `quant` (see `submit_full_training`), and drops `population`, so
    the members' masks, replies and shared initializer are freed while the
    winner trains. One from `start_dense` has no store, population or log.
    """

    task_id: int
    store: WeightSlotStore | None  # the store the masks were drawn from
    cfg: PruneConfig
    train_cfg: TrainConfig
    quant: QuantConfig | None
    population: Batch | None
    log: PruneLog | None = None
    winner: Batch | None = None

    @property
    def mask(self) -> list:
        """The winner's mask, once chosen."""
        return self.winner.jobs[0][1]

    def trained(self) -> JobResult:
        """The winner after full training, its task finished; waits for it."""
        return self.winner.wait()[0]


def _search(indices, task_id, store: WeightSlotStore, spec, init_weights,
            suite, cfg: PruneConfig, train_cfg: TrainConfig, quant=None) -> Search:
    """Sample the members `indices` and submit their short training."""
    jobs = [_short_job(i, task_id, store, cfg, train_cfg) for i in indices]
    batch = submit(spec, suite, task_id, [(init_weights, mask, short_cfg)
                                          for mask, short_cfg in jobs])
    return Search(task_id, store, cfg, train_cfg, quant, batch)


def start_search(task_id, store: WeightSlotStore, spec, suite,
                 cfg: PruneConfig, train_cfg: TrainConfig,
                 quant: QuantConfig | None = None) -> Search:
    """First half of a search: sample the population, submit its training.

    The members train on task `task_id` of `suite`. Does not wait for the
    workers. `quant` is how the winner's job finishes the task; see
    `submit_full_training`.
    """
    return _search(range(cfg.population), task_id, store, spec,
                   _initial_weights(task_id, spec, cfg), suite, cfg, train_cfg, quant)


def start_dense(task_id, spec, suite, cfg: PruneConfig, train_cfg: TrainConfig,
                quant: QuantConfig) -> Search:
    """A search with no population: the dense network, from the task's fresh
    initializer, is member 0 and the winner; submits its full training."""
    winner = submit_full_training(task_id, 0, spec, _initial_weights(task_id, spec, cfg),
                                  full_mask(spec), suite, cfg, train_cfg, quant)
    return Search(task_id, None, cfg, train_cfg, quant, None, winner=winner)


def _initial_weights(task_id, spec, cfg: PruneConfig):
    """Task `task_id`'s fresh initializer, shared by every member it trains."""
    return xavier_init(spec, derive_seed(cfg.seed, task_id, ROLE_INIT, 0))


def make_candidate(index, task_id, store: WeightSlotStore, spec, init_weights,
                   suite, cfg: PruneConfig, train_cfg: TrainConfig) -> JobResult:
    """Sample and short-train candidate `index` on its own.

    It equals member `index` of start_search's population.
    """
    return _search([index], task_id, store, spec, init_weights, suite, cfg,
                   train_cfg).population.wait()[0]


def submit_full_training(task_id, index, spec, weights, mask, suite,
                         cfg: PruneConfig, train_cfg: TrainConfig,
                         quant: QuantConfig | None) -> Batch:
    """Submit the full training of the chosen member `index`; it finishes the task.

    Trains on task `task_id` of `suite` for cfg.full_epochs with the member's
    ROLE_FULLTRAIN seed, and the batch's one result is scored on the
    validation split. The job then quantizes the trained weights: with
    adaptive_quantize, uncapped, when `quant` is a QuantConfig, and with
    identity_quantize when it is None. It scores the quantized weights on
    the test split. All of it runs in a training worker.
    """
    full_cfg = replace(
        train_cfg,
        epochs=cfg.full_epochs,
        seed=derive_seed(cfg.seed, task_id, ROLE_FULLTRAIN, index),
    )
    return submit(spec, suite, task_id, [(weights, mask, full_cfg, quant)])


def choose_winner(search: Search) -> PruneLog:
    """Second half of a search: choose the winner, submit its training.

    Waits for the population, scores it, submits the winner's training,
    drops the population, and returns the PruneLog of the choice;
    `search.trained()` then waits for the winner.
    """
    population = search.population.wait()
    cfg = search.cfg
    accuracies = tuple(r.accuracy for r in population)
    reports = [search.store.hypothetical_sparsity(r.mask) for r in population]
    sparsities = tuple(r.weighted for r in reports)
    if max(accuracies) == 0.0:
        warnings.warn(
            f"task {search.task_id}: every candidate scored zero accuracy; "
            "selecting on sparsity alone",
            SelectionWarning,
            stacklevel=2,
        )
    scores, chosen = choice(accuracies, sparsities, cfg.alpha, cfg.beta)
    search.log = PruneLog(search.task_id, accuracies, sparsities, scores, chosen,
                          reports[chosen].per_layer)
    check_log(search.log, search.store.layer_count, search.store.total_slots)
    winner = population[chosen]
    task = search.population  # its spec and suite
    search.winner = submit_full_training(search.task_id, chosen, task.spec,
                                         winner.weights(), winner.mask, task.suite,
                                         cfg, search.train_cfg, search.quant)
    search.population = None
    return search.log


def adaptive_prune(task_id, store: WeightSlotStore, spec, suite,
                   cfg: PruneConfig, train_cfg: TrainConfig):
    """Population search for one task; returns (mask, weights, accuracy).

    The returned weights are the winner's after full training on the task's
    train split, and the accuracy is measured on its validation split. It is
    start_search, then choose_winner, then a wait for the winner.
    """
    search = start_search(task_id, store, spec, suite, cfg, train_cfg)
    choose_winner(search)
    result = search.trained()
    return search.mask, result.weights(), result.accuracy
