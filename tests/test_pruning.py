from dataclasses import replace

import numpy as np
import pytest

from helpers import same_masks, tables_for
from subnetpack.errors import SelectionWarning
from subnetpack.network import ModelSpec, TrainConfig
from subnetpack.pruning import (PruneConfig, PruneLog, choose_winner, select_best,
                                start_search)
from subnetpack.scenario import permuted_scenario, synthetic_blobs
from subnetpack.store import WeightSlotStore

SPEC = ModelSpec((12, 16, 4))
TRAIN = TrainConfig(epochs=50, batch_size=16, lr_initial=0.3, lr_floor=0.001, seed=0)


def blob_suite(n_tasks=1):
    return synthetic_blobs(n_tasks=n_tasks, classes=4, dim=12, samples=80,
                           separation=8.0, seed=11)


def searched(task_id, store, suite, cfg):
    """Task `task_id`'s search on `store`: (Search, PruneLog, trained winner)."""
    search = start_search(task_id, store, SPEC, suite, cfg, TRAIN)
    log = choose_winner(search)
    return search, log, search.trained()


def test_select_best_equal_accuracy_prefers_sparser():
    # frozen: accuracy term ties, sparsity term decides
    assert select_best((0.9, 0.9), (100.0, 400.0), 0.9, 0.1) == 1


def test_select_best_tradeoff_example():
    # frozen: scores (0.9*0.5+0.1*1.0, 0.9*1.0+0.1*0.25) = (0.55, 0.925)
    assert select_best((0.5, 1.0), (400.0, 100.0), 0.9, 0.1) == 1


def test_select_best_tie_goes_to_lowest_index():
    assert select_best((0.8, 0.8, 0.8), (50.0, 50.0, 50.0), 0.9, 0.1) == 0


def test_select_best_zero_max_terms():
    # all-zero accuracy drops the accuracy term instead of dividing by zero
    assert select_best((0.0, 0.0), (10.0, 20.0), 0.9, 0.1) == 1
    assert select_best((0.3, 0.6), (0.0, 0.0), 0.9, 0.1) == 1
    assert select_best((0.0, 0.0), (0.0, 0.0), 0.9, 0.1) == 0


def test_select_best_validation():
    with pytest.raises(ValueError):
        select_best((), (), 0.9, 0.1)
    with pytest.raises(ValueError):
        select_best((0.5,), (1.0, 2.0), 0.9, 0.1)


def test_select_best_matches_direct_formula():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(1, 12))
        A = rng.uniform(0, 1, size=n)
        S = rng.uniform(0, 500, size=n)
        if trial % 7 == 0:
            A[:] = 0.0
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 2.0))
        a_term = A / A.max() if A.max() > 0 else np.zeros(n)
        s_term = S / S.max() if S.max() > 0 else np.zeros(n)
        expect = int(np.argmax(alpha * a_term + beta * s_term))
        assert select_best(A, S, alpha, beta) == expect


def test_select_best_dominant_candidate_wins():
    # strictly positive weights: beating everyone on both terms must win
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(2, 10))
        A = rng.uniform(0, 0.8, size=n)
        S = rng.uniform(0, 300, size=n)
        d = int(rng.integers(0, n))
        A[d] = A.max() + 0.05
        S[d] = S.max() + 1.0
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 2.0))
        assert select_best(A, S, alpha, beta) == d


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(population=0)
    with pytest.raises(ValueError):
        PruneConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        PruneConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        PruneConfig(v_min=0.8, v_max=0.4)
    with pytest.raises(ValueError):
        PruneConfig(v_max=1.5)
    with pytest.raises(ValueError):
        PruneConfig(t_l=0)
    with pytest.raises(ValueError):
        PruneConfig(psi_min=0)
    with pytest.raises(ValueError):
        PruneConfig(psi_min=33)


def test_make_candidate_independent_of_generation_order():
    # member 3 of a population is the same whatever comes after it
    suite = blob_suite()
    cfg = PruneConfig(population=5, short_epochs=2, seed=3)
    store = WeightSlotStore(SPEC.shapes)
    solo = start_search(0, store, SPEC, suite, replace(cfg, population=4),
                        TRAIN).population.wait()[3]
    in_sequence = start_search(0, store, SPEC, suite, cfg, TRAIN).population.wait()[3]
    assert same_masks(solo.mask, in_sequence.mask)
    for a, b in zip(solo.weights().weights, in_sequence.weights().weights):
        np.testing.assert_array_equal(a, b)
    assert solo.accuracy == in_sequence.accuracy
    assert (store.hypothetical_sparsity(solo.mask)
            == store.hypothetical_sparsity(in_sequence.mask))


def test_make_candidate_sparsity_within_band():
    suite = blob_suite()
    cfg = PruneConfig(population=8, short_epochs=0, v_min=0.45, v_max=0.85, seed=5)
    store = WeightSlotStore(SPEC.shapes)
    for cand in start_search(0, store, SPEC, suite, cfg, TRAIN).population.wait():
        report = store.hypothetical_sparsity(cand.mask)
        for layer, s in enumerate(report.per_layer):
            size = SPEC.shapes[layer][0] * SPEC.shapes[layer][1]
            # target is drawn from [v_min, v_max]; slot rounding is < 1 slot
            assert cfg.v_min - 1.0 / size <= s <= cfg.v_max + 1.0 / size


def test_adaptive_prune_solves_separable_task():
    suite = blob_suite()
    cfg = PruneConfig(population=4, short_epochs=3, full_epochs=40,
                      v_min=0.3, v_max=0.7, seed=0)
    store = WeightSlotStore(SPEC.shapes)
    search, log, result = searched(0, store, suite, cfg)
    assert result.accuracy >= 0.99
    assert search.log is log
    assert isinstance(log, PruneLog)
    assert len(log.accuracies) == cfg.population
    assert log.chosen == select_best(log.accuracies, log.sparsities,
                                     cfg.alpha, cfg.beta)
    assert log.chosen == int(np.argmax(log.scores))
    np.testing.assert_allclose(
        log.winner_layer_sparsity, store.hypothetical_sparsity(search.mask).per_layer)
    assert store.tasks == {}  # pruning itself commits nothing


def test_adaptive_prune_deterministic():
    suite = blob_suite()
    cfg = PruneConfig(population=3, short_epochs=2, full_epochs=5, seed=9)
    a, _, result_a = searched(0, WeightSlotStore(SPEC.shapes), suite, cfg)
    b, _, result_b = searched(0, WeightSlotStore(SPEC.shapes), suite, cfg)
    assert same_masks(a.mask, b.mask)
    for wa, wb in zip(result_a.weights().weights, result_b.weights().weights):
        np.testing.assert_array_equal(wa, wb)
    assert result_a.accuracy == result_b.accuracy


def test_adaptive_prune_tasks_differ():
    suite = blob_suite(n_tasks=2)
    cfg = PruneConfig(population=3, short_epochs=0, full_epochs=0, seed=9)
    store = WeightSlotStore(SPEC.shapes)
    task0, _, _ = searched(0, store, suite, cfg)
    task1, _, _ = searched(1, store, suite, cfg)
    assert not same_masks(task0.mask, task1.mask)


def test_adaptive_prune_population_one():
    suite = blob_suite()
    cfg = PruneConfig(population=1, short_epochs=1, full_epochs=1, seed=2)
    _, log, _ = searched(0, WeightSlotStore(SPEC.shapes), suite, cfg)
    assert log.chosen == 0


def test_adaptive_prune_full_train_starts_from_winner():
    # zero full-train epochs returns the winner's short-trained weights as-is
    suite = blob_suite()
    cfg = PruneConfig(population=3, short_epochs=2, full_epochs=0, seed=4)
    store = WeightSlotStore(SPEC.shapes)
    search, log, result = searched(0, store, suite, cfg)
    rebuilt = start_search(0, WeightSlotStore(SPEC.shapes), SPEC, suite, cfg,
                           TRAIN).population.wait()[log.chosen]
    assert same_masks(rebuilt.mask, search.mask)
    for a, b in zip(result.weights().weights, rebuilt.weights().weights):
        np.testing.assert_array_equal(a, b)


def test_adaptive_prune_avoids_saturated_slots():
    suite = blob_suite(n_tasks=2)
    store = WeightSlotStore(SPEC.shapes, t_max=1)
    # flip a fixed block of each layer to used so it is ineligible at t_l=1
    blocked = []
    for shape in SPEC.shapes:
        m = np.zeros(shape, dtype=bool)
        m.ravel()[: m.size // 2] = True
        blocked.append(m)
    codes = [np.zeros(int(m.sum()), dtype=np.uint32) for m in blocked]
    store.commit(0, blocked, 2, codes, tables_for(2, codes))
    cfg = PruneConfig(population=2, short_epochs=0, full_epochs=0,
                      v_min=0.5, v_max=0.9, t_l=1, seed=1)
    search, _, _ = searched(1, store, suite, cfg)
    for layer in range(SPEC.n_layers):
        overlap = search.mask[layer] & blocked[layer]
        assert not overlap.any()


def test_adaptive_prune_warns_when_no_candidate_learns():
    # zero inputs and biases keep every logit at zero; ties resolve to class
    # 0 while the labels are all 1, so every candidate scores exactly 0
    zeros = (np.zeros((8, 12), dtype=np.uint8), np.ones(8, dtype=np.int64))
    suite = permuted_scenario(zeros, zeros, n_tasks=1, seed=0)
    cfg = PruneConfig(population=3, short_epochs=0, full_epochs=0, seed=0)
    with pytest.warns(SelectionWarning):
        searched(0, WeightSlotStore(SPEC.shapes), suite, cfg)


def test_a_chosen_population_is_freed_while_its_winner_trains():
    # once the winner's job is submitted nothing holds the population's
    # batch: its masks, replies and shared initializer go with it
    import weakref
    suite = blob_suite()
    cfg = PruneConfig(population=3, short_epochs=1, full_epochs=1, seed=5)
    search = start_search(0, WeightSlotStore(SPEC.shapes), SPEC, suite, cfg, TRAIN)
    population = weakref.ref(search.population)
    choose_winner(search)
    assert search.population is None and population() is None
    # the winner's mask is kept, by its own job
    assert search.trained().mask is search.mask
