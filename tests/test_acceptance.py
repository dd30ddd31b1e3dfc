"""End-to-end acceptance suite.

Each test prints exactly one `criterion N: PASS/FAIL (...)` line; run with
`pytest -s tests/test_acceptance.py` to watch the verdicts land. Criteria 1-4
share a single three-task permuted-digit run (around two minutes); the rest
are fast randomized checks against independent reference implementations.
"""

import numpy as np
import pytest

from helpers import (contiguous_optimum, kmeans_wcss, record_winners, run_until_saved,
                     same_masks, slot_components, slot_occupancy, tables_for, tables_of)
from subnetpack.config import QuantConfig, build_run_config, parse_config_text
from subnetpack.errors import CommitRejected
from subnetpack.metrics import capacity, capacity_report, forget_check, lifelong_accuracy
from subnetpack.network import DenseWeights, ModelSpec, evaluate, loss_and_grads, xavier_init
from subnetpack.pruning import select_best
from subnetpack.quantization import dequantize, kmeans_1d, nonlinear_quantize
from subnetpack.runner import execute_run, new_state, state_from_checkpoint, task_view
from subnetpack.scenario import write_digit_idx
from subnetpack.store import SLOT_BITS, WeightSlotStore


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    # three permuted-digit tasks through a 784-100-10 net, default knobs:
    # (state, each task's committed winner by task id)
    root = tmp_path_factory.mktemp("desk")
    paths = write_digit_idx(str(root / "data"), n_train=24000, n_test=4000, seed=0)
    text = "\n".join([
        "scenario.kind = permuted",
        "scenario.n_tasks = 3",
        f"scenario.train_images = {paths['train_images']}",
        f"scenario.train_labels = {paths['train_labels']}",
        f"scenario.test_images = {paths['test_images']}",
        f"scenario.test_labels = {paths['test_labels']}",
        "model.layers = 784,100,10",
        "run.seed = 0",
        f"run.output_dir = {root / 'out'}",
    ]) + "\n"
    state = new_state(build_run_config(parse_config_text(text)))
    with pytest.MonkeyPatch.context() as patch:
        winners = record_winners(patch)
        execute_run(state)
    return state, winners


@pytest.fixture(scope="module")
def desk(desk_run):
    return desk_run[0]


def test_criterion_1_lifelong_accuracy(desk):
    acc = lifelong_accuracy(desk.matrix)
    widths = sorted(a.psi for a in desk.store.tasks.values())
    verdict(1, acc >= 0.93 and widths[-1] <= 4,
            f"lifelong accuracy {acc:.4f} needs >= 0.93, "
            f"bit-widths {widths} need <= 4")


def test_criterion_2_four_bit_drop(desk_run):
    # requantize every winner at 4 bits from its full-precision weights and
    # compare validation accuracy against the unquantized reference
    desk, winners = desk_run
    drops = []
    for t in sorted(desk.store.tasks):
        task = desk.suite.get_task(t)
        alloc = desk.store.tasks[t]
        rec = desk.tasks[t]
        masked = [np.asarray(v, dtype=np.float64) for v in winners[t].values]
        codes, tables = nonlinear_quantize(4, masked, desk.config.quant)
        view = DenseWeights(dequantize(4, alloc.mask, codes, tables),
                            [b.copy() for b in rec.biases])
        acc = evaluate(desk.config.model, view, list(alloc.mask),
                       task.x_val, task.y_val)
        drops.append(desk.tasks[t].q_ref - acc)
    worst = max(drops)
    verdict(2, worst <= 0.02,
            f"worst 4-bit accuracy drop {worst:+.4f} needs <= 0.02")


def test_criterion_3_capacity_bound(desk):
    dense_bits = desk.store.total_slots * SLOT_BITS
    formula_ok = True
    worst_pct = 0.0
    for t, alloc in desk.store.tasks.items():
        used = sum(alloc.active_counts())
        b = alloc.psi
        hand = used * b + desk.store.layer_count * (1 << b) * (SLOT_BITS + b) + used
        formula_ok &= hand == capacity(desk.store, t)
        worst_pct = max(worst_pct, 100.0 * hand / dense_bits)
    # measured tables can only shrink the bound
    report = capacity_report(desk.store)
    actual_pct = max(e["percent_actual"] for e in report["per_task"])
    verdict(3, formula_ok and worst_pct <= 15.0 and actual_pct <= worst_pct + 1e-9,
            f"worst per-task footprint {worst_pct:.2f}% of dense "
            f"(measured {actual_pct:.2f}%) needs <= 15%, formula check "
            f"{'ok' if formula_ok else 'mismatch'}")


def test_criterion_4_forget_free(desk):
    violations = forget_check(desk.matrix)
    # weights rebuilt from committed codes must reproduce the recorded cell
    task0 = desk.suite.get_task(0)
    view, mask = task_view(desk, 0)
    acc = evaluate(desk.config.model, view, mask, task0.x_test, task0.y_test)
    exact = acc == desk.matrix.rows[0][0] == desk.matrix.rows[2][0]
    verdict(4, not violations and exact,
            f"violations {violations}, replayed task 0 accuracy {acc:.4f} "
            f"{'==' if exact else '!='} recorded cells")


def test_criterion_5_kmeans_matches_exhaustive_optimum():
    cfg = QuantConfig(psi_init=1, psi_max=8, kmeans_iters=50,
                      kmeans_restarts=3, seed=0)
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        values = rng.normal(0.0, 2.0, n)
        if trial % 3 == 0:
            values = np.round(values, 1)  # force duplicates and exact ties
        cents, _ = kmeans_1d(values, k, cfg)
        got = kmeans_wcss(values, cents)
        best, _ = contiguous_optimum(values, k)
        worst = max(worst, (got - best) / max(best, 1e-12))
    verdict(5, worst <= 1e-9,
            f"200 instances (n <= 12, k <= 3), worst relative objective gap "
            f"{worst:.2e} needs <= 1e-9")


def test_criterion_6_gradients_match_finite_differences():
    h = 1e-4
    worst = 0.0
    zeros_ok = True
    measured = 0
    skipped = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = ModelSpec((5, 6, 4))
        w = xavier_init(spec, seed)
        for i in range(spec.n_layers):
            w.biases[i][:] = rng.normal(0.0, 0.3, w.biases[i].shape)
        mask = [rng.random(s) < 0.7 for s in spec.shapes]
        for m in mask:
            m.flat[int(rng.integers(m.size))] = True
        x = rng.random((8, 5))
        y = rng.integers(0, 4, size=8)
        _, gw, gb = loss_and_grads(spec, w, mask, x, y)

        def loss_at(weights):
            l, _, _ = loss_and_grads(spec, weights, mask, x, y)
            return l

        def hidden_signs(weights):
            z = x
            signs = []
            for i in range(spec.n_layers - 1):
                z = z @ (weights.weights[i] * mask[i]).T + weights.biases[i]
                signs.append(z > 0)
                z = np.maximum(z, 0.0)
            return signs

        def secant_is_valid(wp, wm):
            # a secant straddling a relu kink does not estimate the analytic
            # gradient, so parameters whose +-h interval flips a hidden
            # unit's sign are excluded (a handful out of about 1,300)
            return all(np.array_equal(sp, sm) for sp, sm in
                       zip(hidden_signs(wp), hidden_signs(wm)))

        for i in range(spec.n_layers):
            for idx in np.ndindex(w.weights[i].shape):
                wp = w.copy()
                wp.weights[i][idx] += h
                wm = w.copy()
                wm.weights[i][idx] -= h
                if not mask[i][idx]:
                    zeros_ok &= gw[i][idx] == 0.0
                    continue
                if not secant_is_valid(wp, wm):
                    skipped += 1
                    continue
                num = (loss_at(wp) - loss_at(wm)) / (2 * h)
                worst = max(worst, abs(num - gw[i][idx]) / max(1.0, abs(num)))
                measured += 1
            for j in range(len(w.biases[i])):
                wp = w.copy()
                wp.biases[i][j] += h
                wm = w.copy()
                wm.biases[i][j] -= h
                if not secant_is_valid(wp, wm):
                    skipped += 1
                    continue
                num = (loss_at(wp) - loss_at(wm)) / (2 * h)
                worst = max(worst, abs(num - gb[i][j]) / max(1.0, abs(num)))
                measured += 1
    verdict(6, worst < 1e-4 and zeros_ok and skipped <= measured // 50,
            f"20 random nets, worst relative gradient error {worst:.2e} "
            f"needs < 1e-4 over {measured} parameters ({skipped} "
            f"kink-straddling excluded), masked gradients "
            f"{'exactly zero' if zeros_ok else 'nonzero'}")


def test_criterion_7_selection_formula_and_dominance():
    mismatches = 0
    dominated = 0
    for trial in range(500):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 9))
        A = np.round(rng.random(n), 3)
        S = np.round(rng.random(n), 3)
        if trial % 17 == 0:
            A[:] = 0.0
        if trial % 23 == 0:
            S[:] = 0.0
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.05, 2.0))
        got = select_best(A, S, alpha, beta)
        a_term = A / A.max() if A.max() > 0 else np.zeros_like(A)
        s_term = S / S.max() if S.max() > 0 else np.zeros_like(S)
        if got != int(np.argmax(alpha * a_term + beta * s_term)):
            mismatches += 1
        if any(A[j] > A[got] and S[j] > S[got] for j in range(n)):
            dominated += 1
    verdict(7, mismatches == 0 and dominated == 0,
            f"500 populations: {mismatches} formula mismatches, "
            f"{dominated} strictly dominated winners")


def test_criterion_8_store_against_reference_model():
    # replay random commits against a naive per-slot list model and demand
    # identical accept/reject decisions, conserved budgets, task exclusivity,
    # and untouched state after every rejection
    attempts = 0
    accepted = 0
    rejected = 0
    outer = np.random.default_rng(808)
    while attempts < 10000:
        shapes = [(int(outer.integers(1, 4)), int(outer.integers(1, 4)))
                  for _ in range(int(outer.integers(1, 4)))]
        t_max = int(outer.integers(1, 5))
        store = WeightSlotStore(shapes, t_max=t_max)
        model = {}  # (layer, slot) -> [(task, psi, code), ...]
        committed = set()
        for _ in range(int(outer.integers(5, 30))):
            attempts += 1
            task = int(outer.integers(0, 8))
            psi = int(outer.integers(0, 35))  # 0, 33, 34 must be rejected
            mask_layers = [outer.random(s) < outer.random() for s in shapes]
            codes = []
            for m in mask_layers:
                c = int(m.sum())
                hi = 1 << psi if 1 <= psi <= 31 else (1 << 32)
                codes.append(outer.integers(0, hi, c, dtype=np.uint64))
            if 1 <= psi <= 31:  # into centroid tables of at most 256 entries
                codes = [c % min(hi, 256) for c in codes]
            tables = tables_for(psi, codes)
            corrupt = ""
            if outer.integers(0, 6) == 0:
                pick = ["extra", "range", "layers"][int(outer.integers(0, 3))]
                if pick == "extra":
                    codes[0] = np.append(codes[0], 0).astype(np.uint64)
                    corrupt = "extra"
                elif pick == "range" and 1 <= psi <= 31 and codes[0].size:
                    codes[0][0] = 1 << psi
                    corrupt = "range"
                elif pick == "layers" and len(shapes) > 1:
                    codes = codes[:-1]
                    mask_layers = mask_layers[:-1]
                    corrupt = "layers"

            should_pass = (task not in committed and 1 <= psi <= SLOT_BITS
                           and corrupt == "")
            if should_pass:
                for i, m in enumerate(mask_layers):
                    for slot in np.flatnonzero(m.ravel()):
                        comps = model.get((i, int(slot)), [])
                        free = SLOT_BITS - sum(p for _, p, _ in comps)
                        if len(comps) >= t_max or free < psi:
                            should_pass = False

            before = [slot_occupancy(store, i) for i in range(len(shapes))]
            try:
                store.commit(task, mask_layers, psi, codes, tables)
                landed = True
            except CommitRejected:
                landed = False
            assert landed == should_pass, (task, psi, corrupt)

            if landed:
                accepted += 1
                committed.add(task)
                for i, m in enumerate(mask_layers):
                    pos = 0
                    for slot in np.flatnonzero(m.ravel()):
                        model.setdefault((i, int(slot)), []).append(
                            (task, psi, int(codes[i][pos])))
                        pos += 1
            else:
                rejected += 1
                for i in range(len(shapes)):
                    assert np.array_equal(before[i], slot_occupancy(store, i))
                assert set(store.tasks) == committed

        # settle the finished store against the model slot by slot
        assert set(store.tasks) == committed
        for i, size in enumerate(store.layer_sizes):
            counts, bits = slot_occupancy(store, i)
            for slot in range(size):
                comps = slot_components(store, i, slot)
                assert comps == model.get((i, slot), [])
                assert counts[slot] == len(comps)
                assert bits[slot] == SLOT_BITS - sum(p for _, p, _ in comps)
                assert bits[slot] >= 0
                owners = [t for t, _, _ in comps]
                assert len(owners) == len(set(owners))
        # the packed checkpoint layout rebuilds the same store without replay
        clone = WeightSlotStore.from_state_dict(store.state_dict(), tables_of(store))
        assert clone.tasks.keys() == store.tasks.keys()
        for i in range(len(shapes)):
            assert np.array_equal(slot_occupancy(clone, i), slot_occupancy(store, i))
        for t, alloc in store.tasks.items():
            assert clone.tasks[t].psi == alloc.psi
            assert same_masks(clone.tasks[t].mask, alloc.mask)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(clone.tasks[t].codes, alloc.codes))
    verdict(8, True,
            f"{attempts} commit attempts ({accepted} accepted, {rejected} "
            f"rejected) matched the reference model with budgets conserved, "
            f"and every settled store round-tripped through its packed state")


_BLOB = (
    "scenario.kind = synthetic\n"
    "scenario.n_tasks = 3\n"
    "scenario.classes = 4\n"
    "scenario.dim = 12\n"
    "scenario.samples = 40\n"
    "scenario.separation = 8.0\n"
    "model.layers = 12,16,4\n"
    "train.batch_size = 16\n"
    "train.lr_initial = 0.3\n"
    "train.lr_floor = 0.001\n"
    "prune.population = 4\n"
    "prune.short_epochs = 3\n"
    "prune.full_epochs = 25\n"
    "prune.v_min = 0.3\n"
    "prune.v_max = 0.7\n"
    "run.seed = 1\n"
)


def _blob_cfg(out_dir):
    return build_run_config(parse_config_text(
        _BLOB + f"run.output_dir = {out_dir}\n"))


def _stable_lines(path):
    return [ln for ln in path.read_text().splitlines()
            if '"generated_at"' not in ln]


def test_criterion_9_determinism_and_resume(tmp_path):
    a = new_state(_blob_cfg(tmp_path / "a"))
    execute_run(a)
    b = new_state(_blob_cfg(tmp_path / "b"))
    execute_run(b)
    same_files = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt"))
    same_summary = (_stable_lines(tmp_path / "a" / "summary.json")
                    == _stable_lines(tmp_path / "b" / "summary.json"))

    part = new_state(_blob_cfg(tmp_path / "p"))
    # stop after the first episode, with task 1's search begun, then reload
    begun = run_until_saved(part, 1)
    del part
    resumed = state_from_checkpoint(str(tmp_path / "p" / "checkpoint.bin"))
    execute_run(resumed)
    resume_ok = (1 in begun and resumed.matrix.rows == a.matrix.rows
                 and ({t: x.psi for t, x in resumed.store.tasks.items()}
                      == {t: x.psi for t, x in a.store.tasks.items()})
                 and ({t: r.q_ref for t, r in resumed.tasks.items()}
                      == {t: r.q_ref for t, r in a.tasks.items()})
                 and all((tmp_path / "p" / name).read_bytes()
                         == (tmp_path / "a" / name).read_bytes()
                         for name in ("accuracy_matrix.csv", "capacity.csv")))
    verdict(9, same_files and same_summary and resume_ok,
            f"rerun reports byte-identical: {same_files and same_summary}, "
            f"interrupted run resumed bit-exactly: {resume_ok}")
