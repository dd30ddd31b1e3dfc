import errno
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import record_winners, run_until_saved, same_masks, slot_occupancy
from subnetpack.cli import EXIT_CHECKPOINT, main
from subnetpack.config import KEYS, build_run_config, key_default, parse_config_text
from subnetpack.errors import CapacityExhausted
from subnetpack.metrics import forget_check, lifelong_accuracy
from subnetpack.network import DenseWeights, evaluate
from subnetpack.runner import (execute_run, new_state, save_run_checkpoint,
                               state_from_checkpoint, task_view, write_reports)
from subnetpack.scenario import ScenarioSuite, save_idx, write_digit_idx
from subnetpack.store import SLOT_BITS

BASE = """
scenario.kind = synthetic
scenario.n_tasks = 3
scenario.classes = 4
scenario.dim = 12
scenario.samples = 40
scenario.separation = 8.0
model.layers = 12,16,4
train.batch_size = 16
train.lr_initial = 0.3
train.lr_floor = 0.001
prune.population = 4
prune.short_epochs = 3
prune.full_epochs = 25
prune.v_min = 0.3
prune.v_max = 0.7
run.seed = 1
"""


def make_cfg(out_dir, extra=""):
    text = BASE + f"run.output_dir = {out_dir}\n" + extra
    return build_run_config(parse_config_text(text))


def read_without_timestamp(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [ln for ln in lines if '"generated_at"' not in ln]


def test_full_run_completes(tmp_path):
    state = new_state(make_cfg(tmp_path / "out"))
    execute_run(state)
    assert state.matrix.n_episodes == 3
    assert [len(r) for r in state.matrix.rows] == [1, 2, 3]
    assert forget_check(state.matrix) == []
    assert lifelong_accuracy(state.matrix) >= 0.95
    assert sorted(state.store.tasks) == [0, 1, 2]
    assert all(1 <= a.psi <= 8 for a in state.store.tasks.values())
    for name in ("accuracy_matrix.csv", "capacity.csv", "summary.json",
                 "scenario_manifest.txt", "checkpoint.bin"):
        assert (tmp_path / "out" / name).exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tasks_completed"] == 3
    assert summary["forget_violations"] == []
    assert summary["mode"] == "full"
    assert set(summary["psi_star"]) == {"0", "1", "2"}
    assert len(summary["prune_logs"]) >= 3
    assert summary["capacity"]["total_percent"] < 100.0
    assert summary["capacity"]["per_task"][-1]["cumulative_bits"] == (
        summary["capacity"]["total_bits"])


def test_reports_byte_deterministic(tmp_path):
    for d in ("a", "b"):
        execute_run(new_state(make_cfg(tmp_path / d)))
    for name in ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name).read_bytes(), name
    # the checkpoint embeds the config text, so byte equality needs the
    # same output_dir: rerun into "a" and compare against the first pass
    first = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    execute_run(new_state(make_cfg(tmp_path / "a")))
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == first
    assert read_without_timestamp(tmp_path / "a" / "summary.json") == (
        read_without_timestamp(tmp_path / "b" / "summary.json"))
    # the timestamp is confined to a single line
    a = (tmp_path / "a" / "summary.json").read_text().splitlines()
    b = (tmp_path / "b" / "summary.json").read_text().splitlines()
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert len(diff) <= 1


def test_resume_equals_uninterrupted(tmp_path):
    full_state = new_state(make_cfg(tmp_path / "full"))
    execute_run(full_state)

    part_state = new_state(make_cfg(tmp_path / "part"))
    # stopped once task 0's checkpoint is saved, with task 1's search begun
    assert 1 in run_until_saved(part_state, 1)
    del part_state

    resumed = state_from_checkpoint(str(tmp_path / "part" / "checkpoint.bin"))
    assert resumed.next_task == 1
    execute_run(resumed)

    assert resumed.matrix.rows == full_state.matrix.rows  # exact, not approx
    assert ({t: a.psi for t, a in resumed.store.tasks.items()}
            == {t: a.psi for t, a in full_state.store.tasks.items()})
    assert ({t: r.q_ref for t, r in resumed.tasks.items()}
            == {t: r.q_ref for t, r in full_state.tasks.items()})
    for name in ("accuracy_matrix.csv", "capacity.csv"):
        assert (tmp_path / "full" / name).read_bytes() == (
            tmp_path / "part" / name).read_bytes()
    assert read_without_timestamp(tmp_path / "full" / "summary.json") == (
        read_without_timestamp(tmp_path / "part" / "summary.json"))


def test_task_view_reevaluation_is_bit_exact(tmp_path):
    state = new_state(make_cfg(tmp_path / "out"))
    execute_run(state)
    for t in range(3):
        task = state.suite.get_task(t)
        view, mask = task_view(state, t)
        acc = evaluate(state.config.model, view, mask, task.x_test, task.y_test)
        assert acc == state.matrix.rows[t][t]
        assert acc == state.matrix.rows[2][t]


def permuted_digits_cfg(tmp_path):
    paths = write_digit_idx(tmp_path / "data", n_train=300, n_test=100, seed=2)
    text = "".join(f"scenario.{k} = {v}\n" for k, v in paths.items()) + f"""
scenario.kind = permuted
scenario.n_tasks = 3
model.layers = 784,8,10
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 1
run.output_dir = {tmp_path / "out"}
"""
    return build_run_config(parse_config_text(text))


def test_permuted_run_builds_no_task_in_the_run_process(tmp_path, monkeypatch):
    # the workers build the tasks they train on, and a past task whose record
    # is unchanged keeps its diagonal cell, so this process builds none
    state = new_state(permuted_digits_cfg(tmp_path))
    built = []
    get_task, test_split = ScenarioSuite.get_task, ScenarioSuite.test_split

    def counting_get_task(suite, i):
        built.append(i)
        return get_task(suite, i)

    def counting_test_split(suite, i):
        built.append(i)
        return test_split(suite, i)

    monkeypatch.setattr(ScenarioSuite, "get_task", counting_get_task)
    monkeypatch.setattr(ScenarioSuite, "test_split", counting_test_split)
    execute_run(state)
    assert built == []
    assert [len(r) for r in state.matrix.rows] == [1, 2, 3]
    assert forget_check(state.matrix) == []


def test_a_run_sends_each_worker_the_suite_once_and_no_pixels(tmp_path, monkeypatch):
    # fails on the parent, which sent each worker every task's splits
    import pickle

    from subnetpack import workers
    state = new_state(permuted_digits_cfg(tmp_path))
    sent = []  # (worker, message) in send order
    send = workers._Worker.send

    def recording_send(worker, msg):
        sent.append((worker, msg))
        return send(worker, msg)

    monkeypatch.setattr(workers._Worker, "send", recording_send)
    execute_run(state)

    def array_shapes(msg):
        buffers = []
        pickle.dumps(msg, protocol=5, buffer_callback=buffers.append)
        return {memoryview(b).shape for b in buffers}

    spec = state.config.model
    model_shapes = set(spec.shapes) | {(n,) for n in spec.layer_sizes[1:]}
    jobs = [msg for _, msg in sent if msg[0] == "train"]
    assert len(jobs) == 3 * (2 + 1)  # two candidates and a winner per task
    assert all(array_shapes(msg) <= model_shapes for msg in jobs)
    for worker in {w for w, _ in sent}:
        kinds = [msg[0] for w, msg in sent if w is worker]
        assert kinds[0] == "suite" and kinds.count("suite") == 1
    assert len(sent) == len(jobs) + len({w for w, _ in sent})


def test_cli_resume_on_changed_data_exits_2(tmp_path, capsys):
    # fails on the parent, which resumed on the changed data and exited 0:
    # without class 9 the 5-task split scenario has 4 tasks of other classes
    from subnetpack.scenario import load_idx, save_idx
    paths = write_digit_idx(tmp_path / "data", n_train=300, n_test=100, seed=2)
    text = "".join(f"scenario.{k} = {v}\n" for k, v in paths.items()) + f"""
scenario.kind = split
scenario.classes_per_task = 2
model.layers = 784,8,2
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 1
run.output_dir = {tmp_path / "out"}
"""
    state = new_state(build_run_config(parse_config_text(text)))
    run_until_saved(state, 1)
    for split in ("train", "test"):
        images, labels = paths[f"{split}_images"], paths[f"{split}_labels"]
        x, y = load_idx(images, labels)
        save_idx(images, labels, x[y != 9], y[y != 9])
    before = (tmp_path / "out" / "checkpoint.bin").read_bytes()
    with pytest.warns(UserWarning, match="dropping 1 leftover class"):
        code = main(["resume", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: the scenario data changed since the checkpoint" in err
    assert "manifest line 'n_tasks=5' is now 'n_tasks=4'" in err
    assert (tmp_path / "out" / "checkpoint.bin").read_bytes() == before


def test_budget_retry_resamples_roomier_slots(tmp_path):
    # 12-bit components: a slot holding two has 8 bits left, so task 2's
    # first winner cannot take them and the population is drawn again from
    # slots with at least 9 free bits
    extra = ("quant.psi_init = 12\nquant.psi_max = 12\nquant.delta = 1.0\n"
             "prune.v_min = 0.5\nprune.v_max = 0.5\n")
    state = new_state(make_cfg(tmp_path / "out", extra))
    execute_run(state)
    assert [log.task_id for log in state.prune_logs] == [0, 1, 2, 2]
    assert all(a.psi == 12 for a in state.store.tasks.values())
    assert forget_check(state.matrix) == []
    # task 2's first log measured a winner the store does not hold; only the
    # retry's log must match the store, so the checkpoint is read and reported
    checkpoint = str(tmp_path / "out" / "checkpoint.bin")
    loaded = state_from_checkpoint(checkpoint, need_suite=False)
    assert ([vars(log) for log in loaded.prune_logs]
            == [vars(log) for log in state.prune_logs])
    assert main(["report", "--checkpoint", checkpoint,
                 "--output-dir", str(tmp_path / "reports")]) == 0


def test_pruning_only_mode(tmp_path):
    state = new_state(make_cfg(tmp_path / "out", "run.mode = pruning-only\n"))
    # 32-bit components devour slots on a model this small, so later tasks
    # legitimately get truncated to whatever is still eligible
    from subnetpack.errors import CapacityWarning
    with pytest.warns(CapacityWarning):
        execute_run(state)
    assert forget_check(state.matrix) == []
    assert all(a.psi == SLOT_BITS for a in state.store.tasks.values())
    for alloc in state.store.tasks.values():
        assert alloc.psi == SLOT_BITS
        assert all(len(c) == 0 for c in alloc.centroids)
    # a 32-bit component fills its slot, so task masks never overlap
    for layer in range(state.store.layer_count):
        counts = slot_occupancy(state.store, layer)[0]
        assert counts.max() <= 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "pruning-only"
    assert ",pruning-only," in (tmp_path / "out" / "capacity.csv").read_text()


def test_pruning_only_stores_trained_weights_losslessly(tmp_path, monkeypatch):
    # training yields float32 values, so the 32-bit identity codes hold the
    # trained winner exactly and storing it costs no accuracy
    state = new_state(make_cfg(tmp_path / "out", "run.mode = pruning-only\n"))
    with monkeypatch.context() as patch:
        winners = record_winners(patch)
        run_until_saved(state, 1)
    rec = state.tasks[0]
    view, mask = task_view(state, 0)
    for i, m in enumerate(mask):
        np.testing.assert_array_equal(view.weights[i][m], winners[0].values[i])
    assert rec.q_quant == rec.q_ref


def test_quantization_only_mode(tmp_path):
    state = new_state(make_cfg(tmp_path / "out", "run.mode = quantization-only\n"))
    execute_run(state)
    assert forget_check(state.matrix) == []
    for t, alloc in state.store.tasks.items():
        assert all(m.all() for m in alloc.mask)  # dense masks
    for layer in range(state.store.layer_count):
        counts = slot_occupancy(state.store, layer)[0]
        assert counts.min() == 3 and counts.max() == 3
    assert all(a.psi <= 8 for a in state.store.tasks.values())
    assert lifelong_accuracy(state.matrix) >= 0.95


def test_capacity_exhaustion_checkpoints_state(tmp_path):
    # one greedy task claims every slot; the next finds nothing eligible
    extra = ("prune.v_min = 0.0\nprune.v_max = 0.0\nprune.t_l = 1\n"
             "prune.population = 1\nprune.short_epochs = 0\n"
             "prune.full_epochs = 0\nscenario.n_tasks = 2\n")
    state = new_state(make_cfg(tmp_path / "out", extra))
    with pytest.raises(CapacityExhausted):
        execute_run(state)
    assert state.next_task == 1
    assert (tmp_path / "out" / "checkpoint.bin").exists()
    resumed = state_from_checkpoint(str(tmp_path / "out" / "checkpoint.bin"))
    assert resumed.next_task == 1
    assert resumed.matrix.n_episodes == 1


def test_quantization_only_capacity_exhaustion(tmp_path, monkeypatch):
    # task 1's dense training, begun during task 0, is dropped unwaited: the
    # saturated store fails task 1 first. Fails on the parent, which waited
    # for task 1's job before the check
    from subnetpack.workers import Batch
    waited, wait = [], Batch.wait

    def recording_wait(batch):
        waited.append(batch.task_id)
        return wait(batch)

    monkeypatch.setattr(Batch, "wait", recording_wait)
    extra = "prune.t_l = 1\nscenario.n_tasks = 2\nrun.mode = quantization-only\n"
    state = new_state(make_cfg(tmp_path / "out", extra))
    with pytest.raises(CapacityExhausted) as err:
        execute_run(state)
    assert len(err.value.layers) == 2  # both layers saturated
    assert waited == [0]


def test_quantization_only_fails_a_task_over_budget_with_no_retry(tmp_path, monkeypatch):
    # a dense mask cannot be drawn again: fit_budget's own error ends the
    # run, and task 1's dense training is submitted once
    from subnetpack import pruning, runner
    over = CapacityExhausted((0, 1), "task 1 held over its budget on purpose")
    fit, submit, submitted = runner.fit_budget, pruning.submit_full_training, []

    def failing_fit(t, *args):
        if t == 1:
            raise over
        return fit(t, *args)

    def submitting_once(task_id, *args):
        if task_id == 1 and task_id in submitted:
            pytest.fail("task 1's dense training was submitted again")
        submitted.append(task_id)
        return submit(task_id, *args)

    monkeypatch.setattr(runner, "fit_budget", failing_fit)
    monkeypatch.setattr(pruning, "submit_full_training", submitting_once)
    state = new_state(make_cfg(tmp_path / "out", "run.mode = quantization-only\n"))
    with pytest.raises(CapacityExhausted) as err:
        execute_run(state)
    assert err.value is over
    assert str(err.value) == "task 1 held over its budget on purpose"
    assert submitted.count(1) == 1
    assert state.next_task == 1


def test_pruning_only_fits_no_bit_budget(tmp_path, monkeypatch):
    # its 32-bit patterns were drawn from slots with all 32 bits free
    from subnetpack import runner
    monkeypatch.setattr(runner, "fit_budget",
                        lambda *args: pytest.fail("fit_budget was called"))
    state = new_state(make_cfg(tmp_path / "out", "run.mode = pruning-only\n"
                                                 "scenario.n_tasks = 2\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # CapacityWarnings on a model this small
        execute_run(state)
    assert state.next_task == 2


def test_write_reports_requires_progress(tmp_path):
    state = new_state(make_cfg(tmp_path / "out"))
    with pytest.raises(ValueError):
        write_reports(state)


def test_model_must_match_scenario(tmp_path):
    from subnetpack.errors import ConfigError
    with pytest.raises(ConfigError, match="input"):
        new_state(make_cfg(tmp_path / "out", "model.layers = 10,16,4\n"))
    with pytest.raises(ConfigError, match="output"):
        new_state(make_cfg(tmp_path / "out", "model.layers = 12,16,5\n"))


# -- command line --------------------------------------------------------------

def write_cfg_file(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(BASE + f"run.output_dir = {tmp_path / 'out'}\n" + extra)
    return str(path)


def test_cli_run_and_inspect(tmp_path, capsys):
    cfg = write_cfg_file(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "tasks completed: 3" in out
    assert "lifelong accuracy:" in out

    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    assert main(["inspect-checkpoint", "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "format version: 2" in out
    assert "episode 2:" in out
    # each task line names its packed bytes: one bit per slot, psi per code
    state = state_from_checkpoint(ckpt, need_suite=False)
    lines = out.splitlines()
    totals = [0, 0]
    for t, alloc in sorted(state.store.tasks.items()):
        mask = sum(-(-size // 8) for size in state.store.layer_sizes)
        codes = sum(-(-used * alloc.psi // 8) for used in alloc.active_counts())
        totals = [totals[0] + mask, totals[1] + codes]
        line = next(ln for ln in lines if ln.startswith(f"task {t}: "))
        assert line.endswith(f" bytes={mask + codes} (mask {mask}, codes {codes})")
    assert f"store bytes: {sum(totals)} (masks {totals[0]}, codes {totals[1]})" in lines

    report_dir = str(tmp_path / "reports")
    assert main(["report", "--checkpoint", ckpt, "--output-dir", report_dir]) == 0
    capsys.readouterr()
    assert (tmp_path / "reports" / "accuracy_matrix.csv").read_bytes() == (
        tmp_path / "out" / "accuracy_matrix.csv").read_bytes()


def test_cli_report_on_a_checkpoint_with_no_task_exits_4(tmp_path, capsys):
    # fails on the parent, where write_reports raised ValueError (exit 1)
    cfg = write_cfg_file(tmp_path)
    ckpt = save_run_checkpoint(new_state(make_cfg(tmp_path / "out")))
    assert main(["report", "--checkpoint", ckpt,
                 "--output-dir", str(tmp_path / "reports")]) == EXIT_CHECKPOINT
    assert "no task has completed" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()
    # resume runs such a checkpoint from task 0, as `run` would
    assert main(["resume", "--checkpoint", ckpt]) == 0
    assert "tasks completed: 3" in capsys.readouterr().out
    fresh = tmp_path / "fresh"
    assert main(["run", "--config", cfg, "--set", f"run.output_dir={fresh}"]) == 0
    capsys.readouterr()
    for name in ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "resume", "report", "make-data"])
def test_cli_output_dir_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    # fails on the parent, where os.makedirs raised FileExistsError (exit 1)
    from subnetpack.workers import TrainPool
    taken = tmp_path / "taken"
    taken.write_text("a file")
    one_task = make_cfg(tmp_path / "out", "scenario.n_tasks = 1\n")
    if command == "report":
        execute_run(new_state(one_task))
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
    else:  # resume has task 0 still to train
        ckpt = save_run_checkpoint(new_state(one_task))
    argv = {
        "run": ["run", "--config", write_cfg_file(tmp_path),
                "--set", f"run.output_dir={taken}"],
        "resume": ["resume", "--checkpoint", ckpt, "--output-dir", str(taken)],
        "report": ["report", "--checkpoint", ckpt, "--output-dir", str(taken)],
        "make-data": ["make-data", "--out", str(taken), "--n-train=10", "--n-test=10"],
    }[command]
    monkeypatch.setattr(TrainPool, "submit", lambda *args: pytest.fail("a job ran"))
    assert main(argv) == 2
    assert f"cannot create output directory {str(taken)!r}" in capsys.readouterr().err
    assert taken.read_text() == "a file"


def test_cli_run_with_overrides(tmp_path, capsys):
    cfg = write_cfg_file(tmp_path)
    out2 = str(tmp_path / "out2")
    assert main(["run", "--config", cfg, "--set", f"run.output_dir={out2}",
                 "--set", "scenario.n_tasks=2"]) == 0
    capsys.readouterr()
    matrix = (tmp_path / "out2" / "accuracy_matrix.csv").read_text()
    assert matrix.count("\n") == 3  # header + 2 episodes


def test_cli_resume_completed_run(tmp_path, capsys):
    cfg = write_cfg_file(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    assert main(["resume", "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "tasks completed: 3" in out


def test_cli_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE + "prune.v_min = 0.9\nprune.v_max = 0.1\n")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # an IDX path that exists but cannot be read, here a directory; fails on
    # the parent, where IsADirectoryError left the CLI with a traceback
    paths = write_digit_idx(tmp_path / "data", n_train=30, n_test=10, seed=3)
    paths["train_images"] = str(tmp_path / "data")
    unreadable = tmp_path / "unreadable.cfg"
    unreadable.write_text(
        "".join(f"scenario.{k} = {v}\n" for k, v in paths.items())
        + "scenario.kind = permuted\nmodel.layers = 784,8,10\n"
        + f"run.output_dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(unreadable)]) == 2
    err = capsys.readouterr().err
    assert f"scenario.train_images: cannot read {str(tmp_path / 'data')!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, value", [
    ("permuted", "scenario.n_tasks=0"),
    ("synthetic", "scenario.n_tasks=0"),
    ("synthetic", "scenario.samples=0"),
    ("synthetic", "scenario.separation=0"),
    # 30 means 8 apart do not fit on a line within a few standard deviations;
    # the suite used to accept them and a worker's get_task raised (exit 1)
    ("synthetic", "scenario.classes=30 scenario.dim=1 model.layers=1,16,30"),
    ("split", "scenario.classes_per_task=0"),
    ("make-data", "--n-train=-1"),
    # nan drew all-black images and inf pure 0/255 noise, both with exit 0;
    # -1 failed in numpy's draw after the directory was made
    ("make-data", "--noise=nan"),
    ("make-data", "--noise=inf"),
    ("make-data", "--noise=-1"),
])
def test_cli_out_of_range_scenario_values_exit_2(tmp_path, capsys, kind, value):
    # refused when the suite is built: no task starts, so no output appears
    if kind == "make-data":
        argv = ["make-data", "--out", str(tmp_path / "data"), value]
    else:
        cfg = write_cfg_file(tmp_path)
        if kind != "synthetic":
            paths = write_digit_idx(tmp_path / "data", n_train=30, n_test=10, seed=3)
            (tmp_path / "run.cfg").write_text(
                "".join(f"scenario.{k} = {v}\n" for k, v in paths.items())
                + f"scenario.kind = {kind}\nmodel.layers = 784,8,10\n"
                + f"run.output_dir = {tmp_path / 'out'}\n")
        argv = ["run", "--config", cfg]
        for item in value.split():
            argv += ["--set", item]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    if kind == "make-data":
        assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("value", [
    "train.lr_initial=inf", "train.lr_decay=inf", "scenario.separation=inf",
    "prune.alpha=nan", "prune.beta=inf", "quant.delta=nan", "quant.delta=inf",
])
def test_cli_non_finite_float_values_exit_2(tmp_path, capsys, value):
    # float() parses inf and nan; each used to train and exit 0 or 1
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    assert main(["run", "--config", cfg, "--set", value]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{value.partition('=')[0]}: " in err and "not a finite number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["train.lr_decay=-1", "train.lr_decay=0",
                                   "train.lr_decay=1e300"])
def test_cli_lr_decay_outside_0_1_exits_2(tmp_path, capsys, value):
    # -1 used to exit 0 with every odd epoch's rate at lr_floor, and 1e300
    # to exit 1 with a worker traceback once the rate overflowed
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    assert main(["run", "--config", cfg, "--set", value]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lr_decay must be in (0, 1]" in err
    assert not (tmp_path / "out").exists()


def test_cli_diverging_learning_rate_exits_2(tmp_path, capsys):
    # SGD overflowed to non-finite weights, and the worker's evaluate refused
    # them with a ValueError: the run exited 1 with a worker traceback
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--set", "train.lr_initial=1e300"]) == 2
    # the overflow is the SGD loop's own: TrainingDiverged alone reports it
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "config error: task 0: " in err and "train.lr_initial" in err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()


# CI's 2-task smoke config: a run that passes every check ends in about 0.1 s
TINY = """
scenario.kind = synthetic
scenario.n_tasks = 2
scenario.classes = 4
scenario.dim = 12
scenario.samples = 40
model.layers = 12,16,4
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 2
run.output_dir = out
"""


@pytest.mark.parametrize("key", sorted(KEYS))
def test_cli_config_edge_values_never_raise(tmp_path, monkeypatch, key):
    # each value ends the run in a config error, a capacity error or success,
    # never in an exception; each runs in its own directory, since
    # run.output_dir = 0 writes ./0
    (tmp_path / "tiny.cfg").write_text(TINY)
    values = ["0", "-1", "1e300", "1e-300"]
    if isinstance(key_default(key), float):
        values += ["inf", "nan"]
    for value in values:
        (tmp_path / value).mkdir()
        monkeypatch.chdir(tmp_path / value)
        status = main(["run", "--config", "../tiny.cfg", "--set", f"{key}={value}"])
        assert status in (0, 2, 3), f"{key}={value}"


@pytest.mark.parametrize("separation", ["1e300", "1e154"])
def test_cli_separation_whose_distances_overflow_exits_2(tmp_path, capsys, separation):
    # every distance between means read inf and passed the spacing check:
    # the run exited 0 after numpy overflow warnings
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", "--config", cfg, "--set",
                       f"scenario.separation={separation}"])
    assert status == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "config error" in err and "scenario.separation" in err
    assert not (tmp_path / "out").exists()


def test_cli_one_sample_per_class_exits_2(tmp_path, capsys):
    # a class needs two train samples to give the validation split a row
    cfg = write_cfg_file(tmp_path)
    assert main(["run", "--config", cfg, "--set", "scenario.samples=1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "validation split is empty" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("empty", ["train", "test"])
def test_cli_idx_files_without_images_exit_2(tmp_path, capsys, empty):
    counts = {"train": 30, "test": 10, empty: 0}
    assert main(["make-data", "--out", str(tmp_path / "data"),
                 f"--n-train={counts['train']}", f"--n-test={counts['test']}"]) == 0
    images = tmp_path / "data" / f"{empty}-images.idx"
    (tmp_path / "run.cfg").write_text(
        "".join(f"scenario.{split}_{kind} = {tmp_path / 'data'}/{split}-{kind}.idx\n"
                for split in ("train", "test") for kind in ("images", "labels"))
        + "scenario.kind = permuted\nmodel.layers = 784,8,10\n"
        + f"run.output_dir = {tmp_path / 'out'}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "run.cfg")]) == 2
    err = capsys.readouterr().err
    assert str(images) in err
    assert f"{empty} split is empty" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("train, test, settings, message", [
    # no class has two train images to give the validation split a row
    ([0, 1, 2], [0, 1, 2], "scenario.kind = permuted\nmodel.layers = 784,8,3\n",
     "task 0's validation split is empty"),
    # the task whose classes have no test image
    ([0, 1, 2, 3] * 10, [0] * 12,
     "scenario.kind = split\nscenario.classes_per_task = 2\nmodel.layers = 784,8,2\n",
     "task [01]'s test split is empty"),
], ids=["permuted-validation", "split-test"])
def test_cli_image_task_with_an_empty_split_exits_2(tmp_path, capsys, train, test,
                                                    settings, message):
    # the worker's evaluate refused the empty split: the run exited 1 with a
    # worker traceback
    data = tmp_path / "data"
    data.mkdir()
    lines = [settings, f"run.output_dir = {tmp_path / 'out'}\n"]
    for split, labels in (("train", train), ("test", test)):
        paths = [str(data / f"{split}-{kind}.idx") for kind in ("images", "labels")]
        save_idx(*paths, np.zeros((len(labels), 784), np.uint8), labels)
        lines += [f"scenario.{split}_images = {paths[0]}\n",
                  f"scenario.{split}_labels = {paths[1]}\n"]
    (tmp_path / "run.cfg").write_text("".join(lines))
    assert main(["run", "--config", str(tmp_path / "run.cfg")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(message, err)
    assert not (tmp_path / "out").exists()


def test_cli_capacity_exit_code(tmp_path, capsys):
    cfg = write_cfg_file(
        tmp_path,
        "prune.v_min = 0.0\nprune.v_max = 0.0\nprune.t_l = 1\n"
        "prune.population = 1\nprune.short_epochs = 0\n"
        "prune.full_epochs = 0\nscenario.n_tasks = 2\n")
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "capacity exhausted" in err
    assert "layers" in err


def test_cli_resume_into_another_directory_stays_there(tmp_path, capsys):
    # the redirected checkpoint names its own directory, so resuming it
    # writes nothing to the first; fails on the parent, whose checkpoint kept
    # the first directory
    cfg = write_cfg_file(
        tmp_path,
        "prune.v_min = 0.0\nprune.v_max = 0.0\nprune.t_l = 1\n"
        "prune.population = 1\nprune.short_epochs = 0\n"
        "prune.full_epochs = 0\nscenario.n_tasks = 2\n")
    first, second = tmp_path / "out", tmp_path / "out2"
    assert main(["run", "--config", cfg]) == 3
    assert main(["resume", "--checkpoint", str(first / "checkpoint.bin"),
                 "--output-dir", str(second)]) == 3
    (first / "checkpoint.bin").unlink()
    assert main(["resume", "--checkpoint", str(second / "checkpoint.bin")]) == 3
    capsys.readouterr()
    assert not (first / "checkpoint.bin").exists()
    assert state_from_checkpoint(str(second / "checkpoint.bin"),
                                 need_suite=False).config.output_dir == str(second)


def test_cli_checkpoint_errors(tmp_path, capsys):
    assert main(["resume", "--checkpoint", str(tmp_path / "none.bin")]) == 4
    cfg = write_cfg_file(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    raw = bytearray(ckpt.read_bytes())
    raw[30] ^= 0xFF
    ckpt.write_bytes(bytes(raw))
    assert main(["resume", "--checkpoint", str(ckpt)]) == 4
    err = capsys.readouterr().err
    assert "checkpoint error" in err


def test_cli_make_data(tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["make-data", "--out", out, "--n-train", "30",
                 "--n-test", "10", "--seed", "3"]) == 0
    capsys.readouterr()
    from subnetpack.scenario import load_idx
    x, y = load_idx(os.path.join(out, "train-images.idx"),
                    os.path.join(out, "train-labels.idx"))
    assert x.shape == (30, 784)
    assert len(y) == 30


def _corrupt(payload, how):
    tasks = payload["store"]["tasks"]
    if how == "bad psi_star":
        payload["psi_star"]["0"] = 7
    elif how == "missing q_quant":
        del payload["q_quant"]
    elif how == "codebook psi":
        payload["codebooks"]["1"]["psi"] += 1
    elif how == "task missing from biases":
        del payload["biases"]["1"]
    elif how == "rejected replay":
        payload["store"]["tasks"].append(payload["store"]["tasks"][0])
    elif how == "config text":
        payload["config"] = "no such line"
    elif how == "centroid tables":
        payload["codebooks"]["0"]["centroids"] = [1, 2]
    # packed store records that would not replay, or hold bad buffers
    elif how == "short mask":
        tasks[0]["mask"][1] = tasks[0]["mask"][1][:-1]
    elif how == "long codes":
        tasks[1]["codes"][0] = np.append(tasks[1]["codes"][0], np.uint8(0))
    elif how == "code pad bits":
        rec, i = next((rec, i) for rec in tasks for i in range(len(rec["codes"]))
                      if int(np.unpackbits(rec["mask"][i]).sum()) * rec["psi"] % 8)
        rec["codes"][i][-1] |= 0x80
    elif how == "unpacked mask":
        tasks[0]["mask"][0] = np.unpackbits(tasks[0]["mask"][0]).astype(bool)
    elif how == "zero psi":
        tasks[1]["psi"] = 0
    elif how == "one mask layer":
        tasks[0]["mask"] = tasks[0]["mask"][:1]
    elif how == "over budget":
        # task 1 takes task 0's slots with 32-bit codes
        used = [int(np.unpackbits(m).sum()) for m in tasks[0]["mask"]]
        tasks[1] = {"task_id": 1, "psi": 32, "mask": tasks[0]["mask"],
                    "codes": [np.zeros(4 * n, np.uint8) for n in used]}
    else:
        raise AssertionError(f"no corruption named {how!r}")


def test_cli_malformed_checkpoints_exit_4(tmp_path, capsys):
    # each payload passes its checksum but disagrees with what runs write
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    assert main(["run", "--config", cfg]) == 0
    good = str(tmp_path / "out" / "checkpoint.bin")
    for how in ("bad psi_star", "missing q_quant", "codebook psi",
                "task missing from biases", "rejected replay", "config text",
                "centroid tables", "short mask", "long codes", "code pad bits",
                "unpacked mask", "zero psi", "one mask layer", "over budget"):
        _, payload = load_checkpoint(good)
        _corrupt(payload, how)
        bad = str(tmp_path / "bad.bin")
        save_checkpoint(bad, payload)
        out = str(tmp_path / "reports")
        assert main(["report", "--checkpoint", bad, "--output-dir", out]) == 4, how
        assert main(["inspect-checkpoint", "--checkpoint", bad]) == 4, how
        assert "checkpoint error" in capsys.readouterr().err


def test_cli_checkpoints_with_disagreeing_copies_exit_4(tmp_path, monkeypatch,
                                                       capsys):
    # each fact below is held twice; a checksummed payload whose copies
    # disagree must be refused, not resumed into a skipped or failed task
    from subnetpack import runner
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    saved = []  # the checkpoint after 1, 2 and 3 tasks

    def keeping_save(path, payload):
        save_checkpoint(path, payload)
        saved.append((tmp_path / "out" / "checkpoint.bin").read_bytes())

    with monkeypatch.context() as patch:
        patch.setattr(runner, "save_checkpoint", keeping_save)
        execute_run(new_state(make_cfg(tmp_path / "out")))
    assert len(saved) == 3

    def rewound(p):
        p["next_task"] = 1

    def advanced(p):
        p["next_task"] = 3

    def narrow_cap(p):
        p["store"]["t_max"] = 1

    def wider_hidden(p):
        assert "model.layers = 12,16,4\n" in p["config"]
        p["config"] = p["config"].replace("model.layers = 12,16,4",
                                          "model.layers = 12,20,4")

    def cut_table(p):
        # task 0's layer-0 codes now point past its one-entry table: report
        # charged the cut table, and resuming the finished run read no code
        book = p["codebooks"]["0"]
        assert book["psi"] < SLOT_BITS and len(book["centroids"][0]) > 1
        book["centroids"][0] = book["centroids"][0][:1]

    # counts and shapes nothing may be allocated from before they are
    # checked: each ended in a MemoryError traceback
    def huge_next_task(p):
        p["next_task"] = 2**40

    def huge_first_layer(p):
        p["store"]["layer_shapes"][0][0] = 2**40

    def huge_second_layer(p):
        p["store"]["layer_shapes"][1][1] = 2**40

    # biases `resume` re-evaluates a loaded task with: each ended in a
    # ShapeMismatchError or ValueError traceback there
    def short_bias(p):
        p["biases"]["0"][0] = p["biases"]["0"][0][:-1]

    def nan_bias(p):
        p["biases"]["0"][1][0] = np.nan

    # accuracies and prune logs that report wrote into summary.json, NaN and
    # Infinity included, and resume carried on: each exited 0
    def nan_q_ref(p):
        p["q_ref"]["0"] = math.nan

    def q_quant_above_one(p):
        p["q_quant"]["1"] = 7.5

    def inf_score(p):
        p["prune_logs"][0]["scores"][0] = math.inf

    def text_accuracies(p):
        p["prune_logs"][1]["accuracies"] = "xx"

    def float_chosen(p):
        p["prune_logs"][2]["chosen"] = 1.0

    # prune logs that disagree with their population, the model or the run:
    # each was reported and resumed with exit 0
    def chosen_past_population(p):
        p["prune_logs"][0]["chosen"] = 99

    def negative_chosen(p):
        p["prune_logs"][0]["chosen"] = -1

    def one_score(p):
        p["prune_logs"][0]["scores"] = p["prune_logs"][0]["scores"][:1]

    def unknown_task(p):
        p["prune_logs"][0]["task_id"] = 7

    def extra_layer_sparsity(p):
        p["prune_logs"][0]["winner_layer_sparsity"].append(0.5)

    def reversed_logs(p):
        p["prune_logs"].reverse()

    # measured values out of range, and scores or sparsities the choice rule
    # or the store do not give: each was reported and resumed with exit 0
    def accuracy_above_one(p):
        p["prune_logs"][0]["accuracies"][0] = 7.5

    def negative_winner_sparsity(p):
        p["prune_logs"][0]["winner_layer_sparsity"][0] = -3.0

    def chosen_score(p):
        log = p["prune_logs"][0]
        log["scores"][log["chosen"]] = 1e6

    def other_winner_sparsity(p):
        # in range and scored as before, but not the stored mask's sparsity
        log = p["prune_logs"][1]
        assert log["task_id"] == 1
        layers = log["winner_layer_sparsity"]
        layers[0] = 0.5 if layers[0] != 0.5 else 0.25

    def chosen_sparsity(p):
        log = p["prune_logs"][1]
        log["sparsities"][log["chosen"]] = 1e9

    # a log just past a bound, and otherwise one the checks accept
    def log_past_next_task(p):
        # a stopped run's last log names next_task at most
        p["prune_logs"].append(dict(p["prune_logs"][-1], task_id=p["next_task"] + 1))

    def sparsity_past_slots(p):
        # half a slot more than the store holds, on a candidate the choice
        # rule still passes over, with the scores the rule gives
        from subnetpack.pruning import choice
        prune = build_run_config(parse_config_text(p["config"])).prune
        log = p["prune_logs"][0]
        j = 1 - min(log["chosen"], 1)
        log["sparsities"][j] = sum(r * c for r, c in p["store"]["layer_shapes"]) + 0.5
        log["accuracies"][j] = 0.0
        scores, chosen = choice(log["accuracies"], log["sparsities"], prune.alpha,
                                prune.beta)
        assert chosen == log["chosen"]
        log["scores"] = list(scores)

    bad, out = str(tmp_path / "bad.bin"), str(tmp_path / "reports")
    for done, change in ((3, rewound), (2, advanced), (1, narrow_cap),
                         (1, wider_hidden), (3, cut_table), (3, huge_next_task),
                         (3, huge_first_layer), (3, huge_second_layer),
                         (1, short_bias), (1, nan_bias), (3, nan_q_ref),
                         (3, q_quant_above_one), (3, inf_score), (3, text_accuracies),
                         (3, float_chosen), (3, chosen_past_population),
                         (3, negative_chosen), (3, one_score), (3, unknown_task),
                         (3, extra_layer_sparsity), (3, reversed_logs),
                         (3, accuracy_above_one), (3, negative_winner_sparsity),
                         (3, chosen_score), (3, other_winner_sparsity),
                         (3, chosen_sparsity), (3, log_past_next_task),
                         (3, sparsity_past_slots)):
        (tmp_path / "bad.bin").write_bytes(saved[done - 1])
        _, payload = load_checkpoint(bad)
        change(payload)
        save_checkpoint(bad, payload)
        name = change.__name__
        assert main(["report", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert main(["inspect-checkpoint", "--checkpoint", bad]) == 4, name
        assert main(["resume", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert "checkpoint error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["full", "pruning-only"])
def test_cli_a_finished_task_of_a_search_needs_a_prune_log(tmp_path, capsys, mode):
    # every task of these modes is chosen by a search that logs it; a
    # checkpoint that lacks a finished task's log was reported, inspected
    # and resumed with exit 0, its summary.json without that search
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    cfg = make_cfg(tmp_path / "out", f"run.mode = {mode}\nscenario.n_tasks = 2\n")
    execute_run(new_state(cfg))
    good = str(tmp_path / "out" / "checkpoint.bin")

    def first_log_deleted(p):
        del p["prune_logs"][0]

    def second_log_names_next_task(p):
        # as if the run had stopped on capacity exhaustion in task 2
        assert [log["task_id"] for log in p["prune_logs"]] == [0, 1]
        p["prune_logs"][1]["task_id"] = 2

    bad, out = str(tmp_path / "bad.bin"), str(tmp_path / "reports")
    for change in (first_log_deleted, second_log_names_next_task):
        _, payload = load_checkpoint(good)
        change(payload)
        save_checkpoint(bad, payload)
        name = change.__name__
        assert main(["report", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert main(["inspect-checkpoint", "--checkpoint", bad]) == 4, name
        assert main(["resume", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert "do not cover the 2 finished tasks" in capsys.readouterr().err


def test_cli_exhausted_checkpoint_reports_and_resumes_to_the_same_bytes(
        tmp_path, monkeypatch, capsys):
    # 12-bit components leave no eligible layer-0 slot for task 2, and the
    # run saves task 2's prune log with the two finished tasks. That log
    # names next_task, so the checkpoint is still reported; a resume redoes
    # task 2 alone and saves the same bytes, not a second log of task 2
    (tmp_path / "tiny.cfg").write_text(TINY)
    exhausting = ["--set", "scenario.n_tasks=3", "--set", "prune.population=4",
                  "--set", "quant.psi_init=12", "--set", "quant.psi_max=12",
                  "--set", "prune.v_min=0", "--set", "prune.v_max=0"]
    for run in ("first", "resumed"):
        (tmp_path / run).mkdir()
    monkeypatch.chdir(tmp_path / "first")
    assert main(["run", "--config", str(tmp_path / "tiny.cfg")] + exhausting) == 3
    saved = (tmp_path / "first" / "out" / "checkpoint.bin").read_bytes()
    state = state_from_checkpoint("out/checkpoint.bin", need_suite=False)
    assert state.next_task == 2
    assert [log.task_id for log in state.prune_logs] == [0, 1, 2]
    assert main(["report", "--checkpoint", "out/checkpoint.bin",
                 "--output-dir", "reports"]) == 0
    assert main(["inspect-checkpoint", "--checkpoint", "out/checkpoint.bin"]) == 0
    monkeypatch.chdir(tmp_path / "resumed")
    (tmp_path / "resumed" / "out").mkdir()
    (tmp_path / "resumed" / "out" / "checkpoint.bin").write_bytes(saved)
    assert main(["resume", "--checkpoint", "out/checkpoint.bin"]) == 3
    assert (tmp_path / "resumed" / "out" / "checkpoint.bin").read_bytes() == saved
    capsys.readouterr()


def _mutants(payload):
    """(name, mutate, restore) for each change of one decoded payload leaf.

    Ints become n +- 1, 0, -1 and 2**40; floats doubled, negated, nan and
    inf; strings cut short; arrays get one entry, their shape or their dtype
    changed; lists lose or repeat their first entry; dicts lose a key. Each
    mutate edits the payload in place, and its restore undoes it.
    """
    def swap(parent, key, value):
        old = parent[key]

        def mutate():
            parent[key] = value

        def restore():
            parent[key] = old
        return mutate, restore

    def drop(parent, key):
        old = parent[key]
        return (lambda: parent.pop(key)), (lambda: parent.__setitem__(key, old))

    out = []

    def walk(node, path):
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in list(children):
            where = f"{path}/{key}"
            values = []
            if isinstance(child, int):
                values = [child + 1, child - 1, 0, -1, 2**40]
            elif isinstance(child, float):
                values = [2 * child, -child, math.nan, math.inf]
            elif isinstance(child, str):
                values = [child[:len(child) // 2]]
            elif isinstance(child, np.ndarray):
                if child.size:
                    entry = child.copy()
                    entry.flat[0] = entry.flat[0] == 0  # 0 <-> 1, or nonzero -> 0
                    values.append(entry)
                values.append(child.reshape((1,) + child.shape))
                values.append(child.astype(np.uint16 if child.dtype.kind == "f"
                                           else np.float32))
            elif isinstance(child, list) and child:
                values = [child[1:], child[:1] + child]
            out.extend((f"{where} -> {type(v).__name__} {i}", *swap(node, key, v))
                       for i, v in enumerate(values))
            if isinstance(node, dict):
                out.append((f"{where} deleted", *drop(node, key)))
            walk(child, where)

    walk(payload, "")
    return out


def test_every_payload_leaf_mutation_ends_in_a_documented_exit_code(tmp_path, capsys):
    # a checksummed payload with any one leaf changed is reported, resumed or
    # refused with exit 4, never a traceback: 2**40 counts and shapes once
    # raised MemoryError, and misshapen biases failed the resume's
    # re-evaluation. A finished run of each mode is reported and inspected:
    # pruning-only stores 32-bit patterns with no centroid tables, and
    # quantization-only dense masks with no prune logs. A run stopped after
    # its first task is resumed, which may also end in a config error (exit
    # 2) or capacity exhaustion (exit 3)
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    extra = "scenario.n_tasks = 2\nprune.population = 2\n"
    modes = ("full", "pruning-only", "quantization-only")
    for mode in modes:
        execute_run(new_state(make_cfg(tmp_path / mode, extra + f"run.mode = {mode}\n")))
    mid = make_cfg(tmp_path / "mid", extra + "prune.short_epochs = 1\nprune.full_epochs = 1\n")
    run_until_saved(new_state(mid), 1)
    bad, out = str(tmp_path / "bad.bin"), str(tmp_path / "reports")
    done = ({0, 4}, [["report", "--checkpoint", bad, "--output-dir", out],
                     ["inspect-checkpoint", "--checkpoint", bad]])
    commands = {  # each checkpoint's commands, and the exit codes they may end in
        **{mode: done for mode in modes},
        "mid": ({0, 2, 3, 4}, [["resume", "--checkpoint", bad, "--output-dir", out]]),
    }
    seen, wrong = {0: 0, 4: 0}, []
    for run, (allowed, argvs) in commands.items():
        _, payload = load_checkpoint(str(tmp_path / run / "checkpoint.bin"))
        for name, mutate, restore in _mutants(payload):
            mutate()
            save_checkpoint(bad, payload)
            restore()
            for argv in argvs:
                try:
                    code = main(argv)
                except Exception as exc:  # a traceback on the command line
                    code = repr(exc)
                capsys.readouterr()
                if code not in allowed:
                    wrong.append((run, name, argv[0], code))
                elif code in seen:
                    seen[code] += 1
    assert wrong == []
    assert seen[0] > 100 and seen[4] > 100  # both outcomes well represented


def test_read_only_commands_work_after_data_moves(tmp_path, capsys):
    paths = write_digit_idx(tmp_path / "data", n_train=300, n_test=100, seed=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"scenario.{k} = {v}\n" for k, v in paths.items()) + f"""
scenario.kind = permuted
scenario.n_tasks = 2
model.layers = 784,8,10
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 1
run.output_dir = {tmp_path / "out"}
""")
    assert main(["run", "--config", str(cfg)]) == 0
    os.rename(tmp_path / "data", tmp_path / "moved")
    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    again = tmp_path / "again"
    assert main(["report", "--checkpoint", ckpt, "--output-dir", str(again)]) == 0
    for name in ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt"):
        assert (again / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
    assert read_without_timestamp(again / "summary.json") == (
        read_without_timestamp(tmp_path / "out" / "summary.json"))
    assert main(["inspect-checkpoint", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    assert main(["resume", "--checkpoint", ckpt]) == 2
    assert "no such file" in capsys.readouterr().err


def test_checkpoint_with_model_and_mode_entries_still_loads(tmp_path, capsys):
    # checkpoints once carried unread "model" and "mode" entries; those files
    # must keep loading and reporting exactly like current ones
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    cfg = write_cfg_file(tmp_path, "scenario.n_tasks = 2\n")
    assert main(["run", "--config", cfg]) == 0
    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    _, payload = load_checkpoint(ckpt)
    assert "model" not in payload and "mode" not in payload
    state = state_from_checkpoint(ckpt, need_suite=False)
    spec = state.config.model
    payload["model"] = {"layers": list(spec.layer_sizes),
                        "activation": "relu", "loss": "softmax_cross_entropy"}
    payload["mode"] = state.config.mode
    old = str(tmp_path / "old.bin")
    save_checkpoint(old, payload)
    inspected = []
    for path, out in ((ckpt, "new"), (old, "old")):
        assert main(["report", "--checkpoint", path,
                     "--output-dir", str(tmp_path / out)]) == 0
        capsys.readouterr()
        assert main(["inspect-checkpoint", "--checkpoint", path]) == 0
        inspected.append(capsys.readouterr().out)
    assert inspected[0] == inspected[1]
    for name in ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt"):
        assert (tmp_path / "old" / name).read_bytes() == (
            tmp_path / "new" / name).read_bytes()
    assert read_without_timestamp(tmp_path / "old" / "summary.json") == (
        read_without_timestamp(tmp_path / "new" / "summary.json"))


FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "v1_blob")
REPORTS = ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt",
           "summary.json")


def test_format_1_checkpoint_still_reads(tmp_path, capsys):
    # checkpoint.bin was written in format 1 by a full run of BASE (with
    # run.output_dir = out), and the reports beside it by `report` from the
    # same code; reading it trains nothing, so the bytes hold on any CPU
    from subnetpack.checkpoint import load_checkpoint
    from subnetpack.runner import save_run_checkpoint
    old = os.path.join(FIXTURE_V1, "checkpoint.bin")
    assert load_checkpoint(old)[0] == 1
    assert main(["report", "--checkpoint", old, "--output-dir",
                 str(tmp_path / "v1")]) == 0
    for name in REPORTS:
        assert read_without_timestamp(tmp_path / "v1" / name) == (
            read_without_timestamp(os.path.join(FIXTURE_V1, name))), name
    assert main(["inspect-checkpoint", "--checkpoint", old]) == 0
    assert "format version: 1" in capsys.readouterr().out

    state = state_from_checkpoint(old, need_suite=False,
                                  output_dir=str(tmp_path / "resaved"))
    new = save_run_checkpoint(state)
    assert load_checkpoint(new)[0] == 2
    assert os.path.getsize(new) < os.path.getsize(old)
    assert main(["report", "--checkpoint", new, "--output-dir",
                 str(tmp_path / "v2")]) == 0
    capsys.readouterr()
    for name in REPORTS:
        assert read_without_timestamp(tmp_path / "v2" / name) == (
            read_without_timestamp(os.path.join(FIXTURE_V1, name))), name
    again = state_from_checkpoint(new, need_suite=False)
    for t, alloc in state.store.tasks.items():
        assert same_masks(again.store.tasks[t].mask, alloc.mask)
        for a, b in zip(again.store.tasks[t].codes, alloc.codes):
            np.testing.assert_array_equal(a, b)
    # format 1 stored float64 biases; they are read, kept and saved as they
    # are, and the re-saved run resumes to the same reports
    for loaded in (state, again):
        assert {b.dtype for r in loaded.tasks.values() for b in r.biases} == {
            np.dtype(np.float64)}
    assert {b.dtype for biases in load_checkpoint(new)[1]["biases"].values()
            for b in biases} == {np.dtype(np.float64)}
    assert main(["resume", "--checkpoint", new]) == 0
    capsys.readouterr()
    for name in REPORTS:
        assert read_without_timestamp(tmp_path / "resaved" / name) == (
            read_without_timestamp(os.path.join(FIXTURE_V1, name))), name


def test_a_run_saves_float32_biases_and_resumes_float64_ones(tmp_path):
    # a worker's reply narrows the biases SGD computed in float32, so a run
    # holds and saves float32 biases; a checkpoint of float64 biases, as
    # earlier runs wrote, is 4 bytes a bias larger and resumes to the same
    # reports, keeping its biases' width
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    full = new_state(make_cfg(tmp_path / "full"))
    execute_run(full)
    assert {b.dtype for r in full.tasks.values() for b in r.biases} == {
        np.dtype(np.float32)}
    assert {b.dtype for biases in load_checkpoint(full.checkpoint_path)[1][
        "biases"].values() for b in biases} == {np.dtype(np.float32)}

    part = new_state(make_cfg(tmp_path / "part"))
    assert 1 in run_until_saved(part, 1)
    path = part.checkpoint_path
    del part
    narrow = os.path.getsize(path)
    _, payload = load_checkpoint(path)
    payload["biases"] = {t: [b.astype(np.float64) for b in biases]
                         for t, biases in payload["biases"].items()}
    save_checkpoint(path, payload)
    assert os.path.getsize(path) - narrow == 4 * (16 + 4)  # task 0's biases
    resumed = state_from_checkpoint(path)
    assert [b.dtype for b in resumed.tasks[0].biases] == [np.float64] * 2
    execute_run(resumed)
    assert [b.dtype for b in resumed.tasks[0].biases] == [np.float64] * 2
    assert resumed.matrix.rows == full.matrix.rows
    for name in REPORTS:
        assert read_without_timestamp(tmp_path / "part" / name) == (
            read_without_timestamp(tmp_path / "full" / name)), name


def report_bytes(out):
    """The four reports' bytes; summary.json without its generated_at line."""
    files = {name: (out / name).read_bytes() for name in REPORTS}
    files["summary.json"] = b"".join(
        line for line in files["summary.json"].splitlines(keepends=True)
        if b'"generated_at"' not in line)
    return files


@pytest.mark.parametrize("mode", ["full", "pruning-only", "quantization-only"])
def test_open_equals_run(tmp_path, mode):
    # opening a checkpoint for reports writes the run's reports byte for byte
    # and rebuilds every task as the run holds it: pruning-only tasks from
    # 32-bit identity codes, quantization-only ones under a dense mask
    run = new_state(make_cfg(tmp_path / "run", f"run.mode = {mode}\n"))
    execute_run(run)
    opened = state_from_checkpoint(run.checkpoint_path, need_suite=False,
                                   output_dir=str(tmp_path / "open"))
    write_reports(opened)
    assert report_bytes(tmp_path / "open") == report_bytes(tmp_path / "run")
    assert sorted(opened.store.tasks) == sorted(run.store.tasks) == [0, 1, 2]
    for t in run.store.tasks:
        (want, want_mask), (got, got_mask) = task_view(run, t), task_view(opened, t)
        for a, b in zip(want.weights + want.biases + want_mask,
                        got.weights + got.biases + got_mask, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        alloc = opened.store.tasks[t]
        for w, m, c, table in zip(got.weights, alloc.mask, alloc.codes,
                                  alloc.centroids, strict=True):
            # the reference rebuild: a bool-mask scatter of the stored
            # float32 values into a float32 array
            ref = np.zeros(m.shape, np.float32)
            ref[m] = c.view(np.float32) if alloc.psi == SLOT_BITS else table[c]
            assert w.tobytes() == ref.tobytes()
        # beside them, copies of the stored float32 biases
        for b, stored in zip(got.biases, opened.tasks[t].biases, strict=True):
            assert b.dtype == stored.dtype == np.float32
            assert b.tobytes() == stored.tobytes() and b is not stored
    if mode == "pruning-only":
        assert all(a.psi == SLOT_BITS for a in opened.store.tasks.values())
    if mode == "quantization-only":
        assert all(m.all() for a in opened.store.tasks.values() for m in a.mask)


@pytest.mark.parametrize("mode", ["full", "pruning-only", "quantization-only"])
def test_a_float32_view_scores_as_its_float64_widening(tmp_path, mode):
    # a view holds the stored float32 values; evaluate widens them, so the
    # accuracy is the bits a float64 view of the same task gives
    state = new_state(make_cfg(tmp_path / "out", f"run.mode = {mode}\n"
                                                 "scenario.n_tasks = 2\n"))
    execute_run(state)
    spec = state.config.model
    for t in state.store.tasks:
        view, mask = task_view(state, t)
        wide = DenseWeights(view.weights, view.biases)
        assert [w.dtype for w in view.weights + wide.weights] == (
            [np.float32] * 2 + [np.float64] * 2)
        for s in (t, 1 - t):  # its own test split, and one it scores worse on
            x, y = state.suite.test_split(s)
            acc = evaluate(spec, view, mask, x, y)
            assert acc == evaluate(spec, wide, mask, x, y)
            if s == t:
                assert acc == state.matrix.rows[t][t]


# -- reports written over old ones --------------------------------------------

@pytest.fixture(scope="module")
def three_and_one(tmp_path_factory):
    """A 3-task run's directory, and a checkpoint of the same run after task 0."""
    base = tmp_path_factory.mktemp("rewrite")
    execute_run(new_state(make_cfg(base / "three")))
    assert 1 in run_until_saved(new_state(make_cfg(base / "one")), 1)
    return base / "three", str(base / "one" / "checkpoint.bin")


def test_report_over_a_longer_run_writes_what_a_fresh_directory_gets(
        tmp_path, capsys, three_and_one):
    # every old report is cut to the new one's length, and a new report gets
    # the mode `open` gives a new file
    three, one = three_and_one
    shutil.copytree(three, tmp_path / "over")
    for out in ("over", "fresh"):
        assert main(["report", "--checkpoint", one,
                     "--output-dir", str(tmp_path / out)]) == 0
    capsys.readouterr()
    assert report_bytes(tmp_path / "over") == report_bytes(tmp_path / "fresh")
    assert all((three / name).stat().st_size > (tmp_path / "fresh" / name).stat().st_size
               for name in REPORTS if name != "scenario_manifest.txt")
    with open(tmp_path / "probe", "w", encoding="utf-8"):
        pass
    assert {stat.S_IMODE((tmp_path / "fresh" / name).stat().st_mode)
            for name in REPORTS} == {stat.S_IMODE((tmp_path / "probe").stat().st_mode)}


def test_reports_are_rewritten_in_place(tmp_path, monkeypatch, three_and_one):
    # fails on the parent, whose reports were written through open(path, "w")
    three, _ = three_and_one
    out = tmp_path / "out"
    shutil.copytree(three, out)
    inodes = {name: (out / name).stat().st_ino for name in REPORTS}
    state = state_from_checkpoint(str(out / "checkpoint.bin"), need_suite=False,
                                  output_dir=str(out))
    opened, real_open = [], os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.path.basename(path), flags))
        return real_open(path, flags, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        write_reports(state)
    assert sorted(name for name, _ in opened) == sorted(REPORTS)
    assert not any(flags & os.O_TRUNC for _, flags in opened)
    assert {name: (out / name).stat().st_ino for name in REPORTS} == inodes
    assert report_bytes(out) == report_bytes(three)


def test_a_failed_report_write_leaves_only_the_new_bytes(tmp_path, monkeypatch,
                                                         three_and_one):
    # fails on the parent, whose writes did not go through os.write: a disk
    # that fills after 10 bytes of the first report leaves those 10 bytes and
    # none of the longer old report behind them
    three, one = three_and_one
    out = tmp_path / "out"
    shutil.copytree(three, out)
    old = (out / "accuracy_matrix.csv").read_bytes()
    state = state_from_checkpoint(one, need_suite=False, output_dir=str(out))
    written, real_write = [], os.write

    def filling_write(fd, data):
        if written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        written.append(bytes(data[:10]))
        return real_write(fd, data[:10])

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", filling_write)
        with pytest.raises(OSError) as info:
            write_reports(state)
    assert info.value.errno == errno.ENOSPC
    assert len(old) > 10 and (out / "accuracy_matrix.csv").read_bytes() == written[0]
    write_reports(state)
    assert (out / "accuracy_matrix.csv").read_bytes().startswith(written[0])


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("command", ["report", "inspect-checkpoint"])
def test_cli_closed_stdout_exits_141(tmp_path, three_and_one, command, buffered):
    # fails on the parent, where the first print (unbuffered) or the flush at
    # exit (buffered) raised BrokenPipeError: exit 1 with a traceback, or 120
    import subnetpack
    from subnetpack.cli import EXIT_PIPE
    _, one = three_and_one
    argv = [command, "--checkpoint", one]
    if command == "report":
        argv += ["--output-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(subnetpack.__file__))))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "subnetpack.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


# -- the one-task lookahead ----------------------------------------------------

def record_run(monkeypatch, run):
    """Events of run(): searches started, commits, checkpoint saves, warnings.

    A search is a population search or a quantization-only task's dense
    training. A save records (next_task, prune logs written); a warning its
    category, text, filename and line number.
    """
    from subnetpack import runner
    from subnetpack.store import WeightSlotStore
    events = []
    commit, save = WeightSlotStore.commit, runner.save_checkpoint

    def recording(start):
        def recording_start(task_id, *args):
            events.append(("search", task_id))
            return start(task_id, *args)
        return recording_start

    def recording_commit(store, task_id, *args):
        events.append(("commit", task_id))
        return commit(store, task_id, *args)

    def recording_save(path, payload):
        events.append(("save", payload["next_task"], len(payload["prune_logs"])))
        return save(path, payload)

    for name in ("start_search", "start_dense"):
        monkeypatch.setattr(runner, name, recording(getattr(runner, name)))
    monkeypatch.setattr(WeightSlotStore, "commit", recording_commit)
    monkeypatch.setattr(runner, "save_checkpoint", recording_save)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, filename, lineno, *rest: (
            events.append(("warn", category.__name__, str(message), filename, lineno)))
        result = run()
    return result, events


def out_bytes(out):
    files = {name: (out / name).read_bytes()
             for name in ("accuracy_matrix.csv", "capacity.csv",
                          "scenario_manifest.txt", "checkpoint.bin")}
    files["summary.json"] = read_without_timestamp(out / "summary.json")
    return files


# a full run whose slots fill to budgets between psi_max and psi_max +
# psi_min bits, where the lookahead must decline
TIGHT = TINY + """
scenario.n_tasks = 10
prune.t_l = 8
quant.psi_init = 6
quant.psi_max = 8
quant.delta = 1
prune.v_min = 0.5
prune.v_max = 0.7
"""


@pytest.mark.parametrize("mode", ["full", "pruning-only", "quantization-only", "tight"])
def test_lookahead_changes_nothing_observable(tmp_path, monkeypatch, mode):
    # quantization-only fails on the parent, where the rule did not govern it
    from subnetpack import runner, store
    out = tmp_path / "out"
    if mode == "tight":
        cfg = build_run_config(parse_config_text(TIGHT + f"run.output_dir = {out}\n"))
    else:
        cfg = make_cfg(out, f"run.mode = {mode}\n")
    runs = {}
    for exact in (False, True):
        with monkeypatch.context() as patch:
            if not exact:
                patch.setattr(runner, "_lookahead_is_exact", lambda state, mask: False)
            state = new_state(cfg)
            _, events = record_run(patch, lambda: execute_run(state))
        runs[exact] = out_bytes(out), events
        for path in out.iterdir():
            path.unlink()
    (sequential, plain), (ahead, overlapped) = runs[False], runs[True]
    assert ahead == sequential
    # saves, prune logs and warnings come at the same points, and each save
    # holds one prune log per task searched
    shown = [e for e in overlapped if e[0] in ("save", "warn")]
    assert shown == [e for e in plain if e[0] in ("save", "warn")]
    if mode == "tight":
        # tasks 6 to 9 each find their first winner over budget and retry
        # on a roomier floor; a lookahead drawn from a store projected at
        # psi_max bits, where task 5 commits 6, would skip task 6's retry
        assert [log.task_id for log in state.prune_logs] == (
            list(range(6)) + [6, 6, 7, 7, 8, 8, 9, 9])
    else:
        searched = 0 if mode == "quantization-only" else 1
        assert [e for e in shown if e[0] == "save"] == [("save", t, searched * t)
                                                         for t in (1, 2, 3)]
    if mode == "pruning-only":
        assert any(e[0] == "warn" for e in shown)
    # a held-back warning points where it was issued: a CapacityWarning at
    # the store's sampling
    assert all(e[3] == store.__file__ for e in shown if e[1] == "CapacityWarning")
    # task 1's population or dense training went out before task 0
    # committed, and not without the lookahead
    assert overlapped.index(("search", 1)) < overlapped.index(("commit", 0))
    assert plain.index(("search", 1)) > plain.index(("commit", 0))


def test_lookahead_holds_a_failing_next_task_back(tmp_path, monkeypatch, capsys):
    # task 0 takes every slot, so task 1, sampled while task 0 is still
    # training, finds none eligible; that surfaces only after task 0's
    # checkpoint, which is what a run without the lookahead writes
    from subnetpack.cli import EXIT_CAPACITY
    cfg = write_cfg_file(tmp_path, "prune.t_l = 1\nprune.v_min = 0.0\n"
                                   "prune.v_max = 0.0\n")
    code, events = record_run(monkeypatch, lambda: main(["run", "--config", cfg]))
    assert code == EXIT_CAPACITY
    assert "capacity exhausted" in capsys.readouterr().err
    assert events.index(("search", 1)) < events.index(("commit", 0))
    assert [e for e in events if e[0] == "save"][0] == ("save", 1, 1)
    resumed = state_from_checkpoint(str(tmp_path / "out" / "checkpoint.bin"))
    assert resumed.next_task == 1
    assert [log.task_id for log in resumed.prune_logs] == [0]


def test_an_error_filter_stops_a_task_where_its_sampling_warns(tmp_path, monkeypatch):
    # the warning is raised where it is issued, so the task whose sampling
    # warned submits no job, with the lookahead or without it; fails on the
    # parent, which recorded the warning under its own filter, submitted that
    # task's population and raised only after
    from subnetpack import pruning, runner
    from subnetpack.errors import CapacityWarning
    runs = {}
    for exact in (False, True):
        started, submitted = [], []
        start, submit = runner.start_search, pruning.submit

        def recording_start(task_id, *args):
            started.append(task_id)
            return start(task_id, *args)

        def recording_submit(spec, suite, task_id, jobs):
            submitted.append((task_id, len(jobs)))
            return submit(spec, suite, task_id, jobs)

        with monkeypatch.context() as patch, warnings.catch_warnings():
            if not exact:
                patch.setattr(runner, "_lookahead_is_exact", lambda state, mask: False)
            patch.setattr(runner, "start_search", recording_start)
            patch.setattr(pruning, "submit", recording_submit)
            warnings.simplefilter("error", CapacityWarning)
            state = new_state(make_cfg(tmp_path / f"out-{exact}",
                                       "run.mode = pruning-only\n"))
            with pytest.raises(CapacityWarning):
                execute_run(state)
        runs[exact] = started[-1], submitted, state.next_task
    assert runs[True] == runs[False]
    warned, submitted, finished = runs[True]
    assert warned == finished > 0
    assert submitted and all(t < warned for t, _ in submitted)


def test_quantization_only_submits_the_next_task_before_waiting(tmp_path, monkeypatch):
    # fails on the parent, which submitted task t+1's dense training only
    # after task t's checkpoint
    from subnetpack import pruning
    from subnetpack.workers import Batch
    events = []
    submit, wait = pruning.submit_full_training, Batch.wait

    def recording_submit(task_id, *args):
        events.append(("submit", task_id))
        return submit(task_id, *args)

    def recording_wait(batch):
        events.append(("wait", batch.task_id))
        return wait(batch)

    monkeypatch.setattr(pruning, "submit_full_training", recording_submit)
    monkeypatch.setattr(Batch, "wait", recording_wait)
    state = new_state(make_cfg(tmp_path / "out", "run.mode = quantization-only\n"))
    _, saves = record_run(monkeypatch, lambda: execute_run(state))
    assert events == [("submit", 0), ("submit", 1), ("wait", 0),
                      ("submit", 2), ("wait", 1), ("wait", 2)]
    assert [e for e in saves if e[0] == "save"] == [("save", t, 0) for t in (1, 2, 3)]
    assert forget_check(state.matrix) == []


@pytest.mark.parametrize("mode", ["full", "pruning-only", "quantization-only"])
def test_run_process_makes_no_blas_call(tmp_path, monkeypatch, mode):
    # the winner's worker quantizes and scores its task, and a past task
    # whose record is unchanged keeps its diagonal cell: with the forward
    # pass of this process raising, a run writes what it writes without
    from subnetpack import network
    out = tmp_path / "out"
    runs = []
    for patched in (False, True):
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pruning-only's CapacityWarnings
            if patched:
                patch.setattr(network, "_forward_cached", lambda *args: 1 / 0)
            execute_run(new_state(make_cfg(out, f"run.mode = {mode}\n")))
        runs.append(out_bytes(out))
        for path in out.iterdir():
            path.unlink()
    assert runs[0] == runs[1]


def test_a_task_changed_after_its_commit_is_evaluated_again(tmp_path, monkeypatch):
    # zeroing task 0's codes after its checkpoint changes its record, so the
    # later rows evaluate it again and the change shows in summary.json
    from subnetpack import runner
    state = new_state(make_cfg(tmp_path / "out"))
    save = runner.save_checkpoint

    def save_then_corrupt(path, payload):
        save(path, payload)
        if payload["next_task"] == 1:
            for codes in state.store.tasks[0].codes:
                codes[:] = 0

    monkeypatch.setattr(runner, "save_checkpoint", save_then_corrupt)
    execute_run(state)
    rows = state.matrix.rows
    assert rows[1][0] == rows[2][0] != rows[0][0]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["forget_violations"] == [[1, 0], [2, 0]]
