import json
import os
import warnings

import numpy as np
import pytest

from subnetpack.cli import main
from subnetpack.config import build_run_config, parse_config_text
from subnetpack.errors import CapacityExhausted
from subnetpack.metrics import forget_check, lifelong_accuracy
from subnetpack.network import evaluate
from subnetpack.runner import (execute_run, execute_task, new_state,
                               state_from_checkpoint, task_view,
                               write_reports)
from subnetpack.scenario import ScenarioSuite, write_digit_idx
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
    os.makedirs(part_state.config.output_dir, exist_ok=True)
    execute_task(part_state, 0)  # checkpoint saved after the episode
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
        assert acc == state.matrix.value(t, t)
        assert acc == state.matrix.value(2, t)


def test_permuted_run_builds_each_task_once(tmp_path, monkeypatch):
    # past tasks are re-evaluated from test_split, never from a whole task
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
    state = new_state(build_run_config(parse_config_text(text)))
    built = []
    get_task = ScenarioSuite.get_task

    def counting_get_task(suite, i):
        built.append(i)
        return get_task(suite, i)

    monkeypatch.setattr(ScenarioSuite, "get_task", counting_get_task)
    execute_run(state)
    assert built == [0, 1, 2]
    assert [len(r) for r in state.matrix.rows] == [1, 2, 3]
    assert forget_check(state.matrix) == []


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


def test_pruning_only_mode(tmp_path):
    state = new_state(make_cfg(tmp_path / "out", "run.mode = pruning-only\n"))
    # 32-bit components devour slots on a model this small, so later tasks
    # legitimately get truncated to whatever is still eligible
    from subnetpack.errors import CapacityWarning
    with pytest.warns(CapacityWarning):
        execute_run(state)
    assert forget_check(state.matrix) == []
    assert all(a.psi == SLOT_BITS for a in state.store.tasks.values())
    for book in (r.codebook for r in state.tasks.values()):
        assert book.psi == SLOT_BITS
        assert all(len(c) == 0 for c in book.centroids)
    # a 32-bit component fills its slot, so task masks never overlap
    for layer in range(state.store.layer_count):
        counts = state.store.component_counts(layer)
        assert counts.max() <= 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "pruning-only"
    assert ",pruning-only," in (tmp_path / "out" / "capacity.csv").read_text()


def test_pruning_only_stores_trained_weights_losslessly(tmp_path):
    # training yields float32 values, so the 32-bit identity codes hold the
    # trained winner exactly and storing it costs no accuracy
    state = new_state(make_cfg(tmp_path / "out", "run.mode = pruning-only\n"))
    execute_task(state, 0)
    rec = state.tasks[0]
    view, mask = task_view(state, 0)
    for i, m in enumerate(mask):
        np.testing.assert_array_equal(view.weights[i][m], rec.values[i])
    assert rec.q_quant == rec.q_ref


def test_quantization_only_mode(tmp_path):
    state = new_state(make_cfg(tmp_path / "out", "run.mode = quantization-only\n"))
    execute_run(state)
    assert forget_check(state.matrix) == []
    for t, alloc in state.store.tasks.items():
        assert all(m.all() for m in alloc.mask)  # dense masks
    for layer in range(state.store.layer_count):
        counts = state.store.component_counts(layer)
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


def test_quantization_only_capacity_exhaustion(tmp_path):
    extra = "prune.t_l = 1\nscenario.n_tasks = 2\nrun.mode = quantization-only\n"
    state = new_state(make_cfg(tmp_path / "out", extra))
    with pytest.raises(CapacityExhausted) as err:
        execute_run(state)
    assert len(err.value.layers) == 2  # both layers saturated


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
        codes = sum(-(-used * alloc.psi // 8) for used in alloc.mask.active_counts())
        totals = [totals[0] + mask, totals[1] + codes]
        line = next(ln for ln in lines if ln.startswith(f"task {t}: "))
        assert line.endswith(f" bytes={mask + codes} (mask {mask}, codes {codes})")
    assert f"store bytes: {sum(totals)} (masks {totals[0]}, codes {totals[1]})" in lines

    report_dir = str(tmp_path / "reports")
    assert main(["report", "--checkpoint", ckpt, "--output-dir", report_dir]) == 0
    capsys.readouterr()
    assert (tmp_path / "reports" / "accuracy_matrix.csv").read_bytes() == (
        tmp_path / "out" / "accuracy_matrix.csv").read_bytes()


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
        payload = load_checkpoint(good)
        _corrupt(payload, how)
        bad = str(tmp_path / "bad.bin")
        save_checkpoint(bad, payload)
        out = str(tmp_path / "reports")
        assert main(["report", "--checkpoint", bad, "--output-dir", out]) == 4, how
        assert main(["inspect-checkpoint", "--checkpoint", bad]) == 4, how
        assert "checkpoint error" in capsys.readouterr().err


def test_cli_checkpoints_with_disagreeing_copies_exit_4(tmp_path, capsys):
    # each fact below is held twice; a checksummed payload whose copies
    # disagree must be refused, not resumed into a skipped or failed task
    from subnetpack.checkpoint import load_checkpoint, save_checkpoint
    state = new_state(make_cfg(tmp_path / "out"))
    ckpt = tmp_path / "out" / "checkpoint.bin"
    saved = []  # the checkpoint after 1, 2 and 3 tasks
    for t in range(3):
        execute_task(state, t)
        saved.append(ckpt.read_bytes())

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

    bad, out = str(tmp_path / "bad.bin"), str(tmp_path / "reports")
    for done, change in ((3, rewound), (2, advanced), (1, narrow_cap),
                         (1, wider_hidden)):
        (tmp_path / "bad.bin").write_bytes(saved[done - 1])
        payload = load_checkpoint(bad)
        change(payload)
        save_checkpoint(bad, payload)
        name = change.__name__
        assert main(["report", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert main(["resume", "--checkpoint", bad, "--output-dir", out]) == 4, name
        assert "checkpoint error" in capsys.readouterr().err


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
    payload = load_checkpoint(ckpt)
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
    from subnetpack.checkpoint import checkpoint_version
    from subnetpack.runner import save_run_checkpoint
    old = os.path.join(FIXTURE_V1, "checkpoint.bin")
    assert checkpoint_version(old) == 1
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
    assert checkpoint_version(new) == 2
    assert os.path.getsize(new) < os.path.getsize(old)
    assert main(["report", "--checkpoint", new, "--output-dir",
                 str(tmp_path / "v2")]) == 0
    capsys.readouterr()
    for name in REPORTS:
        assert read_without_timestamp(tmp_path / "v2" / name) == (
            read_without_timestamp(os.path.join(FIXTURE_V1, name))), name
    again = state_from_checkpoint(new, need_suite=False)
    for t, alloc in state.store.tasks.items():
        assert again.store.tasks[t].mask.same_as(alloc.mask)
        for a, b in zip(again.store.tasks[t].codes, alloc.codes):
            np.testing.assert_array_equal(a, b)


# -- the one-task lookahead ----------------------------------------------------

def record_run(monkeypatch, run):
    """Events of run(): searches started, commits, checkpoint saves, warnings.

    A save records (next_task, prune logs written); a warning its category
    and text.
    """
    from subnetpack import runner
    from subnetpack.store import WeightSlotStore
    events = []
    start_search, commit, save = (runner.start_search, WeightSlotStore.commit,
                                  runner.save_checkpoint)

    def recording_start(task_id, *args):
        events.append(("search", task_id))
        return start_search(task_id, *args)

    def recording_commit(store, task_id, *args):
        events.append(("commit", task_id))
        return commit(store, task_id, *args)

    def recording_save(path, payload):
        events.append(("save", payload["next_task"], len(payload["prune_logs"])))
        return save(path, payload)

    monkeypatch.setattr(runner, "start_search", recording_start)
    monkeypatch.setattr(WeightSlotStore, "commit", recording_commit)
    monkeypatch.setattr(runner, "save_checkpoint", recording_save)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *rest: events.append(
            ("warn", category.__name__, str(message)))
        result = run()
    return result, events


def out_bytes(out):
    files = {name: (out / name).read_bytes()
             for name in ("accuracy_matrix.csv", "capacity.csv",
                          "scenario_manifest.txt", "checkpoint.bin")}
    files["summary.json"] = read_without_timestamp(out / "summary.json")
    return files


@pytest.mark.parametrize("mode", ["full", "pruning-only"])
def test_lookahead_changes_nothing_observable(tmp_path, monkeypatch, mode):
    from subnetpack import runner
    out = tmp_path / "out"
    runs = {}
    for exact in (False, True):
        with monkeypatch.context() as patch:
            if not exact:
                patch.setattr(runner, "_lookahead_is_exact", lambda state, mask: False)
            state = new_state(make_cfg(out, f"run.mode = {mode}\n"))
            _, events = record_run(patch, lambda: execute_run(state))
        runs[exact] = out_bytes(out), events
        for path in out.iterdir():
            path.unlink()
    (sequential, plain), (ahead, overlapped) = runs[False], runs[True]
    assert ahead == sequential
    # saves, prune logs and warnings come at the same points, and each save
    # holds one prune log per task done
    shown = [e for e in overlapped if e[0] in ("save", "warn")]
    assert shown == [e for e in plain if e[0] in ("save", "warn")]
    assert [e for e in shown if e[0] == "save"] == [("save", t, t) for t in (1, 2, 3)]
    if mode == "pruning-only":
        assert any(e[0] == "warn" for e in shown)
    # task 1's population went out before task 0 committed, and not without
    # the lookahead
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
