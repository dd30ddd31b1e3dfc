import hashlib
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import subnetpack
from helpers import run_until_saved
from subnetpack import workers
from subnetpack.cli import EXIT_WORKER, main
from subnetpack.config import build_run_config, parse_config_text
from subnetpack.errors import DegenerateMaskWarning, ShapeMismatchError, WorkerDied
from subnetpack.network import (ModelSpec, TrainConfig, as_floats, evaluate,
                                full_mask, train_masked, xavier_init)
from subnetpack.pruning import PruneConfig, choose_winner, start_search
from subnetpack.runner import execute_run, new_state, state_from_checkpoint
from subnetpack.scenario import (load_idx, permuted_scenario, synthetic_blobs,
                                 write_digit_idx)
from subnetpack.store import WeightSlotStore

SPEC = ModelSpec((12, 16, 4))
TRAIN = TrainConfig(epochs=5, batch_size=16, lr_initial=0.3, lr_floor=0.001, seed=0)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(subnetpack.__file__)))
REPORTS = ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt",
           "checkpoint.bin")

SYNTHETIC = """
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


def blob_suite(seed=11):
    return synthetic_blobs(n_tasks=1, classes=4, dim=12, samples=80,
                           separation=8.0, seed=seed)


def trained_winner(cfg):
    """The trained winner of task 0's search on an empty store."""
    search = start_search(0, WeightSlotStore(SPEC.shapes), SPEC, blob_suite(), cfg, TRAIN)
    choose_winner(search)
    return search.trained()


def started_pool():
    """The process's pool with at least one live worker."""
    start_search(0, WeightSlotStore(SPEC.shapes), SPEC, blob_suite(),
                 PruneConfig(population=1, short_epochs=1), TRAIN).population.wait()
    return workers.POOL


def kill_a_worker():
    proc = started_pool().workers[0].proc
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)
    return proc.pid


def report_bytes(out):
    texts = {}
    for name in REPORTS + ("summary.json",):
        data = (out / name).read_bytes()
        if name == "summary.json":
            data = b"".join(ln for ln in data.splitlines(keepends=True)
                            if b'"generated_at"' not in ln)
        texts[name] = data
    return texts


def test_degenerate_mask_warning_reaches_the_caller():
    # passes on the parent too, where training ran in the calling process
    cfg = PruneConfig(population=2, short_epochs=1, full_epochs=1,
                      v_min=1.0, v_max=1.0, seed=0)
    with pytest.warns(DegenerateMaskWarning):
        trained_winner(cfg)


def test_worker_exception_comes_back_as_itself():
    suite = blob_suite()
    init = xavier_init(SPEC, 0)
    bad = [np.ones((3, 3), dtype=bool)] * SPEC.n_layers
    # a bad mask, and a task outside the suite, which the worker builds
    for task_id, mask, error in ((0, bad, ShapeMismatchError),
                                 (1, full_mask(SPEC), IndexError)):
        with pytest.raises(error):
            workers.submit(SPEC, suite, task_id, [(init, full_mask(SPEC), TRAIN),
                                                  (init, mask, TRAIN)]).wait()
        # the pool survives a failed job and trains the next list
        result, = workers.submit(SPEC, suite, 0, [(init, full_mask(SPEC), TRAIN)]).wait()
        assert 0.0 <= result.accuracy <= 1.0
        assert result.weights().weights[0].shape == SPEC.shapes[0]


def test_killed_worker_raises_promptly_with_its_exit_status():
    pid = kill_a_worker()
    cfg = PruneConfig(population=2, short_epochs=1, full_epochs=1, seed=0)
    start = time.monotonic()
    with pytest.raises(WorkerDied) as info:
        trained_winner(cfg)
    assert time.monotonic() - start < 10.0
    assert info.value.pid == pid
    assert info.value.status == -signal.SIGKILL
    # the next call starts a fresh pool
    assert 0.0 <= trained_winner(cfg).accuracy <= 1.0


def test_workers_train_uint8_pixels_as_their_floats(tmp_path):
    # a worker builds the task from the suite it was sent and keeps its uint8
    # pixels: training turns each minibatch into float32, evaluation each
    # block of rows into float64. The shapes keep every matmul small enough
    # that OpenBLAS runs it on one thread here too, as in the worker.
    p = write_digit_idx(tmp_path, n_train=600, n_test=50, seed=4)
    suite = permuted_scenario(load_idx(p["train_images"], p["train_labels"]),
                              load_idx(p["test_images"], p["test_labels"]), 2, seed=4)
    data = suite.get_task(1)
    assert data.x_train.dtype == np.uint8 and data.x_val.dtype == np.uint8
    spec = ModelSpec((784, 4, 10))
    init = xavier_init(spec, 4)
    mask = [np.random.default_rng(4).random(s) < 0.5 for s in spec.shapes]
    cfg = TrainConfig(epochs=2, batch_size=16, lr_initial=0.1, seed=4)
    result, = workers.submit(spec, suite, 1, [(init, mask, cfg)]).wait()
    weights = result.weights()
    x_train = as_floats(data.x_train, np.float32)
    x_val = as_floats(data.x_val, np.float64)
    want = train_masked(spec, init, mask, (x_train, data.y_train), cfg)
    for got, ref in zip(weights.weights + weights.biases, want.weights + want.biases):
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert result.accuracy == evaluate(spec, want, mask, x_val, data.y_val)


def test_a_worker_keeps_each_task_as_get_task_builds_it(tmp_path):
    p = write_digit_idx(tmp_path, n_train=200, n_test=40, seed=5)
    suite = permuted_scenario(load_idx(p["train_images"], p["train_labels"]),
                              load_idx(p["test_images"], p["test_labels"]), 4, seed=5)
    kept = {}
    for task_id in (0, 1, 0, 2, 3, 3, 1):
        task = workers._task(suite, kept, task_id)
        assert len(kept) <= workers.TASKS_KEPT
        assert list(kept)[-1] == task_id and kept[task_id] is task
        want = suite.get_task(task_id)
        for name in ("x_train", "y_train", "x_val", "y_val", "x_test", "y_test"):
            got, ref = getattr(task, name), getattr(want, name)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
        assert task.x_train.dtype == np.uint8 and task.x_val.dtype == np.uint8
    assert list(kept) == [3, 1]


def test_batches_queue_without_blocking_and_train_their_own_split():
    # two job lists on the tasks of two suites, submitted back to back and
    # waited on in the other order: each job trains on its own task's split,
    # so each list gives what it gives alone
    suites = [blob_suite(seed) for seed in (11, 12)]
    init = xavier_init(SPEC, 0)
    rng = np.random.default_rng(3)
    jobs = [[(init, [rng.random(s) < 0.6 for s in SPEC.shapes], TRAIN)
             for _ in range(3)] for _ in suites]
    alone = [workers.submit(SPEC, suite, 0, js).wait() for suite, js in zip(suites, jobs)]
    batches = [workers.submit(SPEC, suite, 0, js) for suite, js in zip(suites, jobs)]
    assert workers.POOL.pending == 6
    assert not any(b.ready for b in batches)
    together = [b.wait() for b in batches[::-1]][::-1]
    assert workers.POOL.pending == 0
    for got, want in zip(together, alone):
        for g, w in zip(got, want):
            assert g.accuracy == w.accuracy
            gw, ww = g.weights(), w.weights()
            for a, b in zip(gw.weights + gw.biases, ww.weights + ww.biases):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_a_reply_carries_the_in_mask_float32_values():
    mask = [np.random.default_rng(1).random(s) < 0.5 for s in SPEC.shapes]
    trained, untrained = workers.submit(
        SPEC, blob_suite(), 0, [(xavier_init(SPEC, 2), mask, TRAIN),
                     (xavier_init(SPEC, 2), mask, TrainConfig(epochs=0))]).wait()
    for values, m in zip(trained.values, mask):
        assert values.dtype == np.float32 and values.shape == (int(m.sum()),)
    # with no SGD step the values are the float64 initial weights, kept whole
    for values, w, m in zip(untrained.values, xavier_init(SPEC, 2).weights, mask):
        assert values.dtype == np.float64
        np.testing.assert_array_equal(values, w[m])


def test_cancel_drops_jobs_in_flight():
    suite = blob_suite()
    long = TrainConfig(epochs=400, batch_size=4, seed=0)
    batch = workers.submit(SPEC, suite, 0,
                           [(xavier_init(SPEC, 0), full_mask(SPEC), long)] * 3)
    procs = [w.proc for w in workers.POOL.workers]
    start = time.monotonic()
    workers.POOL.cancel()
    assert time.monotonic() - start < 10.0
    assert workers.POOL.pending == 0 and workers.POOL.workers == []
    assert all(p.poll() is not None for p in procs)
    with pytest.raises(RuntimeError, match="cancelled"):
        batch.wait()
    result, = workers.submit(SPEC, suite, 0, [(xavier_init(SPEC, 0),
                                               full_mask(SPEC), TRAIN)]).wait()
    assert result.weights().weights[0].shape == SPEC.shapes[0]


def test_run_resumes_to_the_same_bytes_after_a_worker_dies(tmp_path):
    cfg_text = SYNTHETIC + f"run.output_dir = {tmp_path / 'out'}\n"
    execute_run(new_state(build_run_config(parse_config_text(cfg_text))))
    uninterrupted = report_bytes(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")

    state = new_state(build_run_config(parse_config_text(cfg_text)))
    assert 1 in run_until_saved(state, 1)  # task 1's search was begun and dropped
    kill_a_worker()
    with pytest.raises(WorkerDied):
        execute_run(state)
    resumed = state_from_checkpoint(str(tmp_path / "out" / "checkpoint.bin"))
    assert resumed.next_task == 1
    execute_run(resumed)
    assert report_bytes(tmp_path / "out") == uninterrupted


def test_cli_maps_a_dead_worker_to_its_exit_code(tmp_path, monkeypatch, capsys):
    from subnetpack import cli

    def dies(state):
        raise WorkerDied(1234, -9)

    monkeypatch.setattr(cli, "execute_run", dies)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SYNTHETIC + f"run.output_dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_WORKER
    assert "training worker 1234 exited with status -9" in capsys.readouterr().err


# a worker that reads its suite and its job, writes the first half of a reply
# and exits
HALF_REPLY = f"""
import pickle, sys
sys.path.insert(0, {SRC!r})
import numpy as np
pickle.load(sys.stdin.buffer)
pickle.load(sys.stdin.buffer)
reply = pickle.dumps(({{"values": [np.zeros(5000)]}}, []), protocol=5)
sys.stdout.buffer.write(reply[:len(reply) // 2])
sys.stdout.buffer.flush()
sys.exit(3)
"""


def test_a_reply_cut_short_raises_worker_died(tmp_path, monkeypatch, capsys):
    # a bare pickle.load of the cut reply raises UnpicklingError instead
    workers.POOL.close()
    monkeypatch.setattr(workers, "_COMMAND", [sys.executable, "-c", HALF_REPLY])
    init = xavier_init(SPEC, 0)
    with pytest.raises(WorkerDied) as info:
        workers.submit(SPEC, blob_suite(), 0, [(init, full_mask(SPEC), TRAIN)]).wait()
    assert info.value.status == 3
    assert workers.POOL.workers == []
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SYNTHETIC + f"run.output_dir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_WORKER
    assert "exited with status 3" in capsys.readouterr().err


def test_a_worker_whose_input_ends_inside_a_message_exits_quietly():
    # a bare pickle.load raises there, and the worker exits 1 with a traceback
    mask = [np.random.default_rng(1).random(s) < 0.5 for s in SPEC.shapes]
    suite = pickle.dumps(("suite", blob_suite()), protocol=5)
    job = pickle.dumps(("train", SPEC, 0, xavier_init(SPEC, 0), mask, TRAIN),
                       protocol=5)
    for data in (suite[:1], suite[:len(suite) // 2], suite + job[:len(job) // 2],
                 suite + job[:-1]):
        proc = subprocess.Popen(workers._COMMAND, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(data, timeout=60)
        assert (proc.returncode, out, err) == (0, b"", b"")


# -- whole runs in child processes ---------------------------------------------

DIGITS = """
scenario.kind = permuted
scenario.n_tasks = 2
scenario.train_images = {data}/train-images.idx
scenario.train_labels = {data}/train-labels.idx
scenario.test_images = {data}/test-images.idx
scenario.test_labels = {data}/test-labels.idx
model.layers = 784,100,10
prune.population = 2
prune.short_epochs = 1
prune.full_epochs = 2
run.seed = 0
run.output_dir = out
"""

CHILD = """
import os, sys
cpus = {cpus!r}
if cpus is not None:
    os.sched_setaffinity(0, cpus)
from subnetpack import workers
from subnetpack.cli import main
code = main(sys.argv[1:])
print(len(workers.POOL.workers))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def digit_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("digits")
    write_digit_idx(root / "data", n_train=600, n_test=200, seed=3)
    path = root / "run.cfg"
    path.write_text(DIGITS.format(data=root / "data"))
    return path


def run_child(cwd, config, cpus=None, threads=None, args=None):
    """Run the CLI in a child process in `cwd`; returns its pool size."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    cwd.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(cpus=cpus)]
        + (args or ["run", "--config", str(config)]),
        cwd=cwd, env=env, stdout=subprocess.PIPE, timeout=300, check=True)
    return int(proc.stdout.splitlines()[-1])


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path, digit_config):
    # fails on the parent, which trained on the caller's BLAS threads
    for threads in (1, 2):
        run_child(tmp_path / str(threads), digit_config, threads=threads)
    one, two = ((tmp_path / t / "out" / "checkpoint.bin").read_bytes()
                for t in ("1", "2"))
    assert hashlib.sha256(one).hexdigest() == hashlib.sha256(two).hexdigest()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable CPUs")
def test_pool_size_does_not_change_a_byte(tmp_path, digit_config):
    cpus = sorted(os.sched_getaffinity(0))[:2]
    assert run_child(tmp_path / "one", digit_config, cpus={cpus[0]}) == 1
    assert run_child(tmp_path / "two", digit_config, cpus=set(cpus)) == 2
    assert (report_bytes(tmp_path / "one" / "out")
            == report_bytes(tmp_path / "two" / "out"))


def test_read_only_commands_start_no_worker(tmp_path, digit_config):
    run_child(tmp_path / "run", digit_config)
    checkpoint = str(tmp_path / "run" / "out" / "checkpoint.bin")
    assert run_child(tmp_path / "report", None,
                     args=["report", "--checkpoint", checkpoint,
                           "--output-dir", str(tmp_path / "report" / "out")]) == 0
    assert run_child(tmp_path / "inspect", None,
                     args=["inspect-checkpoint", "--checkpoint", checkpoint]) == 0


FAILING_PARENT = """
import sys
from subnetpack import runner, workers
from subnetpack.cli import main

pids = []
start = workers._Worker.__init__


def started(self):
    start(self)
    pids.append(self.proc.pid)


fit = runner.fit_budget


def fails(t, *args, **kwargs):
    if t == 0:
        print("workers", *pids, flush=True)
        print("pending", workers.POOL.pending, flush=True)
        raise RuntimeError("quantization failed on purpose")
    return fit(t, *args, **kwargs)


workers._Worker.__init__ = started
runner.fit_budget = fails
sys.exit(main(sys.argv[1:]))
"""

# replies of ~100 KB, more than a pipe holds, from candidates slow enough
# that task 1's population is still training when task 0's quantized winner
# is held to its slot budget
WIDE_SYNTHETIC = """
scenario.kind = synthetic
scenario.n_tasks = 3
scenario.classes = 4
scenario.dim = 600
scenario.samples = 60
model.layers = 600,100,4
train.batch_size = 8
prune.population = 6
prune.short_epochs = 40
prune.full_epochs = 1
run.output_dir = out
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker states in /proc")
def test_a_parent_error_with_jobs_in_flight_neither_hangs_nor_leaks(tmp_path):
    (tmp_path / "run.cfg").write_text(WIDE_SYNTHETIC)
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", FAILING_PARENT, "run", "--config", "run.cfg"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 30.0
    assert proc.returncode != 0
    assert "RuntimeError: quantization failed on purpose" in proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert int(lines["pending"]) > 0  # task 1's population was in flight
    pids = [int(p) for p in lines["workers"].split()]
    assert pids
    deadline = time.monotonic() + 10.0
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        time.sleep(0.05)
    assert pids == []


def _alive(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# stops a run at the point argv[1] names, prints its workers and the jobs
# they have queued or running, and waits to be killed: "saved N" right after
# the N-th checkpoint save, "renaming N" between the N-th save's temp-file
# write and its rename
KILLABLE = """
import os, sys, time
from subnetpack import runner, workers
from subnetpack.cli import main

point, n = sys.argv[1], int(sys.argv[2])
pids, saves, renames = [], [], []
start = workers._Worker.__init__


def started(self):
    start(self)
    pids.append(self.proc.pid)


def stop():
    print("pending", workers.POOL.pending, flush=True)
    print("workers", *pids, flush=True)
    time.sleep(300)


save = runner.save_checkpoint


def save_then_stop(path, payload):
    save(path, payload)
    saves.append(path)
    if point == "saved" and len(saves) == n:
        stop()


rename = os.replace


def stop_then_rename(src, dst):
    renames.append(dst)
    if point == "renaming" and len(renames) == n:
        stop()
    rename(src, dst)


workers._Worker.__init__ = started
runner.save_checkpoint = save_then_stop
os.replace = stop_then_rename
sys.exit(main(sys.argv[3:]))
"""


@pytest.fixture(scope="module")
def killable_run(tmp_path_factory):
    """(config path, report bytes of the run uninterrupted)."""
    root = tmp_path_factory.mktemp("killable")
    # candidates train long enough that the next task's search outlasts the
    # current task's winner, so it is still in flight at the checkpoint
    (root / "run.cfg").write_text(
        SYNTHETIC.replace("prune.short_epochs = 3", "prune.short_epochs = 60")
        + "run.output_dir = out\n")
    (root / "full").mkdir()
    subprocess.run([sys.executable, "-m", "subnetpack.cli", "run", "--config",
                    str(root / "run.cfg")], cwd=root / "full",
                   env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL,
                   timeout=300, check=True)
    return root / "run.cfg", report_bytes(root / "full" / "out")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker states in /proc")
@pytest.mark.parametrize("point, n, resumed_at", [("saved", 1, 1), ("saved", 2, 2),
                                                  ("renaming", 2, 1)])
def test_a_run_killed_anywhere_resumes_to_the_same_bytes(tmp_path, killable_run,
                                                          point, n, resumed_at):
    config, uninterrupted = killable_run
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", KILLABLE, point, str(n), "run",
                             "--config", str(config)],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        lines = dict(proc.stdout.readline().rstrip("\n").split(" ", 1)
                     for _ in range(2))
        proc.kill()
        assert proc.wait(timeout=10) == -signal.SIGKILL
    assert int(lines["pending"]) > 0  # the next task's search is in flight
    pids = [int(p) for p in lines["workers"].split()]
    assert pids
    deadline = time.monotonic() + 10.0
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        time.sleep(0.05)
    assert pids == []  # no worker outlives its killed parent

    checkpoint = tmp_path / "out" / "checkpoint.bin"
    # a save's own temp file, left beside the checkpoint when killed before its rename
    temps = list((tmp_path / "out").glob("checkpoint.bin.*.tmp"))
    assert len(temps) == (point == "renaming")
    assert state_from_checkpoint(str(checkpoint), need_suite=False).next_task == resumed_at
    subprocess.run([sys.executable, "-m", "subnetpack.cli", "resume",
                    "--checkpoint", str(checkpoint)],
                   cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, timeout=300,
                   check=True)
    assert report_bytes(tmp_path / "out") == uninterrupted


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker states in /proc")
def test_a_run_interrupted_after_a_checkpoint_exits_130_and_resumes(tmp_path,
                                                                   killable_run):
    # SIGINT, as Ctrl-C sends it, once task 0's checkpoint is saved: the run
    # stops its workers and exits 130 with one line naming the checkpoint,
    # not a KeyboardInterrupt traceback, and the checkpoint resumes
    config, uninterrupted = killable_run
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", KILLABLE, "saved", "1", "run",
                             "--config", str(config)],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        lines = dict(proc.stdout.readline().rstrip("\n").split(" ", 1)
                     for _ in range(2))
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert "Traceback" not in err
    assert err.splitlines()[-1] == ("interrupted; the last checkpoint saved, "
                                    "if any, is out/checkpoint.bin")
    pids = [int(p) for p in lines["workers"].split()]
    deadline = time.monotonic() + 10.0
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        time.sleep(0.05)
    assert pids == []

    checkpoint = tmp_path / "out" / "checkpoint.bin"
    assert state_from_checkpoint(str(checkpoint), need_suite=False).next_task == 1
    resumed = subprocess.run([sys.executable, "-m", "subnetpack.cli", "resume",
                              "--checkpoint", str(checkpoint)],
                             cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                             timeout=300)
    assert resumed.returncode == 0
    assert report_bytes(tmp_path / "out") == uninterrupted
