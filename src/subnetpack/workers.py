"""Worker processes that run every `train_masked` call of a run.

Each worker is a fresh interpreter started with `OPENBLAS_NUM_THREADS=1` and
`OMP_NUM_THREADS=1` in its environment, so numpy loads with one BLAS thread
there and a trained weight does not depend on the caller's thread count.
A job carries everything it depends on (initial weights, mask, TrainConfig
with its seed), so results do not depend on which worker runs it either, and
the pool size cannot change a byte.

`submit` hands the pool a job list and returns a `Batch` without waiting;
`Batch.wait` returns that list's results in job order. Jobs of every batch
share one first-in, first-out queue, so a run can keep training one task's
winner while the next task's candidates queue behind it (see `runner`).

The pool starts on the first submit and lives as long as the process; it
holds one worker per CPU the process may use, capped at the most jobs it has
had queued or running at once. A job names its task by a ScenarioSuite and
a task id. A worker is sent the suite once, before its first job on it, and
keeps the TaskData `get_task` builds as it is, uint8 pixels for an image
scenario: `train_masked` turns each minibatch into floats as it gathers it,
and `evaluate` each block of rows it scores. It keeps the last two tasks it
used, as a run has two live (see `runner`). A reply carries the trained
weights inside the job's mask and the biases, each as float32 whenever that
keeps every bit (it does after any SGD step, which computes in float32); the
caller scatters the weights into a copy of the job's initial weights only
where it needs dense weights. Workers exit when their input closes.

Each message on a pipe is one protocol-5 pickle, arrays in band: the
pickler writes a large array's bytes straight to the pipe and the reader
reads them straight into the array's buffer. A worker has at most one reply
in flight: it is sent a job only while idle. A reply is (outcome, warnings):
the job's JobResult fields, or its exception and traceback text.

A winner's job also finishes its task, so the run process makes no BLAS
call for it: after training, the worker quantizes the weights
(`adaptive_quantize`, uncapped, or `identity_quantize`), scores the
quantized weights on the validation split and on the test split, and the
reply adds the bit-width, the codes, the centroid tables and both
accuracies.

Warnings a job raises are re-issued by `Batch.wait`, and a job's exception,
one raised building its task included, is raised again there. Training that
gives non-finite weights raises TrainingDiverged, a ConfigError, before any
evaluation. A worker that dies raises WorkerDied with its exit status; the
pool then stops its other workers, every unfinished batch raises it too, and
the next submit starts afresh. `TrainPool.cancel` drops every job not yet
returned, killing the workers running one, since nobody will read their
replies.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import sys
import warnings
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDiverged, WorkerDied
from .network import DenseWeights, evaluate, train_masked
from .quantization import adaptive_quantize, dequantized_weights, identity_quantize

TASKS_KEPT = 2  # tasks a worker keeps built, as a run has two live
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `-c`, not `-m` or multiprocessing's spawn: the child never imports the
# caller's __main__
_COMMAND = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {_SRC!r}); "
            "from subnetpack.workers import serve; serve()"]


# -- worker side ---------------------------------------------------------------

def _narrow(a: np.ndarray) -> np.ndarray:
    """`a` as float32 when that keeps every bit, else as it is."""
    small = a.astype(np.float32)
    return small if np.array_equal(small, a) else a


def _finish(spec, weights, mask, accuracy, task, quant) -> dict:
    """The JobResult fields `psi`, `codes`, `centroids`, `q_acc` and `test_acc`.

    `quant` is the bit-width ladder's QuantConfig, or None for 32-bit
    patterns, which keep the validation accuracy. The test accuracy is the
    one `runner.task_view` replays: both rebuild the task with
    `dequantized_weights` from the same codes, tables and bias values, as
    float32 weights beside biases that `evaluate` widens to the same float64
    values, and it scores both in float64.
    """
    if quant is None:
        psi, (codes, centroids), q_acc = 32, identity_quantize(mask, weights), accuracy
    else:
        psi, codes, centroids, q_acc = adaptive_quantize(
            spec, mask, weights, accuracy, (task.x_val, task.y_val), quant)
    view = dequantized_weights(psi, mask, codes, centroids, weights.biases)
    return dict(psi=psi, codes=codes, centroids=centroids, q_acc=q_acc,
                test_acc=evaluate(spec, view, mask, task.x_test, task.y_test))


def _task(suite, kept: dict, task_id):
    """Task `task_id`'s TaskData as `get_task` builds it; `kept` holds the
    last TASKS_KEPT used."""
    task = kept.pop(task_id, None)
    if task is None:
        while len(kept) >= TASKS_KEPT:  # before the build, to bound the peak
            del kept[next(iter(kept))]
        task = suite.get_task(task_id)
    kept[task_id] = task  # the most recently used last
    return task


def _run_job(spec, suite, kept, task_id, weights, mask, cfg, *quant):
    """(outcome, warnings): the reply to one job.

    `outcome` is a dict of the job's JobResult fields but `init` and `mask`,
    or (exception, traceback text) if the job raised. A winner's job has one
    more argument, its `quant`: the job then finishes its task, and the dict
    adds `_finish`'s fields.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            task = _task(suite, kept, task_id)
            weights = train_masked(spec, weights, mask, (task.x_train, task.y_train), cfg)
            if not all(np.isfinite(a).all() for a in (*weights.weights, *weights.biases)):
                raise TrainingDiverged(f"task {task_id}: training gave non-finite "
                                       "weights; lower train.lr_initial")
            accuracy = evaluate(spec, weights, mask, task.x_val, task.y_val)
            outcome = dict(
                values=[_narrow(w[np.asarray(m, dtype=bool)])
                        for w, m in zip(weights.weights, mask)],
                biases=[_narrow(b) for b in weights.biases],
                accuracy=accuracy,
                **(_finish(spec, weights, mask, accuracy, task, *quant)
                   if quant else {}))
        except Exception as exc:
            import traceback
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            outcome = (exc, traceback.format_exc())
    return outcome, [(w.category, str(w.message)) for w in caught]


def serve() -> None:
    """Worker loop: answer each job on stdin until stdin closes.

    Ctrl-C reaches the whole process group; the caller handles it by
    stopping its workers, so a worker ignores SIGINT. A caller gone mid-job
    (its end of the reply pipe closed) or mid-message ends the worker quietly.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inp = sys.stdin.buffer
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, not into the replies
    suite, kept = None, {}
    while True:
        try:
            msg = pickle.load(inp)
        except (EOFError, pickle.UnpicklingError):
            return  # input closed, between messages or inside one
        if msg[0] == "suite":
            suite, kept = msg[1], {}
        else:
            _, spec, *job = msg
            try:
                pickle.dump(_run_job(spec, suite, kept, *job), out, protocol=5)
                out.flush()
            except BrokenPipeError:
                os._exit(0)  # nothing left to flush to


# -- caller side ---------------------------------------------------------------

@dataclass
class JobResult:
    """One trained job: its weights inside the mask, its biases, its accuracy.

    `values[i]` holds layer i's weights under the job's mask in row-major
    order, and `biases[i]` layer i's biases, both float32 when that keeps
    every bit; the accuracy is on the validation split. `init` and `mask` are
    the job's own. A winner's job also holds its quantized task: the bit-width
    `psi`, `codes` (uint32 per masked slot of each layer, in row-major
    order, which the store narrows on commit), the float32 `centroids` table
    of each layer, the validation accuracy `q_acc` and the test accuracy
    `test_acc` of the quantized weights; these are None for other jobs.
    """

    values: list
    biases: list
    accuracy: float
    init: DenseWeights
    mask: object
    psi: int | None = None
    codes: list | None = None
    centroids: list | None = None
    q_acc: float | None = None
    test_acc: float | None = None

    def weights(self) -> DenseWeights:
        """The trained weights: `init` outside the mask, `values` inside.

        These are the bits `train_masked` returns for the job; float32
        biases widen back to the same float64 values.
        """
        layers = []
        for w, m, v in zip(self.init.weights, self.mask, self.values):
            w = np.array(w, dtype=np.float64)
            w[np.asarray(m, dtype=bool)] = v
            layers.append(w)
        return DenseWeights(layers, self.biases)


class _Worker:
    def __init__(self):
        import subprocess  # here, so that importing the package stays light
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(_COMMAND, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env)
        self.suite = None  # weakref to the ScenarioSuite it was last sent

    def holds(self, suite) -> bool:
        return self.suite is not None and self.suite() is suite

    def send(self, msg) -> None:
        try:
            pickle.dump(msg, self.proc.stdin, protocol=5)
            self.proc.stdin.flush()
        except OSError:
            raise self.died() from None

    def died(self) -> WorkerDied:
        return WorkerDied(self.proc.pid, self.proc.wait())


class Batch:
    """A job list handed to the pool; `wait` returns its results.

    Every job of a batch trains on task `task_id` of `suite`. After the
    batch's first failed job none of its queued jobs starts; the ones already
    running finish.
    """

    def __init__(self, pool: "TrainPool", spec, suite, task_id, jobs):
        self.pool = pool
        self.spec = spec
        self.suite = suite
        self.task_id = task_id
        self.jobs = [tuple(job) for job in jobs]
        self.replies = [None] * len(self.jobs)
        self.left = len(self.jobs)  # jobs neither answered nor dropped
        self.failed = False  # a job raised
        self.error = None  # the pool stopped before the batch was done

    @property
    def ready(self) -> bool:
        """Every reply is in (or the pool stopped); `wait` will not block."""
        return self.left == 0 or self.error is not None

    def wait(self) -> list[JobResult]:
        """[JobResult] in job order, once every job has returned.

        Re-issues the jobs' warnings, then raises the first failed job's
        exception, in job order.
        """
        self.pool.wait_any([self])
        if self.error is not None:
            raise self.error
        replies = [r for r in self.replies if r]
        for _, caught in replies:
            for category, message in caught:
                warnings.warn(message, category, stacklevel=2)
        for outcome, _ in replies:
            if not isinstance(outcome, dict):
                exc, trace = outcome
                raise exc from RuntimeError(f"in a training worker:\n{trace}")
        return [JobResult(init=init, mask=mask, **outcome)
                for (outcome, _), (init, mask, *_) in zip(replies, self.jobs)]


class TrainPool:
    """Persistent single-BLAS-thread workers; see the module docstring."""

    def __init__(self):
        self.workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._queue = deque()  # (batch, job index), first in, first out
        self._busy = {}  # stdout fd -> (worker, batch, job index)

    @property
    def pending(self) -> int:
        """Jobs queued or running."""
        return len(self._queue) + len(self._busy)

    def submit(self, spec, suite, task_id, jobs) -> Batch:
        """Queue jobs [(weights, mask, cfg)] to train on task `task_id` of `suite`.

        Returns without waiting for a job: idle workers are only sent their
        jobs, with the suite first where needed. Each job trains with
        train_masked on the task's train split and is scored with evaluate on
        its validation split, in a worker. A job (weights, mask, cfg, quant)
        also finishes its task: see `_finish`.
        """
        batch = Batch(self, spec, suite, task_id, jobs)
        self._queue.extend((batch, i) for i in range(len(batch.jobs)))
        try:
            while len(self.workers) < min(_usable_cpus(), self.pending):
                w = _Worker()
                self.workers.append(w)
                self._idle.append(w)
            self._dispatch()
        except BaseException as exc:
            self._stop(exc)
            raise
        return batch

    def wait_any(self, batches) -> None:
        """Block until one of `batches` is ready."""
        try:
            while not any(b.ready for b in batches):
                self._receive()
        except BaseException as exc:
            self._stop(exc)
            raise

    def _dispatch(self):
        """Hand queued jobs to idle workers, sending each the job's suite first
        unless it holds it."""
        while self._idle and self._queue:
            batch, i = self._queue.popleft()
            if batch.failed:
                batch.left -= 1
                continue
            w = self._idle.pop(0)
            if not w.holds(batch.suite):
                w.send(("suite", batch.suite))
                w.suite = weakref.ref(batch.suite)
            w.send(("train", batch.spec, batch.task_id) + batch.jobs[i])
            self._busy[w.proc.stdout.fileno()] = (w, batch, i)

    def _receive(self):
        """Read every reply that is in, waiting for one, then dispatch."""
        if not self._busy:
            raise RuntimeError("waiting on a batch with no job queued or running")
        # select sees only the pipe, not what the reader has buffered; that is
        # sound because a worker has at most one reply in flight, so no byte
        # is left buffered once a whole reply is read
        ready, _, _ = select.select(list(self._busy), [], [])
        for fd in ready:
            w, batch, i = self._busy[fd]
            try:
                reply = pickle.load(w.proc.stdout)
            except (EOFError, pickle.UnpicklingError):
                raise w.died() from None  # its reply ended early
            del self._busy[fd]
            batch.replies[i] = reply
            batch.left -= 1
            batch.failed = batch.failed or not isinstance(reply[0], dict)
            self._idle.append(w)
        self._dispatch()

    def cancel(self) -> None:
        """Drop every job not yet returned; no-op when none is pending."""
        if self.pending:
            self._stop(RuntimeError("training jobs cancelled"))

    def _stop(self, exc) -> None:
        """Stop every worker; every unfinished batch then raises `exc`."""
        for batch, _ in self._queue:
            batch.error = batch.error or exc
        for _, batch, _ in self._busy.values():
            batch.error = batch.error or exc
        self.close(kill=True)

    def close(self, kill=False) -> None:
        """Stop every worker: end of input, or SIGKILL with kill=True.

        A worker still running a job is killed either way: nobody will read
        its reply, and it could block writing one.
        """
        busy = {id(w) for w, _, _ in self._busy.values()}
        workers, self.workers, self._idle = self.workers, [], []
        self._queue.clear()
        self._busy.clear()
        for w in workers:
            if kill or id(w) in busy:
                w.proc.kill()
            try:
                w.proc.stdin.close()
            except OSError:
                pass
        for w in workers:
            w.proc.wait()
            w.proc.stdout.close()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


POOL = TrainPool()
atexit.register(POOL.close)


def submit(spec, suite, task_id, jobs) -> Batch:
    """Queue training jobs in the worker pool; see TrainPool.submit."""
    return POOL.submit(spec, suite, task_id, jobs)

