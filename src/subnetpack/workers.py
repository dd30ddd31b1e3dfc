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
`train_jobs` is submit-then-wait.

The pool starts on the first submit and lives as long as the process; it
holds one worker per CPU the process may use, capped at the most jobs it has
had queued or running at once. A worker is sent the train and validation
split of the job it takes before the job, unless it holds that split already,
in row blocks of the split's own dtype (uint8 pixels for image tasks). It
turns the pixels into floats once, as they arrive: the train split into
float32, which SGD computes in, and the validation split into float64, which
evaluation computes in. A reply carries the trained weights inside the job's
mask and the biases, as float32 whenever that keeps every bit (it does after
any SGD step, which computes in float32); the caller scatters them into a
copy of the job's initial weights only where it needs dense weights. Workers
exit when their input closes.

Warnings a job raises are re-issued by `Batch.wait`, and a job's exception is
raised again there. A worker that dies raises WorkerDied with its exit
status; the pool then stops its other workers, every unfinished batch raises
it too, and the next submit starts afresh. `TrainPool.cancel` drops every
job not yet returned, killing the workers running one, since nobody will read
their replies.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import struct
import sys
import warnings
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import WorkerDied
from .network import DenseWeights, as_floats, evaluate, train_masked

BLOCK_ROWS = 1024  # train-split rows per message
_SIZE = struct.Struct("<Q")
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `-c`, not `-m` or multiprocessing's spawn: the child never imports the
# caller's __main__
_COMMAND = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {_SRC!r}); "
            "from subnetpack.workers import serve; serve()"]


def _frame(obj) -> list:
    """One message as byte views: part count and sizes, pickle, array buffers.

    Arrays travel out of band, so neither side copies them into a pickle.
    """
    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    parts = [memoryview(data)] + [b.raw() for b in buffers]
    sizes = [p.nbytes for p in parts]
    return [struct.pack(f"<{len(sizes) + 1}Q", len(sizes), *sizes)] + parts


def _write(stream, frame) -> None:
    for part in frame:
        stream.write(part)
    stream.flush()


def _read(stream):
    """The next message on `stream`, or None at end of input."""

    def exactly(n):
        buf = bytearray(n)
        return buf if stream.readinto(buf) == n else None

    head = exactly(_SIZE.size)
    if head is None:
        return None
    count, = _SIZE.unpack(head)
    sizes = exactly(count * _SIZE.size)
    if sizes is None:
        return None
    parts = [exactly(n) for n in struct.unpack(f"<{count}Q", sizes)]
    if None in parts:
        return None
    return pickle.loads(parts[0], buffers=parts[1:])


# -- worker side ---------------------------------------------------------------

def _narrow(a: np.ndarray) -> np.ndarray:
    """`a` as float32 when that keeps every bit, else as it is."""
    small = a.astype(np.float32)
    return small if np.array_equal(small, a) else a


def _run_job(spec, split, weights, mask, cfg):
    """(("ok", values, biases, accuracy) or ("error", exc, traceback), warnings)."""
    x_train, y_train, x_val, y_val = split
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            weights = train_masked(spec, weights, mask, (x_train, y_train), cfg)
            result = ("ok",
                      [_narrow(w[np.asarray(m, dtype=bool)])
                       for w, m in zip(weights.weights, mask)],
                      [_narrow(b) for b in weights.biases],
                      evaluate(spec, weights, mask, x_val, y_val))
        except Exception as exc:
            import traceback
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(repr(exc))
            result = ("error", exc, traceback.format_exc())
    return result, [(w.category, str(w.message)) for w in caught]


def serve() -> None:
    """Worker loop: answer each job on stdin until stdin closes.

    Ctrl-C reaches the whole process group; the caller handles it by
    stopping its workers, so a worker ignores SIGINT. A caller gone mid-job
    (its end of the reply pipe closed) ends the worker quietly.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inp = sys.stdin.buffer
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, not into the replies
    split = None
    while (msg := _read(inp)) is not None:
        kind = msg[0]
        if kind == "split":
            _, shape, y_train, x_val, y_val = msg
            split = (np.empty(shape, dtype=np.float32), y_train,
                     as_floats(x_val, np.float64), y_val)
        elif kind == "rows":
            _, start, block = msg
            split[0][start:start + len(block)] = as_floats(block, np.float32)
        else:
            _, spec, weights, mask, cfg = msg
            try:
                _write(out, _frame(_run_job(spec, split, weights, mask, cfg)))
            except BrokenPipeError:
                os._exit(0)  # nothing left to flush to


# -- caller side ---------------------------------------------------------------

@dataclass
class JobResult:
    """One trained job: its weights inside the mask, its biases, its accuracy.

    `values[i]` holds layer i's weights under the job's mask in row-major
    order; the accuracy is on the validation split. `init` and `mask` are the
    job's own.
    """

    values: list
    biases: list
    accuracy: float
    init: DenseWeights
    mask: object

    def weights(self) -> DenseWeights:
        """The trained weights: `init` outside the mask, `values` inside.

        These are the bits `train_masked` returns for the job.
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
        self.split = None  # weakref to the TaskData whose split it holds

    def holds(self, data) -> bool:
        return self.split is not None and self.split() is data

    def send(self, frame) -> None:
        try:
            _write(self.proc.stdin, frame)
        except OSError:
            raise self.died() from None

    def died(self) -> WorkerDied:
        return WorkerDied(self.proc.pid, self.proc.wait())


class Batch:
    """A job list handed to the pool; `wait` returns its results.

    After the batch's first failed job none of its queued jobs starts; the
    ones already running finish. The batch lets go of its TaskData once its
    last job is sent.
    """

    def __init__(self, pool: "TrainPool", spec, data, jobs):
        self.pool = pool
        self.spec = spec
        self.data = data
        self.jobs = [tuple(job) for job in jobs]
        self.replies = [None] * len(self.jobs)
        self.unsent = len(self.jobs)  # jobs neither sent nor dropped
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
        for (status, *rest), _ in replies:
            if status == "error":
                exc, trace = rest
                raise exc from RuntimeError(f"in a training worker:\n{trace}")
        return [JobResult(*rest, init, mask)
                for ((_, *rest), _), (init, mask, _) in zip(replies, self.jobs)]


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

    def submit(self, spec, data, jobs) -> Batch:
        """Queue jobs [(weights, mask, cfg)] to train on data.

        Returns without waiting for a job: idle workers are only sent their
        jobs, with the split first where needed. Each job trains with
        train_masked on data's train split and is scored with evaluate on its
        validation split, in a worker.
        """
        batch = Batch(self, spec, data, jobs)
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
        """Hand queued jobs to idle workers, shipping each its job's split."""
        taken = []
        while self._idle and self._queue:
            batch, i = self._queue.popleft()
            batch.unsent -= 1
            if batch.failed:
                batch.left -= 1
            else:
                taken.append((self._idle.pop(0), batch, i))
        for data in {id(b.data): b.data for _, b, _ in taken}.values():
            _ship(data, [w for w, b, _ in taken
                         if b.data is data and not w.holds(data)])
        for w, batch, i in taken:
            w.send(_frame(("train", batch.spec) + batch.jobs[i]))
            self._busy[w.proc.stdout.fileno()] = (w, batch, i)
            if batch.unsent == 0:
                batch.data = None

    def _receive(self):
        """Read every reply that is in, waiting for one, then dispatch."""
        if not self._busy:
            raise RuntimeError("waiting on a batch with no job queued or running")
        ready, _, _ = select.select(list(self._busy), [], [])
        for fd in ready:
            w, batch, i = self._busy[fd]
            reply = _read(w.proc.stdout)
            if reply is None:
                raise w.died()
            del self._busy[fd]
            batch.replies[i] = reply
            batch.left -= 1
            batch.failed = batch.failed or reply[0][0] == "error"
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


def _ship(data, workers) -> None:
    """Send data's train and validation split to `workers`, block by block."""
    if not workers:
        return
    x = data.x_train
    header = _frame(("split", x.shape, data.y_train, data.x_val, data.y_val))
    for w in workers:
        w.send(header)
    for start in range(0, len(x), BLOCK_ROWS):
        frame = _frame(("rows", start, x[start:start + BLOCK_ROWS]))
        for w in workers:
            w.send(frame)
    for w in workers:
        w.split = weakref.ref(data)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


POOL = TrainPool()
atexit.register(POOL.close)


def submit(spec, data, jobs) -> Batch:
    """Queue jobs [(weights, mask, cfg)] in the worker pool; see TrainPool.submit."""
    return POOL.submit(spec, data, jobs)


def train_jobs(spec, data, jobs):
    """Train and score jobs [(weights, mask, cfg)] in the worker pool.

    Returns [(trained weights, accuracy on data's validation split)] in job
    order: submit, then wait.
    """
    return [(r.weights(), r.accuracy) for r in submit(spec, data, jobs).wait()]
