"""Worker processes that run every `train_masked` call of a run.

Each worker is a fresh interpreter started with `OPENBLAS_NUM_THREADS=1` and
`OMP_NUM_THREADS=1` in its environment, so numpy loads with one BLAS thread
there and a trained weight does not depend on the caller's thread count.
A job carries everything it depends on (initial weights, mask, TrainConfig
with its seed), so results do not depend on which worker runs it either, and
the pool size cannot change a byte.

The pool starts on the first `train_jobs` call and lives as long as the
process; it holds one worker per CPU the process may use, capped at the
longest job list seen so far. Each task's train split goes to every worker
once, in row blocks of its own dtype (uint8 pixels for image tasks), with its
validation split. A worker turns the pixels into floats once, as they arrive:
the train split into float32, which SGD computes in, and the validation split
into float64, which evaluation computes in. Workers exit when their input
closes.

Warnings a job raises are re-issued in the caller, and a job's exception is
raised again there. A worker that dies raises WorkerDied with its exit
status; the pool then stops its other workers and starts afresh on the next
call.
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

import numpy as np

from .errors import WorkerDied
from .network import as_floats, evaluate, train_masked

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

def _run_job(spec, split, weights, mask, cfg):
    """(("ok", weights, accuracy) or ("error", exc, traceback), warnings)."""
    x_train, y_train, x_val, y_val = split
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            weights = train_masked(spec, weights, mask, (x_train, y_train), cfg)
            result = ("ok", weights, evaluate(spec, weights, mask, x_val, y_val))
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

class _Worker:
    def __init__(self):
        import subprocess  # here, so that importing the package stays light
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(_COMMAND, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env)
        self.split = -1  # generation of the split this worker holds

    def send(self, frame) -> None:
        try:
            _write(self.proc.stdin, frame)
        except OSError:
            raise self.died() from None

    def died(self) -> WorkerDied:
        return WorkerDied(self.proc.pid, self.proc.wait())


class TrainPool:
    """Persistent single-BLAS-thread workers; see the module docstring."""

    def __init__(self):
        self.workers: list[_Worker] = []
        self._split = None  # weakref to the TaskData whose split was shipped
        self._generation = 0

    def run(self, spec, data, jobs):
        """[(weights, validation accuracy)] for jobs [(weights, mask, cfg)].

        Each job trains with train_masked on data's train split and is scored
        with evaluate on its validation split, in a worker.
        """
        try:
            workers = self._start(min(_usable_cpus(), len(jobs)))
            self._ship(data, workers)
            replies = [r for r in self._dispatch(spec, workers, jobs) if r]
        except BaseException:
            self.close(kill=True)
            raise
        for _, caught in replies:
            for category, message in caught:
                warnings.warn(message, category, stacklevel=3)
        for (status, *rest), _ in replies:
            if status == "error":
                exc, trace = rest
                raise exc from RuntimeError(f"in a training worker:\n{trace}")
        return [tuple(rest) for (_, *rest), _ in replies]

    def _start(self, n):
        while len(self.workers) < n:
            self.workers.append(_Worker())
        return self.workers[:n]

    def _ship(self, data, workers):
        """Send data's train and validation split to workers that lack it."""
        if self._split is None or self._split() is not data:
            self._split = weakref.ref(data)
            self._generation += 1
        todo = [w for w in workers if w.split != self._generation]
        if not todo:
            return
        x = data.x_train
        header = _frame(("split", x.shape, data.y_train, data.x_val, data.y_val))
        for w in todo:
            w.send(header)
        for start in range(0, len(x), BLOCK_ROWS):
            frame = _frame(("rows", start, x[start:start + BLOCK_ROWS]))
            for w in todo:
                w.send(frame)
        for w in todo:
            w.split = self._generation

    def _dispatch(self, spec, workers, jobs):
        """Hand jobs to idle workers; returns each job's reply, in job order.

        After the first failed job no new job starts, and the replies of jobs
        that never ran are None. The jobs already running finish, so every
        worker is idle again on return.
        """
        replies = [None] * len(jobs)
        idle = list(reversed(workers))
        busy = {}  # stdout fd -> (worker, job index)
        queued = iter(range(len(jobs)))
        failed = False
        while True:
            while idle and not failed and (i := next(queued, None)) is not None:
                w = idle.pop()
                w.send(_frame(("train", spec) + tuple(jobs[i])))
                busy[w.proc.stdout.fileno()] = (w, i)
            if not busy:
                return replies
            ready, _, _ = select.select(list(busy), [], [])
            for fd in ready:
                w, i = busy.pop(fd)
                replies[i] = _read(w.proc.stdout)
                if replies[i] is None:
                    raise w.died()
                failed = failed or replies[i][0][0] == "error"
                idle.append(w)

    def close(self, kill=False) -> None:
        """Stop every worker: end of input, or SIGKILL with kill=True."""
        workers, self.workers = self.workers, []
        for w in workers:
            if kill:
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


def train_jobs(spec, data, jobs):
    """Train and score jobs [(weights, mask, cfg)] in the worker pool.

    Returns [(trained weights, accuracy on data's validation split)] in job
    order; see TrainPool.run.
    """
    return POOL.run(spec, data, jobs)
