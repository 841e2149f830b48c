"""The worker pool behind ``run_grid(workers=N)`` and ``repro serve``.

Each worker is one loop on a daemon thread: it claims the oldest job's next
pending stage from the :class:`~repro.grid.queue.JobQueue` (waiting on
``queue.cond`` while there is none), runs it, and hands each row and the
stage's end straight to the queue.  The worker that claims a stage runs
it, so no claim is ever undone.  A stage reports each cell's payload
(:func:`~repro.grid.engine.run_cell`), from which the pool builds the row
with the job's own cell, as the resume probe does.  ``run_grid`` works a
private queue and pool; the daemon keeps one of each for its life, whose
warm sessions (interned templates, decode caches, memory store) serve
every job without a cold start.

The ``process`` backend runs each worker's session in a forked child
process, fed one stage at a time over a pipe.  A child that dies mid-stage
(killed, OOM) shows up as end of file on the pipe, after every message it
sent has been read; the queue retries the stage once and then quarantines
the job.  A dead child is respawned (cold but correct) when its worker
next claims a stage.

The ``thread`` backend is the fallback for environments where process
spawning is unavailable, and the pool of a memory-only daemon: one worker
running stages in the daemon's own process, on its one session.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..api.session import Session
from .engine import _row, run_cell
from .queue import JobQueue, JobRecord
from .spec import GridCell

#: Held from creating a child's pipe until the parent has closed the child's
#: end, so that no other child forked meanwhile inherits that end and keeps
#: a dead child's pipe from reading as end of file.
_SPAWN_LOCK = threading.Lock()
#: Blocked across a fork, so that no child runs the parent's handlers: a
#: child ends on SIGTERM and leaves Ctrl-C to the parent.
_HELD_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]
                 ) -> Dict[str, Any]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _portable(error: Exception) -> Exception:
    """``error`` as a pickle round trip returns it, or a ``RuntimeError``
    with its text when it does not survive one."""
    try:
        return pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _stage_messages(session: Session, cells: List[GridCell]
                    ) -> Iterator[Tuple[Any, ...]]:
    """Run one stage: a ``row`` message with each cell's position and
    payload, then ``done`` with the session's accounting delta for the
    stage, or ``failed`` with the exception a cell raised."""
    before_session = session.stats.as_dict()
    before_cache = session.cache_stats.as_dict()
    try:
        for position, cell in enumerate(cells):
            yield "row", position, run_cell(session, cell)
    except Exception as error:
        yield "failed", _portable(error)
        return
    yield ("done", _stats_delta(before_session, session.stats.as_dict()),
           _stats_delta(before_cache, session.cache_stats.as_dict()))


def _child_main(conn, parent_end, cache_dir: Optional[str],
                version: str) -> None:
    """A worker process: one warm session, stages until ``None`` or until
    the parent's end of the pipe closes."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)   # see _HELD_SIGNALS
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM,))
    parent_end.close()
    session = Session(cache_dir=cache_dir, version=version)
    while True:
        try:
            cells = conn.recv()
        except (EOFError, OSError):
            return
        if cells is None:
            return
        for message in _stage_messages(session, cells):
            conn.send(message)


@dataclass
class _Worker:
    thread: Optional[threading.Thread] = None
    busy: bool = False
    #: Process backend: the forked child and the parent's end of its pipe.
    process: Any = None
    conn: Any = None


class WorkerPool:
    """``size`` workers, each a claim-run-report loop over one queue."""

    def __init__(self, queue: JobQueue, backend: str, size: int,
                 cache_dir: Optional[str], version: str) -> None:
        self.backend = backend
        self.size = size
        #: The thread backend's one session (the server probes its store).
        self.session = Session(cache_dir=cache_dir, version=version) \
            if backend == "thread" else None
        self._queue = queue
        self._cache_dir = cache_dir
        self._version = version
        self._ctx = multiprocessing.get_context("fork")
        self._workers = [_Worker() for _ in range(size)]
        self._stopping = False

    def start(self) -> None:
        """Fork the children (process backend), then start every worker's
        loop; raises ``OSError`` when the environment cannot create
        processes (the daemon falls back to threads, run_grid to serial)."""
        if self.backend == "process":
            try:
                for worker in self._workers:
                    self._spawn(worker)
            except OSError:
                for worker in self._workers:
                    if worker.process is not None:
                        self._close_child(worker)
                raise
        for number, worker in enumerate(self._workers, 1):
            worker.thread = threading.Thread(
                target=self._loop, args=(worker,),
                name=f"repro-pool-worker-{number}", daemon=True)
            worker.thread.start()

    def stop(self) -> None:
        """End every loop.  A child still running a stage is killed instead
        of waited for: its job is over (cancelled, the drain gave up, or
        run_grid's caller stopped reading)."""
        with self._queue.cond:
            self._stopping = True
            self._queue.cond.notify_all()
            busy = [worker for worker in self._workers if worker.busy]
        if self.backend == "process":
            for worker in busy:
                worker.process.kill()
        for worker in self._workers:
            worker.thread.join(timeout=2.0)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (ops surface: `repro serve status`, kill tests)."""
        if self.backend == "thread":
            return [os.getpid()]
        return [worker.process.pid for worker in self._workers
                if worker.process.is_alive()]

    def busy_pids(self) -> List[int]:
        with self._queue.cond:
            busy = [worker for worker in self._workers if worker.busy]
        if self.backend == "thread":
            return [os.getpid()] if busy else []
        return [worker.process.pid for worker in busy]

    # -- one worker ----------------------------------------------------------------

    def _loop(self, worker: _Worker) -> None:
        run = self._run_in_child if self.backend == "process" \
            else self._run_here
        while True:
            claim = self._claim(worker)
            if claim is None:
                break
            try:
                run(worker, *claim)
            finally:
                with self._queue.cond:
                    worker.busy = False
        if worker.process is not None:
            self._close_child(worker)

    def _claim(self, worker: _Worker) -> Optional[Tuple[JobRecord, int]]:
        """The oldest job's next pending stage, waiting while there is
        none; ``None`` once the pool stops."""
        with self._queue.cond:
            while not self._stopping:
                claim = self._queue.next_stage()
                if claim is not None:
                    worker.busy = True
                    return claim
                self._queue.cond.wait()
            return None

    def _report(self, job: JobRecord, index: int,
                message: Tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "row":
            _, position, payload = message
            self._queue.append_row(job, _row(job.stages[index][position],
                                             payload, resumed=False))
        elif kind == "done":
            self._queue.stage_done(job, index, message[1], message[2])
        else:
            self._queue.stage_failed(job, index, message[1])

    def _run_here(self, worker: _Worker, job: JobRecord, index: int) -> None:
        for message in _stage_messages(self.session, job.stages[index]):
            self._report(job, index, message)

    def _run_in_child(self, worker: _Worker, job: JobRecord,
                      index: int) -> None:
        try:
            if not worker.process.is_alive():   # died since its last stage
                worker.conn.close()
                self._spawn(worker)
            worker.conn.send(job.stages[index])
            while True:
                message = worker.conn.recv()
                self._report(job, index, message)
                if message[0] != "row":
                    return
        except (EOFError, OSError):
            # The child died mid-stage, after every message it sent was
            # reported.  Reap it now (its pipe can read as end of file
            # first), so that the next claim sees it dead.
            worker.process.kill()
            worker.process.join()
            self._queue.worker_died(job, index)

    def _spawn(self, worker: _Worker) -> None:
        with _SPAWN_LOCK:
            parent_end, child_end = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_child_main,
                args=(child_end, parent_end, self._cache_dir, self._version),
                name="repro-pool-child", daemon=True)
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
            try:
                process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                child_end.close()
        worker.process, worker.conn = process, parent_end

    def _close_child(self, worker: _Worker) -> None:
        with contextlib.suppress(OSError):   # already dead
            worker.conn.send(None)
        worker.process.join(timeout=2.0)
        worker.process.kill()   # a no-op once it has exited
        worker.process.join()
        worker.conn.close()


def make_pool(queue: JobQueue, backend: str, size: int,
              cache_dir: Optional[str], version: str) -> WorkerPool:
    """Build and *start* a pool over ``queue``: ``process``, ``thread`` or
    ``auto``.

    ``auto`` prefers processes (true parallelism, kill-tolerance) and falls
    back to threads when the environment cannot spawn them.  A memory-only
    store (``cache_dir=None``) forces threads: separate processes could not
    share artifacts at all.
    """
    if backend not in ("auto", "process", "thread"):
        raise ValueError(f"unknown pool backend {backend!r}")
    if backend != "thread" and cache_dir is not None:
        pool = WorkerPool(queue, "process", size, cache_dir, version)
        try:
            pool.start()
            return pool
        except OSError:
            if backend == "process":
                raise
    pool = WorkerPool(queue, "thread", 1, cache_dir, version)
    pool.start()
    return pool
