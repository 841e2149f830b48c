"""The worker pool behind ``run_grid(workers=N)`` and ``repro serve``.

Each worker is one loop on a daemon thread that owns a forked child: it
claims the oldest job's next pending stage from the
:class:`~repro.grid.queue.JobQueue` (waiting on ``queue.cond`` while there
is none), has its child run it, and hands each row and the stage's end
straight to the queue.  The worker that claims a stage runs it, so no
claim is ever undone.  A child runs its stages on one warm session over
its copy of the caller's store, counting each stage on fresh
:class:`~repro.api.session.SessionStats` and
:class:`~repro.api.store.CacheStats` that it sends with the stage's end,
and sends each cell's payload
(:func:`~repro.grid.engine.cell_payload`); the worker stores it as the
cell's row artifact in the caller's store and builds the row from the
job's own cell (:func:`~repro.grid.engine.store_row`) before it queues the
row, so the caller's resume probe finds every row the pool delivered, also
without a disk layer.  ``run_grid`` works a private queue and pool; the
daemon keeps one of each for its life.

A child that dies mid-stage (killed, OOM) shows up as end of file on the
pipe, after every message it sent has been read; the queue retries the
stage once and then quarantines the job.  A dead child is respawned (cold
but correct) when its worker next claims a stage.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from ..api.session import Session, SessionStats
from ..api.store import ArtifactStore, CacheStats
from .engine import cell_payload, store_row
from .queue import JobQueue, JobRecord
from .spec import GridCell

#: Held from creating a child's pipe until the parent has closed the child's
#: end, so that no other child forked meanwhile inherits that end and keeps
#: a dead child's pipe from reading as end of file.
_SPAWN_LOCK = threading.Lock()
#: Blocked across a fork, so that no child runs the parent's handlers: a
#: child ends on SIGTERM and leaves Ctrl-C to the parent.
_HELD_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _portable(error: Exception) -> Exception:
    """``error`` as a pickle round trip returns it, or a ``RuntimeError``
    with its text when it does not survive one."""
    try:
        return pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _stage_messages(session: Session, cells: List[GridCell]
                    ) -> Iterator[Tuple[Any, ...]]:
    """Run one stage on fresh counters: a ``row`` message with each cell's
    position and payload, then ``done`` with the stage's
    :class:`~repro.api.session.SessionStats` and
    :class:`~repro.api.store.CacheStats`, or ``failed`` with the exception
    a cell raised."""
    session.stats = stats = SessionStats()
    session.store.stats = cache_stats = CacheStats()
    try:
        for position, cell in enumerate(cells):
            yield "row", position, cell_payload(session, cell.spec)
    except Exception as error:
        yield "failed", _portable(error)
        return
    yield "done", stats, cache_stats


def _child_main(conn, parent_end, store: ArtifactStore) -> None:
    """A worker process: one warm session over its copy of the pool's
    store, stages until ``None`` or until the parent's end of the pipe
    closes."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)   # see _HELD_SIGNALS
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM,))
    parent_end.close()
    session = Session(store=store)
    with contextlib.suppress(EOFError, OSError):    # the parent is gone
        for cells in iter(conn.recv, None):
            for message in _stage_messages(session, cells):
                conn.send(message)


@dataclass
class _Worker:
    thread: Optional[threading.Thread] = None
    busy: bool = False
    #: The forked child and the parent's end of its pipe.
    process: Any = None
    conn: Any = None


class WorkerPool:
    """``size`` workers, each a claim-run-report loop over one queue that
    runs its stages in a forked child and stores their rows in ``store``."""

    def __init__(self, queue: JobQueue, store: ArtifactStore,
                 size: int) -> None:
        self.size = size
        self._queue = queue
        self._store = store
        self._ctx = multiprocessing.get_context("fork")
        self._workers = [_Worker() for _ in range(size)]
        self._stopping = False

    def start(self) -> None:
        """Fork the children, then start every worker's loop; raises
        ``OSError`` when the environment cannot create processes (the
        daemon then fails to start, and run_grid runs serially)."""
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
        for worker in busy:
            worker.process.kill()
        for worker in self._workers:
            worker.thread.join(timeout=2.0)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (ops surface: `repro serve status`, kill tests)."""
        return [worker.process.pid for worker in self._workers
                if worker.process.is_alive()]

    def busy_pids(self) -> List[int]:
        with self._queue.cond:
            busy = [worker for worker in self._workers if worker.busy]
        return [worker.process.pid for worker in busy]

    # -- one worker ----------------------------------------------------------------

    def _loop(self, worker: _Worker) -> None:
        while True:
            claim = self._claim(worker)
            if claim is None:
                break
            try:
                self._run(worker, *claim)
            finally:
                with self._queue.cond:
                    worker.busy = False
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

    def _run(self, worker: _Worker, job: JobRecord, index: int) -> None:
        """Run one stage in the worker's child, storing and queueing each
        row it sends."""
        stage = job.stages[index]
        try:
            if not worker.process.is_alive():   # died since its last stage
                worker.conn.close()
                self._spawn(worker)
            worker.conn.send(stage)
            while True:
                kind, *fields = worker.conn.recv()
                if kind == "row":
                    position, payload = fields
                    self._queue.append_row(
                        job, store_row(self._store, stage[position], payload))
                elif kind == "done":
                    self._queue.stage_done(job, index, *fields)
                    return
                else:
                    self._queue.stage_failed(job, index, *fields)
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
                target=_child_main, args=(child_end, parent_end, self._store),
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
