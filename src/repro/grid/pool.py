"""The worker pool behind ``run_grid(workers=N)``, ``repro serve`` and
``repro fuzz --workers N``.

Each worker is one loop on a daemon thread that owns a forked child: it
claims a unit of work (waiting while there is none), has its child run it,
and reports what the child sends back.  The worker that claims a unit runs
it, so no claim is ever undone.  What a unit is comes from the pool's
owner (see :class:`WorkerPool`): :class:`Stages` for the grid, seeds for
:mod:`repro.fuzz.harness`.  A child that dies mid-unit (killed, OOM, a
crash in a compiled core) shows up as end of file on its pipe, after every
message it sent has been read; the worker reaps it and tells the owner how
it ended.  A dead child is respawned (cold but correct) when its worker
next claims a unit.
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


def _how_it_ended(exitcode: int) -> str:
    """How a child ended: ``was killed by signal 9 (Killed)`` or ``exited
    with code 1``."""
    if exitcode < 0:
        return (f"was killed by signal {-exitcode} "
                f"({signal.strsignal(-exitcode)})")
    return f"exited with code {exitcode}"


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


class Stages:
    """The grid's units of work: the stages of ``queue``'s jobs, oldest job
    first.  A child runs them on one warm session over its copy of
    ``store`` and sends each cell's payload, which the worker stores as the
    cell's row artifact in ``store`` and turns into the job's row
    (:func:`~repro.grid.engine.store_row`), so the caller's resume probe
    finds every row the pool delivered, also without a disk layer.  A stage
    whose child dies is retried once, then its job is quarantined."""

    def __init__(self, queue: JobQueue, store: ArtifactStore) -> None:
        self.cond = queue.cond
        self._queue = queue
        self._store = store

    def claim(self) -> Optional[Tuple[JobRecord, int]]:
        return self._queue.next_stage()

    def child(self, stages: Iterator[List[GridCell]]
              ) -> Iterator[Tuple[Any, ...]]:
        session = Session(store=self._store)
        for cells in stages:
            yield from _stage_messages(session, cells)

    def exchange(self, conn, claim: Tuple[JobRecord, int]) -> None:
        job, index = claim
        stage = job.stages[index]
        conn.send(stage)
        while True:
            kind, *fields = conn.recv()
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

    def died(self, claim: Tuple[JobRecord, int], how: str) -> None:
        self._queue.worker_died(*claim, how)


@dataclass
class _Worker:
    thread: Optional[threading.Thread] = None
    busy: bool = False
    #: The forked child and the parent's end of its pipe.
    process: Any = None
    conn: Any = None


class WorkerPool:
    """``size`` workers, each a claim-run-report loop over ``work``'s units
    that runs them in a forked child.  ``work`` has ``cond``, which the
    workers wait on while ``claim()`` (called holding it) returns ``None``;
    ``child(units)``, the messages a child sends for the units it receives;
    ``exchange(conn, unit)``, which sends a unit to the child and reports
    what it sends back; and ``died(unit, how)``, told how the child running
    ``unit`` ended (``was killed by signal 9 (Killed)``)."""

    def __init__(self, work: Any, size: int) -> None:
        self.size = size
        self._work = work
        self._cond = work.cond
        self._ctx = multiprocessing.get_context("fork")
        self._workers = [_Worker() for _ in range(size)]
        self._stopping = False

    def start(self) -> None:
        """Fork the children, then start every worker's loop; raises
        ``OSError`` when the environment cannot create processes (the
        daemon then fails to start, and run_grid and run_fuzz run
        serially)."""
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
        """End every loop.  A child still running a unit is killed instead
        of waited for: its unit is over (its job cancelled, the drain gave
        up, or the pool's owner stopped waiting)."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
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
        with self._cond:
            busy = [worker for worker in self._workers if worker.busy]
        return [worker.process.pid for worker in busy]

    # -- one worker ----------------------------------------------------------------

    def _loop(self, worker: _Worker) -> None:
        while True:
            unit = self._claim(worker)
            if unit is None:
                break
            try:
                self._run(worker, unit)
            finally:
                with self._cond:
                    worker.busy = False
        self._close_child(worker)

    def _claim(self, worker: _Worker) -> Any:
        """The work's next unit, waiting while there is none; ``None`` once
        the pool stops."""
        with self._cond:
            while not self._stopping:
                unit = self._work.claim()
                if unit is not None:
                    worker.busy = True
                    return unit
                self._cond.wait()
            return None

    def _run(self, worker: _Worker, unit: Any) -> None:
        try:
            if not worker.process.is_alive():   # died since its last unit
                worker.conn.close()
                self._spawn(worker)
            self._work.exchange(worker.conn, unit)
        except (EOFError, OSError):
            # The child died mid-unit, after every message it sent was
            # reported.  Reap it now (its pipe can read as end of file
            # first), so that the next claim sees it dead.
            self._reap(worker)
            self._work.died(unit, _how_it_ended(worker.process.exitcode))

    def _child_main(self, conn, parent_end) -> None:
        """A forked child: runs the units it is sent until ``None`` or
        until the parent's end of the pipe closes."""
        signal.signal(signal.SIGTERM, signal.SIG_DFL)   # see _HELD_SIGNALS
        signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM,))
        parent_end.close()
        with contextlib.suppress(EOFError, OSError):    # the parent is gone
            for message in self._work.child(iter(conn.recv, None)):
                conn.send(message)

    def _spawn(self, worker: _Worker) -> None:
        with _SPAWN_LOCK:
            parent_end, child_end = self._ctx.Pipe()
            process = self._ctx.Process(
                target=self._child_main, args=(child_end, parent_end),
                name="repro-pool-child", daemon=True)
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
            try:
                process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                child_end.close()
        worker.process, worker.conn = process, parent_end

    def _reap(self, worker: _Worker) -> None:
        worker.process.join(timeout=2.0)
        worker.process.kill()   # a no-op once it has exited
        worker.process.join()

    def _close_child(self, worker: _Worker) -> None:
        with contextlib.suppress(OSError):   # already dead
            worker.conn.send(None)
        self._reap(worker)
        worker.conn.close()
