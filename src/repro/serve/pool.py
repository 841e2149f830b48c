"""The daemon's warm worker pool.

A worker is one long-lived process holding one persistent
:class:`~repro.api.session.Session`: its interned template registry, decode
weakcaches and in-memory artifact store stay warm across jobs, which is the
entire point of ``repro serve`` — the second job over the same spec pays
zero cold-start (no re-interning, no re-profiling, no store re-open).

:class:`ProcessWorkerPool` runs one OS process per worker with a private
task queue each and one shared result queue; a pump thread in the daemon
routes results to scheduler callbacks and watches worker liveness.  A
worker that dies mid-stage (killed, OOM) is detected, respawned (cold but
correct — every artifact it had produced is already in the shared disk
store), and the stage is reported to the scheduler, which retries it once
and then quarantines the job.

:class:`ThreadWorkerPool` is the fallback for environments where process
spawning is unavailable, and the pool of a memory-only daemon: the same
interface over one worker thread holding one warm session in the daemon's
own process.

Both pools report through four callbacks, keyed by the task's
``(job id, stage index, attempt)`` triple:

* ``on_row(key, row)`` — one cell completed, with its finished row dict
  (:meth:`~repro.grid.engine.GridRow.as_dict`; streamed live);
* ``on_stage_done(key, session_stats, cache_stats)`` — stage finished,
  with the worker's accounting *delta* for the stage;
* ``on_stage_failed(key, message)`` — the stage raised;
* ``on_worker_death(key)`` — the worker vanished mid-stage
  (:class:`ProcessWorkerPool` only).
"""

from __future__ import annotations

import os
import queue as stdlib_queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..grid.engine import run_cells
from ..grid.spec import GridCell

#: (job id, stage index, attempt) — unique per stage *execution*.
TaskKey = Tuple[str, int, int]

#: How often the process pool's pump thread polls results and liveness.
_PUMP_INTERVAL_SECONDS = 0.05


@dataclass(frozen=True)
class PoolTask:
    """One dispatched stage: the cells a single worker runs back to back."""

    key: TaskKey
    cells: Tuple[GridCell, ...]


@dataclass
class PoolCallbacks:
    on_row: Callable[[TaskKey, Dict[str, Any]], None]
    on_stage_done: Callable[[TaskKey, Dict[str, Any], Dict[str, Any]], None]
    on_stage_failed: Callable[[TaskKey, str], None]
    on_worker_death: Callable[[TaskKey], None]


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]
                 ) -> Dict[str, Any]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _execute_task(session, task: PoolTask,
                  emit: Callable[[Tuple[Any, ...]], None]) -> None:
    """Run one stage, emitting ``row`` per cell then ``done`` (or ``failed``)."""
    before_session = session.stats.as_dict()
    before_cache = session.cache_stats.as_dict()
    try:
        for row in run_cells(session, task.cells):
            emit(("row", task.key, row.as_dict()))
    except Exception as error:
        emit(("failed", task.key, f"{type(error).__name__}: {error}"))
        return
    emit(("done", task.key,
          _stats_delta(before_session, session.stats.as_dict()),
          _stats_delta(before_cache, session.cache_stats.as_dict())))


def _process_worker_main(worker_id: int, task_queue, result_queue,
                         cache_dir: Optional[str], version: str) -> None:
    """Worker process entry: one warm session, tasks until ``None``."""
    from ..api.session import Session

    session = Session(cache_dir=cache_dir, version=version)
    while True:
        task = task_queue.get()
        if task is None:
            return
        _execute_task(session, task, result_queue.put)


class ProcessWorkerPool:
    """Persistent process workers with liveness monitoring."""

    backend = "process"

    def __init__(self, size: int, cache_dir: Optional[str], version: str,
                 callbacks: PoolCallbacks) -> None:
        import multiprocessing

        self.size = size
        self._cache_dir = cache_dir
        self._version = version
        self._callbacks = callbacks
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._result_queue = None
        self._workers: List[_ProcessWorker] = []
        self._by_key: Dict[TaskKey, "_ProcessWorker"] = {}
        self._lock = threading.Lock()
        self._running = False
        self._pump: Optional[threading.Thread] = None
        self._next_worker_id = 0

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the workers; raises ``OSError``/``PermissionError`` when the
        environment cannot create processes (callers fall back to threads)."""
        self._result_queue = self._ctx.Queue()
        self._running = True
        try:
            for _ in range(self.size):
                self._workers.append(self._spawn())
        except (OSError, PermissionError):
            self._running = False
            self.stop()
            raise
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="repro-serve-pool", daemon=True)
        self._pump.start()

    def _spawn(self) -> "_ProcessWorker":
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(self._next_worker_id, task_queue, self._result_queue,
                  self._cache_dir, self._version),
            name=f"repro-serve-worker-{self._next_worker_id}", daemon=True)
        process.start()
        return _ProcessWorker(process=process, task_queue=task_queue)

    def stop(self) -> None:
        self._running = False
        for worker in self._workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        if self._pump is not None and self._pump is not threading.current_thread():
            self._pump.join(timeout=2.0)
        self._workers.clear()
        self._by_key.clear()

    # -- dispatch ------------------------------------------------------------------

    def has_capacity(self) -> bool:
        with self._lock:
            return any(worker.current is None and worker.process.is_alive()
                       for worker in self._workers)

    def dispatch(self, task: PoolTask) -> bool:
        with self._lock:
            for worker in self._workers:
                if worker.current is None and worker.process.is_alive():
                    worker.current = task
                    self._by_key[task.key] = worker
                    worker.task_queue.put(task)
                    return True
            return False

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (ops surface: `repro serve status`, kill tests)."""
        with self._lock:
            return [worker.process.pid for worker in self._workers
                    if worker.process.is_alive()]

    def busy_pids(self) -> List[int]:
        with self._lock:
            return [worker.process.pid for worker in self._workers
                    if worker.process.is_alive() and worker.current is not None]

    # -- result pump + liveness monitor ---------------------------------------------

    def _pump_loop(self) -> None:
        while self._running:
            self._drain_results(block=True)
            self._check_liveness()

    def _drain_results(self, *, block: bool) -> None:
        assert self._result_queue is not None
        try:
            message = self._result_queue.get(
                timeout=_PUMP_INTERVAL_SECONDS if block else 0)
        except (stdlib_queue.Empty, OSError, ValueError):
            return
        while True:
            self._handle_message(message)
            try:
                message = self._result_queue.get_nowait()
            except (stdlib_queue.Empty, OSError, ValueError):
                return

    def _handle_message(self, message: Tuple[Any, ...]) -> None:
        kind, key = message[0], message[1]
        if kind == "row":
            self._callbacks.on_row(key, message[2])
            return
        with self._lock:
            worker = self._by_key.pop(key, None)
            if worker is not None and worker.current is not None \
                    and worker.current.key == key:
                worker.current = None
        if kind == "done":
            self._callbacks.on_stage_done(key, message[2], message[3])
        else:
            self._callbacks.on_stage_failed(key, message[2])

    def _check_liveness(self) -> None:
        """Replace dead workers; report their in-flight stage as a death.

        Results were drained first, so a worker that finished its stage and
        exited is never misread as a mid-stage death.
        """
        dead_tasks: List[PoolTask] = []
        with self._lock:
            for position, worker in enumerate(self._workers):
                if worker.process.is_alive():
                    continue
                if worker.current is not None:
                    dead_tasks.append(worker.current)
                    self._by_key.pop(worker.current.key, None)
                if self._running:
                    self._workers[position] = self._spawn()
        for task in dead_tasks:
            self._callbacks.on_worker_death(task.key)


@dataclass
class _ProcessWorker:
    process: Any
    task_queue: Any
    current: Optional[PoolTask] = None


class ThreadWorkerPool:
    """Thread-backed fallback pool: one worker thread, one warm session.

    Used when the environment cannot spawn processes, and for memory-only
    stores (``cache_dir=None``), where the daemon's resume probe must see
    the worker's own in-process store.  A session runs one stage at a time,
    so the pool is one thread and reports one worker whatever size was
    asked for.  Worker-death semantics do not exist here — a thread cannot
    be killed — so ``on_worker_death`` never fires.
    """

    backend = "thread"
    size = 1

    def __init__(self, cache_dir: Optional[str], version: str,
                 callbacks: PoolCallbacks) -> None:
        from ..api.session import Session

        self._callbacks = callbacks
        self._session = Session(cache_dir=cache_dir, version=version)
        self._tasks: "stdlib_queue.Queue[Optional[PoolTask]]" = \
            stdlib_queue.Queue()
        self._busy = False
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    @property
    def session(self):
        """The warm session (the server probes its store for resume)."""
        return self._session

    def start(self) -> None:
        self._thread = threading.Thread(target=self._worker_loop,
                                        name="repro-serve-worker",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        # The daemon's scheduler and main thread may both tear down.
        thread, self._thread = self._thread, None
        if thread is not None:
            self._tasks.put(None)
            thread.join(timeout=2.0)

    def has_capacity(self) -> bool:
        with self._lock:
            return not self._busy

    def dispatch(self, task: PoolTask) -> bool:
        with self._lock:
            if self._busy:
                return False
            self._busy = True
        self._tasks.put(task)
        return True

    def worker_pids(self) -> List[int]:
        return [os.getpid()] if self._thread is not None else []

    def busy_pids(self) -> List[int]:
        with self._lock:
            return [os.getpid()] if self._busy else []

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            try:
                _execute_task(self._session, task, self._emit)
            finally:
                with self._lock:
                    self._busy = False

    def _emit(self, message: Tuple[Any, ...]) -> None:
        kind, key = message[0], message[1]
        if kind == "row":
            self._callbacks.on_row(key, message[2])
        elif kind == "done":
            self._callbacks.on_stage_done(key, message[2], message[3])
        else:
            self._callbacks.on_stage_failed(key, message[2])


def make_pool(backend: str, size: int, cache_dir: Optional[str],
              version: str, callbacks: PoolCallbacks):
    """Build and *start* a pool: ``process``, ``thread`` or ``auto``.

    ``auto`` prefers processes (true parallelism, kill-tolerance) and falls
    back to threads when the environment cannot spawn them.  A memory-only
    store (``cache_dir=None``) forces threads: separate processes could not
    share artifacts at all.
    """
    if backend not in ("auto", "process", "thread"):
        raise ValueError(f"unknown pool backend {backend!r}")
    if backend in ("auto", "process") and cache_dir is not None:
        pool = ProcessWorkerPool(size, cache_dir, version, callbacks)
        try:
            pool.start()
            return pool
        except (OSError, PermissionError):
            if backend == "process":
                raise
    pool = ThreadWorkerPool(cache_dir, version, callbacks)
    pool.start()
    return pool
