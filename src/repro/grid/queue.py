"""The worker pool's job queue: bounded admission, first come first served.

A :class:`JobRecord` is one submitted job: the rows served from the store
at submit, and the cells still to run, already planned into
shared-artifact *stages* (lists of :class:`~repro.grid.spec.GridCell`).
Each worker of the pool claims one stage at a time and runs it, each
completed cell appends its :class:`~repro.grid.engine.GridRow` to the
record, waking whoever waits for rows (a daemon's streaming clients, or
``run_grid``), and each completed stage merges its worker's
:class:`~repro.api.session.SessionStats` and
:class:`~repro.api.store.CacheStats` into the record's.

The :class:`JobQueue` enforces **admission control**: it holds at most
``limit`` non-terminal jobs, and a submit beyond that raises
:class:`AdmissionError` — which the server surfaces to the client as a
structured ``queue-full`` rejection.  Backpressure is therefore explicit and
immediate: the queue never blocks a submitter and never silently drops a
job, so a misbehaving client cannot deadlock the daemon.  A draining queue
(SIGTERM / ``shutdown``) rejects every submit with ``draining`` while
in-flight jobs run to completion.

Jobs are scheduled in admission order: the oldest job with a pending stage
goes first.  Stages of distinct jobs interleave freely across the pool;
stages of one job run in plan order, except that a stage whose specs another
stage is running right now waits for it and then reads the results from the
shared store.

One lock-and-condition pair (:attr:`JobQueue.cond`) covers every record —
the pool's worker loops (which also wait on it for a stage to claim) and
the threads waiting for rows all synchronize on it, which is simple
and ample at daemon scale (tens of jobs, not millions; the millions are the
*cells* inside the jobs).  The queue keeps every record for ``poll`` and
``stream``, and the live (non-terminal) ones in a map of their own, so
admission and claims cost O(live jobs) however long the daemon has run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..api.session import SessionStats
from ..api.store import CacheStats
from .engine import GridRow
from .spec import GridCell

#: Default bound on concurrently admitted (non-terminal) jobs.
DEFAULT_QUEUE_LIMIT = 32


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"


#: States from which a job can never leave.
TERMINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
     JobState.QUARANTINED))

#: Stage lifecycle inside a running job.
_PENDING, _RUNNING, _DONE = "pending", "running", "done"


def _stage_runs(stage: List[GridCell]) -> Tuple[str, ...]:
    """The runs a stage computes, as the spec hashes of its cells."""
    return tuple(cell.spec.spec_hash for cell in stage)


def _moved(stats: Union[SessionStats, CacheStats]) -> Dict[str, Any]:
    """The counters of ``stats`` that are not zero."""
    return {name: value for name, value in vars(stats).items() if value}


class AdmissionError(Exception):
    """A submit the queue rejected; ``code`` is a protocol error code."""

    def __init__(self, code: str, message: str, **details: Any) -> None:
        super().__init__(message)
        self.code = code
        self.details = details


@dataclass
class JobRecord:
    """One admitted job: its plan, its accumulated rows, its accounting."""

    id: str
    stages: List[List[GridCell]]
    label: str = ""
    state: JobState = JobState.QUEUED
    error: Optional[Dict[str, Any]] = None
    rows: List[GridRow] = field(default_factory=list)
    #: The exception of the stage that failed the job.
    exception: Optional[Exception] = field(default=None, init=False)
    #: Cell indices already in ``rows`` (drops a retried stage's replay).
    delivered: Set[int] = field(default_factory=set, init=False)
    #: Cells served from the store at submit: the rows the job starts with.
    resumed: int = field(default=0, init=False)
    stage_state: List[str] = field(default_factory=list)
    stage_attempts: List[int] = field(default_factory=list)
    #: The workers' counters, merged per completed stage; the cache's
    #: also count a daemon's row hits at submit.
    session_stats: SessionStats = field(default_factory=SessionStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.delivered.update(row.index for row in self.rows)
        self.resumed = len(self.rows)
        if not self.stage_state:
            self.stage_state = [_PENDING] * len(self.stages)
        if not self.stage_attempts:
            self.stage_attempts = [0] * len(self.stages)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cell_count(self) -> int:
        return self.resumed + sum(len(stage) for stage in self.stages)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly job snapshot (``poll``/``jobs`` responses)."""
        return {
            "id": self.id,
            "label": self.label,
            "state": self.state.value,
            "error": self.error,
            "cells": self.cell_count,
            "rows": len(self.rows),
            "stages": len(self.stages),
            "stages_done": sum(1 for s in self.stage_state if s == _DONE),
            "attempts": max(self.stage_attempts, default=0),
            "session_stats": _moved(self.session_stats),
            "cache_stats": _moved(self.cache_stats),
            "cache_hit_rate": self.cache_stats.hit_rate,
            "queued_seconds": (self.started_at or time.monotonic())
                              - self.submitted_at,
            "wall_seconds": None if self.started_at is None
                            else (self.finished_at or time.monotonic())
                                 - self.started_at,
        }


class JobQueue:
    """Bounded, first-come-first-served registry of live and terminal jobs."""

    def __init__(self, limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        if limit <= 0:
            raise ValueError(f"queue limit must be positive, got {limit}")
        self.limit = limit
        self.cond = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        #: The non-terminal jobs, in admission order; :meth:`_finish` is
        #: the only way out.
        self._live: Dict[str, JobRecord] = {}
        self._seq = 0
        self._draining = False

    # -- admission -----------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> bool:
        """Reject all future submits; in-flight jobs keep running.  True
        for the call that began the drain."""
        with self.cond:
            first, self._draining = not self._draining, True
            self.cond.notify_all()
            return first

    def active_count(self) -> int:
        with self.cond:
            return len(self._live)

    def submit(self, stages: List[List[GridCell]], *, label: str = "",
               rows: Optional[List[GridRow]] = None) -> JobRecord:
        """Admit one job or raise :class:`AdmissionError` (never blocks).

        ``rows`` pre-populates the record: the rows a resume probe (the
        daemon's or ``run_grid``'s) served from the store before planning
        the cells still to run into ``stages``.
        """
        with self.cond:
            if self._draining:
                raise AdmissionError(
                    "draining", "daemon is draining; submit rejected")
            active = len(self._live)
            if active >= self.limit:
                raise AdmissionError(
                    "queue-full",
                    f"job queue is full ({active}/{self.limit} jobs); "
                    f"retry after a job completes",
                    active=active, limit=self.limit)
            self._seq += 1
            job = JobRecord(id=f"job-{self._seq:04d}", stages=stages,
                            label=label, rows=list(rows) if rows else [])
            self._jobs[job.id] = self._live[job.id] = job
            if stages:
                self.cond.notify_all()
            else:
                # A fully resume-served (or empty) job is born terminal.
                job.started_at = time.monotonic()
                self._finish(job, JobState.DONE)
            return job

    # -- lookup --------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self.cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """Every job, in admission order."""
        with self.cond:
            return list(self._jobs.values())

    def all_terminal(self) -> bool:
        with self.cond:
            return not self._live

    # -- scheduling ----------------------------------------------------------------

    def next_stage(self) -> Optional[Tuple[JobRecord, int]]:
        """Claim the next runnable ``(job, stage index)``, if any.

        Order: admission order, then plan order.  A stage that runs the
        same specs as a stage already running waits for it, so it reads
        their results from the store instead of computing them a second
        time (two clients submitting one grid at once).  The claimed stage
        is marked running; the caller must finish it via
        :meth:`stage_done` / :meth:`stage_failed` / :meth:`worker_died`.
        """
        with self.cond:
            live = list(self._live.values())
            running = {_stage_runs(job.stages[index]) for job in live
                       for index, state in enumerate(job.stage_state)
                       if state == _RUNNING}
            for job in live:
                for index, state in enumerate(job.stage_state):
                    if state != _PENDING \
                            or _stage_runs(job.stages[index]) in running:
                        continue
                    job.stage_state[index] = _RUNNING
                    job.stage_attempts[index] += 1
                    if job.state is JobState.QUEUED:
                        job.state = JobState.RUNNING
                        job.started_at = time.monotonic()
                    return job, index
            return None

    # -- completion (reported by the worker that claimed the stage) ----------------

    def _finish(self, job: JobRecord, state: JobState,
                error: Optional[Dict[str, Any]] = None) -> None:
        """Move ``job`` to the terminal ``state``; every terminal transition
        goes through here.  The caller holds :attr:`cond`."""
        job.state = state
        job.error = error
        job.finished_at = time.monotonic()
        del self._live[job.id]
        self.cond.notify_all()

    def append_row(self, job: JobRecord, row: GridRow) -> None:
        with self.cond:
            if job.terminal or row.index in job.delivered:
                # A late row from a cancelled job's in-flight stage, or the
                # replay a retried stage performs after its worker died.
                return
            job.delivered.add(row.index)
            job.rows.append(row)
            self.cond.notify_all()

    def stage_done(self, job: JobRecord, index: int,
                   session_stats: SessionStats,
                   cache_stats: CacheStats) -> None:
        with self.cond:
            job.session_stats.merge(session_stats)
            job.cache_stats.merge(cache_stats)
            if job.terminal:
                return  # stage of a cancelled job ran to completion
            job.stage_state[index] = _DONE
            if all(state == _DONE for state in job.stage_state):
                self._finish(job, JobState.DONE)
            else:
                self.cond.notify_all()

    def stage_failed(self, job: JobRecord, index: int,
                     error: Exception) -> None:
        """A stage raised ``error`` in the worker: the whole job fails (no
        retry — a deterministic pipeline raises deterministically)."""
        with self.cond:
            if job.terminal:
                return
            job.stage_state[index] = _DONE
            job.exception = error
            self._finish(job, JobState.FAILED, {
                "code": "failed", "stage": index,
                "message": f"{type(error).__name__}: {error}"})

    def worker_died(self, job: JobRecord, index: int, how: str) -> None:
        """The worker running this stage died (killed, OOM); ``how`` says
        how its child ended (``was killed by signal 9 (Killed)``).

        First death: the stage is re-queued for one retry on a fresh
        worker.  Second death: the job is quarantined — a cell that kills
        two workers is poison and must not take the daemon down with
        endless respawns.
        """
        with self.cond:
            if job.terminal:
                return
            if job.stage_attempts[index] <= 1:
                job.stage_state[index] = _PENDING
                self.cond.notify_all()
            else:
                job.stage_state[index] = _DONE
                self._finish(job, JobState.QUARANTINED, {
                    "code": "quarantined",
                    "message": f"the second worker to run stage {index} "
                               f"{how}; job quarantined",
                    "stage": index,
                    "attempts": job.stage_attempts[index]})

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a job; returns the record, or ``None`` if unknown.

        Cancelling a terminal job is a no-op.  A running job's in-flight
        stage is left to finish in its worker (its late rows are dropped);
        pending stages never start.
        """
        with self.cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if not job.terminal:
                self._finish(job, JobState.CANCELLED,
                             {"code": "cancelled", "message": "cancelled"})
            return job
