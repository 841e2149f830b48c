"""The ``repro serve`` daemon: socket front end, worker pool, graceful drain.

One :class:`ServeServer` owns three moving parts:

* a Unix-domain **listener** accepting NDJSON connections
  (:mod:`repro.serve.protocol`), one handler thread per client;
* the bounded **job queue** (:mod:`repro.grid.queue`) — admission control,
  first come first served;
* the warm **worker pool** (:mod:`repro.grid.pool`) — forked children
  with persistent sessions, hot registries and caches, each worker a loop
  that claims the oldest job's next pending stage from the queue, runs it
  in its child and reports it back.  Stages are
  :func:`~repro.grid.planner.plan_cells` stages (the cells sharing one
  profile), so concurrent clients submitting overlapping work dedup
  against each other through the shared store — the second client's cells
  are store hits, not recomputations.

How a cell is keyed, resumed, computed, stored and turned into a row is the
grid engine's business, exactly as in ``repro grid``: one store, built by
the server, is both the resume probe's
(:func:`~repro.grid.engine.resume_rows`) and the pool's row store
(:func:`~repro.grid.engine.store_row`), so the daemon holds no cells of
its own, and a memory-only daemon serves a resubmit from the rows its
workers delivered.  The probe's row hits count in the job's cache
counters, next to its workers' lookups.  Rows stream back live:
each completed cell appends its row to its job record and wakes every
connection streaming that job, which sends it as a dict.  A worker killed
mid-stage is respawned, its stage retried once, then the job is
quarantined.  ``SIGTERM`` (or the ``shutdown`` op) triggers a **graceful
drain**: new submits are rejected with a structured ``draining`` error,
in-flight jobs run to completion, then the daemon exits.
"""

from __future__ import annotations

import base64
import contextlib
import os
import pickle
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from .. import __version__
from ..api.spec import RunSpec, SpecError
from ..api.store import ArtifactStore, CacheStats
from ..grid.engine import resume_rows
from ..grid.planner import plan_cells
from ..grid.pool import Stages, WorkerPool
from ..grid.queue import AdmissionError, JobQueue
from ..grid.spec import GridCell
from ..uarch.config import ConfigError
from . import protocol


class _BadRequest(ValueError):
    """Internal: maps to a ``bad-request`` protocol error."""


def _decode_cell(triple: Any) -> GridCell:
    """One submitted ``(index, point, spec)`` triple as a cell.

    The index must be an int >= 0, the point a sequence of ``(axis name,
    value)`` pairs and the spec a :class:`RunSpec`; anything else is a
    :class:`_BadRequest`, so a malformed submit admits nothing.
    """
    if not isinstance(triple, (list, tuple)) or len(triple) != 3:
        raise _BadRequest("malformed cells payload: a cell is an "
                          "(index, point, spec) triple")
    index, point, spec = triple
    if type(index) is not int or index < 0:
        raise _BadRequest(f"malformed cells payload: cell index must be a "
                          f"non-negative integer, got {index!r}")
    if not isinstance(point, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and isinstance(pair[0], str) for pair in point):
        raise _BadRequest(f"malformed cells payload: cell {index}'s point "
                          f"must be a sequence of (axis name, value) pairs")
    if not isinstance(spec, RunSpec):
        raise _BadRequest(f"malformed cells payload: cell {index}'s spec is "
                          f"a {type(spec).__name__}, not a RunSpec")
    return GridCell(index=index, point=tuple(map(tuple, point)), spec=spec)


class ServeServer:
    """The daemon.  ``start()`` spins the threads; ``serve_forever()``
    blocks until a shutdown is requested and the drain completes."""

    def __init__(self, socket_path: Optional[os.PathLike] = None, *,
                 cache_dir: Optional[os.PathLike] = None,
                 workers: Optional[int] = None,
                 version: Optional[str] = None) -> None:
        self.socket_path = Path(socket_path) if socket_path is not None \
            else protocol.default_socket_path()
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.version = version if version is not None else __version__
        if workers is not None and workers < 1:
            raise ValueError(f"a daemon needs at least one worker, "
                             f"got workers={workers}")
        self.workers = workers if workers is not None \
            else min(4, os.cpu_count() or 1)
        self.store = ArtifactStore(self.cache_dir, version=self.version)
        self.queue = JobQueue()
        self.pool: Optional[WorkerPool] = None
        self.started_at: Optional[float] = None
        self._listener: Optional[socket.socket] = None
        self._streams: Set[protocol.MessageStream] = set()
        self._streams_lock = threading.Lock()
        #: Set once the daemon is torn down, which happens exactly once.
        self._stop_event = threading.Event()
        self._teardown_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise OSError("repro serve needs Unix domain sockets")
        self.started_at = time.monotonic()
        # Bind first: a busy socket fails the start before any worker forks.
        self._bind()
        pool = WorkerPool(Stages(self.queue, self.store), self.workers)
        try:
            pool.start()
        except BaseException:
            self._teardown()
            raise
        self.pool = pool
        self._spawn(self._accept_loop, "repro-serve-accept")

    def _bind(self) -> None:
        """Bind the socket, owner-only, and listen on it."""
        self.socket_path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(str(self.socket_path))
        except OSError:
            # A stale socket file from a dead daemon: connect-probe it.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(self.socket_path))
            except OSError:
                self.socket_path.unlink(missing_ok=True)
                listener.bind(str(self.socket_path))
            else:
                probe.close()
                listener.close()
                raise OSError(f"a daemon is already listening on "
                              f"{self.socket_path}")
            finally:
                probe.close()
        # No client can connect before listen(), so none gets in before this.
        os.chmod(self.socket_path, 0o600)
        listener.listen(16)
        self._listener = listener

    @staticmethod
    def _spawn(target, name: str) -> None:
        threading.Thread(target=target, name=name, daemon=True).start()

    def serve_forever(self) -> None:
        """Block until shutdown (signal, ``shutdown`` op or :meth:`stop`)."""
        self._stop_event.wait()

    def request_shutdown(self, *, drain: bool = True) -> None:
        """Begin shutdown; with ``drain`` in-flight jobs finish first.

        Safe from any thread and from signal handlers.  New submissions are
        rejected immediately either way; without ``drain``, queued and
        running jobs are cancelled.  The first call starts the thread that
        tears the daemon down once every job is terminal.
        """
        first = self.queue.begin_drain()
        if not drain:
            for job in self.queue.jobs():
                self.queue.cancel(job.id)
        if first:
            self._spawn(self._drain_watch, "repro-serve-drain")

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Synchronous shutdown helper for embedding (tests, bench)."""
        self.request_shutdown(drain=drain)
        self._stop_event.wait(timeout)
        self._teardown()

    def _drain_watch(self) -> None:
        with self.queue.cond:
            self.queue.cond.wait_for(self.queue.all_terminal)
        self._teardown()

    def _teardown(self) -> None:
        """Close the listener, the streams, the pool and the store.  Runs
        once; a later call returns when the first has finished."""
        with self._teardown_lock:
            if self._stop_event.is_set():
                return
            if self._listener is not None:   # the socket file is ours
                # Closing alone does not wake a thread blocked in accept().
                with contextlib.suppress(OSError):
                    self._listener.shutdown(socket.SHUT_RDWR)
                with contextlib.suppress(OSError):
                    self._listener.close()
                self.socket_path.unlink(missing_ok=True)
            with self._streams_lock:
                streams = list(self._streams)
            for stream in streams:
                stream.close()
            if self.pool is not None:
                self.pool.stop()
            self.store.close()
            self._stop_event.set()

    # -- connection handling -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            stream = protocol.MessageStream(conn)
            with self._streams_lock:
                self._streams.add(stream)
            self._spawn(lambda s=stream: self._handle_connection(s),
                        "repro-serve-conn")

    def _handle_connection(self, stream: protocol.MessageStream) -> None:
        try:
            if not self._handshake(stream):
                return
            while True:
                try:
                    message = stream.recv()
                except protocol.ProtocolError as error:
                    stream.send(protocol.error_response(
                        "?", "bad-request", str(error)))
                    return
                if message is None:
                    return
                if not self._handle_request(stream, message):
                    return
        except (OSError, ValueError):
            pass  # client went away mid-message
        finally:
            stream.close()
            with self._streams_lock:
                self._streams.discard(stream)

    def _handshake(self, stream: protocol.MessageStream) -> bool:
        message = stream.recv()
        if message is None:
            return False
        if message.get("op") != "hello":
            stream.send(protocol.error_response(
                str(message.get("op")), "bad-request",
                "the first message must be a hello handshake"))
            return False
        if message.get("protocol") != protocol.PROTOCOL_VERSION:
            stream.send(protocol.error_response(
                "hello", "protocol-mismatch",
                f"server speaks protocol {protocol.PROTOCOL_VERSION}, "
                f"client sent {message.get('protocol')!r}",
                server_protocol=protocol.PROTOCOL_VERSION))
            return False
        stream.send(protocol.ok_response(
            "hello", protocol=protocol.PROTOCOL_VERSION,
            server_version=self.version, pid=os.getpid()))
        return True

    def _handle_request(self, stream: protocol.MessageStream,
                        message: Dict[str, Any]) -> bool:
        """Dispatch one request; returns False to close the connection."""
        op = str(message.get("op"))
        try:
            if op == "submit":
                stream.send(self._handle_submit(message))
            elif op == "poll":
                stream.send(self._job_response(op, message))
            elif op == "jobs":
                stream.send(protocol.ok_response(
                    "jobs", jobs=[job.describe()
                                  for job in self.queue.jobs()]))
            elif op == "cancel":
                job = self.queue.cancel(str(message.get("job_id")))
                if job is None:
                    stream.send(protocol.error_response(
                        op, "unknown-job",
                        f"unknown job {message.get('job_id')!r}"))
                else:
                    stream.send(protocol.ok_response(op, job=job.describe()))
            elif op == "stream":
                self._handle_stream(stream, message)
            elif op == "status":
                stream.send(protocol.ok_response(op, server=self._status()))
            elif op == "shutdown":
                drain = bool(message.get("drain", True))
                # Drain before the reply, so that no submit is admitted
                # after it; this connection closes itself, not the teardown.
                with self._streams_lock:
                    self._streams.discard(stream)
                self.request_shutdown(drain=drain)
                stream.send(protocol.ok_response(
                    op, state="draining" if drain else "stopping"))
                return False
            else:
                stream.send(protocol.error_response(
                    op, "bad-request", f"unknown op {op!r}"))
        except _BadRequest as error:
            stream.send(protocol.error_response(op, "bad-request", str(error)))
        except AdmissionError as error:
            stream.send(protocol.error_response(op, error.code, str(error),
                                                **error.details))
        except Exception as error:  # noqa: BLE001 - must answer the client
            stream.send(protocol.error_response(
                op, "internal", f"{type(error).__name__}: {error}"))
        return True

    # -- request implementations ----------------------------------------------------

    def _job_response(self, op: str, message: Dict[str, Any]
                      ) -> Dict[str, Any]:
        job = self.queue.get(str(message.get("job_id")))
        if job is None:
            return protocol.error_response(
                op, "unknown-job", f"unknown job {message.get('job_id')!r}")
        return protocol.ok_response(op, job=job.describe())

    def _handle_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        descriptor = message.get("job")
        if not isinstance(descriptor, dict):
            raise _BadRequest("submit needs a job descriptor object")
        cells, label = self._decode_job(descriptor)
        with self.queue.cond:
            # The probe's gets are the only ones this process makes: under
            # the queue's lock, fresh counters in the store count its row
            # hits alone, and they reach the job before anyone reads it.
            probe = self.store.stats = CacheStats()
            served, remaining = resume_rows(self.store, cells) \
                if message.get("resume", False) else ([], cells)
            stages = plan_cells(remaining).stages
            job = self.queue.submit(stages, label=label, rows=served)
            job.cache_stats.merge(CacheStats(memory_hits=probe.memory_hits,
                                             disk_hits=probe.disk_hits))
        return protocol.ok_response(
            "submit", job_id=job.id, state=job.state.value,
            cells=len(cells), resumed=len(served),
            stages=len(stages), queue_depth=self.queue.active_count())

    @staticmethod
    def _decode_job(descriptor: Dict[str, Any]) -> Tuple[List[GridCell], str]:
        kind = descriptor.get("kind")
        if kind != "cells":
            raise _BadRequest(f"unknown job kind {kind!r}")
        blob = descriptor.get("cells_b64")
        if not isinstance(blob, str):
            raise _BadRequest("job descriptor needs cells_b64")
        try:
            triples = pickle.loads(base64.b64decode(blob.encode("ascii")))
        except (ConfigError, SpecError) as error:
            # Unpickling constructs every spec and machine, which validates it.
            raise _BadRequest(f"invalid spec in cells payload: {error}") \
                from None
        except Exception as error:  # noqa: BLE001 - any unpickling failure
            raise _BadRequest(f"undecodable cells_b64: {error}") from None
        if not isinstance(triples, (list, tuple)):
            raise _BadRequest("malformed cells payload: not a list of cells")
        cells = [_decode_cell(triple) for triple in triples]
        if len({cell.index for cell in cells}) != len(cells):
            raise _BadRequest("malformed cells payload: duplicate cell index")
        return cells, str(descriptor.get("label") or "cells")

    def _handle_stream(self, stream: protocol.MessageStream,
                       message: Dict[str, Any]) -> None:
        cursor = message.get("from", 0)
        if type(cursor) is not int or cursor < 0:
            raise _BadRequest(f"stream cursor 'from' must be a non-negative "
                              f"integer, got {cursor!r}")
        job = self.queue.get(str(message.get("job_id")))
        if job is None:
            stream.send(protocol.error_response(
                "stream", "unknown-job",
                f"unknown job {message.get('job_id')!r}"))
            return
        while True:
            with self.queue.cond:
                while len(job.rows) <= cursor and not job.terminal:
                    if self._stop_event.is_set():
                        break
                    self.queue.cond.wait(timeout=0.5)
                batch = list(job.rows[cursor:])
                terminal = job.terminal
                stopping = self._stop_event.is_set()
            # One write per batch: its rows, then the end of the stream.
            frames = [protocol.ok_response("row", job_id=job.id,
                                           seq=cursor + offset,
                                           row=row.as_dict())
                      for offset, row in enumerate(batch)]
            cursor += len(batch)
            done = terminal and cursor >= len(job.rows)
            if done:
                frames.append(protocol.ok_response(
                    "end", job_id=job.id, state=job.state.value,
                    rows=cursor, job=job.describe()))
            elif stopping:
                frames.append(protocol.error_response(
                    "stream", "draining", "daemon stopped mid-stream"))
            if frames:
                stream.send(*frames)
            if done or stopping:
                return

    def _status(self) -> Dict[str, Any]:
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "pid": os.getpid(),
            "protocol": protocol.PROTOCOL_VERSION,
            "version": self.version,
            "socket": str(self.socket_path),
            "cache_dir": self.cache_dir,
            "uptime_seconds": 0.0 if self.started_at is None
                              else time.monotonic() - self.started_at,
            "workers": self.pool.size,
            "worker_pids": self.pool.worker_pids(),
            "busy_worker_pids": self.pool.busy_pids(),
            "queue": {"limit": self.queue.limit,
                      "active": self.queue.active_count(),
                      "draining": self.queue.draining},
            "jobs": {"total": len(jobs), **by_state},
        }
