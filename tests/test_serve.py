"""The ``repro serve`` daemon: protocol, queue, pool, server, client, CLI."""

import base64
import dataclasses
import errno
import gc
import io
import json
import multiprocessing
import os
import pickle
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, Session, SessionStats
from repro.api.store import MISS, ArtifactStore, CacheStats
from repro.grid import Axis, GridRow, GridSpec, cell_key
from repro.grid.queue import AdmissionError, JobQueue, JobState
from repro.grid.spec import GridCell
from repro.minigraph.policies import DEFAULT_POLICY
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ServeServer
from repro.uarch import baseline_config, integer_memory_minigraph_config

BUDGET = 1_200


def _mini_grid(benchmarks=("bitcount",), budget=BUDGET, name="serve-test",
               spec=RunSpec):
    axes = (Axis("benchmark", tuple(benchmarks)),
            Axis("config", ("minigraph", "baseline")))

    def build(point):
        policy = DEFAULT_POLICY if point["config"] == "minigraph" else None
        return spec(benchmark=point["benchmark"], budget=budget,
                    policy=policy)

    return GridSpec(name=name, axes=axes, build=build, title="serve test")


_SPEC = RunSpec(benchmark="bitcount", budget=BUDGET)
_POINT = (("benchmark", "bitcount"),)


def _stage(spec=None):
    spec = spec or RunSpec(benchmark="bitcount", budget=BUDGET)
    return [GridCell(index=0, point=(("benchmark", "bitcount"),), spec=spec)]


def _row(index):
    """A row for the queue's bookkeeping, which reads only its index."""
    return GridRow(**{**{field.name: None
                         for field in dataclasses.fields(GridRow)},
                      "index": index})


@pytest.fixture()
def daemon(tmp_path):
    """A started daemon on a private socket + store; stopped afterwards."""
    server = ServeServer(tmp_path / "serve.sock",
                         cache_dir=tmp_path / "cache", workers=2)
    server.start()
    yield server
    server.stop(drain=False)


def _client(server, **kwargs):
    return ServeClient(server.socket_path, retry_connect=10.0, **kwargs)


def _raw_stream(server):
    """A raw protocol stream to ``server``, past the ``hello`` handshake."""
    sock = socket_module.socket(socket_module.AF_UNIX,
                                socket_module.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    stream = protocol.MessageStream(sock)
    stream.send({"op": "hello", "protocol": protocol.PROTOCOL_VERSION})
    assert stream.recv()["ok"] is True
    return stream


def _strip_resumed(rows):
    """Row dicts keyed by index, without the ``resumed`` bookkeeping flag."""
    return {row["index"]: {key: value for key, value in row.items()
                           if key != "resumed"}
            for row in rows}


# -- protocol -----------------------------------------------------------------------


class TestProtocol:
    def test_message_round_trip(self):
        message = {"op": "submit", "resume": True,
                   "job": {"kind": "cells", "label": "cells",
                           "cells_b64": ""}}
        assert protocol.decode_message(protocol.encode_message(message)) \
            == message

    def test_decode_rejects_non_objects(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"not json\n")

    def test_stream_round_trip_over_socketpair(self):
        left, right = socket_module.socketpair()
        a, b = protocol.MessageStream(left), protocol.MessageStream(right)
        hello = {"op": "hello", "protocol": protocol.PROTOCOL_VERSION}
        a.send(hello)
        assert b.recv() == hello
        # Several messages in one send: one write of the frames that single
        # sends would write, read back in order.
        batch = [protocol.ok_response("row", job_id="job-0001", seq=seq,
                                      row={"index": seq})
                 for seq in range(3)]
        batch.append(protocol.ok_response("end", job_id="job-0001",
                                          state="done", rows=3))
        writes = []
        write = a._writer.write
        a._writer.write = lambda data: writes.append(data) or write(data)
        a.send(*batch)
        assert writes == [b"".join(map(protocol.encode_message, batch))]
        assert [b.recv() for _ in batch] == batch
        b.close()
        assert a.recv() is None  # clean close reads as None
        a.close()

    def test_error_response_carries_structured_code(self):
        response = protocol.error_response("submit", "queue-full", "full",
                                           active=4, limit=4)
        assert response["ok"] is False
        assert response["error"]["code"] == "queue-full"
        assert response["error"]["details"] == {"active": 4, "limit": 4}

    def test_handshake_rejects_protocol_mismatch(self, daemon):
        sock = socket_module.socket(socket_module.AF_UNIX,
                                    socket_module.SOCK_STREAM)
        sock.connect(str(daemon.socket_path))
        stream = protocol.MessageStream(sock)
        stream.send({"op": "hello", "protocol": 999})
        response = stream.recv()
        stream.close()
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol-mismatch"

    @pytest.mark.parametrize("old_protocol", [1, 2, 3])
    def test_handshake_rejects_older_protocols(self, daemon, old_protocol):
        # Protocol 1 jobs reported session_stats fields this version no
        # longer has, protocol 2 clients could ask for namespaces and
        # priorities it no longer honours, and protocol 3 clients pickle
        # specs with the keys their own process memoized: all must fail at
        # hello.
        assert protocol.PROTOCOL_VERSION == 4
        sock = socket_module.socket(socket_module.AF_UNIX,
                                    socket_module.SOCK_STREAM)
        sock.connect(str(daemon.socket_path))
        stream = protocol.MessageStream(sock)
        stream.send({"op": "hello", "protocol": old_protocol,
                     "namespace": "tenant-a"})
        response = stream.recv()
        stream.close()
        assert response["error"]["code"] == "protocol-mismatch"
        assert response["error"]["details"] == {"server_protocol": 4}


# -- job queue ----------------------------------------------------------------------


class TestJobQueue:
    def test_queue_full_submission_is_structured_rejection(self):
        queue = JobQueue(limit=2)
        for _ in range(2):
            queue.submit([_stage()])
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit([_stage()])
        assert excinfo.value.code == "queue-full"
        assert excinfo.value.details == {"active": 2, "limit": 2}

    def test_draining_queue_rejects_submits(self):
        queue = JobQueue(limit=4)
        queue.begin_drain()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit([_stage()])
        assert excinfo.value.code == "draining"

    def test_first_come_first_served(self):
        queue = JobQueue(limit=8)
        jobs = [queue.submit([_stage(_SPEC.with_budget(BUDGET + offset))])
                for offset in range(3)]
        order = [queue.next_stage()[0].id for _ in range(3)]
        assert order == [job.id for job in jobs]
        assert queue.next_stage() is None

    def test_stage_waits_while_its_specs_run_elsewhere(self):
        """Two jobs of one grid: the later job's stage waits while the
        earlier job runs the same specs, then reads them from the store."""
        queue = JobQueue(limit=4)
        stages = [_stage(), _stage(_SPEC.baseline_only())]
        first, second = queue.submit(stages), queue.submit(list(stages))
        assert queue.next_stage() == (first, 0)
        assert queue.next_stage() == (first, 1)
        assert queue.next_stage() is None
        queue.stage_done(first, 1, SessionStats(), CacheStats())
        assert queue.next_stage() == (second, 1)
        queue.stage_done(first, 0, SessionStats(), CacheStats())
        assert queue.next_stage() == (second, 0)

    def test_terminal_job_drops_late_rows(self):
        queue = JobQueue(limit=4)
        job = queue.submit([_stage()])
        queue.next_stage()
        queue.cancel(job.id)
        queue.append_row(job, _row(0))
        assert job.state is JobState.CANCELLED
        assert job.rows == []

    def test_worker_death_retries_once_then_quarantines(self):
        queue = JobQueue(limit=4)
        job = queue.submit([_stage()])
        claimed, index = queue.next_stage()
        assert claimed is job
        queue.worker_died(job, index)           # first death: re-queued
        assert job.state is JobState.RUNNING
        claimed, index = queue.next_stage()     # retry claim
        assert claimed is job
        queue.worker_died(job, index)           # second death: quarantined
        assert job.state is JobState.QUARANTINED
        assert job.error["code"] == "quarantined"
        assert queue.next_stage() is None

    def test_empty_job_is_born_done_with_prepopulated_rows(self):
        queue = JobQueue(limit=4)
        job = queue.submit([], rows=[_row(0)])
        assert job.state is JobState.DONE
        assert job.rows == [_row(0)]

    @pytest.mark.parametrize("transition", [
        "born-done", "stage-done", "stage-failed", "worker-died-twice",
        "cancel"])
    def test_every_terminal_transition_leaves_the_live_map(self,
                                                           transition):
        """Admission and scheduling read only the live jobs, so each way a
        job ends must take it out of them (it stays for poll/stream)."""
        queue = JobQueue(limit=4)
        if transition == "born-done":
            job = queue.submit([], rows=[_row(0)])
        else:
            job = queue.submit([_stage()])
            assert list(queue._live) == [job.id]
            _, index = queue.next_stage()
            if transition == "stage-done":
                queue.stage_done(job, index, SessionStats(),
                                 CacheStats())
            elif transition == "stage-failed":
                queue.stage_failed(job, index, RuntimeError("boom"))
            elif transition == "worker-died-twice":
                queue.worker_died(job, index)
                assert list(queue._live) == [job.id]   # retried, still live
                queue.next_stage()
                queue.worker_died(job, index)
            else:
                queue.cancel(job.id)
        assert job.terminal and job.finished_at is not None
        assert queue._live == {}
        assert queue.active_count() == 0 and queue.all_terminal()
        assert queue.get(job.id) is job and queue.jobs() == [job]

    def test_retried_stage_replay_is_delivered_once(self):
        """A stage retried after its worker died re-emits every cell; rows
        already delivered (or resume-served) are not appended again."""
        queue = JobQueue(limit=4)
        job = queue.submit([_stage()], rows=[_row(7)])
        queue.append_row(job, _row(0))
        queue.append_row(job, _row(0))
        queue.append_row(job, _row(7))
        assert job.rows == [_row(7), _row(0)]


# -- daemon end-to-end --------------------------------------------------------------


class TestServeEndToEnd:
    def test_rows_bit_identical_to_serial_run_grid(self, daemon):
        grid = _mini_grid()
        with _client(daemon) as client:
            rows, job = client.run_to_completion(
                client.submit_grid(grid, resume=True))
        assert job["state"] == "done"
        # The workers' accounting comes back with the job.
        assert job["session_stats"]["timing_runs"] > 0
        reference = Session(cache_dir=None)
        serial = {row.index: row.as_dict()
                  for row in reference.run_grid(grid, workers=0)}
        assert len(rows) == len(serial)
        for row in rows:
            expected = dict(serial[row["index"]])
            got = dict(row)
            expected.pop("resumed"), got.pop("resumed")
            assert got == expected

    def test_warm_resubmit_serves_entirely_from_store(self, daemon):
        """Acceptance: a warm daemon re-serves a grid with zero
        recompilation — every cell resume-served, no stages planned."""
        grid = _mini_grid()
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(grid, resume=True))
            response = client.submit_grid(grid, resume=True)
            rows, job = client.run_to_completion(response)
        assert response["state"] == "done"       # born terminal
        assert response["stages"] == 0           # nothing left to execute
        assert response["resumed"] == len(rows)
        assert all(row["resumed"] for row in rows)
        assert job["session_stats"] == {}        # zero simulations

    def test_a_job_served_at_submit_reports_its_row_hits(self, daemon):
        """The submit probe's row hits are the job's: one per cell, from
        the memory layer the first job's rows went to."""
        grid = _mini_grid()
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(grid, resume=True))
            _, job = client.run_to_completion(
                client.submit_grid(grid, resume=True))
        assert job["cells"] == job["rows"] == 2
        assert job["cache_stats"] == {"memory_hits": 2}
        assert job["cache_hit_rate"] == 1.0

    def test_fully_resumed_job_counts_its_cells(self, daemon):
        """``poll`` counts resume-served cells, so a warm resubmit reads
        as many cells as rows."""
        grid = _mini_grid()
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(grid, resume=True))
            response = client.submit_grid(grid, resume=True)
            job = client.poll(response["job_id"])
        assert response["cells"] == response["resumed"] == 2
        assert job["cells"] == job["rows"] == 2

    def test_second_client_dedups_through_shared_store(self, daemon):
        grid = _mini_grid()
        with _client(daemon) as first:
            rows_first, _ = first.run_to_completion(
                first.submit_grid(grid, resume=True))
        with _client(daemon) as second:
            response = second.submit_grid(grid, resume=True)
            rows_second, _ = second.run_to_completion(response)
        hits = response["resumed"]
        assert hits / len(rows_second) >= 0.9
        key = lambda row: row["index"]
        strip = lambda row: {k: v for k, v in row.items() if k != "resumed"}
        assert sorted(map(strip, rows_first), key=key) \
            == sorted(map(strip, rows_second), key=key)

    def test_removed_artifacts_job_kind_is_a_typed_rejection(self, daemon):
        """Older clients submitted bare specs as an ``artifacts`` job
        (``Session(remote=...).run``) and catalog grids by name as a
        ``grid`` job, kinds the daemon no longer has: each must answer
        ``bad-request`` without admitting a job and keep serving."""
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        specs_b64 = base64.b64encode(pickle.dumps([spec])).decode("ascii")
        removed = {"artifacts": {"label": "artifacts",
                                 "specs_b64": specs_b64},
                   "grid": {"grid": "mini", "benchmarks": ["bitcount"],
                            "budget": BUDGET}}
        stream = _raw_stream(daemon)
        try:
            for kind, fields in removed.items():
                stream.send({"op": "submit", "resume": False,
                             "job": {"kind": kind, **fields}})
                response = stream.recv()
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-request"
                assert response["error"]["message"] \
                    == f"unknown job kind {kind!r}"
            stream.send({"op": "status"})
            status = stream.recv()
        finally:
            stream.close()
        assert status["ok"] is True
        assert status["server"]["jobs"]["total"] == 0

    @pytest.mark.parametrize("triples", [
        [(0, _POINT, "bitcount")],
        [(0, _POINT, 7)],
        [(0, (1, 2, 3), _SPEC)],
        [(0, _POINT, _SPEC), (0, _POINT, _SPEC.baseline_only())],
        [(-1, _POINT, _SPEC)],
        [(True, _POINT, _SPEC)],
        [("0", _POINT, _SPEC)],
        [(0, _POINT)],
        {"index": 0},
    ], ids=["str-spec", "int-spec", "point-of-ints", "duplicate-index",
            "negative-index", "bool-index", "str-index", "pair", "dict"])
    def test_malformed_cells_are_a_typed_rejection(self, daemon, triples):
        """A submit whose cells are not ``(index, point, spec)`` triples
        with unique non-negative int indices, ``(str, value)`` pairs and
        ``RunSpec``\\ s answers ``bad-request`` and admits nothing."""
        blob = base64.b64encode(pickle.dumps(triples)).decode("ascii")
        stream = _raw_stream(daemon)
        try:
            for resume in (False, True):
                stream.send({"op": "submit", "resume": resume,
                             "job": {"kind": "cells", "cells_b64": blob}})
                response = stream.recv()
                assert response["ok"] is False, response
                assert response["error"]["code"] == "bad-request"
                assert response["error"]["message"].startswith(
                    "malformed cells payload")
            stream.send({"op": "status"})
            status = stream.recv()
        finally:
            stream.close()
        assert status["ok"] is True
        assert status["server"]["jobs"]["total"] == 0

    @pytest.mark.parametrize("cursor", ["x", None, -1, True])
    def test_malformed_stream_cursor_is_a_bad_request(self, daemon, cursor):
        with _client(daemon) as client:
            job_id = client.submit_cells([], label="empty")["job_id"]
        stream = _raw_stream(daemon)
        try:
            stream.send({"op": "stream", "job_id": job_id, "from": cursor})
            response = stream.recv()
            stream.send({"op": "stream", "job_id": job_id, "from": 0})
            end = stream.recv()
        finally:
            stream.close()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "cursor" in response["error"]["message"]
        # The connection stays usable: a well-formed cursor streams.
        assert end["op"] == "end" and end["state"] == "done"

    def test_memory_only_daemon_forks_its_workers(self, tmp_path):
        """``cache_dir=None`` forks every worker it was asked for, and the
        rows they deliver land in the server's one store, which serves a
        resubmit."""
        server = ServeServer(tmp_path / "serve.sock", cache_dir=None,
                             workers=2)
        server.start()
        try:
            grid = _mini_grid()
            with _client(server) as client:
                status = client.status()
                assert status["workers"] == 2
                assert len(set(status["worker_pids"])) == 2
                assert os.getpid() not in status["worker_pids"]
                rows, job = client.run_to_completion(
                    client.submit_grid(grid, resume=True))
                response = client.submit_grid(grid, resume=True)
                again, _ = client.run_to_completion(response)
        finally:
            server.stop(drain=False)
        assert job["state"] == "done"
        serial = [row.as_dict()
                  for row in Session(cache_dir=None).run_grid(grid, workers=0)]
        assert _strip_resumed(rows) == _strip_resumed(serial)
        assert response["state"] == "done"
        assert response["resumed"] == len(serial)
        assert all(row["resumed"] for row in again)
        assert _strip_resumed(again) == _strip_resumed(serial)

    def test_the_store_keeps_one_database_in_the_cache_dir(self, daemon):
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(_mini_grid()))
        with Session(cache_dir=daemon.cache_dir) as session:
            list(session.run_grid(_mini_grid(budget=BUDGET + 100), workers=0))
        names = {path.name for path in Path(daemon.cache_dir).iterdir()}
        assert "store.sqlite3" in names
        assert names <= {"store.sqlite3", "store.sqlite3-wal",
                         "store.sqlite3-shm"}

    def test_warm_jobs_do_not_accumulate_run_specs(self, daemon):
        """Regression: the daemon used to keep every job's unpickled cells
        (two specs per job here) for the life of the process."""
        def live_specs():
            gc.collect()
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, RunSpec))

        grid = _mini_grid()
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(grid, resume=True))
            before = live_specs()
            for _ in range(20):
                response = client.submit_grid(grid, resume=True)
                assert response["resumed"] == 2
                client.run_to_completion(response)
            grown = live_specs() - before
        assert grown < 20

    def test_unknown_job_poll_is_structured(self, daemon):
        with _client(daemon) as client:
            with pytest.raises(ServeError) as excinfo:
                client.poll("job-9999")
        assert excinfo.value.code == "unknown-job"

    def test_queue_full_round_trips_to_client(self, tmp_path):
        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "cache", workers=1)
        server.queue = JobQueue(limit=1)
        server.start()
        try:
            grid = _mini_grid(budget=20_000)
            with _client(server) as client:
                client.submit_grid(grid)           # occupies the queue
                with pytest.raises(ServeError) as excinfo:
                    client.submit_grid(grid)
            assert excinfo.value.code == "queue-full"
            assert excinfo.value.details["limit"] == 1
        finally:
            server.stop(drain=False)

    def test_cancel_mid_stage_stops_pending_work(self, tmp_path):
        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "cache", workers=1)
        server.start()
        try:
            # Two distinct benchmarks = two stages on one worker: cancel
            # while the first is in flight, the second must never start.
            grid = _mini_grid(benchmarks=("bitcount", "crc"), budget=30_000)
            with _client(server) as client:
                job_id = client.submit_grid(grid)["job_id"]
                job = client.cancel(job_id)
                assert job["state"] == "cancelled"
                final = client.poll(job_id)
            assert final["state"] == "cancelled"
            assert final["error"]["code"] == "cancelled"
        finally:
            server.stop(drain=False)

    @staticmethod
    def _await_exit(server, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not server.socket_path.exists():
                return
            time.sleep(0.05)
        raise AssertionError("daemon did not exit after drain")

    @staticmethod
    def _assert_drained_rows(server, grid):
        """Drain ran the in-flight job to completion: every cell's row
        artifact was persisted to the daemon store before exit."""
        store = ArtifactStore(server.cache_dir, version=server.version)
        for cell in grid.cells():
            assert store.get(cell_key(cell.spec, server.version)) is not MISS

    def test_shutdown_drains_in_flight_and_rejects_new(self, tmp_path):
        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "cache", workers=1)
        server.start()
        grid = _mini_grid(budget=60_000)
        try:
            with _client(server) as client:
                client.submit_grid(grid)
                client.shutdown(drain=True)
            # Draining: new submissions get a structured rejection while the
            # in-flight job keeps running...
            with _client(server) as late:
                with pytest.raises(ServeError) as excinfo:
                    late.submit_grid(grid)
                assert excinfo.value.code == "draining"
            # ...then the daemon exits on its own, after (not before) the
            # job completed and persisted every row artifact.
            self._await_exit(server)
            self._assert_drained_rows(server, grid)
        finally:
            server.stop(drain=False)

    def test_sigterm_triggers_graceful_drain(self, tmp_path):
        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "cache", workers=1)
        server.start()
        handled = signal.getsignal(signal.SIGTERM)
        grid = _mini_grid(budget=60_000)
        try:
            # Wire SIGTERM exactly as the CLI does, then raise it in-process.
            signal.signal(signal.SIGTERM,
                          lambda *_: server.request_shutdown(drain=True))
            with _client(server) as client:
                client.submit_grid(grid)
                os.kill(os.getpid(), signal.SIGTERM)
                with pytest.raises(ServeError) as excinfo:
                    client.submit_grid(grid)
                assert excinfo.value.code == "draining"
            self._await_exit(server)
            self._assert_drained_rows(server, grid)
        finally:
            signal.signal(signal.SIGTERM, handled)
            server.stop(drain=False)


class TestStartAndStop:
    def test_a_start_on_a_busy_socket_forks_nothing(self, daemon):
        def workers():
            return ({child.pid for child in multiprocessing.active_children()},
                    {thread for thread in threading.enumerate()
                     if thread.name.startswith("repro-pool-worker")})

        before = workers()
        second = ServeServer(daemon.socket_path, cache_dir=daemon.cache_dir,
                             workers=2)
        with pytest.raises(OSError, match="already listening"):
            second.start()
        assert workers() == before
        with _client(daemon) as client:     # the live daemon still serves
            assert client.status()["pid"] == os.getpid()

    def test_a_start_that_cannot_fork_leaves_no_socket(self, tmp_path,
                                                       monkeypatch):
        def refuse(process):
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            refuse)
        server = ServeServer(tmp_path / "serve.sock", cache_dir=None,
                             workers=2)
        with pytest.raises(OSError, match="fork refused"):
            server.start()
        assert not server.socket_path.exists()
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-pool-worker")]

    def test_the_socket_and_a_directory_made_for_it_are_owner_only(
            self, tmp_path):
        """Whoever can connect can make the daemon unpickle, so under a
        group-writable umask the socket and the directory the daemon
        creates for it still admit only their owner."""
        server = ServeServer(tmp_path / "run" / "serve.sock", cache_dir=None,
                             workers=1)
        umask = os.umask(0o002)
        try:
            server.start()
        finally:
            os.umask(umask)
        try:
            assert (tmp_path / "run").stat().st_mode & 0o777 == 0o700
            assert server.socket_path.stat().st_mode & 0o777 == 0o600
        finally:
            server.stop(drain=False)

    def test_stopping_a_daemon_ends_its_accept_thread(self, tmp_path):
        for number in range(3):
            server = ServeServer(tmp_path / f"{number}.sock", cache_dir=None,
                                 workers=1)
            server.start()
            server.stop()
        for thread in threading.enumerate():
            if thread.name == "repro-serve-accept":
                thread.join(timeout=5.0)
        assert [thread for thread in threading.enumerate()
                if thread.name == "repro-serve-accept"] == []


#: Pid of the test (= daemon) process; pool workers fork from it.
_DAEMON_PID = os.getpid()


class _WorkerKillerSpec(RunSpec):
    """A spec whose *execution* SIGKILLs the worker process running it.

    Daemon-side handling (planning, cache keying) happens in the test
    process and is untouched by the pid guard; only a forked pool worker
    that actually starts running the cell dies.  This makes "a job that
    keeps killing its workers" fully deterministic — no racing ``os.kill``
    against the scheduler.
    """

    @property
    def resolved_machine(self):
        if os.getpid() != _DAEMON_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().resolved_machine


#: The marker file :class:`_KillOnceSpec` claims; ``None`` disarms it.  Set
#: (by the ``kill_once`` fixture) before the daemon starts, so every pool
#: worker, forked then or respawned later, inherits it.
_KILL_ONCE_MARKER = None


class _KillOnceSpec(RunSpec):
    """A spec whose first execution in a pool worker SIGKILLs that worker.

    The first worker to run one creates the marker file, exclusively, and
    kills itself; every later run finds the marker and runs normally.  So a
    job of such specs loses exactly one worker mid-stage, and its retried
    stage completes, without racing ``os.kill`` against a fast worker.
    """

    @property
    def resolved_machine(self):
        if os.getpid() != _DAEMON_PID and _KILL_ONCE_MARKER is not None:
            try:
                os.close(os.open(_KILL_ONCE_MARKER,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().resolved_machine


@pytest.fixture()
def kill_once(tmp_path, monkeypatch):
    """Arm :class:`_KillOnceSpec` for a daemon started in this test."""
    monkeypatch.setattr(sys.modules[__name__], "_KILL_ONCE_MARKER",
                        str(tmp_path / "killed-a-worker"))


def _process_daemon(tmp_path):
    """A started one-worker process-pool daemon, or a skip."""
    server = ServeServer(tmp_path / "serve.sock",
                         cache_dir=tmp_path / "cache", workers=1)
    try:
        server.start()
    except (OSError, PermissionError):
        pytest.skip("process pools unavailable")
    return server


def _assert_rows_match_serial_run(served, grid):
    """``served`` holds one row per cell, bit-identical to a serial run."""
    serial = [row.as_dict()
              for row in Session(cache_dir=None).run_grid(grid, workers=0)]
    served_by_index = {row["index"]: row for row in served}
    assert len(served) == len(served_by_index) == len(serial)
    for expected in serial:
        actual = served_by_index[expected["index"]]
        for column in ("benchmark", "spec_hash", "coverage",
                       "baseline_ipc", "ipc", "speedup", "cycles",
                       "baseline_cycles", "templates"):
            assert actual[column] == expected[column], (
                f"row {expected['index']} column {column}: daemon "
                f"{actual[column]!r} != serial {expected[column]!r}")


class TestWorkerDeath:
    def test_killed_worker_job_retried_then_completes(self, tmp_path,
                                                      kill_once):
        """A worker SIGKILLed mid-stage: the stage is retried on a fresh
        worker and the job still completes with correct rows."""
        server = _process_daemon(tmp_path)
        try:
            grid = _mini_grid(spec=_KillOnceSpec)
            with _client(server) as client:
                job_id = client.submit_grid(grid)["job_id"]
                rows = list(client.stream(job_id))
                job = client.poll(job_id)
            assert job["state"] == "done"
            assert job["attempts"] >= 2          # the stage ran twice
            assert len(rows) == len(list(grid.cells()))
            _assert_rows_match_serial_run(rows, grid)
        finally:
            server.stop(drain=False)

    def test_job_that_kills_two_workers_is_quarantined(self, tmp_path):
        """A job that kills every worker it lands on is retried exactly once
        and then quarantined with a structured error — and the daemon
        (respawning workers both times) keeps serving other jobs."""
        server = _process_daemon(tmp_path)
        try:
            killer = GridCell(
                index=0, point=(("benchmark", "bitcount"),),
                spec=_WorkerKillerSpec(benchmark="bitcount", budget=BUDGET))
            with _client(server) as client:
                job_id = client.submit_cells(
                    [killer], label="killer", resume=False)["job_id"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    job = client.poll(job_id)
                    if job["state"] not in ("running", "queued"):
                        break
                    time.sleep(0.05)
            assert job["state"] == "quarantined"
            assert job["error"]["code"] == "quarantined"
            assert job["attempts"] >= 2          # original run + one retry
            # The daemon survived two worker deaths: a fresh submit works.
            with _client(server) as client:
                rows, job = client.run_to_completion(
                    client.submit_grid(_mini_grid(), resume=True))
            assert job["state"] == "done"
        finally:
            server.stop(drain=False)

    def test_a_worker_ended_while_idle_is_replaced_at_the_next_claim(
            self, tmp_path):
        """SIGTERM ends an idle worker: the drain handler the daemon had
        when it forked the worker does not run on the worker's copy of the
        daemon (which would unlink the socket).  The next claim forks a
        new worker, and the job is not charged a death."""
        server = ServeServer(tmp_path / "serve.sock",
                             cache_dir=tmp_path / "cache", workers=1)
        handled = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM,
                      lambda *_: server.request_shutdown(drain=True))
        try:
            try:
                server.start()
            except (OSError, PermissionError):
                pytest.skip("process pools unavailable")
            with _client(server) as client:
                [pid] = client.status()["worker_pids"]
                os.kill(pid, signal.SIGTERM)
                deadline = time.monotonic() + 30
                while client.status()["worker_pids"]:
                    assert time.monotonic() < deadline, "worker survived"
                    time.sleep(0.01)
                _, job = client.run_to_completion(
                    client.submit_grid(_mini_grid()))
                status = client.status()
            assert job["state"] == "done" and job["attempts"] == 1
            assert len(status["worker_pids"]) == 1
            assert status["worker_pids"] != [pid]
            assert server.socket_path.exists()
        finally:
            signal.signal(signal.SIGTERM, handled)
            server.stop(drain=False)

    def test_synth_grid_survives_worker_death_bit_identical(self, tmp_path,
                                                            kill_once):
        """Fuzz load through the daemon: a synth-workload grid (resolved
        purely from ``synth:`` names, no registry state) is submitted via
        ServeClient, one worker is SIGKILLed mid-job, and the retried job's
        rows are bit-identical to a serial ``run_grid`` of the same grid."""
        from repro.fuzz.generator import synth

        grid = _mini_grid(benchmarks=[synth(seed=seed) for seed in range(4)],
                          budget=20_000, name="synth-fuzz-load",
                          spec=_KillOnceSpec)
        server = _process_daemon(tmp_path)
        try:
            with _client(server) as client:
                job_id = client.submit_grid(grid)["job_id"]
                served = list(client.stream(job_id))
                job = client.poll(job_id)
            assert job["state"] == "done"
            assert job["attempts"] >= 2          # the killed stage reran
            _assert_rows_match_serial_run(served, grid)
        finally:
            server.stop(drain=False)


class TestForgedKeys:
    """Specs and machines pickle as their field values, so keys memoized
    in the submitting process never reach the daemon: it validates and
    keys every cell itself, and a forged key cannot select another run's
    row."""

    @staticmethod
    def _served_row(daemon, spec):
        cell = GridCell(index=0, point=_POINT, spec=spec)
        with _client(daemon) as client:
            rows, job = client.run_to_completion(
                client.submit_cells([cell], resume=True))
        assert job["state"] == "done"
        (row,) = rows
        return row

    def test_a_forged_spec_hash_is_served_its_own_row(self, daemon):
        with _client(daemon) as client:
            stored, _ = client.run_to_completion(client.submit_grid(
                _mini_grid(benchmarks=("bitcount", "crc"))))
        ipc = {row["benchmark"]: row["ipc"] for row in stored
               if row["point"]["config"] == "minigraph"}
        honest = RunSpec(benchmark="bitcount", budget=BUDGET,
                         policy=DEFAULT_POLICY)
        crc = RunSpec(benchmark="crc", budget=BUDGET, policy=DEFAULT_POLICY)
        # A fresh object (not an interned one) carrying crc's key.
        forged = dataclasses.replace(honest)
        object.__setattr__(forged, "_spec_hash", crc.spec_hash)
        row = self._served_row(daemon, forged)
        assert row["resumed"] is True
        assert row["spec_hash"] == honest.spec_hash
        assert row["ipc"] == ipc["bitcount"] != ipc["crc"]

    def test_a_forged_machine_key_is_served_its_own_row(self, daemon):
        with _client(daemon) as client:
            client.run_to_completion(client.submit_grid(_mini_grid()))
        default = integer_memory_minigraph_config()
        smaller = default.with_physical_registers(72)
        # Another fresh object (not an interned one), claiming the default
        # machine's shape.
        forged = default.with_physical_registers(72)
        object.__setattr__(forged, "machine_key", default.machine_key)
        object.__setattr__(forged, "machine_hash", default.machine_hash)
        row = self._served_row(daemon, RunSpec(
            benchmark="bitcount", budget=BUDGET, policy=DEFAULT_POLICY,
            machine=forged))
        honest = RunSpec(benchmark="bitcount", budget=BUDGET,
                         policy=DEFAULT_POLICY, machine=smaller)
        session = Session(cache_dir=None)
        assert row["resumed"] is False          # its own key: nothing stored
        assert row["machine_hash"] == smaller.machine_hash
        assert row["spec_hash"] == honest.spec_hash
        assert row["ipc"] == session.timing(honest).ipc
        assert row["ipc"] != session.timing(honest.with_machine(None)).ipc

    def test_an_invalid_machine_is_a_bad_request_at_submit(self, daemon):
        machine = dataclasses.replace(baseline_config())
        object.__setattr__(machine, "rob_size", 0)
        cell = GridCell(index=0, point=_POINT, spec=RunSpec(
            benchmark="bitcount", budget=BUDGET, policy=None,
            machine=machine))
        with _client(daemon) as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit_cells([cell], resume=False)
            status = client.status()
        assert excinfo.value.code == "bad-request"
        assert "rob_size" in str(excinfo.value)
        assert status["jobs"]["total"] == 0


# -- satellite regressions ----------------------------------------------------------


class TestBrokenPipe:
    def test_main_returns_zero_when_stdout_pipe_closes(self, monkeypatch,
                                                       tmp_path):
        """`repro grid --output ... | head` must exit 0, not traceback."""
        from repro.api import cli

        class _ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                raise OSError("no fileno")     # dup2 redirect must cope

        monkeypatch.setattr("sys.stdout", _ClosedPipe())
        code = cli.main(["--no-disk-cache", "--json", "grid", "--name",
                         "mini", "--benchmarks", "bitcount", "--budget",
                         "500", "--output", str(tmp_path / "rows.jsonl")])
        assert code == 0

    def test_grid_piped_to_head_exits_cleanly(self, tmp_path):
        import subprocess
        import sys as _sys
        script = ("import sys; from repro.api.cli import main; "
                  "sys.exit(main(['--no-disk-cache', '--json', 'grid', "
                  "'--name', 'mini', '--benchmarks', 'bitcount', "
                  "'--budget', '500']))")
        reader, writer = os.pipe()
        env = dict(os.environ)
        process = subprocess.Popen(
            [_sys.executable, "-c", script], stdout=writer,
            stderr=subprocess.PIPE, env=env)
        os.close(writer)
        os.read(reader, 64)        # consume a little, then hang up
        os.close(reader)
        _, stderr = process.communicate(timeout=240)
        assert process.returncode == 0, stderr.decode()
        assert b"Traceback" not in stderr
        assert b"Exception ignored" not in stderr


# -- serve CLI ----------------------------------------------------------------------


class TestServeCli:
    @pytest.mark.parametrize("argv", [
        ["serve", "start", "--workers", "0"],
        ["grid", "--name", "mini", "--workers", "-3"],
        ["fuzz", "--workers", "-2"],
    ])
    def test_worker_counts_that_cannot_work_are_usage_errors(self, argv,
                                                             capsys):
        from repro.api.cli import _build_parser
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "argument --workers: must be at least" \
            in capsys.readouterr().err

    def test_daemon_without_workers_is_rejected_before_binding(self,
                                                               tmp_path):
        socket_path = tmp_path / "serve.sock"
        with pytest.raises(ValueError, match="at least one worker"):
            ServeServer(socket_path, cache_dir=tmp_path / "cache", workers=0)
        assert not socket_path.exists()

    @pytest.mark.parametrize("detach", [False, True])
    def test_a_start_on_a_busy_socket_is_a_one_line_error(self, daemon,
                                                          detach):
        argv = [sys.executable, "-m", "repro", "serve", "start", "--socket",
                str(daemon.socket_path), "--workers", "1"]
        result = subprocess.run(argv + ["--detach"] * detach,
                                capture_output=True, text=True, timeout=120,
                                env=dict(os.environ))
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == [
            f"repro: error: a daemon is already listening on "
            f"{daemon.socket_path}"]
        assert "started" not in result.stdout
        with _client(daemon) as client:     # the live daemon still serves
            assert client.status()["pid"] == os.getpid()

    @pytest.mark.parametrize("detach", [False, True])
    def test_a_start_that_cannot_fork_is_a_one_line_error(self, tmp_path,
                                                           detach):
        script = ("import multiprocessing.context, sys\n"
                  "def refuse(process):\n"
                  "    raise OSError(11, 'fork refused')\n"
                  "multiprocessing.context.ForkProcess.start = refuse\n"
                  "from repro.api.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        socket_path = tmp_path / "serve.sock"
        argv = [sys.executable, "-c", script, "--no-disk-cache", "serve",
                "start", "--socket", str(socket_path), "--workers", "2"]
        result = subprocess.run(argv + ["--detach"] * detach,
                                capture_output=True, text=True, timeout=120,
                                env=dict(os.environ))
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == [
            "repro: error: [Errno 11] fork refused"]
        assert "started" not in result.stdout
        assert not socket_path.exists()

    def test_cli_serve_status_without_daemon(self, tmp_path, capsys):
        from repro.api.cli import main
        code = main(["serve", "status", "--socket",
                     str(tmp_path / "nope.sock")])
        assert code == 1
        assert "no serve daemon" in capsys.readouterr().err

    def test_cli_submit_and_jobs_against_daemon(self, daemon, capsys):
        from repro.api.cli import main
        code = main(["submit", "--grid", "mini", "--benchmarks", "bitcount",
                     "--budget", str(BUDGET), "--socket",
                     str(daemon.socket_path), "--follow"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines() if line]
        assert rows and all("spec_hash" in row for row in rows)
        code = main(["jobs", "--socket", str(daemon.socket_path)])
        assert code == 0
        assert "done" in capsys.readouterr().out

    def test_cli_submit_unknown_grid_fails_like_repro_grid(self, tmp_path,
                                                           capsys):
        """``repro submit --grid`` builds the grid locally, before it needs
        a daemon, so an unknown name is the same usage error as in
        ``repro grid``."""
        from repro.api.cli import main
        assert main(["grid", "--name", "nosuch"]) == 2
        expected = capsys.readouterr().err
        assert "unknown grid" in expected
        assert main(["submit", "--grid", "nosuch", "--socket",
                     str(tmp_path / "nope.sock")]) == 2
        assert capsys.readouterr().err == expected
