"""Client library for the ``repro serve`` daemon.

:class:`ServeClient` wraps one NDJSON connection (handshake included) and
exposes the protocol ops as methods.  Grid cells, which carry
:class:`~repro.api.spec.RunSpec` objects, are pickled and base64-wrapped on
this side — the daemon listens on a local, trusted Unix socket owned by the
same user, which is the only reason pickle is acceptable as transport.

Grid submissions are **expanded on the client**: a
:class:`~repro.grid.spec.GridSpec` holds arbitrary build closures that must
never cross the wire, so :meth:`submit_grid` ships the expanded ``(index,
point, spec)`` cells and the daemon re-plans them into shared-artifact
stages with :func:`~repro.grid.planner.plan_cells`.  Catalog grids are no
exception: ``repro submit --grid`` builds them locally, as ``repro grid``
does, and submits their cells.

Structured protocol errors surface as :class:`ServeError` with the error
``code`` (``queue-full``, ``draining``, ...) preserved for programmatic
handling — admission-control rejections are expected states, not crashes.
"""

from __future__ import annotations

import base64
import os
import pickle
import socket
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..grid.spec import GridCell, GridSpec
from . import protocol


class ServeError(Exception):
    """A structured daemon-side rejection or failure.

    ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES` (plus
    ``"connection"`` for transport-level failures raised client-side).
    """

    def __init__(self, code: str, message: str,
                 details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.code = code
        self.details = details or {}


def _pickle_b64(value: Any) -> str:
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


class ServeClient:
    """One connection to a serve daemon; usable as a context manager."""

    def __init__(self, socket_path: Optional[os.PathLike] = None, *,
                 timeout: Optional[float] = 60.0,
                 retry_connect: float = 0.0) -> None:
        self.socket_path = str(socket_path if socket_path is not None
                               else protocol.default_socket_path())
        self.server_info: Dict[str, Any] = {}
        self._stream = self._connect(timeout, retry_connect)
        self._hello()

    def _connect(self, timeout: Optional[float],
                 retry_connect: float) -> protocol.MessageStream:
        deadline = time.monotonic() + retry_connect
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(self.socket_path)
                return protocol.MessageStream(sock)
            except OSError as error:
                sock.close()
                if time.monotonic() >= deadline:
                    raise ServeError(
                        "connection",
                        f"cannot reach daemon at {self.socket_path}: {error}"
                    ) from None
                time.sleep(0.05)

    def _hello(self) -> None:
        self.server_info = self._request({
            "op": "hello", "protocol": protocol.PROTOCOL_VERSION})

    # -- transport -----------------------------------------------------------------

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._stream.send(message)
        return self._read_response()

    def _read_response(self) -> Dict[str, Any]:
        try:
            response = self._stream.recv()
        except (OSError, protocol.ProtocolError) as error:
            raise ServeError("connection", str(error)) from None
        if response is None:
            raise ServeError("connection", "daemon closed the connection")
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServeError(str(error.get("code", "internal")),
                             str(error.get("message", "daemon error")),
                             error.get("details"))
        return response

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submissions ---------------------------------------------------------------

    def submit_grid(self, grid: GridSpec, *,
                    resume: bool = True) -> Dict[str, Any]:
        """Submit a locally-built grid: expand here, plan daemon-side."""
        return self.submit_cells(grid.cells(), label=f"grid:{grid.name}",
                                 resume=resume)

    def submit_cells(self, cells: Iterable[GridCell], *, label: str = "cells",
                     resume: bool = True) -> Dict[str, Any]:
        triples = [(cell.index, cell.point, cell.spec) for cell in cells]
        return self._request({
            "op": "submit", "resume": resume,
            "job": {"kind": "cells", "label": label,
                    "cells_b64": _pickle_b64(triples)}})

    # -- job management ------------------------------------------------------------

    def poll(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "poll", "job_id": job_id})["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request({"op": "jobs"})["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "cancel", "job_id": job_id})["job"]

    def status(self) -> Dict[str, Any]:
        return self._request({"op": "status"})["server"]

    def shutdown(self, *, drain: bool = True) -> Dict[str, Any]:
        return self._request({"op": "shutdown", "drain": drain})

    # -- streaming -----------------------------------------------------------------

    def stream(self, job_id: str, *, start: int = 0
               ) -> Iterator[Dict[str, Any]]:
        """Yield the job's row dicts live, from row ``start``, until terminal.

        The connection is dedicated to the stream while iterating.  Raises
        :class:`ServeError` if the job failed, was cancelled, quarantined,
        or the daemon stopped mid-stream.
        """
        self._stream.send({"op": "stream", "job_id": job_id, "from": start})
        while True:
            response = self._read_response()
            op = response.get("op")
            if op == "row":
                yield response["row"]
            elif op == "end":
                state = response.get("state")
                if state != "done":
                    job = response.get("job") or {}
                    error = job.get("error") or {}
                    raise ServeError(
                        str(error.get("code", state)),
                        str(error.get("message", f"job ended {state}")))
                return
            else:
                raise ServeError("internal",
                                 f"unexpected stream message {op!r}")

    def run_to_completion(self, submit_response: Dict[str, Any]
                          ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Stream a submitted job to the end; returns (rows, final snapshot)."""
        job_id = submit_response["job_id"]
        rows = list(self.stream(job_id))
        return rows, self.poll(job_id)
