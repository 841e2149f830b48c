"""Wire protocol of the ``repro serve`` daemon.

The daemon and its clients speak **newline-delimited JSON** over a local
stream socket (a Unix domain socket by default): every message is one JSON
object on one line, UTF-8 encoded.  A connection opens with a versioned
``hello`` handshake; after that the client sends request objects
(``op`` field) and the server answers each with exactly one response object
— except ``stream``, which dedicates the connection to a sequence of
``row`` messages terminated by one ``end`` message.

Requests
--------

========  =====================================================================
``op``    payload
========  =====================================================================
hello     ``protocol`` (int)
submit    ``job`` (a job descriptor, below), optional ``resume`` (bool:
          serve cells whose row artifact is already stored without
          re-executing them)
poll      ``job_id``
jobs      (no payload) — list every job the daemon knows about
cancel    ``job_id``
stream    ``job_id``, optional ``from`` (non-negative int row cursor,
          default 0)
status    (no payload) — daemon liveness/occupancy snapshot
shutdown  optional ``drain`` (bool, default true)
========  =====================================================================

Responses carry ``ok`` (bool) and echo ``op``; failures carry a structured
``error`` object ``{"code": ..., "message": ...}`` with one of the
:data:`ERROR_CODES`.  Backpressure is explicit: a submit against a full
queue is *rejected* with ``queue-full`` (never blocked or dropped), and a
draining daemon rejects with ``draining``.

Job descriptors
---------------

There is one job kind: ``{"kind": "cells", "cells_b64": ..., "label": ...}``
— the expanded cells of a grid (base64-pickled ``(index, point, RunSpec)``
triples, with unique int indices >= 0 and points of ``(str, value)``
pairs) from ``repro.serve.client``; the server groups them into
shared-artifact stages with the grid planner.  A spec and its machines
pickle as their field values (``RunSpec.__reduce__``), so unpickling
validates them and the daemon derives every key itself.  Malformed cells,
and specs or machines that fail validation, are rejected with
``bad-request`` and admit nothing.  Catalog grids are expanded
on the client too (``repro submit --grid``).  Any other ``kind`` —
including the ``grid`` and ``artifacts`` kinds of older daemons — is
rejected with ``bad-request``.

Pickled payloads are accepted only because the socket is local and
filesystem-permission guarded (the daemon makes the socket ``0o600`` before
it listens, and a socket directory it creates ``0o700``), so only its owner
can connect: any client that can reach the socket can run code inside
the daemon, so this protocol is not designed for untrusted networks or
mutually untrusted users.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Any, BinaryIO, Dict, Optional

#: Bump on any incompatible message-shape change; the handshake rejects
#: mismatches with ``protocol-mismatch`` instead of mis-parsing mid-stream.
#: Version 3 dropped the per-client row keys, the job ordering field and the
#: ``grid`` job kind.  Version 4 pickles specs and machines as their field
#: values, which the daemon validates and keys itself; a version-3 client's
#: pickles carry the keys its own process derived, so it fails at ``hello``.
PROTOCOL_VERSION = 4

#: Structured rejection/failure codes carried in ``error.code``.
ERROR_CODES = (
    "protocol-mismatch",   # handshake version skew
    "bad-request",         # malformed message, unknown op or job kind
    "unknown-job",         # poll/cancel/stream of an id the daemon never saw
    "queue-full",          # admission control: bounded queue at capacity
    "draining",            # daemon is draining; no new jobs accepted
    "cancelled",           # job was cancelled before/while running
    "quarantined",         # job failed twice on worker death; not retried
    "failed",              # job raised in a worker
    "internal",            # unexpected server-side error
)

#: Largest accepted message line (a pickled cells payload can be large, a
#: runaway line should still be bounded).
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


class ProtocolError(ValueError):
    """Raised on malformed or oversized wire messages."""


def default_socket_path() -> Path:
    """Daemon socket: ``$REPRO_SERVE_SOCKET`` or ``<cache-dir>/serve.sock``."""
    env = os.environ.get("REPRO_SERVE_SOCKET")
    if env:
        return Path(env)
    from ..api.store import default_cache_dir
    return default_cache_dir() / "serve.sock"


def encode_message(message: Dict[str, Any]) -> bytes:
    """One NDJSON frame: compact JSON, newline-terminated."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got "
                            f"{type(message).__name__}")
    return message


class MessageStream:
    """Blocking NDJSON framing over one connected socket."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self._reader: BinaryIO = sock.makefile("rb")
        self._writer: BinaryIO = sock.makefile("wb")

    def send(self, *messages: Dict[str, Any]) -> None:
        """Frame ``messages`` in order, in one write and one flush."""
        self._writer.write(b"".join(map(encode_message, messages)))
        self._writer.flush()

    def recv(self) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` on a cleanly closed connection."""
        line = self._reader.readline(MAX_MESSAGE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
        return decode_message(line)

    def close(self) -> None:
        # Shut the socket down before touching the buffered wrappers: a
        # thread blocked in ``readline`` holds the buffer lock, and
        # ``BufferedReader.close`` from another thread would deadlock on it.
        # Shutdown forces that read to return EOF and release the lock.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for closer in (self._reader.close, self._writer.close,
                       self._sock.close):
            try:
                closer()
            except OSError:
                pass


def error_response(op: str, code: str, message: str,
                   **details: Any) -> Dict[str, Any]:
    """A structured failure response (``code`` must be a known code)."""
    assert code in ERROR_CODES, code
    error: Dict[str, Any] = {"code": code, "message": message}
    if details:
        error["details"] = details
    return {"ok": False, "op": op, "error": error}


def ok_response(op: str, **payload: Any) -> Dict[str, Any]:
    return {"ok": True, "op": op, **payload}
