"""``repro serve``: a long-lived simulation service.

The serve package turns the one-shot pipeline into a daemon: a persistent
pool of workers holding warm interned registries and artifact caches,
accepting grid jobs (the expanded cells of a
:class:`~repro.grid.spec.GridSpec`) over a local socket speaking
newline-delimited JSON, and streaming :class:`~repro.grid.engine.GridRow`
dicts back to clients as cells complete.  Cells are resumed, run, stored
and turned into rows by the grid engine, and run by its worker pool
(:mod:`repro.grid.pool`) from its job queue (:mod:`repro.grid.queue`),
exactly as in ``repro grid --workers N``.

Modules:

* :mod:`repro.serve.protocol` — message framing, the versioned handshake,
  job descriptors and structured error codes;
* :mod:`repro.serve.server` — the daemon: socket front end, one job queue
  and one warm pool for its life, graceful drain;
* :mod:`repro.serve.client` — the thin client library behind
  ``repro submit`` / ``repro jobs``.

Imports are lazy so ``import repro.serve`` stays cheap for clients that
only need the protocol constants.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "default_socket_path",
]


def __getattr__(name: str) -> Any:
    if name in ("PROTOCOL_VERSION", "default_socket_path"):
        from . import protocol
        return getattr(protocol, name)
    if name in ("ServeClient", "ServeError"):
        from . import client
        return getattr(client, name)
    if name == "ServeServer":
        from .server import ServeServer
        return ServeServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
