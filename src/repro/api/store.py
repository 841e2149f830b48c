"""Content-addressed artifact store: an in-memory layer over an on-disk cache.

Keys are opaque strings produced by the :class:`~repro.api.session.Session`
from stage name, spec material and package version, so a bump of
``repro.__version__`` naturally invalidates every persisted artifact.  Values
are arbitrary picklable stage artifacts (programs, profiles, traces, MGTs,
timing statistics).

A cache directory's disk entries are the rows of one stdlib :mod:`sqlite3`
database in WAL mode, ``<cache_dir>/store.sqlite3``, with one table,
``entries (version TEXT, key TEXT, value BLOB, PRIMARY KEY (version, key))
WITHOUT ROWID``.  A store is built for one version and names it with every
key it reads or writes, so it never serves another version's row.  A put is
one autocommitted ``INSERT OR IGNORE`` of the value's pickle, a disk get one
``SELECT``, and clear and prune are ``DELETE`` statements.  Only a store with
a disk layer imports ``sqlite3``.

SQLite's own locking is the only protocol between the processes and threads
sharing the database: readers never block, writers wait up to
:data:`BUSY_TIMEOUT_S` for each other, a write cut short (a killed process)
is rolled back, and no file a live store has open is ever removed, so a row
is read whole or not at all.  A connection belongs to the process that
opened it: a forked child opens its own and never uses or closes the one it
inherited, and every SQLite call holds a lock that ``fork`` also takes.

Every value is a pickle.  A :class:`~repro.sim.trace.Trace` — bare (the
``trace`` stage) or embedded (the profile stage's trace+profile pair) —
pickles as one versioned binary codec blob through ``Trace.__reduce__``
(:func:`repro.sim.trace.encode_trace`: header + raw column bytes), never as
an object per entry.  The codec version is part of those stages' keys, so
builds with different codecs never share a row.  A row that cannot be
unpickled, whatever it holds, is a cache miss — never an error — and is
deleted.  A put never replaces an existing row: keys are content addresses,
so the row already holds the value.

The cache is an optimization and must never take the pipeline down: a value
that cannot be pickled, or a database that is locked past the timeout,
unwritable or damaged, leaves the value in the memory layer only, and no
exception escapes.  A file SQLite cannot read as a database (not one, or
damaged) is named once per process on stderr, and ``repro cache info``
says so; a store that found one stays memory-only and never opens it
again, and its :meth:`~ArtifactStore.clear` removes it.  Files of earlier
layouts (``v-<version>/`` directories and ``*.pkl`` entry files) are
neither opened nor removed.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

#: Seconds a statement waits for another connection's write before the
#: store gives up on that one disk access.
BUSY_TIMEOUT_S = 5.0

#: Run once per connection.  A WAL commit survives a killed process
#: without an fsync (``synchronous=NORMAL``); a power loss can drop the last
#: commits, which are then misses.  The page cache is capped at 64 KiB.
_SETUP = ("PRAGMA journal_mode=WAL",
          "PRAGMA synchronous=NORMAL",
          "PRAGMA cache_size=-64",
          "CREATE TABLE IF NOT EXISTS entries (version TEXT, key TEXT, "
          "value BLOB, PRIMARY KEY (version, key)) WITHOUT ROWID")
_SELECT = "SELECT value FROM entries WHERE version = ? AND key = ?"
_CONTAINS = "SELECT 1 FROM entries WHERE version = ? AND key = ?"
_INSERT = ("INSERT OR IGNORE INTO entries (version, key, value) "
           "VALUES (?, ?, ?)")
_DELETE = "DELETE FROM entries WHERE version = ? AND key = ?"
#: Every row, the other versions' rows and their value bytes.
_TALLY = ("SELECT COUNT(*), TOTAL(version != ?), "
          "TOTAL(CASE WHEN version != ? THEN LENGTH(value) END) FROM entries")

#: Held around every SQLite call and across ``fork``: a child forked while
#: another thread was inside SQLite would inherit SQLite's mutexes locked.
_SQLITE_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_SQLITE_LOCK.acquire,
                        after_in_parent=_SQLITE_LOCK.release,
                        after_in_child=_SQLITE_LOCK.release)

#: Connections a forked child inherited, kept referenced so the child never
#: closes them (SQLite connections must not cross ``fork``).
_INHERITED: List[Any] = []

#: The unreadable databases this process has named on stderr.
_REPORTED: Set[Path] = set()


def _sqlite():
    """The stdlib ``sqlite3`` module, imported on first use."""
    import sqlite3
    return sqlite3


def default_cache_dir() -> Path:
    """Cache location used by the CLI: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Hit/miss accounting for one store."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another store's accounting (a grid pool worker's)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class StoreInfo:
    """Snapshot of a store's contents (``repro cache info``)."""

    cache_dir: Optional[str]
    memory_entries: int
    disk_entries: int
    disk_bytes: int
    version: str
    stale_entries: int = 0
    stale_bytes: int = 0
    #: Why SQLite cannot read the database, when it cannot.
    unreadable: Optional[str] = None

    def render(self) -> str:
        database = [] if self.unreadable is None else [
            f"database        : unreadable ({self.unreadable}); the cache "
            f"runs in memory only"]
        return "\n".join([
            f"cache directory : {self.cache_dir or '(memory only)'}",
            *database,
            f"store version   : {self.version}",
            f"memory entries  : {self.memory_entries}",
            f"disk entries    : {self.disk_entries}",
            f"disk bytes      : {self.disk_bytes}",
            f"stale entries   : {self.stale_entries} "
            f"({self.stale_bytes} bytes: other versions' rows, which "
            f"`repro cache prune` evicts)"])


def _open(database: Path) -> Any:
    """An autocommitting connection to ``database``, set up by ``_SETUP``;
    raises ``sqlite3.Error`` when it cannot be."""
    sqlite3 = _sqlite()
    connection = sqlite3.connect(str(database), timeout=BUSY_TIMEOUT_S,
                                 isolation_level=None, check_same_thread=False)
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            for statement in _SETUP:
                connection.execute(statement)
            return connection
        except sqlite3.OperationalError as error:
            # When two processes switch a new database to WAL at once, the
            # loser's pragma fails at once ("database is locked") instead of
            # waiting out the busy timeout; the setup is idempotent.
            if "locked" not in str(error) or time.monotonic() > deadline:
                connection.close()
                raise
            time.sleep(0.001)
        except sqlite3.Error:
            connection.close()
            raise


def _size(files: List[Path]) -> int:
    total = 0
    for file in files:
        with contextlib.suppress(OSError):       # removed meanwhile
            total += file.stat().st_size
    return total


class ArtifactStore:
    """Two-level (memory + optional disk) cache for pipeline artifacts.
    Its disk rows are keyed by its version: other versions' rows are never
    read but accumulate across upgrades until :meth:`prune` deletes them."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None, *,
                 version: str) -> None:
        self._memory: Dict[str, Any] = {}
        self._cache_dir: Optional[Path] = Path(cache_dir) if cache_dir is not None else None
        self._version = version
        self._database: Optional[Path] = None if self._cache_dir is None \
            else self._cache_dir / "store.sqlite3"
        # Imported with the store, so its first disk access does not pay
        # for the import; a memory-only store never imports it.
        self._sqlite = _sqlite() if self._database is not None else None
        #: This process's connection, opened at the first disk access that
        #: finds (or, for a put, creates) the database.
        self._connection: Any = None
        self._connection_pid = 0
        #: Why SQLite could not read the file: the store then runs
        #: memory-only and never opens it again.
        self._unreadable: Optional[str] = None
        self.stats = CacheStats()

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._cache_dir

    @property
    def version(self) -> str:
        return self._version

    # -- lookup / insert -----------------------------------------------------------

    def get(self, key: str) -> Any:
        """Cached value for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        row = self._execute(_SELECT, (self._version, key))
        if row is not None:
            value = self._unpickle(key, row[0])
            if value is not MISS:
                self.stats.disk_hits += 1
                self._memory[key] = value
                return value
        self.stats.misses += 1
        return MISS

    def _unpickle(self, key: str, blob: bytes) -> Any:
        """One row's value, or :data:`MISS`."""
        try:
            return pickle.loads(blob)
        except Exception:
            # A truncated or unreadable row is just a miss.
            self.discard(key)
            return MISS

    def discard(self, key: str) -> None:
        """Drop ``key`` from both layers, so that the next put of it stores
        its value: a caller that finds a value it cannot use (a damaged
        row) discards it instead of leaving it to be found again."""
        self._memory.pop(key, None)
        self._execute(_DELETE, (self._version, key))

    def put(self, key: str, value: Any) -> None:
        """Insert ``value`` into the memory layer and, if enabled, the disk layer.

        An existing row is kept as it is: keys are content addresses, so it
        already holds this value.

        Failures are contained: an unpicklable value, or a database that is
        locked, unwritable or damaged, leaves the value served from memory
        and no exception escapes — a cache that cannot persist must degrade,
        not crash the pipeline.
        """
        self._memory[key] = value
        self.stats.puts += 1
        if self._database is None:
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unserializable artifact: stay memory-only for this value.
            return
        self._execute(_INSERT, (self._version, key, blob), create=True)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or \
            self._execute(_CONTAINS, (self._version, key)) is not None

    # -- the database --------------------------------------------------------------

    def _execute(self, statement: str, parameters: Tuple[Any, ...], *,
                 create: bool = False) -> Optional[Tuple[Any, ...]]:
        """The first row of one autocommitted statement, or ``None``: no
        row, no database (yet, unless ``create``) or a failed access."""
        if self._database is None:
            return None
        with _SQLITE_LOCK:
            connection = self._connect(create)
            if connection is None:
                return None
            try:
                return connection.execute(statement, parameters).fetchone()
            except self._sqlite.Error:
                # Locked past the timeout, unwritable or damaged.
                return None

    def _connect(self, create: bool) -> Any:
        """This process's connection, opened on first use; ``None`` when
        the database does not exist (and ``create`` is false), cannot be
        opened, or could not be read before.  The caller holds
        ``_SQLITE_LOCK``."""
        if self._unreadable is not None:
            return None
        if self._connection is not None:
            if self._connection_pid == os.getpid():
                return self._connection
            # Inherited across fork: the parent's, never to be used here.
            _INHERITED.append(self._connection)
            self._connection = None
        assert self._database is not None and self._cache_dir is not None
        if not create and not self._database.exists():
            return None
        try:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
            connection = _open(self._database)
        except (OSError, self._sqlite.Error) as error:
            # Not a database, or one this process cannot open or set up (a
            # read-only directory, a lock held past the timeout): the next
            # access tries again, unless SQLite raised exactly
            # DatabaseError, its error for a file that is damaged or not a
            # database.
            if type(error) is self._sqlite.DatabaseError:
                self._unreadable = str(error)
                if self._database not in _REPORTED:
                    _REPORTED.add(self._database)
                    print(f"repro: warning: cannot read the cache database "
                          f"{self._database} ({error}); the cache runs in "
                          f"memory only", file=sys.stderr)
            return None
        self._connection, self._connection_pid = connection, os.getpid()
        return connection

    def close(self) -> None:
        """Close this process's connection; the store remains usable (the
        next disk access reopens it)."""
        with _SQLITE_LOCK:
            connection, self._connection = self._connection, None
            if connection is not None:
                if self._connection_pid == os.getpid():
                    connection.close()
                else:
                    _INHERITED.append(connection)

    def _delete(self, where: str, parameters: Tuple[Any, ...]
                ) -> Tuple[int, int]:
        """Delete the rows ``where`` selects in one transaction, then give
        their space back; returns the ``(rows, value bytes)`` deleted."""
        if self._database is None:
            return 0, 0
        with _SQLITE_LOCK:
            connection = self._connect(False)
            if connection is None:
                return 0, 0
            try:
                with connection:
                    connection.execute("BEGIN IMMEDIATE")
                    rows, size = connection.execute(
                        f"SELECT COUNT(*), TOTAL(LENGTH(value)) FROM entries "
                        f"{where}", parameters).fetchone()
                    connection.execute(f"DELETE FROM entries {where}",
                                       parameters)
            except self._sqlite.Error:       # locked past the timeout, ...
                return 0, 0
            if rows:
                # Best effort (busy leaves the space to later puts).  In WAL
                # mode the pages VACUUM frees stay in the WAL until a
                # checkpoint.
                for statement in ("VACUUM", "PRAGMA wal_checkpoint(TRUNCATE)"):
                    with contextlib.suppress(self._sqlite.Error):
                        connection.execute(statement)
            return rows, int(size)

    # -- maintenance ---------------------------------------------------------------

    def _files(self) -> List[Path]:
        """The database and its WAL and shared-memory side files."""
        return [Path(f"{self._database}{suffix}")
                for suffix in ("", "-wal", "-shm")] if self._database else []

    def clear(self, *, memory: bool = True, disk: bool = True) -> int:
        """Drop cached artifacts: with ``disk``, every version's rows.
        Returns the number of rows removed.  Stores open in other processes
        keep their connections and find the table empty.  A database SQLite
        cannot read goes with its side files (SQLite would replay a stale
        WAL into a new database of its name), and the next put makes a new
        one."""
        if memory:
            self._memory.clear()
        if not disk:
            return 0
        removed = self._delete("", ())[0]
        if self._unreadable is not None:
            with contextlib.suppress(OSError):
                for file in self._files():
                    file.unlink(missing_ok=True)
                self._unreadable = None
        return removed

    def prune(self) -> Tuple[int, int]:
        """Delete the rows of every other ``__version__``, which this build
        never reads; returns the ``(rows, value bytes)`` removed.  A running
        store of such a version (a ``repro serve`` daemon of an older build)
        keeps working: its deleted rows are misses, recomputed on demand."""
        return self._delete("WHERE version != ?", (self._version,))

    def info(self) -> StoreInfo:
        tally = self._execute(_TALLY, (self._version, self._version))
        rows, stale_rows, stale_row_bytes = map(int, tally or (0, 0, 0))
        return StoreInfo(
            cache_dir=str(self._cache_dir) if self._cache_dir is not None else None,
            memory_entries=len(self._memory),
            disk_entries=rows,
            disk_bytes=_size(self._files()),
            version=self._version,
            stale_entries=stale_rows,
            stale_bytes=stale_row_bytes,
            unreadable=self._unreadable)
