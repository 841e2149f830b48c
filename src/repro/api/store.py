"""Content-addressed artifact store: an in-memory layer over an on-disk cache.

Keys are opaque strings produced by the :class:`~repro.api.session.Session`
from stage name, spec material and package version, so a bump of
``repro.__version__`` naturally invalidates every persisted artifact.  Every
store is built for one version and keeps its disk entries in that version's
database, ``<cache_dir>/v-<version>/store.sqlite3``, which is what lets
:meth:`ArtifactStore.prune` evict the entries of every other version.  Values
are arbitrary picklable stage artifacts (programs, profiles, traces, MGTs,
timing statistics).

The database is one stdlib :mod:`sqlite3` file in WAL mode with one table,
``entries (key TEXT PRIMARY KEY, value BLOB) WITHOUT ROWID``: a put is one
autocommitted ``INSERT OR IGNORE`` of the value's pickle and a disk get is
one ``SELECT``.  Only a store with a disk layer imports ``sqlite3``.  Any
number of processes and threads may share a database: readers never block,
writers wait up to :data:`BUSY_TIMEOUT_S` for each other, and a write cut
short (a killed process) is rolled back, so an entry is read whole or not at
all.  A connection belongs to the process that opened it: a forked child
opens its own and never uses or closes the one it inherited, and every
SQLite call holds a lock that ``fork`` also takes, so no child is forked
while another thread is inside SQLite.

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
exception escapes.  Earlier builds kept one ``*.pkl`` file per entry; those
files are never read, count as stale, and :meth:`ArtifactStore.prune`
removes them.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

#: A version directory's database; SQLite keeps its WAL side files next to it.
_DATABASE_NAME = "store.sqlite3"
_DATABASE_FILES = (_DATABASE_NAME, f"{_DATABASE_NAME}-wal",
                   f"{_DATABASE_NAME}-shm")

#: Seconds a statement waits for another connection's write before the
#: store gives up on that one disk access.
BUSY_TIMEOUT_S = 5.0

#: Run once per connection.  A WAL commit survives a killed process
#: without an fsync (``synchronous=NORMAL``); a power loss can drop the last
#: commits, which are then misses.  The page cache is capped at 64 KiB.
_SETUP = ("PRAGMA journal_mode=WAL",
          "PRAGMA synchronous=NORMAL",
          "PRAGMA cache_size=-64",
          "CREATE TABLE IF NOT EXISTS entries "
          "(key TEXT PRIMARY KEY, value BLOB) WITHOUT ROWID")
_SELECT = "SELECT value FROM entries WHERE key = ?"
_CONTAINS = "SELECT 1 FROM entries WHERE key = ?"
_INSERT = "INSERT OR IGNORE INTO entries (key, value) VALUES (?, ?)"
_DELETE = "DELETE FROM entries WHERE key = ?"
_COUNT = "SELECT COUNT(*) FROM entries"

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
        for name in self.as_dict():
            setattr(self, name, getattr(self, name) + getattr(other, name))


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

    def render(self) -> str:
        return "\n".join([
            f"cache directory : {self.cache_dir or '(memory only)'}",
            f"store version   : {self.version}",
            f"memory entries  : {self.memory_entries}",
            f"disk entries    : {self.disk_entries}",
            f"disk bytes      : {self.disk_bytes}",
            f"stale entries   : {self.stale_entries} "
            f"({self.stale_bytes} bytes from other versions and *.pkl "
            f"files of earlier builds; "
            f"`repro cache prune` evicts them)"])


def _version_dirname(version: str) -> str:
    """Filesystem-safe directory name for one ``repro.__version__``."""
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in version)
    return f"v-{safe}"


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


def _entry_count(path: Path) -> int:
    """Entries in one database (0 when it cannot be read), or 1 for one
    legacy ``*.pkl`` entry file."""
    if path.name != _DATABASE_NAME:
        return 1
    sqlite3 = _sqlite()
    with _SQLITE_LOCK:
        try:
            connection = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_S)
        except sqlite3.Error:
            return 0
        try:
            return connection.execute(_COUNT).fetchone()[0]
        except sqlite3.Error:
            return 0
        finally:
            connection.close()


def _entry_files(path: Path) -> List[Path]:
    """The files a database (with its WAL side files) or a legacy entry
    occupies."""
    if path.name != _DATABASE_NAME:
        return [path]
    files = [path.with_name(name) for name in _DATABASE_FILES]
    return [file for file in files if file.exists()]


def _size(files: List[Path]) -> int:
    total = 0
    for file in files:
        try:
            total += file.stat().st_size
        except OSError:
            pass
    return total


class ArtifactStore:
    """Two-level (memory + optional disk) cache for pipeline artifacts.

    Disk entries live in a per-version database
    (``<cache_dir>/v-<version>/store.sqlite3``); other versions' entries are
    never read (keys embed the version anyway) but keep accumulating across
    upgrades, so :meth:`prune` can evict every stale-version entry while
    leaving the live set intact.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None, *,
                 version: str) -> None:
        self._memory: Dict[str, Any] = {}
        self._cache_dir: Optional[Path] = Path(cache_dir) if cache_dir is not None else None
        self._version = version
        self._entry_dir: Optional[Path] = (
            self._cache_dir / _version_dirname(version)
            if self._cache_dir is not None else None)
        self._database: Optional[Path] = (
            self._entry_dir / _DATABASE_NAME
            if self._entry_dir is not None else None)
        # Imported with the store, so its first disk access does not pay
        # for the import; a memory-only store never imports it.
        self._sqlite = _sqlite() if self._database is not None else None
        #: This process's connection, opened at the first disk access that
        #: finds (or, for a put, creates) the database.
        self._connection: Any = None
        self._connection_pid = 0
        #: Shared flock on this version directory's ``.lock`` while the
        #: store has a connection open; see :meth:`prune`.
        self._activity_lock_fd: Optional[int] = None
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
        if self._database is not None:
            row = self._execute(_SELECT, (key,))
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
        if self._database is not None:
            self._execute(_DELETE, (key,))

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
        self._execute(_INSERT, (key, blob), create=True)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return (self._database is not None
                and self._execute(_CONTAINS, (key,)) is not None)

    # -- the database --------------------------------------------------------------

    def _execute(self, statement: str, parameters: Tuple[Any, ...], *,
                 create: bool = False) -> Optional[Tuple[Any, ...]]:
        """The first row of one autocommitted statement, or ``None``: no
        row, no database yet (unless ``create``), or a failed access."""
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
        the database does not exist (and ``create`` is false) or cannot be
        opened.  The caller holds ``_SQLITE_LOCK``."""
        if self._connection is not None:
            if self._connection_pid == os.getpid():
                return self._connection
            # Inherited across fork: the parent's, never to be used here.
            _INHERITED.append(self._connection)
            self._connection = None
        assert self._database is not None and self._entry_dir is not None
        if not create and not self._database.exists():
            return None
        try:
            self._entry_dir.mkdir(parents=True, exist_ok=True)
            if not self._mark_active():
                return None
            connection = _open(self._database)
        except (OSError, self._sqlite.Error):
            # Not a database, or one this process cannot open or set up (a
            # read-only directory, a lock held past the timeout): the next
            # access tries again.
            return None
        self._connection, self._connection_pid = connection, os.getpid()
        return connection

    # -- cross-process activity locking ---------------------------------------------

    def _mark_active(self) -> bool:
        """Hold a shared flock on this version directory's ``.lock``.

        Taken when the store opens its connection and held until
        :meth:`close`: it is the signal :meth:`prune` in *another* process
        (possibly another ``repro.__version__``) checks before deleting
        this directory's database, so a prune sweeping "stale" versions
        never deletes a database a live store is reading or writing.
        False while a prune holds the directory: the store does not wait
        (it holds ``_SQLITE_LOCK``) and skips the disk for this access.
        """
        if self._activity_lock_fd is not None or fcntl is None:
            return True
        try:
            lock_fd = os.open(str(self._entry_dir / ".lock"),
                              os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return True
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
        except OSError as error:
            os.close(lock_fd)
            return not isinstance(error, BlockingIOError)
        self._activity_lock_fd = lock_fd
        return True

    def close(self) -> None:
        """Close this process's connection and release the activity lock;
        the store remains usable (the next disk access reopens both)."""
        with _SQLITE_LOCK:
            connection, self._connection = self._connection, None
            if connection is not None:
                if self._connection_pid == os.getpid():
                    connection.close()
                else:
                    _INHERITED.append(connection)
            if self._activity_lock_fd is not None:
                os.close(self._activity_lock_fd)
                self._activity_lock_fd = None

    def _try_claim_for_prune(self, directory: Path) -> Optional[int]:
        """Exclusively lock a stale version directory, or ``None`` if a live
        store holds its shared activity lock.  ``-1`` means no lockfile
        discipline applies (no fcntl, or a pre-lockfile directory)."""
        if fcntl is None:
            return -1
        try:
            lock_fd = os.open(str(directory / ".lock"),
                              os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return -1
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(lock_fd)
            return None
        return lock_fd

    # -- maintenance ---------------------------------------------------------------

    def _disk_entries(self) -> List[Path]:
        """Every version's database and every legacy ``*.pkl`` entry file
        (in any version directory or at the cache root), in a deterministic
        order."""
        if self._cache_dir is None or not self._cache_dir.is_dir():
            return []
        return sorted([*self._cache_dir.glob(f"v-*/{_DATABASE_NAME}"),
                       *self._cache_dir.rglob("*.pkl")])

    def clear(self, *, memory: bool = True, disk: bool = True) -> int:
        """Drop cached artifacts; returns the number of disk entries removed."""
        if memory:
            self._memory.clear()
        removed = 0
        if disk:
            self.close()
            for path in self._disk_entries():
                removed += _entry_count(path)
                for file in _entry_files(path):
                    file.unlink(missing_ok=True)
            if self._cache_dir is not None and self._cache_dir.is_dir():
                for stray in self._cache_dir.glob("v-*/.lock"):
                    stray.unlink(missing_ok=True)
            self._remove_empty_version_dirs()
        return removed

    def prune(self) -> Tuple[int, int]:
        """Evict the databases of *other* (stale) ``__version__``\\ s and
        every legacy ``*.pkl`` entry file.

        Version-hashed keys mean those entries can never be served again by
        this build; pruning reclaims the space without touching the live
        set.  Returns ``(entries_removed, bytes_removed)``.

        Concurrent-safe against live stores: a version directory whose
        shared activity lock (see :meth:`_mark_active`) is held by any
        process — e.g. a ``repro serve`` daemon of an older build still
        writing entries — is skipped entirely rather than swept mid-write.
        """
        removed = 0
        freed = 0
        skipped: set = set()
        claimed: Dict[Path, int] = {}
        try:
            for path in self._disk_entries():
                if path == self._database:
                    continue
                parent = path.parent
                if parent in skipped:
                    continue
                if (parent.name.startswith("v-") and parent != self._entry_dir
                        and parent not in claimed):
                    lock_fd = self._try_claim_for_prune(parent)
                    if lock_fd is None:
                        skipped.add(parent)
                        continue
                    claimed[parent] = lock_fd
                removed += _entry_count(path)
                files = _entry_files(path)
                freed += _size(files)
                for file in files:
                    file.unlink(missing_ok=True)
            for directory, lock_fd in claimed.items():
                if lock_fd != -1:
                    (directory / ".lock").unlink(missing_ok=True)
        finally:
            for lock_fd in claimed.values():
                if lock_fd != -1:
                    os.close(lock_fd)
        self._remove_empty_version_dirs()
        return removed, freed

    def _remove_empty_version_dirs(self) -> None:
        if self._cache_dir is None or not self._cache_dir.is_dir():
            return
        for child in self._cache_dir.iterdir():
            if child.is_dir() and child.name.startswith("v-"):
                try:
                    child.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    def info(self) -> StoreInfo:
        disk_entries = 0
        disk_bytes = 0
        stale_entries = 0
        stale_bytes = 0
        for path in self._disk_entries():
            entries = _entry_count(path)
            size = _size(_entry_files(path))
            disk_entries += entries
            disk_bytes += size
            if path != self._database:
                stale_entries += entries
                stale_bytes += size
        return StoreInfo(
            cache_dir=str(self._cache_dir) if self._cache_dir is not None else None,
            memory_entries=len(self._memory),
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
            version=self._version,
            stale_entries=stale_entries,
            stale_bytes=stale_bytes)
