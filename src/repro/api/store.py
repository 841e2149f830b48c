"""Content-addressed artifact store: an in-memory layer over an on-disk cache.

Keys are opaque strings produced by the :class:`~repro.api.session.Session`
from stage name, spec material and package version, so a bump of
``repro.__version__`` naturally invalidates every persisted artifact.  Every
store is built for one version and keeps its disk entries in that version's
directory, ``<cache_dir>/v-<version>/``, which is what lets :meth:`ArtifactStore.
prune` evict the entries of every other version.  Values are arbitrary
picklable stage artifacts (programs, profiles, traces, MGTs, timing
statistics).

Every disk entry is a pickle.  A :class:`~repro.sim.trace.Trace` — bare (the
``trace`` stage) or embedded (the profile stage's trace+profile pair) —
pickles as one versioned binary codec blob through ``Trace.__reduce__``
(:func:`repro.sim.trace.encode_trace`: header + raw column bytes), never as
an object per entry.  A blob written by an *unknown* codec version makes the
entry a cache miss — never an error — and the entry is left on disk for the
build that wrote it; any other unreadable entry is a miss and is deleted.  A
put never replaces an existing entry: keys are content addresses, so the
entry already holds the value.

A value that cannot be serialized is kept in the memory layer and the disk
write is skipped (the temp file is cleaned up); the cache is an optimization
and must never take the pipeline down.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..sim.trace import UnknownTraceCodecVersion

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


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
            f"({self.stale_bytes} bytes from other versions; "
            f"`repro cache prune` evicts them)"])


def _version_dirname(version: str) -> str:
    """Filesystem-safe directory name for one ``repro.__version__``."""
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in version)
    return f"v-{safe}"


class ArtifactStore:
    """Two-level (memory + optional disk) cache for pipeline artifacts.

    Disk entries live under a per-version subdirectory
    (``<cache_dir>/v-<version>/``); entries from other versions are never
    read (keys embed the version anyway) but keep accumulating across
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
        #: Shared flock on this version directory's ``.lock`` while the
        #: store has written to disk; see :meth:`prune`.
        self._activity_lock_fd: Optional[int] = None
        self.stats = CacheStats()

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._cache_dir

    @property
    def version(self) -> str:
        return self._version

    # -- lookup / insert -----------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self._entry_dir is not None
        return self._entry_dir / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Cached value for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        if self._cache_dir is not None:
            path = self._path(key)
            if path.exists():
                value = self._load_disk_entry(path)
                if value is not MISS:
                    self.stats.disk_hits += 1
                    self._memory[key] = value
                    return value
        self.stats.misses += 1
        return MISS

    @staticmethod
    def _load_disk_entry(path: Path) -> Any:
        """Unpickle one disk entry, or :data:`MISS`."""
        try:
            # Stream from the handle: no whole-file copy next to the
            # deserialized object.
            with path.open("rb") as handle:
                return pickle.load(handle)
        except OSError:
            return MISS
        except UnknownTraceCodecVersion:
            # A trace blob from another build's codec: a miss for us, but
            # leave the entry for the writer (keys are version-hashed, so
            # collisions are corruption, not contention).
            return MISS
        except Exception:
            # A truncated or unreadable entry is just a miss.
            path.unlink(missing_ok=True)
            return MISS

    def put(self, key: str, value: Any) -> None:
        """Insert ``value`` into the memory layer and, if enabled, the disk layer.

        An existing disk entry is kept as it is: keys are content addresses,
        so it already holds this value.

        Serialization failures are contained: the temp file is removed, the
        value stays served from memory and no exception escapes — a cache
        that cannot persist must degrade, not crash the pipeline.
        """
        self._memory[key] = value
        self.stats.puts += 1
        if self._cache_dir is None:
            return
        path = self._path(key)
        # Write-then-rename so concurrent readers (grid pool workers sharing
        # one cache directory) never observe a partial entry.
        try:
            self._entry_dir.mkdir(parents=True, exist_ok=True)
            self._mark_active()
            if path.exists():
                return
            fd, tmp_name = tempfile.mkstemp(dir=str(self._entry_dir),
                                            suffix=".tmp")
        except OSError:
            # Unwritable cache directory: stay memory-only for this value.
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            # Unserializable artifact or failed disk write (full disk,
            # permissions): stay memory-only for this value.

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self._cache_dir is not None and self._path(key).exists()

    # -- cross-process activity locking ---------------------------------------------

    def _mark_active(self) -> None:
        """Hold a shared flock on this version directory's ``.lock``.

        Taken at the first disk write and held until :meth:`close`: it is
        the signal :meth:`prune` in *another* process (possibly another
        ``repro.__version__``) checks before deleting this directory's
        entries, closing the race where a prune sweeping "stale" versions
        deletes an entry a live store just renamed into place.
        """
        if self._activity_lock_fd is not None or fcntl is None:
            return
        try:
            lock_fd = os.open(str(self._entry_dir / ".lock"),
                              os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_SH)
        except OSError:
            os.close(lock_fd)
            return
        self._activity_lock_fd = lock_fd

    def close(self) -> None:
        """Release the activity lock; the store remains usable (the next
        disk write re-acquires it)."""
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

    def _disk_entries(self) -> Iterator[Path]:
        """Every disk entry, across all version directories (and stray
        entries at the cache root), in a deterministic order."""
        if self._cache_dir is None or not self._cache_dir.is_dir():
            return iter(())
        return iter(sorted(self._cache_dir.rglob("*.pkl")))

    def _is_current(self, path: Path) -> bool:
        """True when ``path`` belongs to this store's live entry directory."""
        return self._entry_dir is not None and path.parent == self._entry_dir

    def clear(self, *, memory: bool = True, disk: bool = True) -> int:
        """Drop cached artifacts; returns the number of disk entries removed."""
        if memory:
            self._memory.clear()
        removed = 0
        if disk:
            for path in self._disk_entries():
                path.unlink(missing_ok=True)
                removed += 1
            if self._cache_dir is not None and self._cache_dir.is_dir():
                for stray in self._cache_dir.glob("v-*/.lock"):
                    stray.unlink(missing_ok=True)
            self._remove_empty_version_dirs()
        return removed

    def prune(self) -> Tuple[int, int]:
        """Evict disk entries from *other* (stale) ``__version__``\\ s.

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
                if self._is_current(path):
                    continue
                parent = path.parent
                if parent in skipped:
                    continue
                if parent.name.startswith("v-") and parent not in claimed:
                    lock_fd = self._try_claim_for_prune(parent)
                    if lock_fd is None:
                        skipped.add(parent)
                        continue
                    claimed[parent] = lock_fd
                try:
                    freed += path.stat().st_size
                except OSError:
                    pass
                path.unlink(missing_ok=True)
                removed += 1
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
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            disk_entries += 1
            disk_bytes += size
            if not self._is_current(path):
                stale_entries += 1
                stale_bytes += size
        return StoreInfo(
            cache_dir=str(self._cache_dir) if self._cache_dir is not None else None,
            memory_entries=len(self._memory),
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
            version=self._version,
            stale_entries=stale_entries,
            stale_bytes=stale_bytes)
