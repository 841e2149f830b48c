"""Build and load the package's compiled cores.

Two C sources run the hot loops: ``uarch/lane_kernel.c`` (the timing
kernel behind :func:`repro.uarch.pipeline.simulate_program`) and
``sim/functional_kernel.c`` (the functional core behind
:func:`repro.sim.functional.run_program`).  Both are compiled together into
one shared library with the system C compiler the first time either is
needed — never at import — and called through :mod:`ctypes`:

* the library is cached in this package's ``__pycache__`` under a name keyed
  by a hash of both sources and the compiler command, written to a
  temporary file and moved into place with :func:`os.replace`, so processes
  that build at the same moment each load a complete library; when that
  directory is not writable the library is built into a per-process
  temporary directory instead;
* :func:`library` loads it once per process, with every entry point's C
  signature bound (:data:`ENTRY_POINTS`);
* without a working compiler :func:`library` returns None and each caller
  runs its pure-Python reference, which gives the same results and errors,
  only slower.

This module imports nothing else from the package, so either core can bind
its entry point from it without an import cycle.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from contextlib import ExitStack
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Tuple

#: The C sources, relative to this package, in link order.
SOURCES = ("uarch/lane_kernel.c", "sim/functional_kernel.c")
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
LIBS = ("-lm",)
#: Where built libraries are cached: this package's own ``__pycache__``.
CACHE_DIR = Path(__file__).with_name("__pycache__")

_P = ctypes.c_void_p
#: Every exported function: name -> (result type, argument types).  Struct
#: arguments are passed as ``ctypes.byref`` pointers.
ENTRY_POINTS = {
    "repro_lane_run": (ctypes.c_int, (_P, _P, ctypes.c_int64, _P)),
    "repro_functional_run": (ctypes.c_int, (_P, ctypes.c_int64, _P)),
    "repro_functional_free": (None, (_P,)),
}

_UNTRIED = object()
_library: Any = _UNTRIED
_lock = threading.Lock()


def find_compiler() -> Optional[str]:
    """The system C compiler on ``PATH``, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def library() -> Optional[ctypes.CDLL]:
    """The loaded shared library, or None without one.

    Built and loaded once per process, on first call; later calls (from any
    thread) reuse the outcome.
    """
    global _library
    if _library is _UNTRIED:
        with _lock:
            if _library is _UNTRIED:
                _library = _load()
    return _library


def _load() -> Optional[ctypes.CDLL]:
    compiler = find_compiler()
    if compiler is None:
        return None
    command = (compiler,) + CFLAGS
    sources = [_resource(path) for path in SOURCES]
    digest = hashlib.sha256()
    try:
        for source in sources:
            digest.update(source.read_bytes())
    except OSError:
        return None     # an install without its C sources
    digest.update("\0".join(command + LIBS).encode())
    name = f"native-{digest.hexdigest()[:16]}.so"
    built = CACHE_DIR / name
    try:
        if not built.is_file():
            built.parent.mkdir(exist_ok=True)
            if not _compile(command, sources, built):
                return None
        return _open(built)
    except OSError:
        pass    # the package cache cannot be written (or holds a bad file)
    scratch = Path(tempfile.mkdtemp(prefix="repro-native-"))
    try:
        built = scratch / name
        return _open(built) if _compile(command, sources, built) else None
    finally:
        # The loaded mapping outlives the file.
        shutil.rmtree(scratch, ignore_errors=True)


def _resource(path: str) -> Any:
    """The package resource at ``path`` (``/``-separated, package-relative)."""
    resource = resources.files(__package__)
    for part in path.split("/"):
        resource = resource.joinpath(part)
    return resource


def _compile(command: Tuple[str, ...], sources: Any, built: Path) -> bool:
    """Compile ``sources`` into ``built`` atomically; False if it fails.

    Raises :class:`OSError` when ``built``'s directory is not writable.
    """
    handle, partial = tempfile.mkstemp(dir=built.parent, prefix=built.name,
                                       suffix=".tmp")
    os.close(handle)
    try:
        with ExitStack() as stack:
            paths = [str(stack.enter_context(resources.as_file(source)))
                     for source in sources]
            result = subprocess.run(
                [*command, "-o", partial, *paths, *LIBS],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False, timeout=300)
        if result.returncode != 0:
            return False
        os.replace(partial, built)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _open(built: Path) -> ctypes.CDLL:
    loaded = ctypes.CDLL(str(built))
    for name, (restype, argtypes) in ENTRY_POINTS.items():
        entry = getattr(loaded, name)
        entry.restype = restype
        entry.argtypes = argtypes
    return loaded
