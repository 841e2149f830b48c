"""Bounded per-process interning of the value objects that memoize keys.

A :class:`~repro.api.spec.RunSpec` memoizes the keys it derives (its
policy, MGT-options and identity keys and its ``spec_hash``) on the
instance, and a :class:`~repro.uarch.config.MachineConfig` its
``machine_key`` and ``machine_hash``.  Both pickle as their class and
field values only, and unpickle through an :class:`InternTable` of their
module, so that:

* no memo crosses a process: the unpickling process derives every key
  itself, and a pickle that carries a forged key is never served the row
  of the run the key names;
* every unpickled value is constructed, so its ``__post_init__`` validates
  it (a bad config is a ``ConfigError`` where it arrives);
* an equal value unpickled again in the same process is the object that
  process already has, with its keys already derived.

Interning must never change a key.  Keys are digests of ``repr``, and
``8000 == 8000.0``, ``1 == True`` and ``0.0 == -0.0`` although their reprs
differ, so :func:`match_key` matches values by type and repr, not by
``==``.  A table holds at most ``limit`` objects and evicts the least
recently used one first.  Threads of one process (the daemon's connection
handlers) share its tables; two that unpickle one value at once may both
build it, and both get the one that went in first.

This module imports nothing else from the package, so it also holds
:func:`digest`, the one hash every key (a machine's too) goes through.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import threading
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Scalar types whose ``==`` implies an equal ``repr`` within the type.
_EXACT = frozenset((type(None), bool, int, str))

#: Held around every table's dict operations, and across ``fork``, so that
#: no child (a daemon worker) inherits it held.
_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_LOCK.acquire,
                        after_in_parent=_LOCK.release,
                        after_in_child=_LOCK.release)


def digest(material: Any) -> str:
    """Stable hex digest of ``material``, which must already be canonical
    (``canonical_key(material) == material``, with the same ``repr``)."""
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()[:24]


class _Unmatched(Exception):
    """A value :func:`match_key` cannot match exactly."""


@functools.cache
def field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass ``cls``'s field names, in declaration order (empty
    for a class that is not a dataclass)."""
    return tuple(field.name for field in fields(cls)) \
        if is_dataclass(cls) else ()


@functools.cache
def _getter(cls: type) -> Callable[[Any], Tuple[Any, ...]]:
    names = field_names(cls)
    getter = operator.attrgetter(*names)
    return getter if len(names) > 1 else lambda value: (getter(value),)


def field_values(value: Any) -> Tuple[Any, ...]:
    """The dataclass instance ``value``'s field values, in declaration
    order (one C-level getter per class, no generator per call)."""
    return _getter(type(value))(value)


def _key(values: Iterable[Any]) -> Tuple[Any, ...]:
    values = tuple(values)
    kinds = tuple(map(type, values))
    if not _EXACT.issuperset(kinds):
        values = tuple(map(_exact, values))
    return kinds, values


def _exact(value: Any) -> Any:
    """A stand-in for ``value`` that matches only values of equal repr,
    given that the key also records the value's type."""
    kind = type(value)
    if kind in _EXACT:
        return value
    if kind is float:
        return repr(value)
    if field_names(kind):
        return _key(field_values(value))
    raise _Unmatched


def match_key(values: Iterable[Any]) -> Optional[Tuple[Any, ...]]:
    """A hashable key under which two value sequences match only when each
    pair of values has the same type and the same ``repr``.

    Values are scalars (``None``, ``bool``, ``int``, ``str``, ``float``)
    or dataclasses of them, matched field by field.  Anything else gives
    ``None``: such a value is never interned.
    """
    try:
        return _key(values)
    except _Unmatched:
        return None


class InternTable:
    """One shared object per match key, for at most ``limit`` keys."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        #: In order of use, the least recently used first.
        self._entries: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with _LOCK:
            self._entries.clear()

    def get(self, key: Optional[Hashable], build: Callable[[], T]) -> T:
        """The object interned under ``key``; on a miss, ``build()``, which
        is interned first (a ``None`` key is never interned).  A miss past
        the limit evicts the least recently used entry."""
        if key is None:
            return build()
        with _LOCK:
            value = self._entries.pop(key, None)
            if value is not None:
                self._entries[key] = value
                return value
        value = build()
        with _LOCK:
            value = self._entries.setdefault(key, value)
            if len(self._entries) > self.limit:
                del self._entries[next(iter(self._entries))]
        return value
