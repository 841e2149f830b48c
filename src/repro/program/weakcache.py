"""A weak, id-keyed cache for values derived from a :class:`Program`.

Several subsystems precompile per-program state — the functional simulator's
execution plans, the timing model's decode tables — and want to share it
across every simulation of the same program without ever extending the
program's lifetime.  Programs are unhashable (and must stay picklable, so
the cache cannot live on the instance), which rules out a plain
``WeakKeyDictionary``; instead entries are keyed by ``id(program)`` with a
weakref guard:

* a hit requires the stored weakref to still point at the *same* object,
  which closes the id-reuse race after a program is collected;
* a finalizer evicts the entry when the program dies, and binds everything
  it needs as default arguments so it stays safe during interpreter
  shutdown, when module globals may already be cleared;
* cached values must not hold a strong reference back to the program, or
  the finalizer can never fire and the entry is pinned forever.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Generic, Tuple, TypeVar

from .program import Program

T = TypeVar("T")


def _evict(entries: Dict[int, Tuple["weakref.ref[Program]", object]],
           key: int, ref: "weakref.ref[Program]") -> None:
    current = entries.get(key)
    if current is not None and current[0] is ref:
        del entries[key]


class PerProgramCache(Generic[T]):
    """``program -> build(program)``, held only as long as the program lives."""

    def __init__(self, build: Callable[[Program], T]) -> None:
        self._build = build
        self._entries: Dict[int, Tuple["weakref.ref[Program]", T]] = {}

    def get(self, program: Program) -> T:
        key = id(program)
        current = self._entries.get(key)
        if current is not None and current[0]() is program:
            return current[1]
        value = self._build(program)
        ref = weakref.ref(
            program,
            lambda r, k=key, entries=self._entries, evict=_evict:
                evict(entries, k, r))
        self._entries[key] = (ref, value)
        return value
