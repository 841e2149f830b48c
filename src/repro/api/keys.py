"""Canonical keying and content hashing for cache keys.

Every cache key in :mod:`repro.api` — and the grid planner's policy
grouping key — is derived from the *fields* of the participating
dataclasses rather than from hand-maintained tuples.  Adding a field to
:class:`~repro.minigraph.policies.SelectionPolicy` or
:class:`~repro.uarch.config.MachineConfig` therefore changes the key
automatically instead of silently aliasing cache entries.

:func:`canonical_key` returns canonical material unchanged, so a key built
from canonical pieces (a spec's memoized policy key, a machine's
``machine_key``) is hashed directly with :func:`digest` instead of being
walked again.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any

from ..interning import digest, field_names, field_values


#: Exact types that are their own canonical key (an ``IntEnum`` is not).
_SCALARS = frozenset((type(None), str, int, float, bool, bytes))


class KeyError_(TypeError):
    """Raised when a value cannot be canonically keyed."""


def canonical_key(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, hashable, order-stable structure.

    Dataclasses become ``(class name, (field name, canonical value)...)``
    tuples in field declaration order; mappings are sorted by their
    canonical keys; sequences map element-wise; scalars pass through.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    names = field_names(kind)
    if names:
        return (kind.__name__,) + tuple(
            zip(names, map(canonical_key, field_values(value))))
    if dataclasses.is_dataclass(kind):   # an instance without fields
        return (kind.__name__,)
    if isinstance(value, Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            (repr(canonical_key(key)), canonical_key(item))
            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical_key(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(canonical_key(item)) for item in value))
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    raise KeyError_(f"cannot derive a canonical key from {type(value).__name__}")


def content_hash(value: Any) -> str:
    """Stable hex digest of ``value``'s canonical key."""
    return digest(canonical_key(value))
