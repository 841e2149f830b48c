"""Process-wide interning of mini-graph templates.

Every distinct dataflow shape is interned exactly once per process and
identified by a small integer id.  The enumerator is the only caller of
:meth:`TemplateRegistry.intern_raw`: it encodes a candidate's shape as a raw
structural key (ops, packed operand references, immediates, interface arity)
and the registry builds the template only on a miss.  Everything the front
end needs about a shape is derived from that one template, once, at intern
time:

* **grouping** (selection, domain folds) keys by the interned id instead of
  re-building ``template.key()`` tuples per candidate;
* **ranking** uses :meth:`TemplateRegistry.sort_key` — ``repr(template.key())``
  computed once per distinct template — so tie-breaking is a cached string
  (or, inside the selection loop, a dense integer rank derived from it)
  rather than ``repr()`` re-evaluated per comparison.  Ranks therefore
  realise the seed's exact total order;
* **matching** (policy admission) tests the :class:`TemplateFlags` computed
  at intern time.

A shape that fails :meth:`~repro.minigraph.templates.MiniGraphTemplate.
validate` raises :class:`~repro.minigraph.templates.TemplateError` out of
:meth:`~TemplateRegistry.intern_raw` and registers nothing.

Lifetime and pool transfer
--------------------------

The registry is a process-global singleton (:data:`TEMPLATE_REGISTRY`) that
lives for the whole process, exactly like the interned decode metadata in
:mod:`repro.uarch.decode` (the :mod:`repro.program.weakcache` idiom family).
Ids are **process-local and never serialized**: artifacts (selections, MGTs)
carry the template *objects*, and a candidate strips its ``template_id`` when
pickled.  Ids are never re-established after that: a candidate is selected
only in the process that enumerated it, and selection rejects one without an
id (:meth:`repro.minigraph.policies.SelectionPolicy.filter_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .templates import MiniGraphTemplate


@dataclass(frozen=True)
class TemplateFlags:
    """Structural properties of a template, precomputed at intern time.

    These are exactly the properties a :class:`~repro.minigraph.policies.
    SelectionPolicy` inspects for admission; caching them per interned id
    turns policy filtering into flat tuple tests instead of per-candidate
    property-chain walks over the opcode table.
    """

    size: int
    has_memory: bool
    has_branch: bool
    externally_serial: bool
    internally_parallel: bool
    interior_load: bool

    @classmethod
    def of(cls, template: MiniGraphTemplate) -> "TemplateFlags":
        return cls(
            size=template.size,
            has_memory=template.has_memory,
            has_branch=template.has_branch,
            externally_serial=template.is_externally_serial,
            internally_parallel=template.is_internally_parallel,
            interior_load=template.has_interior_load,
        )


class TemplateRegistry:
    """Interns templates by raw structural key: one int id per shape."""

    __slots__ = ("_ids", "_templates", "_sort_keys", "_flags")

    def __init__(self) -> None:
        self._ids: Dict[Tuple, int] = {}            # raw structural key -> id
        self._templates: List[MiniGraphTemplate] = []
        self._sort_keys: List[str] = []             # repr(template.key()), cached
        self._flags: List[TemplateFlags] = []

    def __len__(self) -> int:
        return len(self._templates)

    def intern_raw(self, raw_key: Tuple,
                   build: Callable[[], MiniGraphTemplate]) -> int:
        """The id of the shape ``raw_key`` encodes, building it only on a miss.

        ``build`` runs only on a registry miss; a
        :class:`~repro.minigraph.templates.TemplateError` it raises
        propagates and registers nothing.  The sort key and structural flags
        are derived from the template it returns.
        """
        tid = self._ids.get(raw_key)
        if tid is None:
            template = build()
            sort_key = repr(template.key())
            flags = TemplateFlags.of(template)
            tid = len(self._templates)
            self._templates.append(template)
            self._sort_keys.append(sort_key)
            self._flags.append(flags)
            self._ids[raw_key] = tid
        return tid

    # -- lookups ------------------------------------------------------------

    def template(self, tid: int) -> MiniGraphTemplate:
        """The canonical (shared) template object for ``tid``."""
        return self._templates[tid]

    def sort_key(self, tid: int) -> str:
        """Canonical tie-break key: ``repr(template.key())`` cached at intern."""
        return self._sort_keys[tid]

    def flags(self, tid: int) -> TemplateFlags:
        return self._flags[tid]

    def ranks(self, tids: Sequence[int]) -> Dict[int, int]:
        """Dense ranks over ``tids`` in canonical-key sort order.

        Rank comparison reproduces the seed's ``repr(key)`` tie-break exactly:
        distinct shapes have distinct canonical reprs, so the order is total.
        """
        ordered = sorted(set(tids), key=self._sort_keys.__getitem__)
        return {tid: rank for rank, tid in enumerate(ordered)}


#: The process-wide registry.  Pool workers each grow their own; ids are
#: never serialized (see the module docstring).
TEMPLATE_REGISTRY = TemplateRegistry()


@dataclass
class FrontendStats:
    """Process-wide counters for the compilation front-end.

    Sampled by :class:`repro.api.Session` around the select stage (deltas are
    folded into :class:`~repro.api.session.SessionStats`, which merges across
    the process pool) and read by ``perfbench/`` for its front-end
    metrics.
    """

    enumeration_seconds: float = 0.0
    selection_seconds: float = 0.0
    candidates_enumerated: int = 0
    blocks_enumerated: int = 0
    block_memo_hits: int = 0
    block_memo_misses: int = 0
    truncated_blocks: int = 0
    dropped_candidates: int = 0

    def snapshot(self) -> "FrontendStats":
        return FrontendStats(**vars(self))

    def delta_since(self, earlier: "FrontendStats") -> "FrontendStats":
        return FrontendStats(**{name: value - getattr(earlier, name)
                                for name, value in vars(self).items()})


#: Process-wide front-end instrumentation, updated by enumeration/selection.
FRONTEND_STATS = FrontendStats()
