"""Process-wide interning of mini-graph templates.

Every distinct dataflow shape — a :class:`~repro.minigraph.templates.
MiniGraphTemplate` canonical structural key — is interned exactly once per
process and identified by a small integer id.  Interning replaces the seed
code's tuple-key dicts and ``repr()``-based tie-breaking everywhere templates
are grouped, ranked, or matched:

* **grouping** (selection, domain folds) keys by the interned id instead of
  re-building ``template.key()`` tuples per candidate;
* **ranking** uses :meth:`TemplateRegistry.sort_key` — the canonical key's
  ``repr`` computed once per distinct template — so tie-breaking is a string
  cached at intern time (or, inside the selection loop, a dense integer rank
  derived from it) rather than ``repr()`` re-evaluated per comparison.  Ranks
  therefore realise the seed's exact total order;
* **matching** (policy admission) is memoized per ``(policy, id)`` on top of
  structural flags computed once at intern time.

Lifetime and pool transfer
--------------------------

The registry is a process-global singleton (:data:`TEMPLATE_REGISTRY`) that
lives for the whole process, exactly like the interned decode metadata in
:mod:`repro.uarch.decode` (the :mod:`repro.program.weakcache` idiom family).
Ids are **process-local and never serialized**: artifacts (selections, MGTs,
cached candidates) carry the template *objects*, and a worker process
re-interns them lazily on first use — :func:`candidate_template_id` caches
the id on the candidate in-process and strips it on pickling, so ids can
never leak across the :meth:`repro.api.Session.run_grid` process pool or the
on-disk artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .candidates import MiniGraphCandidate
from .templates import MiniGraphTemplate, OperandKind

_KIND_CODES = {
    OperandKind.EXTERNAL: 0,
    OperandKind.INTERNAL: 1,
    OperandKind.IMMEDIATE: 2,
    OperandKind.ZERO: 3,
}


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
    """Interns templates by canonical structural key: one int id per shape."""

    __slots__ = ("_ids", "_invalid", "_templates", "_sort_keys", "_flags",
                 "_by_objid", "_admits")

    def __init__(self) -> None:
        self._ids: Dict[Tuple, int] = {}            # raw structural key -> id
        self._invalid: Set[Tuple] = set()           # keys that fail validation
        self._templates: List[MiniGraphTemplate] = []
        self._sort_keys: List[str] = []             # repr(template.key()), cached
        self._flags: List[TemplateFlags] = []
        self._by_objid: Dict[int, int] = {}         # id(canonical object) -> id
        self._admits: Dict[object, Dict[int, bool]] = {}

    def __len__(self) -> int:
        return len(self._templates)

    # -- interning ----------------------------------------------------------

    def intern(self, template: MiniGraphTemplate) -> int:
        """Return the process-wide id of ``template``'s structural shape."""
        tid = self._by_objid.get(id(template))
        if tid is not None and self._templates[tid] is template:
            return tid
        raw = raw_template_key(template)
        tid = self._ids.get(raw)
        if tid is None:
            tid = self._register(raw, template)
        return tid

    def intern_raw(self, raw_key: Tuple,
                   build: Callable[[], Optional[Tuple[
                       MiniGraphTemplate, Optional[str], Optional["TemplateFlags"]]]]
                   ) -> Optional[int]:
        """Intern by raw structural key, building the template only on a miss.

        ``build`` runs only on a registry miss and returns ``(template,
        sort_key, flags)`` — or ``None`` for structurally invalid shapes
        (:class:`~repro.minigraph.templates.TemplateError`); invalid keys are
        memoized so a shape is validated at most once per process.  Builders
        that can derive the sort key / structural flags from the raw key
        cheaply (the enumerator) return them; passing ``None`` falls back to
        deriving them from the template itself.
        """
        tid = self._ids.get(raw_key)
        if tid is not None:
            return tid
        if raw_key in self._invalid:
            return None
        built = build()
        if built is None:
            self._invalid.add(raw_key)
            return None
        template, sort_key, flags = built
        return self._register(raw_key, template, sort_key, flags)

    def _register(self, raw_key: Tuple, template: MiniGraphTemplate,
                  sort_key: Optional[str] = None,
                  flags: Optional[TemplateFlags] = None) -> int:
        tid = len(self._templates)
        self._ids[raw_key] = tid
        self._templates.append(template)
        self._sort_keys.append(repr(template.key()) if sort_key is None
                               else sort_key)
        self._flags.append(TemplateFlags.of(template) if flags is None
                           else flags)
        self._by_objid[id(template)] = tid
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

    def admits(self, policy, tid: int) -> bool:
        """Memoized ``policy.admits_template`` on the interned shape."""
        per_policy = self._admits.get(policy)
        if per_policy is None:
            per_policy = self._admits[policy] = {}
        admitted = per_policy.get(tid)
        if admitted is None:
            admitted = per_policy[tid] = policy.admits_structure(self._flags[tid])
        return admitted


def _encode_ref(ref) -> Optional[int]:
    """Pack an OperandRef into a small int for raw structural keys."""
    if ref is None:
        return None
    return (_KIND_CODES[ref.kind] << 8) | ref.index


def raw_template_key(template: MiniGraphTemplate) -> Tuple:
    """The registry's raw structural key (bijective with ``template.key()``)."""
    return (
        tuple((t.op, _encode_ref(t.src0), _encode_ref(t.src1), t.imm)
              for t in template.instructions),
        template.num_inputs,
        template.out_index,
    )


#: The process-wide registry.  Pool workers each grow their own; ids are
#: never serialized (see the module docstring).
TEMPLATE_REGISTRY = TemplateRegistry()


def candidate_template_id(candidate: MiniGraphCandidate,
                          registry: Optional[TemplateRegistry] = None) -> int:
    """Interned template id of ``candidate``, cached on the instance.

    The cache is process-local: it is stripped when the candidate is pickled
    (pool transfer, artifact store) and lazily re-established by the first
    call in the receiving process.
    """
    tid = candidate.template_id
    if tid is None:
        tid = (registry or TEMPLATE_REGISTRY).intern(candidate.template)
        object.__setattr__(candidate, "template_id", tid)
    return tid


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
    selection_runs: int = 0

    def snapshot(self) -> "FrontendStats":
        return FrontendStats(**vars(self))

    def delta_since(self, earlier: "FrontendStats") -> "FrontendStats":
        return FrontendStats(**{name: value - getattr(earlier, name)
                                for name, value in vars(self).items()})


#: Process-wide front-end instrumentation, updated by enumeration/selection.
FRONTEND_STATS = FrontendStats()
