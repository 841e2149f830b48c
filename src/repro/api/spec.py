"""Declarative run specifications.

A :class:`RunSpec` names everything one end-to-end mini-graph run depends on:
the benchmark (or an ad-hoc :class:`~repro.program.program.Program`), the
input set, the dynamic-instruction budget, the selection policy, the MGT
build options, the machine configurations and the code-layout mode.  A spec
is a frozen value object: it normalizes into a stable content hash
(:attr:`RunSpec.spec_hash`) and into per-stage cache-key material
(:meth:`RunSpec.stage_material`), which is what makes artifact caching
content-addressed rather than identity-based.  A spec pickles as its field
values, and an unpickled spec is this process's one object for its value
(:mod:`repro.interning`): keys derived in another process never arrive
with it, and the ones derived here are derived once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..interning import InternTable, field_names, field_values, match_key
from ..minigraph.mgt import MgtBuildOptions
from ..minigraph.policies import DEFAULT_POLICY, SelectionPolicy
from ..program.program import Program
from ..sim.trace import TRACE_CODEC_VERSION
from ..uarch.config import (
    MachineConfig,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from .keys import canonical_key, content_hash, digest

#: Stage names, in pipeline order.  ``assemble`` produces the program,
#: ``profile`` the baseline functional run, ``select`` the mini-graph
#: selection, ``rewrite`` the handle-rewritten binary, ``build_mgt`` the
#: MGHT/MGST tables, ``trace`` the rewritten functional run and ``time`` a
#: cycle-level simulation.
STAGES: Tuple[str, ...] = (
    "assemble", "profile", "select", "rewrite", "build_mgt", "trace", "time",
)


#: Most specs one process keeps interned; the least recently used goes first.
_INTERNED_SPECS = 1024
_SPECS = InternTable(_INTERNED_SPECS)


class SpecError(ValueError):
    """Raised for malformed run specifications."""


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Complete declarative description of one mini-graph pipeline run.

    Equality and hashing are content-based: two specs are equal exactly when
    they resolve to the same normalized identity (including the content hash
    of an ad-hoc program), so specs are safe to use as dictionary keys.

    Attributes:
        benchmark: registered benchmark name (``repro.workloads``); may be
            ``None`` when an ad-hoc ``program`` is supplied.
        input_name: benchmark input set ("reference", "train", ...).
        budget: dynamic-instruction budget for the functional runs.
        policy: selection policy; ``None`` means a baseline-only run (no
            selection, rewriting or MGT).
        machine: timing configuration for the (mini-graph) machine; ``None``
            picks the paper's default for the policy.
        baseline_machine: reference configuration for speedups; ``None``
            means the paper's 6-wide baseline.
        mgt_options: MGHT/MGST build options; ``None`` means defaults.
        compressed_layout: model the compressed (nop-free) code layout.
        program: ad-hoc program overriding ``benchmark``; content-hashed so
            caching still works.
    """

    benchmark: Optional[str] = None
    input_name: str = "reference"
    budget: int = 15_000
    policy: Optional[SelectionPolicy] = DEFAULT_POLICY
    machine: Optional[MachineConfig] = None
    baseline_machine: Optional[MachineConfig] = None
    mgt_options: Optional[MgtBuildOptions] = None
    compressed_layout: bool = False
    program: Optional[Program] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.benchmark is None and self.program is None:
            raise SpecError("a RunSpec needs a benchmark name or a program")
        if self.benchmark is not None and self.program is not None:
            # Allowing both would cache the ad-hoc program's artifacts under
            # the registered benchmark's keys, poisoning the shared store.
            raise SpecError("a RunSpec takes a benchmark name or a program, not both")
        if self.budget <= 0:
            raise SpecError(f"budget must be positive, got {self.budget}")
        if self.policy is not None:
            if self.policy.max_templates < 1:
                raise SpecError("policy.max_templates (MGT entries) must be at "
                                f"least 1, got {self.policy.max_templates}")
            if self.policy.max_size < 2:
                raise SpecError("policy.max_size must be at least 2 (a "
                                "mini-graph has two or more instructions), "
                                f"got {self.policy.max_size}")

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def for_program(cls, program: Program, **kwargs: Any) -> "RunSpec":
        """Spec for an ad-hoc (unregistered) program."""
        return cls(program=program, **kwargs)

    def with_policy(self, policy: Optional[SelectionPolicy]) -> "RunSpec":
        return replace(self, policy=policy)

    def with_machine(self, machine: Optional[MachineConfig]) -> "RunSpec":
        return replace(self, machine=machine)

    def with_budget(self, budget: int) -> "RunSpec":
        return replace(self, budget=budget)

    def with_input(self, input_name: str) -> "RunSpec":
        return replace(self, input_name=input_name)

    def with_mgt_options(self, options: Optional[MgtBuildOptions]) -> "RunSpec":
        return replace(self, mgt_options=options)

    def with_compressed_layout(self, compressed: bool = True) -> "RunSpec":
        return replace(self, compressed_layout=compressed)

    def baseline_only(self) -> "RunSpec":
        """Variant with no mini-graphs at all."""
        return replace(self, policy=None)

    # -- resolution ----------------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable name of the run's program."""
        if self.benchmark is not None:
            return self.benchmark
        return self.program.name  # type: ignore[union-attr]

    def _memo(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()``, once per spec: the spec is frozen, so a value
        derived from it can never change."""
        try:
            return self.__dict__[name]
        except KeyError:
            value = compute()
            object.__setattr__(self, name, value)
            return value

    @property
    def source_id(self) -> str:
        """Content-addressed identity of the program source."""
        if self.benchmark is not None:
            return self.benchmark
        # Hashing walks the whole program.
        return self._memo("_source_id",
                          lambda: "adhoc-" + content_hash(self.program))

    @property
    def resolved_mgt_options(self) -> MgtBuildOptions:
        return self.mgt_options if self.mgt_options is not None else MgtBuildOptions()

    @property
    def resolved_machine(self) -> MachineConfig:
        """The machine this spec runs on (paper default for its policy)."""
        if self.machine is not None:
            return self.machine
        if self.policy is None:
            return baseline_config()
        collapsing = self.resolved_mgt_options.collapsing
        if self.policy.allow_memory:
            return integer_memory_minigraph_config(collapsing=collapsing)
        return integer_minigraph_config(collapsing=collapsing)

    @property
    def resolved_baseline_machine(self) -> MachineConfig:
        return self.baseline_machine if self.baseline_machine is not None \
            else baseline_config()

    # -- keying --------------------------------------------------------------------
    #
    # Every key component is canonicalized once per spec and memoized, so
    # the material below is canonical as built and hashes with
    # :func:`~repro.api.keys.digest` without another walk.

    @property
    def policy_key(self) -> Any:
        """Canonical key of the selection policy (``None`` for a
        baseline-only spec)."""
        return self._memo("_policy_key", lambda: canonical_key(self.policy))

    @property
    def _mgt_key(self) -> Any:
        """Canonical key of the resolved MGT build options."""
        return self._memo("_mgt_options_key",
                          lambda: canonical_key(self.resolved_mgt_options))

    def stage_material(self, stage: str) -> Tuple[Any, ...]:
        """Cache-key material for ``stage``: exactly the spec fields that
        stage's output depends on, so unrelated spec changes still share
        artifacts (e.g. every policy reuses one profile).

        The two stages whose artifacts hold a trace also name the trace
        codec version, so builds with different codecs never share a row.
        The rewritten program's functional run reads the selection's
        templates but no MGT build option, so the ``trace`` stage omits
        them and every MGT variant of a policy shares one trace."""
        source = (self.source_id, self.input_name)
        if stage == "assemble":
            return source
        if stage == "profile":
            return source + (self.budget, TRACE_CODEC_VERSION)
        if stage in ("select", "rewrite"):
            return source + (self.budget, self.policy_key)
        if stage == "trace":
            return source + (self.budget, self.policy_key, TRACE_CODEC_VERSION)
        if stage in ("build_mgt", "time"):
            return source + (self.budget, self.policy_key, self._mgt_key)
        if stage == "time_baseline":
            # Baseline timing simulates the *original* program and trace; it
            # depends on neither the policy nor the MGT options, so every
            # policy variant shares one artifact.
            return source + (self.budget,)
        raise SpecError(f"unknown stage {stage!r}; expected one of {STAGES}")

    def _identity(self) -> Tuple[Any, ...]:
        """The fully-normalized spec as a hashable tuple.

        Machines enter through their canonical
        :attr:`~repro.uarch.config.MachineConfig.machine_key` (name-free,
        derived fields normalized), so two specs differing only in a
        machine's display name are the same run.
        """
        return self._memo("_identity_key", lambda: (
            self.source_id, self.input_name, self.budget,
            self.policy_key,
            self.resolved_machine.machine_key,
            self.resolved_baseline_machine.machine_key,
            self._mgt_key,
            self.compressed_layout,
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __reduce__(self):
        """Pickle as the class and field values only: the unpickling process
        validates the spec and derives its keys itself (no memo crosses a
        process), and equal specs unpickle to one object there."""
        return (_interned_spec, (type(self), field_values(self)))

    @property
    def spec_hash(self) -> str:
        """Stable content hash of the fully-normalized spec."""
        return self._memo("_spec_hash", lambda: digest(self._identity()))

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary used by reports and the CLI."""
        return {
            "benchmark": self.label,
            "input": self.input_name,
            "budget": self.budget,
            "policy": None if self.policy is None else {
                "max_size": self.policy.max_size,
                "allow_memory": self.policy.allow_memory,
                "allow_branches": self.policy.allow_branches,
                "allow_externally_serial": self.policy.allow_externally_serial,
                "allow_internally_parallel": self.policy.allow_internally_parallel,
                "allow_interior_loads": self.policy.allow_interior_loads,
                "max_templates": self.policy.max_templates,
            },
            "machine": self.resolved_machine.name,
            "baseline_machine": self.resolved_baseline_machine.name,
            "collapsing": self.resolved_mgt_options.collapsing,
            "compressed_layout": self.compressed_layout,
            "spec_hash": self.spec_hash,
        }


def _interned_spec(cls: type, values: Tuple[Any, ...]) -> RunSpec:
    """Unpickle one spec (:meth:`RunSpec.__reduce__`): the process's object
    for an equal value, or a new, validated one.

    Machines match by identity.  The table keeps each spec, and so its
    machines, alive, so an id in a key is never another object's.  A spec
    with an ad-hoc program is never interned.
    """
    named = dict(zip(field_names(cls), values))
    key = None
    if named["program"] is None:
        machines = (id(named.pop("machine")),
                    id(named.pop("baseline_machine")))
        typed = match_key(named.values())
        if typed is not None:
            key = (cls, machines, typed)
    return _SPECS.get(key, lambda: cls(*values))
