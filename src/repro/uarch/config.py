"""Machine configuration for the cycle-level timing model.

The defaults reproduce the paper's baseline processor (Section 6): a 6-wide,
dynamically scheduled, 15-stage superscalar with a 128-entry reorder buffer,
50-entry issue queue, 64-entry load/store queue, 164 physical registers and
the cache/predictor parameters listed in the evaluation setup.

Named constructors produce the exact configurations used by the figures:
the mini-graph configurations of Figure 6 (ALU pipelines, sliding-window
scheduler, pair-wise collapsing) and the reduced-resource configurations of
Figure 8 (smaller register files, 4-wide pipelines, 2-cycle scheduler).
The full catalog of named figure machines lives in
:mod:`repro.uarch.catalog`.

Both config dataclasses validate their geometry on construction
(:class:`ConfigError` with an actionable message, instead of silent
downstream misbehaviour), also when they are unpickled: both pickle as
their field values, and an unpickled machine is this process's one object
for its value (:mod:`repro.interning`), so its memoized key never crosses
a process.  :attr:`MachineConfig.machine_key` is the machine's *name-free*
shape with the derived fields normalized in, which the artifact cache
folds into timing keys, so two differently-named configs with the same
geometry share one timing artifact.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..interning import InternTable, digest, field_values, match_key

#: Most machines one process keeps interned; the least recently used goes
#: first.
_INTERNED_MACHINES = 256
_MACHINES = InternTable(_INTERNED_MACHINES)
#: Every integer field is below this bound, so that the timing kernel
#: (``lane_kernel.c``) keeps every geometry sum and product exact.
FIELD_LIMIT = 1 << 31


class ConfigError(ValueError):
    """Raised for malformed machine or cache geometries."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Construction validates the geometry: every dimension must be positive
    and below :data:`FIELD_LIMIT`, the capacity must divide evenly into
    ``associativity * line_bytes`` ways, and the resulting set count must
    be a power of two (the index function is a bit slice; a 384-set cache
    cannot be built).
    """

    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        fields = self.__dict__     # cheaper than getattr per field
        for name in ("size_bytes", "associativity", "line_bytes", "hit_latency"):
            value = fields[name]
            if not (isinstance(value, int) and 0 < value < FIELD_LIMIT):
                raise ConfigError(f"CacheConfig.{name} must be a positive "
                                  f"integer below 2**31, got {value!r}")
        way_bytes = self.associativity * self.line_bytes
        if self.size_bytes % way_bytes:
            raise ConfigError(
                f"CacheConfig: size_bytes ({self.size_bytes}) must be a "
                f"multiple of associativity * line_bytes ({way_bytes})")
        sets = self.size_bytes // way_bytes
        if sets & (sets - 1):
            raise ConfigError(
                f"CacheConfig: geometry {self.size_bytes}B / "
                f"{self.associativity}-way / {self.line_bytes}B lines gives "
                f"{sets} sets, which is not a power of two; adjust "
                f"size_bytes or associativity")

    @property
    def num_sets(self) -> int:
        # __post_init__ guarantees an exact, power-of-two quotient >= 1.
        return self.size_bytes // (self.associativity * self.line_bytes)

    def __reduce__(self):
        # Unpickling constructs the geometry, so it is validated again.
        return (type(self), field_values(self))


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine.

    Width/capacity attributes follow the paper's baseline; the mini-graph
    attributes select which of the paper's mechanisms are present.
    """

    name: str = "baseline-6wide"

    # Pipeline widths (instructions or handles per cycle).
    fetch_width: int = 6
    rename_width: int = 6
    issue_width: int = 6
    retire_width: int = 6

    # Pipeline depth: the paper models 15 stages; the front end (fetch through
    # dispatch) accounts for most of the depth and sets the misprediction
    # redirect penalty.
    front_end_depth: int = 7
    register_read_latency: int = 2
    scheduler_latency: int = 1

    # Window capacities.
    rob_size: int = 128
    issue_queue_size: int = 50
    lsq_size: int = 64
    physical_registers: int = 164
    architected_registers: int = 64

    # Issue mix per cycle (maximum operations of each class).
    int_alu_units: int = 4
    fp_units: int = 2
    load_ports: int = 2
    store_ports: int = 1

    # Mini-graph hardware.
    alu_pipelines: int = 0            # how many plain ALUs are replaced by ALU pipelines
    alu_pipeline_depth: int = 4
    collapsing_alu_pipelines: bool = False
    sliding_window_scheduler: bool = False
    max_memory_handles_per_cycle: int = 1
    minigraph_replay_penalty: int = 3  # extra cycles to restart a replayed graph

    # Branch prediction.
    predictor_entries: int = 4096      # per component of the hybrid predictor (~12Kb total)
    btb_entries: int = 2048
    btb_associativity: int = 4
    # Extra redirect bubble charged at branch resolution; the front-end refill
    # itself is modelled by front_end_depth, so this stays small.
    misprediction_redirect_penalty: int = 2

    # Memory hierarchy.
    icache: CacheConfig = CacheConfig(32 * 1024, 2, 32, 1)
    dcache: CacheConfig = CacheConfig(32 * 1024, 2, 32, 2)
    l2cache: CacheConfig = CacheConfig(2 * 1024 * 1024, 4, 128, 10)
    memory_latency: int = 100

    # Memory dependence prediction / ordering.
    store_set_entries: int = 2048
    ordering_violation_penalty: int = 8

    # -- validation ----------------------------------------------------------------

    def __post_init__(self) -> None:
        positive = (
            "fetch_width", "rename_width", "issue_width", "retire_width",
            "front_end_depth", "scheduler_latency",
            "rob_size", "issue_queue_size", "lsq_size",
            "physical_registers", "architected_registers",
            "int_alu_units", "load_ports", "store_ports",
            "alu_pipeline_depth", "max_memory_handles_per_cycle",
            "predictor_entries", "btb_entries", "btb_associativity",
            "memory_latency", "store_set_entries",
        )
        fields = self.__dict__     # cheaper than getattr per field
        for name in positive:
            value = fields[name]
            if not (isinstance(value, int) and 0 < value < FIELD_LIMIT):
                raise ConfigError(f"MachineConfig.{name} must be a positive "
                                  f"integer below 2**31, got {value!r}")
        non_negative = (
            "register_read_latency", "fp_units", "alu_pipelines",
            "minigraph_replay_penalty", "misprediction_redirect_penalty",
            "ordering_violation_penalty",
        )
        for name in non_negative:
            value = fields[name]
            if not (isinstance(value, int) and 0 <= value < FIELD_LIMIT):
                raise ConfigError(f"MachineConfig.{name} must be a "
                                  f"non-negative integer below 2**31, "
                                  f"got {value!r}")
        if self.physical_registers <= self.architected_registers:
            raise ConfigError(
                f"MachineConfig: physical_registers "
                f"({self.physical_registers}) must exceed "
                f"architected_registers ({self.architected_registers}); "
                f"a machine with no in-flight registers cannot rename")
        if self.alu_pipelines > self.int_alu_units:
            raise ConfigError(
                f"MachineConfig: alu_pipelines ({self.alu_pipelines}) "
                f"cannot exceed int_alu_units ({self.int_alu_units}); "
                f"ALU pipelines replace plain integer ALUs")
        # Joint front-end geometry constraints.  The predictor and BTB
        # constructors enforce these shapes themselves, but with plain
        # ValueErrors deep inside TimingSimulator construction; validating
        # here turns an off-shape geometry into the same ConfigError every
        # other bad dimension produces.  (Found by the geometry fuzz oracle:
        # see tests/test_fuzz.py quarantined-geometry regressions.)
        if self.predictor_entries & (self.predictor_entries - 1):
            raise ConfigError(
                f"MachineConfig: predictor_entries "
                f"({self.predictor_entries}) must be a power of two; the "
                f"hybrid predictor indexes its tables with a bit slice")
        if self.btb_entries % self.btb_associativity:
            raise ConfigError(
                f"MachineConfig: btb_entries ({self.btb_entries}) must be "
                f"a multiple of btb_associativity "
                f"({self.btb_associativity}); the BTB is a set-associative "
                f"array of whole sets")
        unit_mix = (self.int_alu_units + self.fp_units
                    + self.load_ports + self.store_ports)
        if self.issue_width > unit_mix:
            raise ConfigError(
                f"MachineConfig: issue_width ({self.issue_width}) exceeds "
                f"the total execution unit mix ({unit_mix} = "
                f"{self.int_alu_units} int + {self.fp_units} fp + "
                f"{self.load_ports} load + {self.store_ports} store); "
                f"the machine could never sustain its stated issue width")
        for name in ("icache", "dcache", "l2cache"):
            value = getattr(self, name)
            if not isinstance(value, CacheConfig):
                raise ConfigError(f"MachineConfig.{name} must be a "
                                  f"CacheConfig, got {type(value).__name__}")

    def __reduce__(self):
        """Pickle as the class and field values only: the unpickling process
        validates the config and derives its key itself (no memo crosses a
        process), and equal configs unpickle to one object."""
        return (_interned_machine, (type(self), field_values(self)))

    # -- derived -----------------------------------------------------------------

    @property
    def plain_alu_units(self) -> int:
        """Integer ALUs that are not ALU pipelines."""
        return max(0, self.int_alu_units - self.alu_pipelines)

    @property
    def in_flight_registers(self) -> int:
        """Physical registers available for in-flight (renamed) values."""
        return self.physical_registers - self.architected_registers

    # -- keying -------------------------------------------------------------------
    #
    # Both keys are memoized on the instance: configs are frozen, so they
    # can never change.

    @functools.cached_property
    def machine_key(self) -> Tuple[Any, ...]:
        """The canonical, *name-free* key of this machine's shape.

        Built from every dataclass field *except* ``name`` (driven by
        :func:`dataclasses.fields`, so a new knob automatically changes the
        key) with the derived quantities — plain ALUs, in-flight registers,
        per-cache set counts — normalized in.  Two configs that describe
        the same machine have the same key, so timing artifacts are cached
        per machine *shape* rather than per figure label.  The leading
        ``"MachineSpec"`` tag is part of the bytes stored keys hash.
        """
        geometry = tuple(
            (f.name, _canonical_field(getattr(self, f.name)))
            for f in dataclasses.fields(self) if f.name != "name")
        derived = (("plain_alu_units", self.plain_alu_units),
                   ("in_flight_registers", self.in_flight_registers))
        return ("MachineSpec",) + geometry + derived

    @functools.cached_property
    def machine_hash(self) -> str:
        """Stable hex digest of :attr:`machine_key` (process-independent)."""
        return digest(self.machine_key)

    # -- named variants -----------------------------------------------------------

    def with_name(self, name: str) -> "MachineConfig":
        return replace(self, name=name)

    def with_minigraph_alu_pipelines(self, count: int = 2, *,
                                     collapsing: bool = False) -> "MachineConfig":
        """Replace ``count`` plain ALUs with ALU pipelines (Figure 6 "int")."""
        suffix = "-collapse" if collapsing else ""
        return replace(self, alu_pipelines=count,
                       collapsing_alu_pipelines=collapsing,
                       name=f"{self.name}+ap{count}{suffix}")

    def with_sliding_window(self) -> "MachineConfig":
        """Add the sliding-window scheduler (Figure 6 "int-mem")."""
        return replace(self, sliding_window_scheduler=True,
                       name=f"{self.name}+slide")

    def with_physical_registers(self, total: int) -> "MachineConfig":
        """Shrink/grow the physical register file (Figure 8 top)."""
        return replace(self, physical_registers=total,
                       name=f"{self.name}-prf{total}")

    def with_width(self, width: int, *, execute_width: Optional[int] = None,
                   load_ports: Optional[int] = None) -> "MachineConfig":
        """Reduce pipeline bandwidth (Figure 8 bottom).

        ``execute_width`` optionally keeps a wider execute stage (the paper's
        "4-wide + 6-exec" configuration); ``load_ports`` adjusts load issue
        bandwidth alongside it.
        """
        execute = execute_width if execute_width is not None else width
        int_units = max(1, execute - 2)
        loads = load_ports if load_ports is not None else max(1, execute // 3)
        return replace(
            self,
            fetch_width=width, rename_width=width, retire_width=width,
            issue_width=execute,
            int_alu_units=int_units,
            load_ports=loads,
            name=f"{self.name}-{width}wide{execute}exec",
        )

    def with_scheduler_latency(self, latency: int) -> "MachineConfig":
        """Pipeline the scheduler (Figure 8 bottom, "2-cycle schedule")."""
        return replace(self, scheduler_latency=latency,
                       name=f"{self.name}-sched{latency}")


def _interned_machine(cls: type, values: Tuple[Any, ...]) -> MachineConfig:
    """Unpickle one config (:meth:`MachineConfig.__reduce__`): the
    process's object for an equal value, or a new, validated one."""
    key = match_key(values)
    return _MACHINES.get(None if key is None else (cls, key),
                         lambda: cls(*values))


def _canonical_field(value: Any) -> Any:
    """One machine-key element: caches carry their resolved set count."""
    if isinstance(value, CacheConfig):
        return ("CacheConfig", value.size_bytes, value.associativity,
                value.line_bytes, value.hit_latency, value.num_sets)
    return value


# The paper-default machines are shared: configs are frozen, so one object
# per argument keeps its memoized key for the whole process.


@functools.cache
def baseline_config() -> MachineConfig:
    """The paper's baseline 6-wide processor."""
    return MachineConfig()


@functools.cache
def integer_minigraph_config(*, collapsing: bool = False) -> MachineConfig:
    """Figure 6 "int": two ALUs replaced with 4-stage ALU pipelines."""
    return baseline_config().with_minigraph_alu_pipelines(2, collapsing=collapsing)


@functools.cache
def integer_memory_minigraph_config(*, collapsing: bool = False) -> MachineConfig:
    """Figure 6 "int-mem": ALU pipelines plus a sliding-window scheduler."""
    return integer_minigraph_config(collapsing=collapsing).with_sliding_window()
