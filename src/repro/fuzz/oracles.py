"""The seven differential oracles run against each generated program.

Every oracle is a named pure function ``(FuzzContext) -> OracleResult``;
:data:`ORACLES` is the pluggable registry the harness, the CLI and the
corpus replayer all draw from.  A :class:`FuzzContext` lazily computes and
memoizes the expensive intermediates (program, baseline functional run,
selection, rewritten run), so running all seven oracles on one seed costs a
single trip through the pipeline.

The oracle matrix:

``rewrite``
    The rewritten program's architectural behaviour under the functional
    simulator must equal the original's: identical memory image, committed
    instruction count and halt state, with no more committed slots.  Its
    trace must also carry the original's memory-access stream and control
    stream (:func:`memory_access_stream`, :func:`control_stream`): the
    enumerator anchors a branch-bearing graph at its branch, keeps control
    transfers terminal and never moves a memory member across another
    memory operation, so handles reorder neither.  (Final
    registers are deliberately *not* compared wholesale: interior values
    that liveness proves dead at exit are never materialized by the
    rewritten program — the paper's transient-value optimisation.  The
    generator therefore stores its whole working set to memory before
    halting, which folds the live register state into the compared image.)
``selection``
    Heap-driven :func:`~repro.minigraph.selection.select_minigraphs` must be
    bit-identical to the retained quadratic
    :func:`~repro.minigraph.selection.select_minigraphs_reference` —
    template keys, instance sets, benefits, pick order.
``timing``
    The timing pipeline is trace-driven, so its committed stream must match
    the functional commit stream exactly: every trace entry retires (slots
    == trace length, instructions == the functional run's executed
    instructions) for both the baseline and the rewritten run, within a
    cycle watchdog that catches scheduler deadlocks.
``codec``
    ``decode_trace(encode_trace(t))`` must reproduce every column of both
    the baseline and the rewritten trace bit-exactly.
``geometry``
    Seeded random :class:`~repro.uarch.config.MachineConfig` geometries
    must either be rejected with :class:`~repro.uarch.config.ConfigError`
    at construction/admission, or complete a timing run without
    deadlocking.  Any other exception — or hitting the cycle watchdog —
    is a finding.
``kernel``
    The compiled timing kernel behind
    :func:`~repro.uarch.pipeline.simulate_program` must equal the reference
    :class:`~repro.uarch.pipeline.TimingSimulator` machine for machine:
    identical :class:`~repro.uarch.stats.PipelineStats`, or the same error
    (admission ``ConfigError``, scheduler ``TimingError``) by type and
    message.  The machines are the baseline plus seeded random geometries
    on the baseline trace, and the policy machine plus the same geometries
    on the mini-graph trace.
``functional``
    The compiled functional core behind
    :func:`~repro.sim.functional.run_program` must equal the reference
    :class:`~repro.sim.functional.FunctionalSimulator` on the baseline and
    the rewritten program: the same trace codec bytes, instruction and
    entry counts, halt state, registers, memory words and profile counts
    (both in order), or the same error by type and message.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..minigraph import MiniGraphTable
from ..minigraph.policies import DEFAULT_POLICY
from ..minigraph.selection import select_minigraphs, select_minigraphs_reference
from ..program import rewrite_program
from ..sim import FunctionalResult, FunctionalSimulator, run_program
from ..sim.trace import (TF_CONTROL, TF_MEMORY, TF_TAKEN, Trace, TraceColumns,
                         decode_trace, encode_trace)
from ..uarch.config import ConfigError, MachineConfig, baseline_config
from ..uarch.pipeline import TimingError, TimingSimulator, simulate_program
from .generator import SYNTH_BUDGET, SplitMix64, SynthSpec, generate_program


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle on one generated program."""

    oracle: str
    ok: bool
    detail: str = ""


class FuzzContext:
    """Lazily-computed pipeline intermediates shared by the oracles."""

    def __init__(self, spec: SynthSpec, *, input_name: str = "reference",
                 budget: Optional[int] = None) -> None:
        self.spec = spec
        self.input_name = input_name
        self.budget = budget if budget is not None else SYNTH_BUDGET
        self._cache: Dict[str, Any] = {}

    def _memo(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def program(self):
        return self._memo("program", lambda: generate_program(
            self.spec, self.input_name))

    @property
    def baseline(self):
        """Baseline functional run of the original program (with trace)."""
        return self._memo("baseline", lambda: run_program(
            self.program, max_instructions=self.budget))

    @property
    def selection(self):
        return self._memo("selection", lambda: select_minigraphs(
            self.program, self.baseline.profile, policy=DEFAULT_POLICY))

    @property
    def selection_reference(self):
        return self._memo("selection_reference",
                          lambda: select_minigraphs_reference(
                              self.program, self.baseline.profile,
                              policy=DEFAULT_POLICY))

    @property
    def mgt(self):
        return self._memo("mgt", lambda: MiniGraphTable.from_selection(
            self.selection))

    @property
    def rewritten(self):
        return self._memo("rewritten", lambda: rewrite_program(
            self.program, self.selection.rewrite_sites()).program)

    @property
    def rewritten_run(self):
        return self._memo("rewritten_run", lambda: run_program(
            self.rewritten, mgt=self.mgt, max_instructions=self.budget))

    def watchdog_cycles(self, trace_length: int) -> int:
        """Cycle budget that catches deadlocks without false positives.

        A live pipeline retires at worst a few entries per hundred cycles
        (memory latency 100, FP divide 12); 200 cycles per entry plus slack
        is orders of magnitude above any real run and orders of magnitude
        below the 5M-cycle default.
        """
        return 200 * max(1, trace_length) + 20_000


def _fingerprint(selection) -> Dict[str, Any]:
    """Canonical selection summary (mirrors the selection-core tests)."""
    return {
        "picks": [(selected.mgid, selected.template.key(),
                   [instance.member_indices
                    for instance in selected.instances],
                   selected.dynamic_benefit)
                  for selected in selection.selected],
        "covered": selection.covered_dynamic_instructions,
        "candidates": selection.candidate_count,
        "truncated": selection.truncated,
        "dropped": selection.dropped_candidates,
    }


# -- oracle 1: rewritten == original under the functional simulator -------------


def memory_access_stream(trace: Trace) -> List[Tuple[int, int]]:
    """``(TF_LOAD/TF_STORE bits, effective address)`` of every entry that
    touches memory, in commit order."""
    columns = trace.columns()
    return [(flags & TF_MEMORY, address) for flags, address
            in zip(columns.flags, columns.effective_address)
            if flags & TF_MEMORY]


def control_stream(trace: Trace) -> List[Tuple[int, int]]:
    """``(next_pc, TF_TAKEN bit)`` of every control entry, halt included, in
    commit order."""
    columns = trace.columns()
    return [(next_pc, flags & TF_TAKEN) for flags, next_pc
            in zip(columns.flags, columns.next_pc) if flags & TF_CONTROL]


def _stream_divergence(name: str, rewritten: List[Tuple[int, int]],
                       original: List[Tuple[int, int]]) -> Optional[str]:
    if rewritten == original:
        return None
    for position, (mine, theirs) in enumerate(zip(rewritten, original)):
        if mine != theirs:
            return (f"{name} stream diverged at element {position}: "
                    f"{mine} vs {theirs}")
    return f"{name} stream has {len(rewritten)} elements vs {len(original)}"


def oracle_rewrite(ctx: FuzzContext) -> OracleResult:
    baseline = ctx.baseline
    if not baseline.halted:
        return OracleResult("rewrite", False,
                            f"baseline did not halt within {ctx.budget} "
                            f"instructions — generator termination bound "
                            f"violated")
    result = ctx.rewritten_run
    problems: List[str] = []
    if result.memory.checksum() != baseline.memory.checksum():
        problems.append("memory image diverged")
    if result.instructions_executed != baseline.instructions_executed:
        problems.append(
            f"committed {result.instructions_executed} original "
            f"instructions vs {baseline.instructions_executed}")
    if not result.halted:
        problems.append("rewritten program did not halt")
    if result.entries_committed > baseline.entries_committed:
        problems.append(
            f"rewritten committed more slots ({result.entries_committed}) "
            f"than the original ({baseline.entries_committed})")
    if result.halted:
        for name, stream in (("memory-access", memory_access_stream),
                             ("control", control_stream)):
            divergence = _stream_divergence(name, stream(result.trace),
                                            stream(baseline.trace))
            if divergence is not None:
                problems.append(divergence)
    if problems:
        return OracleResult("rewrite", False, "; ".join(problems))
    return OracleResult("rewrite", True)


# -- oracle 2: heap-driven selection == quadratic reference ---------------------


def oracle_selection(ctx: FuzzContext) -> OracleResult:
    fast = _fingerprint(ctx.selection)
    reference = _fingerprint(ctx.selection_reference)
    if fast != reference:
        detail = "selection fingerprints differ"
        fast_picks, ref_picks = fast["picks"], reference["picks"]
        if len(fast_picks) != len(ref_picks):
            detail += (f": {len(fast_picks)} picks vs "
                       f"{len(ref_picks)} reference picks")
        else:
            for index, (a, b) in enumerate(zip(fast_picks, ref_picks)):
                if a != b:
                    detail += f": first divergence at pick {index}"
                    break
            else:
                detail += ": totals differ"
        return OracleResult("selection", False, detail)
    return OracleResult("selection", True)


# -- oracle 3: timing commit stream == functional commit stream -----------------


def _timing_check(ctx: FuzzContext, program, run: FunctionalResult, mgt,
                  label: str, config: MachineConfig) -> Optional[str]:
    trace = run.trace
    watchdog = ctx.watchdog_cycles(len(trace))
    try:
        stats = simulate_program(program, trace, config, mgt=mgt,
                                 max_cycles=watchdog)
    except TimingError as error:
        return f"{label}: timing pipeline stalled or rejected: {error}"
    if stats.committed_slots != len(trace):
        return (f"{label}: committed {stats.committed_slots} slots, trace "
                f"has {len(trace)}")
    if stats.committed_instructions != run.instructions_executed:
        return (f"{label}: committed {stats.committed_instructions} "
                f"instructions, functional run executed "
                f"{run.instructions_executed}")
    return None


def oracle_timing(ctx: FuzzContext) -> OracleResult:
    config = baseline_config()
    problem = _timing_check(ctx, ctx.program, ctx.baseline, None,
                            "baseline", config)
    if problem is None and ctx.selection.selected:
        from ..api.spec import RunSpec

        machine = RunSpec(benchmark=ctx.spec.name,
                          policy=DEFAULT_POLICY).resolved_machine
        problem = _timing_check(ctx, ctx.rewritten, ctx.rewritten_run,
                                ctx.mgt, "minigraph", machine)
    if problem is not None:
        return OracleResult("timing", False, problem)
    return OracleResult("timing", True)


# -- oracle 4: trace codec round-trip -------------------------------------------


def _codec_check(trace, label: str) -> Optional[str]:
    decoded = decode_trace(encode_trace(trace))
    before = trace.columns()
    after = decoded.columns()
    for column in TraceColumns._fields:
        if getattr(before, column) != getattr(after, column):
            return f"{label}: column {column!r} changed across the codec"
    return None


def oracle_codec(ctx: FuzzContext) -> OracleResult:
    problem = _codec_check(ctx.baseline.trace, "baseline")
    if problem is None and ctx.selection.selected:
        problem = _codec_check(ctx.rewritten_run.trace, "rewritten")
    if problem is not None:
        return OracleResult("codec", False, problem)
    return OracleResult("codec", True)


# -- oracle 5: machine geometry fuzzing -----------------------------------------

#: Geometries sampled per seed.  Each is either rejected with ConfigError or
#: simulated to completion under the watchdog.
_GEOMETRIES_PER_SEED = 4

#: Cache shapes the sampler draws from: mostly valid, some off-shape (the
#: off-shape ones must be *rejected*, not crash downstream).
_CACHE_SHAPES: Tuple[Tuple[int, int, int, int], ...] = (
    (16 * 1024, 2, 32, 1), (32 * 1024, 2, 32, 1), (32 * 1024, 4, 64, 2),
    (8 * 1024, 1, 32, 1), (64 * 1024, 8, 64, 3),
    (24 * 1024, 2, 32, 1),     # 384 sets: not a power of two
    (32 * 1024, 3, 32, 2),     # does not divide into ways
)


def sample_geometry(rng: SplitMix64) -> Dict[str, Any]:
    """One random machine geometry, deliberately spanning invalid shapes."""
    int_alus = 1 + rng.below(6)
    geometry: Dict[str, Any] = {
        "name": "fuzz-geometry",
        "fetch_width": 1 + rng.below(8),
        "rename_width": 1 + rng.below(8),
        "issue_width": 1 + rng.below(8),
        "retire_width": 1 + rng.below(8),
        "front_end_depth": 1 + rng.below(10),
        "register_read_latency": rng.below(4),
        "scheduler_latency": 1 + rng.below(3),
        "rob_size": 8 + rng.below(249),
        "issue_queue_size": 4 + rng.below(61),
        "lsq_size": 4 + rng.below(61),
        "physical_registers": 66 + rng.below(191),
        "int_alu_units": int_alus,
        "fp_units": rng.below(5),
        "load_ports": 1 + rng.below(3),
        "store_ports": 1 + rng.below(2),
        "alu_pipelines": rng.below(int_alus + 1),
        "predictor_entries": (1 << (6 + rng.below(8))) if rng.chance(80)
        else 100 + rng.below(5000),
        "btb_entries": 1 + rng.below(4096),
        "btb_associativity": 1 + rng.below(8),
        "memory_latency": 20 + rng.below(200),
        "store_set_entries": 1 << (4 + rng.below(8)),
    }
    if rng.chance(50):
        # Stored as a raw shape tuple; the oracle constructs the
        # CacheConfig inside its try block so off-shape caches exercise
        # the validated-rejection path rather than crashing the sampler.
        geometry["dcache"] = rng.choice(_CACHE_SHAPES)
    return geometry


def oracle_geometry(ctx: FuzzContext) -> OracleResult:
    rng = SplitMix64((ctx.spec.seed * 2 + 1) ^ 0xC0FFEE5EED5EED5E)
    trace = ctx.baseline.trace
    for attempt in range(_GEOMETRIES_PER_SEED):
        geometry = sample_geometry(rng)
        shape = geometry.get("dcache")
        started = time.perf_counter()
        try:
            if isinstance(shape, tuple):
                from ..uarch.config import CacheConfig
                geometry["dcache"] = CacheConfig(*shape)
            config = MachineConfig(**geometry)
            simulate_program(ctx.program, trace, config,
                             max_cycles=ctx.watchdog_cycles(len(trace)))
        except ConfigError:
            continue            # validated rejection: exactly what we want
        except TimingError as error:
            wall = time.perf_counter() - started
            return OracleResult(
                "geometry", False,
                f"attempt {attempt}: geometry passed validation but the "
                f"scheduler deadlocked after {wall:.1f}s: {error} "
                f"(geometry: {_geometry_summary(geometry)})")
        except Exception as error:  # noqa: BLE001 - any crash is a finding
            return OracleResult(
                "geometry", False,
                f"attempt {attempt}: {type(error).__name__} escaped "
                f"validation: {error} "
                f"(geometry: {_geometry_summary(geometry)})")
    return OracleResult("geometry", True)


def _geometry_summary(geometry: Dict[str, Any]) -> str:
    interesting = ("fp_units", "alu_pipelines", "int_alu_units",
                   "predictor_entries", "btb_entries", "btb_associativity",
                   "issue_width", "physical_registers")
    parts = [f"{key}={geometry[key]}" for key in interesting]
    if "dcache" in geometry:
        parts.append(f"dcache={geometry['dcache']!r}")
    return ", ".join(parts)


# -- oracle 6: compiled kernel == reference simulator ---------------------------

#: Random geometries timed beside the baseline machine: divergent widths, unit
#: mixes, cache/predictor shapes and inadmissible fp_units=0 machines.
_KERNEL_SAMPLED_MACHINES = 3


def _outcome(run: Callable[[], Any]):
    """A timing run's stats as a dict, or its error as ``(type, message)``."""
    try:
        return asdict(run())
    except (ConfigError, TimingError) as error:
        return (type(error).__name__, str(error))


def _kernel_check(ctx: FuzzContext, program, trace, mgt, label: str,
                  configs: Sequence[MachineConfig]) -> Optional[str]:
    watchdog = ctx.watchdog_cycles(len(trace))
    for index, config in enumerate(configs):
        expect = _outcome(lambda: TimingSimulator(
            program, trace, config, mgt=mgt).run(max_cycles=watchdog))
        got = _outcome(lambda: simulate_program(
            program, trace, config, mgt=mgt, max_cycles=watchdog))
        if got == expect:
            continue
        machine = f"{label}: machine {index} ({config.name})"
        if isinstance(expect, dict) and isinstance(got, dict):
            diffs = [name for name in expect if got[name] != expect[name]]
            return (f"{machine}: kernel stats diverged from TimingSimulator "
                    f"in {', '.join(diffs)}")
        return f"{machine}: kernel {got!r} vs TimingSimulator {expect!r}"
    return None


def oracle_kernel(ctx: FuzzContext) -> OracleResult:
    rng = SplitMix64((ctx.spec.seed * 2 + 1) ^ 0xBA7C8ED51DE5EED5)
    configs: List[MachineConfig] = [baseline_config()]
    for _ in range(_KERNEL_SAMPLED_MACHINES):
        geometry = sample_geometry(rng)
        shape = geometry.get("dcache")
        try:
            if isinstance(shape, tuple):
                from ..uarch.config import CacheConfig
                geometry["dcache"] = CacheConfig(*shape)
            config = MachineConfig(**geometry)
        except ConfigError:
            continue        # construction-time rejection is geometry's domain
        configs.append(config)
    problem = _kernel_check(ctx, ctx.program, ctx.baseline.trace, None,
                            "baseline", configs)
    if problem is None and ctx.selection.selected:
        from ..api.spec import RunSpec

        machine = RunSpec(benchmark=ctx.spec.name,
                          policy=DEFAULT_POLICY).resolved_machine
        problem = _kernel_check(ctx, ctx.rewritten, ctx.rewritten_run.trace,
                                ctx.mgt, "minigraph", [machine] + configs)
    if problem is not None:
        return OracleResult("kernel", False, problem)
    return OracleResult("kernel", True)


# -- oracle 7: compiled functional core == reference simulator ------------------


def _functional_outcome(run: Callable[[], Any]):
    """A functional run's observable state as a dict, or its error as
    ``(type, message)``."""
    try:
        result = run()
    except Exception as error:  # noqa: BLE001 - errors must match too
        return (type(error).__name__, str(error))
    return {
        "trace": encode_trace(result.trace),
        "instructions_executed": result.instructions_executed,
        "entries_committed": result.entries_committed,
        "halted": result.halted,
        "registers": result.registers,
        "memory": list(result.memory.words.items()),
        "profile": list(result.profile.counts.items()),
    }


def _functional_check(label: str, compiled: Callable[[], Any], program, mgt,
                      budget: int) -> Optional[str]:
    got = _functional_outcome(compiled)
    expect = _functional_outcome(lambda: FunctionalSimulator(
        program, mgt=mgt).run(max_instructions=budget))
    if got == expect:
        return None
    if isinstance(got, dict) and isinstance(expect, dict):
        diffs = [name for name in expect if got[name] != expect[name]]
        return (f"{label}: run_program diverged from FunctionalSimulator in "
                f"{', '.join(diffs)}")
    return f"{label}: run_program {got!r:.200} vs FunctionalSimulator " \
           f"{expect!r:.200}"


def oracle_functional(ctx: FuzzContext) -> OracleResult:
    problem = _functional_check("baseline", lambda: ctx.baseline, ctx.program,
                                None, ctx.budget)
    if problem is None and ctx.selection.selected:
        problem = _functional_check("rewritten", lambda: ctx.rewritten_run,
                                    ctx.rewritten, ctx.mgt, ctx.budget)
    if problem is not None:
        return OracleResult("functional", False, problem)
    return OracleResult("functional", True)


# -- registry -------------------------------------------------------------------

ORACLES: Dict[str, Callable[[FuzzContext], OracleResult]] = {
    "rewrite": oracle_rewrite,
    "selection": oracle_selection,
    "timing": oracle_timing,
    "codec": oracle_codec,
    "geometry": oracle_geometry,
    "kernel": oracle_kernel,
    "functional": oracle_functional,
}

#: Canonical oracle order (cheap architectural checks before timing runs).
ORACLE_NAMES: Tuple[str, ...] = ("rewrite", "selection", "codec", "timing",
                                 "geometry", "kernel", "functional")


def run_oracles(spec: SynthSpec, *, oracles: Optional[Sequence[str]] = None,
                input_name: str = "reference",
                budget: Optional[int] = None) -> List[OracleResult]:
    """Run the requested oracles (default: all seven) against one spec."""
    names = tuple(oracles) if oracles is not None else ORACLE_NAMES
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise ValueError(f"unknown oracles {unknown}; "
                         f"available: {', '.join(ORACLE_NAMES)}")
    ctx = FuzzContext(spec, input_name=input_name, budget=budget)
    results = []
    for name in names:
        try:
            results.append(ORACLES[name](ctx))
        except Exception as error:  # noqa: BLE001 - a crash is a failure too
            results.append(OracleResult(
                name, False, f"{type(error).__name__}: {error}"))
    return results
