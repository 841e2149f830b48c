"""Seeded random MGA program generator.

The generator produces assembly source the existing two-pass assembler
accepts, parameterized by a small set of *dials* (:class:`SynthSpec`):
control-flow shape (block count/length, loop nesting, branch density),
memory behaviour (load/store density, array count and size — fewer, smaller
arrays mean more aliasing) and dataflow shape (working register set size,
FP and multiply densities).  The whole spec round-trips through a compact
benchmark name (``synth:v1-s42-b6-l12-...``), so any process — pool worker,
serve daemon, artifact cache — can regenerate the exact program from the
name alone.

Determinism and termination are the two structural guarantees:

* **Determinism**: every random decision draws from a private
  :class:`SplitMix64` stream seeded from the spec (never from :mod:`random`
  global state), so ``generate_source(spec, input)`` is a pure function and
  regeneration is bit-identical across processes and Python versions.
* **Termination**: the only backward edges are counted loops over dedicated
  induction registers (``ldi rC,N`` ... ``subqi rC,1,rC; bgt rC,loop``);
  every other branch is strictly forward.  A running dynamic-cost estimate
  additionally demotes loops that would push the program past
  :data:`DYNAMIC_CAP` committed instructions, so every program halts well
  inside :data:`SYNTH_BUDGET`.

Memory safety by construction: every access address is formed as
``base + 8 * (value & (words - 1))`` via ``andi`` + ``s8addl``, so all
accesses are 8-byte aligned (the sparse memory model raises on misalignment)
and land inside the program's own data arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: Bump when emitted code changes shape: the version is baked into every
#: synth benchmark name, so corpus files pin the generator that made them.
GENERATOR_VERSION = 1

#: Benchmark-name prefix of the synth workload family.
SYNTH_PREFIX = "synth:"

#: Dynamic-instruction budget synth benchmarks default to; the generator's
#: cost accounting keeps the real dynamic length under DYNAMIC_CAP, so every
#: run halts long before this.
SYNTH_BUDGET = 60_000

#: Soft ceiling on committed instructions per generated program.
DYNAMIC_CAP = 20_000

_M64 = (1 << 64) - 1


class SynthSpecError(ValueError):
    """Raised for malformed synth benchmark names or out-of-range dials."""


class SplitMix64:
    """SplitMix64 PRNG: tiny, seedable, bit-identical everywhere.

    The repo's :class:`~repro.workloads.base.LinearCongruentialGenerator`
    fills data segments; the generator uses SplitMix64 for *structural*
    decisions because consecutive outputs are far better mixed (an LCG's
    low bits cycle, which skews small ``% bound`` draws).
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _M64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next() % bound

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent

    def choice(self, items):
        return items[self.below(len(items))]


#: (short key, field name, min, max) for every dial, in name order.
_DIALS: Tuple[Tuple[str, str, int, int], ...] = (
    ("b", "blocks", 1, 12),
    ("l", "block_len", 2, 32),
    ("d", "loop_depth", 0, 2),
    ("t", "trip", 1, 16),
    ("c", "branch_density", 0, 100),
    ("m", "mem_density", 0, 60),
    ("a", "arrays", 1, 4),
    ("w", "array_words", 8, 256),
    ("r", "reg_pressure", 2, 14),
    ("f", "fp_density", 0, 40),
    ("u", "mul_density", 0, 30),
)

_NAME_RE = re.compile(
    r"^synth:v(?P<version>\d+)-s(?P<seed>\d+)"
    r"(?P<dials>(-[a-z]\d+)*)$")


@dataclass(frozen=True)
class SynthSpec:
    """Seed plus the full dial vector of one synthetic program.

    The spec *is* the benchmark identity: :attr:`name` encodes every field,
    and :meth:`from_name` parses it back bit-exactly.
    """

    seed: int
    blocks: int = 6
    block_len: int = 10
    loop_depth: int = 1
    trip: int = 6
    branch_density: int = 40     # % of non-loop regions that branch
    mem_density: int = 25        # % of body slots that become memory ops
    arrays: int = 2              # fewer arrays => more aliasing
    array_words: int = 64        # words per array (rounded to a power of two)
    reg_pressure: int = 10       # working integer register set size
    fp_density: int = 10         # % of body slots that become FP ops
    mul_density: int = 5         # % of body slots that become multiplies

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SynthSpecError(f"seed must be a non-negative integer, "
                                 f"got {self.seed!r}")
        for _, field_name, low, high in _DIALS:
            value = getattr(self, field_name)
            if not isinstance(value, int) or not low <= value <= high:
                raise SynthSpecError(
                    f"dial {field_name} must be an integer in "
                    f"[{low}, {high}], got {value!r}")
        # Round the array size down to a power of two: the index mask is
        # (array_words - 1), which only isolates an in-bounds index when the
        # size is a power of two.
        words = 1 << (self.array_words.bit_length() - 1)
        if words != self.array_words:
            object.__setattr__(self, "array_words", words)

    @property
    def name(self) -> str:
        """The canonical ``synth:`` benchmark name encoding this spec."""
        dials = "".join(f"-{key}{getattr(self, field_name)}"
                        for key, field_name, _, _ in _DIALS)
        return f"{SYNTH_PREFIX}v{GENERATOR_VERSION}-s{self.seed}{dials}"

    @classmethod
    def from_name(cls, name: str) -> "SynthSpec":
        """Parse a ``synth:`` benchmark name back into its spec."""
        match = _NAME_RE.match(name)
        if match is None:
            raise SynthSpecError(
                f"malformed synth benchmark name {name!r}; expected "
                f"synth:v{GENERATOR_VERSION}-s<seed>[-<dial><value>...]")
        version = int(match.group("version"))
        if version != GENERATOR_VERSION:
            raise SynthSpecError(
                f"synth name {name!r} was generated by generator v{version}; "
                f"this tree has v{GENERATOR_VERSION}")
        values: Dict[str, int] = {"seed": int(match.group("seed"))}
        keys = {key: field_name for key, field_name, _, _ in _DIALS}
        for token in filter(None, match.group("dials").split("-")):
            key, value = token[0], token[1:]
            if key not in keys:
                raise SynthSpecError(f"unknown dial {key!r} in {name!r}")
            values[keys[key]] = int(value)
        # Names are canonical: every dial must be spelled out, so one spec
        # has exactly one name (the benchmark name is the cache identity).
        missing = [key for key, field_name in keys.items()
                   if field_name not in values]
        if missing:
            raise SynthSpecError(
                f"synth name {name!r} omits dial(s) {', '.join(missing)}; "
                f"names must spell out the full dial vector")
        return cls(**values)

    @classmethod
    def sample(cls, seed: int) -> "SynthSpec":
        """Derive a full dial vector deterministically from a bare seed.

        This is the fuzzing entry point: seed N maps to one point of the
        dial space, spread so a contiguous seed range covers short straight
        programs, deep loop nests, memory-heavy aliasing programs and
        FP-heavy programs alike.
        """
        rng = SplitMix64((seed << 1) ^ 0xD6E8FEB86659FD93)
        return cls(
            seed=seed,
            blocks=2 + rng.below(7),          # 2..8
            block_len=4 + rng.below(13),      # 4..16
            loop_depth=rng.below(3),          # 0..2
            trip=2 + rng.below(8),            # 2..9
            branch_density=rng.below(71),     # 0..70
            mem_density=rng.below(41),        # 0..40
            arrays=1 + rng.below(3),          # 1..3
            array_words=1 << (4 + rng.below(4)),  # 16/32/64/128
            reg_pressure=4 + rng.below(11),   # 4..14
            fp_density=rng.below(26),         # 0..25
            mul_density=rng.below(11),        # 0..10
        )

    def with_dials(self, **overrides: int) -> "SynthSpec":
        return replace(self, **overrides)


def synth(seed: int, **dials: int) -> str:
    """Benchmark name for the given seed: the grid-axis helper.

    ``Axis("workload", [synth(seed=s) for s in range(64)])`` puts the synth
    family on a grid; explicit ``dials`` override the sampled vector.
    """
    spec = SynthSpec.sample(seed)
    if dials:
        spec = spec.with_dials(**dials)
    return spec.name


# -- opcode pools ---------------------------------------------------------------

_ALU_RRR = ("addq", "subq", "addl", "subl", "and", "bis", "xor", "bic",
            "ornot", "sll", "srl", "sra", "cmpeq", "cmplt", "cmple",
            "cmpult", "s4addl", "s8addl", "cmovne", "cmoveq", "extbl",
            "insbl", "mskbl")
_ALU_RIR = ("addqi", "subqi", "addli", "subli", "andi", "xori", "bisi",
            "slli", "srli", "srai", "cmpeqi", "cmplti", "cmplei",
            "cmpulti", "lda", "s4addli", "s8addli", "zapnot", "extbli")
_ALU_RR = ("sextb", "sextw", "popcount", "clz")
_SHIFT_IMM_OPS = frozenset(("slli", "srli", "srai"))
_BYTE_IMM_OPS = frozenset(("zapnot", "extbli"))
_FP_RRR = ("addt", "subt", "mult", "cmptlt", "divt")
_FP_RR = ("sqrtt",)
_MUL_RRR = ("mull", "mulq")
_LOAD_OPS = ("ldq", "ldq", "ldl", "ldwu")    # ldq weighted: full-word flow
_STORE_OPS = ("stq", "stq", "stl", "stb")
_FWD_BRANCHES = ("beq", "bne", "blt", "bge")

#: Fixed register roles.  Working registers come after the array bases and
#: stay below r20; the upper file is reserved for loop counters and address
#:  scratch so generated dataflow can never clobber control state.
_COUNTER_REGS = ("r20", "r21", "r22")
_IDX_REG = "r24"
_ADDR_REG = "r25"


class _Emitter:
    """One generation run: a structure stream, a data stream and the lines."""

    def __init__(self, spec: SynthSpec, input_name: str) -> None:
        self.spec = spec
        # Structure (opcodes, registers, layout) depends only on the seed;
        # data values additionally depend on the input set, giving each
        # benchmark the registry-standard reference/train pair.
        self.rng = SplitMix64((spec.seed * 2 + 1) ^ 0xA5A5A5A5A5A5A5A5)
        salt = 1 if input_name == "reference" else 2
        self.data_rng = SplitMix64((spec.seed << 2) + salt)
        self.lines: List[str] = []
        self.label_count = 0
        self.dynamic_estimate = 0
        self.multiplier = 1
        base_count = spec.arrays
        self.base_regs = [f"r{1 + i}" for i in range(base_count)]
        pool = [f"r{base_count + 1 + i}" for i in range(19 - base_count)]
        self.working = pool[:spec.reg_pressure]
        # FP registers exist only when the dial vector asks for FP work:
        # otherwise the program must stay executable on FP-less machines.
        self.fp_regs = ([f"f{i}" for i in range(max(2, spec.reg_pressure // 2))]
                        if spec.fp_density > 0 else [])

    # -- low-level helpers -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)
        if line.endswith(":") or line.startswith("."):
            return
        self.dynamic_estimate += self.multiplier

    def label(self, stem: str) -> str:
        self.label_count += 1
        return f"{stem}{self.label_count}"

    # -- program sections --------------------------------------------------------

    def data_segment(self) -> None:
        for index in range(self.spec.arrays):
            values = [self.data_rng.below(1 << 32)
                      for _ in range(self.spec.array_words)]
            rendered = " ".join(str(value) for value in values)
            self.emit(f".data arr{index} {rendered}")
        # Initial working-set values live in the data segment (not in `ldi`
        # immediates) so the reference/train pair shares one instruction
        # stream — only the data differs, as with the registry suites.
        init = [self.data_rng.below(1 << 16) for _ in self.working]
        self.emit(".data init " + " ".join(str(value) for value in init))
        self.emit(f".space out {len(self.working) + len(self.fp_regs)}")

    def prologue(self) -> None:
        for base, index in zip(self.base_regs, range(self.spec.arrays)):
            self.emit(f"  la {base},arr{index}")
        self.emit(f"  la {_ADDR_REG},init")
        for offset, reg in enumerate(self.working):
            self.emit(f"  ldq {reg},{offset * 8}({_ADDR_REG})")
        for index, fp in enumerate(self.fp_regs):
            source = self.working[index % len(self.working)]
            self.emit(f"  cvtqt {source},{fp}")

    def epilogue(self) -> None:
        # Materialize the whole working set into the output array: register
        # dataflow becomes architectural memory state, which is what the
        # rewritten-vs-original oracle compares (interior registers that
        # liveness proves dead are deliberately not comparable).
        self.emit(f"  la {_ADDR_REG},out")
        for offset, reg in enumerate(self.working + self.fp_regs):
            self.emit(f"  stq {reg},{offset * 8}({_ADDR_REG})")
        self.emit("  halt")

    # -- regions ------------------------------------------------------------------

    def region(self, depth: int, force_loop: bool = False) -> None:
        roll = self.rng.below(100)
        wants_loop = force_loop or (depth < self.spec.loop_depth
                                    and roll < 55)
        if wants_loop and self._loop_fits(depth):
            self.loop(depth)
        elif roll < 55 + self.spec.branch_density:
            self.diamond()
        else:
            self.straight(self.spec.block_len)

    def _trip_for(self, depth: int) -> int:
        # Inner loops iterate less: the multiplier is the product of every
        # enclosing trip count, and DYNAMIC_CAP bounds the product.
        return self.spec.trip if depth == 0 else min(self.spec.trip, 4)

    def _loop_fits(self, depth: int) -> bool:
        trip = self._trip_for(depth)
        body_cost = self.spec.block_len * 2 + 4
        projected = self.dynamic_estimate + self.multiplier * trip * body_cost
        return projected <= DYNAMIC_CAP

    def loop(self, depth: int) -> None:
        trip = self._trip_for(depth)
        counter = _COUNTER_REGS[depth]
        head = self.label("loop")
        self.emit(f"  ldi {counter},{trip}")
        self.emit(f"{head}:")
        self.multiplier *= trip
        subregions = 1 + self.rng.below(2)
        for _ in range(subregions):
            self.region(depth + 1)
        self.emit(f"  subqi {counter},1,{counter}")
        self.emit(f"  bgt {counter},{head}")
        self.multiplier //= trip

    def diamond(self) -> None:
        condition = self.rng.choice(self.working)
        op = self.rng.choice(_FWD_BRANCHES)
        join = self.label("skip")
        self.emit(f"  {op} {condition},{join}")
        self.straight(max(2, self.spec.block_len // 2))
        self.emit(f"{join}:")

    def straight(self, length: int) -> None:
        budget = length
        spec = self.spec
        while budget > 0:
            roll = self.rng.below(100)
            if roll < spec.mem_density:
                # A memory op costs three slots (mask, address, access); a
                # shorter tail degrades to ALU work rather than borrowing a
                # neighbouring density window.
                if budget >= 3:
                    self.memory_op()
                    budget -= 3
                else:
                    self.alu_op()
                    budget -= 1
            elif roll < spec.mem_density + spec.fp_density:
                self.fp_op()
                budget -= 1
            elif roll < spec.mem_density + spec.fp_density + spec.mul_density:
                self.mul_op()
                budget -= 1
            else:
                self.alu_op()
                budget -= 1

    # -- individual operations ----------------------------------------------------

    def memory_op(self) -> None:
        base = self.rng.choice(self.base_regs)
        index_source = self.rng.choice(self.working)
        mask = self.spec.array_words - 1
        self.emit(f"  andi {index_source},{mask},{_IDX_REG}")
        self.emit(f"  s8addl {_IDX_REG},{base},{_ADDR_REG}")
        if self.rng.chance(55):
            op = self.rng.choice(_LOAD_OPS)
            dest = self.rng.choice(self.working)
            self.emit(f"  {op} {dest},0({_ADDR_REG})")
        else:
            op = self.rng.choice(_STORE_OPS)
            value = self.rng.choice(self.working)
            self.emit(f"  {op} {value},0({_ADDR_REG})")

    def alu_op(self) -> None:
        dest = self.rng.choice(self.working)
        source = self.rng.choice(self.working)
        form = self.rng.below(100)
        if form < 45:
            op = self.rng.choice(_ALU_RRR)
            other = self.rng.choice(self.working)
            self.emit(f"  {op} {source},{other},{dest}")
        elif form < 90:
            op = self.rng.choice(_ALU_RIR)
            self.emit(f"  {op} {source},{self._imm_for(op)},{dest}")
        else:
            op = self.rng.choice(_ALU_RR)
            self.emit(f"  {op} {source},{dest}")

    def _imm_for(self, op: str) -> int:
        if op in _SHIFT_IMM_OPS:
            return self.rng.below(8)
        if op in _BYTE_IMM_OPS:
            return self.rng.below(256)
        return self.rng.below(512) - 256

    def mul_op(self) -> None:
        dest = self.rng.choice(self.working)
        if self.rng.chance(30):
            source = self.rng.choice(self.working)
            self.emit(f"  mulli {source},{self.rng.below(64) + 1},{dest}")
        else:
            op = self.rng.choice(_MUL_RRR)
            a = self.rng.choice(self.working)
            b = self.rng.choice(self.working)
            self.emit(f"  {op} {a},{b},{dest}")

    def fp_op(self) -> None:
        roll = self.rng.below(100)
        if roll < 15:
            # Cross the files occasionally: refresh an FP value from the
            # integer side, or extract an FP value back.
            if self.rng.chance(50):
                source = self.rng.choice(self.working)
                dest = self.rng.choice(self.fp_regs)
                self.emit(f"  cvtqt {source},{dest}")
            else:
                source = self.rng.choice(self.fp_regs)
                dest = self.rng.choice(self.working)
                self.emit(f"  cvttq {source},{dest}")
        elif roll < 30:
            op = self.rng.choice(_FP_RR)
            source = self.rng.choice(self.fp_regs)
            dest = self.rng.choice(self.fp_regs)
            self.emit(f"  {op} {source},{dest}")
        else:
            op = self.rng.choice(_FP_RRR)
            a = self.rng.choice(self.fp_regs)
            b = self.rng.choice(self.fp_regs)
            dest = self.rng.choice(self.fp_regs)
            self.emit(f"  {op} {a},{b},{dest}")

    # -- driver --------------------------------------------------------------------

    def render(self) -> str:
        self.data_segment()
        self.prologue()
        for index in range(self.spec.blocks):
            # Guarantee at least one loop when the dials allow any: loops
            # are what give the profile hot blocks for selection to chew on.
            force_loop = index == 0 and self.spec.loop_depth > 0
            self.region(0, force_loop=force_loop)
        self.epilogue()
        return "\n".join(self.lines) + "\n"


def generate_source(spec: SynthSpec, input_name: str = "reference") -> str:
    """Assembly source of one synthetic program: a pure function of
    ``(spec, input_name)``."""
    if input_name not in ("reference", "train"):
        raise SynthSpecError(
            f"synth benchmarks have inputs ('reference', 'train'); "
            f"got {input_name!r}")
    return _Emitter(spec, input_name).render()


def generate_program(spec: SynthSpec, input_name: str = "reference"):
    """Assemble one synthetic program into a
    :class:`~repro.program.program.Program`."""
    from ..program.program import Program

    return Program.from_assembly(
        spec.name, generate_source(spec, input_name),
        metadata={"suite": "synth", "input": input_name,
                  "description": "seeded synthetic fuzz program"})
