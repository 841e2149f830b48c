"""Reusable assembly fragments for the synthetic workload kernels.

Each fragment builder returns a list of assembly source lines.  Fragments are
parameterised by the registers they use and by a label prefix so that several
fragments can be composed into one kernel without label or register clashes.

The fragments are designed to reproduce the *structural* idioms that make
the four benchmark suites behave differently with respect to mini-graphs:

* long single-output ALU chains (media/embedded kernels) — prime mini-graph
  material;
* load + shift/mask field extraction (the paper's Figure 1 ``ldq/srl/and``
  idiom) — integer-memory mini-graphs;
* compare-and-branch loop back-edges (the Figure 1 ``addl/cmplt/bne`` idiom);
* pointer chasing and short branchy blocks (SPEC-like) — poor coverage;
* read-modify-write histogram updates and table lookups (comm kernels).

Register conventions (callers may deviate, but the defaults follow them):

* ``r16``-``r21`` hold kernel parameters (array bases, element counts);
* ``r1``-``r9`` are scratch temporaries local to a loop body;
* ``r10``-``r14`` hold loop counters and accumulators.
"""

from __future__ import annotations

from typing import List, Sequence


def loop_header(prefix: str, counter: str, limit: str) -> List[str]:
    """Top-of-loop label; the counter is compared against ``limit`` at the bottom."""
    return [f"{prefix}_loop:"]


def loop_footer(prefix: str, counter: str, limit: str, *, step: int = 1,
                temp: str = "r9") -> List[str]:
    """Increment-compare-branch back edge (the paper's addl/cmplt/bne idiom)."""
    return [
        f"  addqi {counter},{step},{counter}",
        f"  cmplt {counter},{limit},{temp}",
        f"  bne {temp},{prefix}_loop",
    ]


def indexed_load(base: str, index: str, dest: str, *, address_temp: str = "r8",
                 offset: int = 0) -> List[str]:
    """Scaled-index quadword load: ``dest = base[index]``."""
    return [
        f"  s8addl {index},{base},{address_temp}",
        f"  ldq {dest},{offset}({address_temp})",
    ]


def indexed_store(base: str, index: str, value: str, *, address_temp: str = "r8",
                  offset: int = 0) -> List[str]:
    """Scaled-index quadword store: ``base[index] = value``."""
    return [
        f"  s8addl {index},{base},{address_temp}",
        f"  stq {value},{offset}({address_temp})",
    ]


# ---------------------------------------------------------------------------
# Straight-line computation bodies (no control flow).  Each consumes a source
# register and produces a result register through a dependence chain, which is
# exactly the shape mini-graphs capture.
# ---------------------------------------------------------------------------

def field_extract_body(src: str, dest: str, *, shift: int = 14, mask: int = 1,
                       temp: str = "r5") -> List[str]:
    """The Figure 1 idiom: extract a bit field (``srl`` then ``and``)."""
    return [
        f"  srli {src},{shift},{temp}",
        f"  andi {temp},{mask},{dest}",
    ]


def hash_mix_body(src: str, dest: str, *, temp1: str = "r5", temp2: str = "r6",
                  multiplier_shift: int = 7, xor_shift: int = 13) -> List[str]:
    """Three-operation mixing chain (hashing / checksum style)."""
    return [
        f"  slli {src},{multiplier_shift},{temp1}",
        f"  xor {temp1},{src},{temp2}",
        f"  srli {temp2},{xor_shift},{dest}",
    ]


def saturating_add_body(a: str, b: str, dest: str, *, limit: int = 32767,
                        temp1: str = "r5", temp2: str = "r6") -> List[str]:
    """Saturating add: ``dest = min(a + b, limit)`` via compare and cmov."""
    return [
        f"  addq {a},{b},{dest}",
        f"  ldi {temp1},{limit}",
        f"  cmplt {temp1},{dest},{temp2}",
        f"  cmovne {temp2},{temp1},{dest}",
    ]


def scale_round_body(src: str, dest: str, *, scale: int = 5, shift: int = 3,
                     bias: int = 4, temp: str = "r5") -> List[str]:
    """Fixed-point scale and round: ``dest = (src * scale + bias) >> shift``.

    The multiply is done with shift/add so the whole chain remains mini-graph
    eligible (single-cycle integer operations only).
    """
    return [
        f"  slli {src},{scale.bit_length() - 1},{temp}",
        f"  addq {temp},{src},{temp}",
        f"  addqi {temp},{bias},{temp}",
        f"  srai {temp},{shift},{dest}",
    ]


def clamp_body(src: str, dest: str, *, low: int = 0, high: int = 255,
               temp1: str = "r5", temp2: str = "r6", temp3: str = "r7") -> List[str]:
    """Clamp ``src`` into ``[low, high]`` using compares and conditional moves."""
    return [
        f"  ldi {temp1},{low}",
        f"  ldi {temp2},{high}",
        f"  cmplt {src},{temp1},{temp3}",
        f"  bis {src},zero,{dest}",
        f"  cmovne {temp3},{temp1},{dest}",
        f"  cmplt {temp2},{dest},{temp3}",
        f"  cmovne {temp3},{temp2},{dest}",
    ]


def butterfly_body(a: str, b: str, out_sum: str, out_diff: str, *,
                   shift: int = 1) -> List[str]:
    """DCT-style butterfly: sum and scaled difference of two values."""
    return [
        f"  addq {a},{b},{out_sum}",
        f"  subq {a},{b},{out_diff}",
        f"  srai {out_sum},{shift},{out_sum}",
        f"  srai {out_diff},{shift},{out_diff}",
    ]


def round_function_body(value: str, key: str, dest: str, *, rotate: int = 11,
                        temp1: str = "r5", temp2: str = "r6",
                        temp3: str = "r7") -> List[str]:
    """Block-cipher style round: xor with key, rotate, add (sha/blowfish/cast)."""
    return [
        f"  xor {value},{key},{temp1}",
        f"  slli {temp1},{rotate},{temp2}",
        f"  srli {temp1},{64 - rotate},{temp3}",
        f"  bis {temp2},{temp3},{temp1}",
        f"  addq {temp1},{key},{dest}",
    ]


def weighted_sum3_body(a: str, b: str, c: str, dest: str, *, temp1: str = "r5",
                       temp2: str = "r6") -> List[str]:
    """Weighted 3-tap sum (RGB-to-luma style): ``(2a + 5b + c) >> 3``."""
    return [
        f"  slli {a},1,{temp1}",
        f"  slli {b},2,{temp2}",
        f"  addq {temp2},{b},{temp2}",
        f"  addq {temp1},{temp2},{temp1}",
        f"  addq {temp1},{c},{temp1}",
        f"  srai {temp1},3,{dest}",
    ]


# ---------------------------------------------------------------------------
# Whole-loop fragments.
# ---------------------------------------------------------------------------

def array_map_loop(prefix: str, *, input_base: str, output_base: str, count: str,
                   body: Sequence[str], counter: str = "r10",
                   element: str = "r2", result: str = "r3",
                   address_temp: str = "r8", footer_temp: str = "r9") -> List[str]:
    """Map ``body`` over an array: load element, run body, store result.

    The body must read ``element`` and leave its result in ``result``.
    """
    lines = [f"  clr {counter}"]
    lines += loop_header(prefix, counter, count)
    lines += indexed_load(input_base, counter, element, address_temp=address_temp)
    lines += list(body)
    lines += indexed_store(output_base, counter, result, address_temp=address_temp)
    lines += loop_footer(prefix, counter, count, temp=footer_temp)
    return lines


def reduction_loop(prefix: str, *, input_base: str, count: str, accumulator: str,
                   body: Sequence[str], counter: str = "r10", element: str = "r2",
                   result: str = "r3", address_temp: str = "r8",
                   footer_temp: str = "r9") -> List[str]:
    """Reduce an array into ``accumulator`` (the body maps element -> result)."""
    lines = [f"  clr {counter}", f"  clr {accumulator}"]
    lines += loop_header(prefix, counter, count)
    lines += indexed_load(input_base, counter, element, address_temp=address_temp)
    lines += list(body)
    lines.append(f"  addq {accumulator},{result},{accumulator}")
    lines += loop_footer(prefix, counter, count, temp=footer_temp)
    return lines


def pointer_chase_loop(prefix: str, *, head: str, steps: str, accumulator: str,
                       node: str = "r2", counter: str = "r10",
                       temp: str = "r9") -> List[str]:
    """Chase a linked list: each node is ``[value, next-address]``.

    The loop-carried dependence is the chain of ``next`` loads, so cache
    misses on it bound performance regardless of mini-graphs; the node value
    only feeds a well-off-the-critical-path threshold test.  Load-dependent
    loads defeat mini-graph formation (two memory operations would be
    required), mimicking SPEC pointer codes such as mcf.
    """
    return [
        f"  clr {counter}",
        f"  clr {accumulator}",
        f"  bis {head},zero,{node}",
        f"{prefix}_loop:",
        f"  ldq r3,0({node})",
        f"  addq {accumulator},{node},{accumulator}",
        f"  cmplti r3,32768,r4",
        f"  beq r4,{prefix}_rare",
        f"  ldq {node},8({node})",
        f"  addqi {counter},1,{counter}",
        f"  cmplt {counter},{steps},{temp}",
        f"  bne {temp},{prefix}_loop",
        f"  br {prefix}_done",
        f"{prefix}_rare:",
        f"  addqi {accumulator},3,{accumulator}",
        f"  ldq {node},8({node})",
        f"  addqi {counter},1,{counter}",
        f"  cmplt {counter},{steps},{temp}",
        f"  bne {temp},{prefix}_loop",
        f"{prefix}_done:",
    ]


def table_lookup_loop(prefix: str, *, input_base: str, table_base: str, count: str,
                      accumulator: str, table_mask: int = 255,
                      counter: str = "r10", temp: str = "r9") -> List[str]:
    """Index a table with a hashed key and accumulate the table entries."""
    return [
        f"  clr {counter}",
        f"  clr {accumulator}",
        f"{prefix}_loop:",
        f"  s8addl {counter},{input_base},r8",
        f"  ldq r2,0(r8)",
        f"  srli r2,3,r4",
        f"  xor r4,r2,r4",
        f"  andi r4,{table_mask},r4",
        f"  s8addl r4,{table_base},r5",
        f"  ldq r6,0(r5)",
        f"  addq {accumulator},r6,{accumulator}",
        f"  addqi {counter},1,{counter}",
        f"  cmplt {counter},{count},{temp}",
        f"  bne {temp},{prefix}_loop",
    ]


def histogram_loop(prefix: str, *, input_base: str, histogram_base: str, count: str,
                   buckets_mask: int = 63, counter: str = "r10",
                   temp: str = "r9") -> List[str]:
    """Histogram update: load element, compute bucket, read-modify-write."""
    return [
        f"  clr {counter}",
        f"{prefix}_loop:",
        f"  s8addl {counter},{input_base},r8",
        f"  ldq r2,0(r8)",
        f"  andi r2,{buckets_mask},r3",
        f"  s8addl r3,{histogram_base},r4",
        f"  ldq r5,0(r4)",
        f"  addqi r5,1,r5",
        f"  stq r5,0(r4)",
        f"  addqi {counter},1,{counter}",
        f"  cmplt {counter},{count},{temp}",
        f"  bne {temp},{prefix}_loop",
    ]


def branchy_classify_loop(prefix: str, *, input_base: str, count: str,
                          accumulator: str, thresholds: Sequence[int] = (16, 64, 192),
                          counter: str = "r10", temp: str = "r9") -> List[str]:
    """Branchy classification with small basic blocks (SPEC-like control flow)."""
    lines = [
        f"  clr {counter}",
        f"  clr {accumulator}",
        f"{prefix}_loop:",
        f"  s8addl {counter},{input_base},r8",
        f"  ldq r2,0(r8)",
        f"  andi r2,255,r2",
    ]
    for case, threshold in enumerate(thresholds):
        lines += [
            f"  cmplti r2,{threshold},r3",
            f"  beq r3,{prefix}_case{case}_skip",
            f"  addqi {accumulator},{case + 1},{accumulator}",
            f"  br {prefix}_next",
            f"{prefix}_case{case}_skip:",
        ]
    lines += [
        f"  addqi {accumulator},{len(thresholds) + 1},{accumulator}",
        f"{prefix}_next:",
    ]
    lines += loop_footer(prefix, counter, count, temp=temp)
    return lines


def string_match_loop(prefix: str, *, haystack_base: str, needle_base: str,
                      count: str, needle_length: int, matches: str,
                      counter: str = "r10", temp: str = "r9") -> List[str]:
    """Count positions where a short needle matches the haystack (gzip/grep-like)."""
    lines = [
        f"  clr {counter}",
        f"  clr {matches}",
        f"{prefix}_loop:",
    ]
    for offset in range(needle_length):
        lines += [
            f"  s8addl {counter},{haystack_base},r8",
            f"  ldq r2,{offset * 8}(r8)",
            f"  ldq r3,{offset * 8}({needle_base})",
            f"  cmpeq r2,r3,r4",
            f"  beq r4,{prefix}_miss",
        ]
    lines += [
        f"  addqi {matches},1,{matches}",
        f"{prefix}_miss:",
    ]
    lines += loop_footer(prefix, counter, count, temp=temp)
    return lines


def switch_dispatch_loop(prefix: str, *, input_base: str, count: str,
                         accumulator: str, cases: int = 8,
                         counter: str = "r10", temp: str = "r9") -> List[str]:
    """A dispatch loop with many distinct static cases (gcc/parser-like footprint).

    Every case has its own small body, inflating the static code size while
    each dynamic path stays short and branchy.
    """
    lines = [
        f"  clr {counter}",
        f"  clr {accumulator}",
        f"{prefix}_loop:",
        f"  s8addl {counter},{input_base},r8",
        f"  ldq r2,0(r8)",
        f"  andi r2,{cases - 1},r3",
    ]
    for case in range(cases):
        lines += [
            f"  cmpeqi r3,{case},r4",
            f"  beq r4,{prefix}_not{case}",
        ]
        # Distinct body per case: different constants and operation mix.
        lines += [
            f"  slli r2,{(case % 5) + 1},r5",
            f"  xori r5,{case * 37 + 11},r5",
            f"  addqi r5,{case * 3 + 1},r5",
            f"  addq {accumulator},r5,{accumulator}",
            f"  br {prefix}_done",
            f"{prefix}_not{case}:",
        ]
    lines += [
        f"  addqi {accumulator},1,{accumulator}",
        f"{prefix}_done:",
    ]
    lines += loop_footer(prefix, counter, count, temp=temp)
    return lines


def kernel(name: str, data_directives: Sequence[str], setup: Sequence[str],
           body: Sequence[str], teardown: Sequence[str] = ()) -> str:
    """Assemble a full kernel source: data, setup, body, teardown, halt."""
    lines: List[str] = [f"# kernel: {name}"]
    lines += list(data_directives)
    lines.append("start:")
    lines += list(setup)
    lines += list(body)
    lines += list(teardown)
    lines.append("  halt")
    return "\n".join(lines) + "\n"
