"""MiBench-like synthetic kernels (the paper's embedded suite).

MiBench programs (bitcount, susan, jpeg, dijkstra, sha, blowfish, CRC32,
rsynth, typeset/dither) are small-footprint embedded kernels with dense
integer dependence chains, which gives mini-graphs good coverage (the paper
reports ~7% average gains with peaks above 40% on kernels like bitcount and
sha once latency reduction is added).  Each kernel here mirrors one of those
programs structurally.
"""

from __future__ import annotations

from typing import List

from .base import LinearCongruentialGenerator, data_directive, register_benchmark
from . import fragments as frag


def _size(input_name: str, reference: int, train: int) -> int:
    return reference if input_name == "reference" else train


def _values(seed: int, count: int, bound: int) -> List[int]:
    return LinearCongruentialGenerator(seed).sequence(count, bound)


# ---------------------------------------------------------------------------
# bitcount: per-word population count using shift/mask ladders.
# ---------------------------------------------------------------------------

def _bitcount(input_name: str) -> str:
    count = _size(input_name, 288, 96)
    data = [data_directive("bits_in", _values(151, count, 1 << 48))]
    setup = [
        "  la r16,bits_in",
        f"  ldi r18,{count}",
    ]
    # Classic two-level bit ladder: pairwise sums, then nibble sums, then a
    # fold — all single-cycle integer chains.
    body_chain = [
        "  srli r2,1,r4",
        "  andi r4,85,r4",
        "  subq r2,r4,r4",
        "  srli r4,2,r5",
        "  andi r5,51,r5",
        "  andi r4,51,r6",
        "  addq r5,r6,r4",
        "  srli r4,4,r5",
        "  addq r4,r5,r4",
        "  andi r4,15,r3",
    ]
    body = frag.reduction_loop("bitcnt", input_base="r16", count="r18",
                               accumulator="r11", body=body_chain)
    return frag.kernel("bitcount", data, setup, body)


# ---------------------------------------------------------------------------
# susan: image smoothing — 3-tap weighted sums with clamping.
# ---------------------------------------------------------------------------

def _susan_smoothing(input_name: str) -> str:
    pixels = _size(input_name, 288, 96)
    data = [
        data_directive("susan_in", _values(157, pixels + 2, 256)),
        data_directive("susan_out", [0] * pixels),
    ]
    setup = [
        "  la r16,susan_in",
        "  la r17,susan_out",
        f"  ldi r18,{pixels}",
    ]
    body = [
        "  clr r10",
        "susan_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  ldq r3,8(r8)",
        "  ldq r4,16(r8)",
    ] + frag.weighted_sum3_body("r2", "r3", "r4", "r5", temp1="r6", temp2="r7") + \
        frag.clamp_body("r5", "r3", low=0, high=255,
                        temp1="r6", temp2="r7", temp3="r2") + [
        "  s8addl r10,r17,r8",
        "  stq r3,0(r8)",
    ] + frag.loop_footer("susan", "r10", "r18")
    return frag.kernel("susan.smoothing", data, setup, body)


# ---------------------------------------------------------------------------
# jpeg.encode / rgb conversion / dither: pixel-processing chains.
# ---------------------------------------------------------------------------

def _jpeg_encode(input_name: str) -> str:
    blocks = _size(input_name, 64, 24)
    count = blocks * 4
    data = [
        data_directive("jpege_in", _values(163, count, 256)),
        data_directive("jpege_out", [0] * count),
    ]
    setup = [
        "  la r16,jpege_in",
        "  la r17,jpege_out",
        f"  ldi r18,{blocks}",
    ]
    body = [
        "  clr r10",
        "jpege_loop:",
        "  slli r10,2,r12",
        "  s8addl r12,r16,r8",
        "  ldq r2,0(r8)",
        "  ldq r3,8(r8)",
        "  ldq r4,16(r8)",
        "  ldq r5,24(r8)",
    ] + frag.butterfly_body("r2", "r5", "r6", "r7", shift=1) + \
        frag.butterfly_body("r3", "r4", "r22", "r23", shift=1) + [
        "  addq r6,r22,r24",
        "  subq r6,r22,r25",
        "  addqi r24,8,r24",
        "  srai r24,4,r24",
        "  addqi r25,8,r25",
        "  srai r25,4,r25",
        "  s8addl r12,r17,r8",
        "  stq r24,0(r8)",
        "  stq r25,8(r8)",
        "  stq r7,16(r8)",
        "  stq r23,24(r8)",
    ] + frag.loop_footer("jpege", "r10", "r18")
    return frag.kernel("jpeg.encode", data, setup, body)


def _rgb_to_gray(input_name: str) -> str:
    pixels = _size(input_name, 256, 96)
    data = [
        data_directive("rgb_r", _values(167, pixels, 256)),
        data_directive("rgb_g", _values(173, pixels, 256)),
        data_directive("rgb_b", _values(179, pixels, 256)),
        data_directive("rgb_gray", [0] * pixels),
    ]
    setup = [
        "  la r16,rgb_r",
        "  la r19,rgb_g",
        "  la r21,rgb_b",
        "  la r17,rgb_gray",
        f"  ldi r18,{pixels}",
    ]
    body = [
        "  clr r10",
        "rgba_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  s8addl r10,r19,r8",
        "  ldq r3,0(r8)",
        "  s8addl r10,r21,r8",
        "  ldq r4,0(r8)",
    ] + frag.weighted_sum3_body("r2", "r3", "r4", "r5", temp1="r6", temp2="r7") + [
        "  s8addl r10,r17,r8",
        "  stq r5,0(r8)",
    ] + frag.loop_footer("rgba", "r10", "r18")
    return frag.kernel("rgb.to_gray", data, setup, body)


def _dither(input_name: str) -> str:
    pixels = _size(input_name, 288, 96)
    data = [
        data_directive("dither_in", _values(181, pixels, 256)),
        data_directive("dither_out", [0] * pixels),
    ]
    setup = [
        "  la r16,dither_in",
        "  la r17,dither_out",
        f"  ldi r18,{pixels}",
        "  clr r14",            # running error
    ]
    body = [
        "  clr r10",
        "dither_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  addq r2,r14,r3",
        "  cmplti r3,128,r4",
        "  beq r4,dither_high",
        "  clr r5",
        "  br dither_err",
        "dither_high:",
        "  ldi r5,255",
        "dither_err:",
        "  subq r3,r5,r14",
        "  srai r14,1,r14",
        "  s8addl r10,r17,r8",
        "  stq r5,0(r8)",
    ] + frag.loop_footer("dither", "r10", "r18")
    return frag.kernel("dither", data, setup, body)


# ---------------------------------------------------------------------------
# dijkstra: relaxation over an adjacency array — branchy with loads.
# ---------------------------------------------------------------------------

def _dijkstra(input_name: str) -> str:
    edges = _size(input_name, 224, 80)
    nodes = 32
    generator = LinearCongruentialGenerator(191)
    sources = [generator.below(nodes) for _ in range(edges)]
    targets = [generator.below(nodes) for _ in range(edges)]
    weights = [generator.below(64) + 1 for _ in range(edges)]
    data = [
        data_directive("dij_src", sources),
        data_directive("dij_dst", targets),
        data_directive("dij_weight", weights),
        data_directive("dij_dist", [4096] * nodes),
    ]
    setup = [
        "  la r16,dij_src",
        "  la r19,dij_dst",
        "  la r21,dij_weight",
        "  la r20,dij_dist",
        f"  ldi r18,{edges}",
        # seed: distance to node 0 is 0
        "  clr r2",
        "  stq r2,0(r20)",
    ]
    body = [
        "  clr r10",
        "dij_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",            # source node
        "  s8addl r10,r19,r8",
        "  ldq r3,0(r8)",            # target node
        "  s8addl r10,r21,r8",
        "  ldq r4,0(r8)",            # weight
        "  s8addl r2,r20,r5",
        "  ldq r6,0(r5)",            # dist[source]
        "  addq r6,r4,r6",           # candidate distance
        "  s8addl r3,r20,r5",
        "  ldq r7,0(r5)",            # dist[target]
        "  cmplt r6,r7,r22",
        "  beq r22,dij_skip",
        "  stq r6,0(r5)",            # relax
        "dij_skip:",
    ] + frag.loop_footer("dij", "r10", "r18")
    return frag.kernel("dijkstra", data, setup, body)


# ---------------------------------------------------------------------------
# sha / blowfish / crc: hashing and cipher rounds.
# ---------------------------------------------------------------------------

def _sha(input_name: str) -> str:
    words = _size(input_name, 256, 96)
    data = [data_directive("sha_message", _values(193, words, 1 << 32))]
    setup = [
        "  la r16,sha_message",
        f"  ldi r18,{words}",
        "  ldi r11,1732584193",      # state A
        "  ldi r12,4023233417",      # state B
        "  ldi r13,2562383102",      # state C
    ]
    body = [
        "  clr r10",
        "sha_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        # round: f = (B & C) | (~B & A); A' = rotl(A,5) + f + w + K
        "  and r12,r13,r3",
        "  bic r11,r12,r4",
        "  bis r3,r4,r3",
        "  slli r11,5,r5",
        "  srli r11,27,r6",
        "  bis r5,r6,r5",
        "  addq r5,r3,r5",
        "  addq r5,r2,r5",
        "  addqi r5,1518500249,r5",
        # rotate state
        "  bis r12,zero,r7",
        "  bis r13,zero,r12",
        "  slli r7,30,r13",
        "  srli r7,34,r7",
        "  bis r13,r7,r13",
        "  bis r11,zero,r4",
        "  bis r5,zero,r11",
        "  bis r4,zero,r14",
    ] + frag.loop_footer("sha", "r10", "r18")
    return frag.kernel("sha", data, setup, body)


def _blowfish(input_name: str) -> str:
    blocks = _size(input_name, 224, 80)
    sbox = [((i * 2654435761) >> 8) % 65536 for i in range(256)]
    data = [
        data_directive("bf_blocks", _values(197, blocks, 1 << 32)),
        data_directive("bf_sbox", sbox),
        data_directive("bf_out", [0] * blocks),
    ]
    setup = [
        "  la r16,bf_blocks",
        "  la r19,bf_sbox",
        "  la r17,bf_out",
        f"  ldi r18,{blocks}",
        "  ldi r13,608135816",
    ]
    body = [
        "  clr r10",
        "blwfd_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  xor r2,r13,r3",
        "  srli r3,8,r4",
        "  andi r4,255,r4",
        "  s8addl r4,r19,r5",
        "  ldq r6,0(r5)",             # S-box lookup
        "  andi r3,255,r7",
        "  addq r6,r7,r6",
        "  slli r6,3,r22",
        "  xor r22,r3,r22",
        "  s8addl r10,r17,r8",
        "  stq r22,0(r8)",
    ] + frag.loop_footer("blwfd", "r10", "r18")
    return frag.kernel("blowfish", data, setup, body)


def _crc(input_name: str) -> str:
    bytes_count = _size(input_name, 288, 96)
    crc_table = [((i * 0xEDB88320) ^ (i << 3)) % (1 << 32) for i in range(256)]
    data = [
        data_directive("crc_data", _values(199, bytes_count, 256)),
        data_directive("crc_table", crc_table),
    ]
    setup = [
        "  la r16,crc_data",
        "  la r19,crc_table",
        f"  ldi r18,{bytes_count}",
        "  ldi r11,4294967295",       # running CRC
    ]
    # Table-driven CRC has a tight load-to-use recurrence through the running
    # value, making it latency bound (the paper singles crc out as a program
    # that only benefits from latency reduction).
    body = [
        "  clr r10",
        "crc_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  xor r11,r2,r3",
        "  andi r3,255,r3",
        "  s8addl r3,r19,r4",
        "  ldq r5,0(r4)",
        "  srli r11,8,r11",
        "  xor r11,r5,r11",
    ] + frag.loop_footer("crc", "r10", "r18")
    return frag.kernel("crc", data, setup, body)


# ---------------------------------------------------------------------------
# listchase / fnvmix: long-horizon trace-volume stressors.
#
# Both kernels run an order of magnitude more iterations than the rest of the
# suite, so a full run commits tens of thousands of trace entries — they
# exist to exercise the columnar trace pipeline (packed trace columns, the
# timing kernel, binary trace artifacts) at realistic volume.  listchase is
# latency-bound pointer chasing (health/patricia-style linked structures);
# fnvmix is a serial FNV-style multiply-xor recurrence, prime mini-graph
# material with one load per round.
# ---------------------------------------------------------------------------


def _chase_list(seed: int, nodes: int, base: int) -> List[int]:
    """Build a circular linked list as [value, next-address] node pairs.

    The visit order is a pseudo-random permutation, so the loop-carried
    ``next`` loads have poor spatial locality.
    """
    generator = LinearCongruentialGenerator(seed)
    order = list(range(nodes))
    for position in range(nodes - 1, 0, -1):
        other = generator.below(position + 1)
        order[position], order[other] = order[other], order[position]
    words = [0] * (nodes * 2)
    for rank, node in enumerate(order):
        successor = order[(rank + 1) % nodes]
        words[node * 2] = generator.below(1 << 16)
        words[node * 2 + 1] = base + successor * 16
    return words


def _listchase(input_name: str) -> str:
    nodes = _size(input_name, 1024, 256)
    steps = _size(input_name, 4800, 640)
    # chase_nodes is the first (only) data directive, so it lands at the
    # assembler's data base and the precomputed next-pointers are absolute.
    data = [data_directive("chase_nodes", _chase_list(227, nodes, 0x100000))]
    setup = [
        "  la r16,chase_nodes",
        f"  ldi r18,{steps}",
    ]
    body = frag.pointer_chase_loop("chase", head="r16", steps="r18",
                                   accumulator="r11")
    return frag.kernel("listchase", data, setup, body)


def _fnvmix(input_name: str) -> str:
    words = _size(input_name, 512, 128)
    rounds = _size(input_name, 3840, 512)
    data = [data_directive("fnv_words", _values(229, words, 1 << 32))]
    setup = [
        "  la r16,fnv_words",
        f"  ldi r18,{rounds}",
        "  ldi r13,16777619",          # FNV-1a style prime
        "  ldi r11,2166136261",        # offset basis
    ]
    body = [
        "  clr r10",
        "fnv_loop:",
        f"  andi r10,{words - 1},r2",  # wrap the round counter into the table
        "  s8addl r2,r16,r8",
        "  ldq r3,0(r8)",
        "  xor r11,r3,r11",            # acc ^= word
        "  mulq r11,r13,r11",          # acc *= prime
    ] + frag.hash_mix_body("r11", "r12", temp1="r4", temp2="r5") + [
        "  xor r11,r12,r11",           # fold the mixed bits back in
    ] + frag.loop_footer("fnv", "r10", "r18")
    return frag.kernel("fnvmix", data, setup, body)


# ---------------------------------------------------------------------------
# rsynth / adpcm: interpolation tables and speech coding (MiBench variants).
# ---------------------------------------------------------------------------

def _rsynth(input_name: str) -> str:
    samples = _size(input_name, 256, 88)
    wavetable = [((i * 37) % 255) - 128 for i in range(128)]
    data = [
        data_directive("rsy_phases", _values(211, samples, 1 << 16)),
        data_directive("rsy_wavetable", [value & 0xFFFF for value in wavetable]),
        data_directive("rsy_out", [0] * samples),
    ]
    setup = [
        "  la r16,rsy_phases",
        "  la r19,rsy_wavetable",
        "  la r17,rsy_out",
        f"  ldi r18,{samples}",
    ]
    body = [
        "  clr r10",
        "rsynt_loop:",
        "  s8addl r10,r16,r8",
        "  ldq r2,0(r8)",
        "  srli r2,9,r3",
        "  andi r3,127,r3",
        "  s8addl r3,r19,r4",
        "  ldq r5,0(r4)",             # wavetable sample
        "  andi r2,511,r6",           # fractional part
        "  mulq r5,r6,r7",
        "  srai r7,9,r7",
        "  addq r5,r7,r5",
        "  s8addl r10,r17,r8",
        "  stq r5,0(r8)",
    ] + frag.loop_footer("rsynt", "r10", "r18")
    return frag.kernel("rsynth", data, setup, body)


def _adpcm_embedded(input_name: str) -> str:
    count = _size(input_name, 288, 96)
    data = [
        data_directive("adpce_in", _values(223, count, 4096)),
        data_directive("adpce_out", [0] * count),
    ]
    setup = [
        "  la r16,adpce_in",
        "  la r17,adpce_out",
        f"  ldi r18,{count}",
        "  clr r11",
        "  ldi r12,16",
    ]
    body_chain = (
        ["  subq r2,r11,r4"]
        + frag.field_extract_body("r4", "r5", shift=3, mask=15, temp="r6")
        + frag.scale_round_body("r5", "r3", scale=5, shift=1, bias=1, temp="r6")
        + ["  addq r11,r3,r11", "  srai r11,1,r11"]
    )
    body = frag.array_map_loop("adpce", input_base="r16", output_base="r17",
                               count="r18", body=body_chain)
    return frag.kernel("adpcm.embedded", data, setup, body)


def register() -> None:
    """Register all MiBench-like kernels with the global registry."""
    register_benchmark("bitcount", "embedded", _bitcount,
                       description="Population count via shift/mask ladders "
                                   "(MiBench bitcount)")
    register_benchmark("susan.smoothing", "embedded", _susan_smoothing,
                       description="Image smoothing: 3-tap weighted sums with clamping "
                                   "(MiBench susan)")
    register_benchmark("jpeg.encode", "embedded", _jpeg_encode,
                       description="Forward DCT butterflies and quantisation "
                                   "(MiBench cjpeg)")
    register_benchmark("rgb.to_gray", "embedded", _rgb_to_gray,
                       description="RGB-to-luma conversion chains (MiBench typeset/2rgba)")
    register_benchmark("dither", "embedded", _dither,
                       description="Error-diffusion dithering with a serial error "
                                   "recurrence (MiBench typeset dither)")
    register_benchmark("dijkstra", "embedded", _dijkstra,
                       description="Edge relaxation over adjacency arrays "
                                   "(MiBench dijkstra)")
    register_benchmark("sha", "embedded", _sha,
                       description="SHA-style rotate/xor/add rounds (MiBench sha)")
    register_benchmark("blowfish", "embedded", _blowfish,
                       description="Feistel rounds with S-box lookups (MiBench blowfish)")
    register_benchmark("crc", "embedded", _crc,
                       description="Table-driven CRC32 with a serial recurrence "
                                   "(MiBench CRC32)")
    register_benchmark("rsynth", "embedded", _rsynth,
                       description="Wavetable speech synthesis with interpolation "
                                   "(MiBench rsynth)")
    register_benchmark("adpcm.embedded", "embedded", _adpcm_embedded,
                       description="ADPCM encoder variant over MiBench-sized inputs "
                                   "(MiBench adpcm)")
    register_benchmark("listchase", "embedded", _listchase,
                       description="Long-horizon pointer-chasing list traversal "
                                   "(trace-volume stressor, health/patricia-like)",
                       default_budget=60_000)
    register_benchmark("fnvmix", "embedded", _fnvmix,
                       description="Long-horizon FNV-style multiply-xor hash/mix "
                                   "recurrence (trace-volume stressor)",
                       default_budget=60_000)
