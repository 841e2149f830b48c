"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.minigraph import (
    DEFAULT_POLICY,
    MiniGraphTemplate,
    TemplateInstruction,
    build_mgt_entry,
    external,
    internal,
)
from repro.program import Program
from repro.sim import Memory, run_program
from repro.uarch import BranchTargetBuffer, Cache, HybridBranchPredictor
from repro.uarch.config import CacheConfig

_addresses = st.integers(min_value=0, max_value=1 << 30).map(lambda value: value * 8)
_words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestMemoryProperties:
    @given(address=_addresses, value=_words)
    def test_store_load_round_trip(self, address, value):
        memory = Memory()
        memory.store_word(address, value)
        assert memory.load_word(address) == value

    @given(address=_addresses, first=_words, second=_words)
    def test_last_store_wins(self, address, first, second):
        memory = Memory()
        memory.store_word(address, first)
        memory.store_word(address, second)
        assert memory.load_word(address) == second

    @given(address=_addresses, value=_words, other=_addresses)
    def test_stores_do_not_alias_distinct_words(self, address, value, other):
        if address == other:
            return
        memory = Memory()
        memory.store_word(address, value)
        assert memory.load_word(other) == 0

    @given(address=_addresses, value=st.integers(min_value=0, max_value=255),
           byte_offset=st.integers(min_value=0, max_value=7))
    def test_byte_store_only_touches_its_byte(self, address, value, byte_offset):
        memory = Memory()
        memory.store_word(address, 0)
        memory.store(address + byte_offset, value, 1)
        loaded = memory.load_word(address)
        assert (loaded >> (byte_offset * 8)) & 0xFF == value
        assert loaded & ~(0xFF << (byte_offset * 8)) == 0


class TestPredictorProperties:
    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=200))
    def test_predictor_counters_stay_bounded(self, outcomes):
        predictor = HybridBranchPredictor(entries=64)
        for taken in outcomes:
            predicted = predictor.predict(0x40)
            predictor.update(0x40, taken, predicted)
        assert predictor.stats.direction_lookups == len(outcomes)
        assert 0 <= predictor.stats.direction_mispredictions <= len(outcomes)

    @given(pcs=st.lists(st.integers(min_value=0, max_value=1 << 20)
                        .map(lambda value: value * 4), min_size=1, max_size=100))
    def test_btb_most_recent_entry_always_hits(self, pcs):
        btb = BranchTargetBuffer(entries=64, associativity=4)
        for pc in pcs:
            btb.update(pc, pc + 8)
            assert btb.lookup(pc) == pc + 8


class TestCacheProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                              max_size=300))
    def test_miss_count_never_exceeds_accesses(self, addresses):
        cache = Cache(CacheConfig(1024, 2, 32, 1))
        for address in addresses:
            cache.access(address)
        assert cache.stats.misses <= cache.stats.accesses

    @given(address=st.integers(min_value=0, max_value=1 << 20))
    def test_repeat_access_hits(self, address):
        cache = Cache(CacheConfig(1024, 2, 32, 1))
        cache.access(address)
        assert cache.access(address)


class TestTemplateProperties:
    @given(length=st.integers(min_value=2, max_value=8),
           out_position=st.integers(min_value=0, max_value=7))
    def test_serial_chains_are_never_internally_parallel(self, length, out_position):
        instructions = [TemplateInstruction("addli", src0=external(0), imm=1)]
        for position in range(1, length):
            instructions.append(
                TemplateInstruction("addli", src0=internal(position - 1), imm=1))
        template = MiniGraphTemplate(
            instructions=tuple(instructions),
            num_inputs=1,
            out_index=min(out_position, length - 1),
        )
        assert template.is_serial_chain
        entry = build_mgt_entry(0, template)
        # A serial integer chain occupies exactly one bank per instruction and
        # its output latency equals the producing position + 1.
        assert len(entry.banks) == length
        assert entry.header.lat == min(out_position, length - 1) + 1
        assert entry.header.total_latency == length


class TestSelectionProperties:
    @settings(deadline=None, max_examples=10)
    @given(values=st.lists(st.integers(min_value=0, max_value=255), min_size=4,
                           max_size=12))
    def test_rewriting_random_reduction_kernels_preserves_semantics(self, values):
        data = " ".join(str(value) for value in values)
        source = f"""
        .data values {data}
          la r16, values
          ldi r18, {len(values)}
          clr r10
          clr r11
        loop:
          s8addl r10,r16,r8
          ldq r2,0(r8)
          srli r2,2,r3
          xor r3,r2,r3
          andi r3,63,r3
          addq r11,r3,r11
          addqi r10,1,r10
          cmplt r10,r18,r9
          bne r9,loop
          halt
        """
        program = Program.from_assembly("prop-kernel", source)
        baseline = run_program(program, max_instructions=2000)
        from repro.minigraph import MiniGraphTable, select_minigraphs
        from repro.program import rewrite_program
        selection = select_minigraphs(program, baseline.profile, policy=DEFAULT_POLICY)
        mgt = MiniGraphTable.from_selection(selection)
        rewritten = rewrite_program(program, selection.rewrite_sites()).program
        result = run_program(rewritten, mgt=mgt, max_instructions=2000)
        # Memory and the live accumulator must match; dead temporaries are not
        # compared (the rewriting legitimately never materialises them).
        assert result.memory.checksum() == baseline.memory.checksum()
        assert result.register(11) == baseline.register(11)
