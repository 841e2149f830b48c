"""The incremental compilation front-end: registry, heap selection, memo.

Three families of guarantees:

* the heap-driven greedy selector is **bit-identical** to the kept O(n^2)
  reference loop (:func:`select_minigraphs_reference`) — property-tested on
  random programs with random block frequencies, and regression-tested on
  the embedded suite (pick order included);
* memoized enumeration returns exactly what a fresh enumeration returns,
  block for block, and the safety valves surface truncation instead of
  silently dropping candidates;
* the template registry's cached sort keys realise the seed's ``repr``
  tie-break order exactly, interned ids never survive pickling, and a
  candidate without one is rejected rather than re-interned.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.minigraph import (
    DEFAULT_POLICY,
    FRONTEND_STATS,
    INTEGER_POLICY,
    NON_SERIAL_NON_REPLAY_POLICY,
    TEMPLATE_REGISTRY,
    EnumerationLimits,
    EnumerationResult,
    MiniGraphTemplate,
    TemplateError,
    TemplateInstruction,
    clear_block_memo,
    enumerate_minigraphs,
    external,
    select_domain_minigraphs,
    select_minigraphs,
    select_minigraphs_reference,
)
from repro.minigraph.selection import group_candidates
from repro.program import Program
from repro.program.basic_block import BlockIndex
from repro.program.profile import BlockProfile
from repro.sim import run_program
from repro.workloads import REGISTRY, load_benchmark

# -- random program / profile generation ---------------------------------------

_REGS = [1, 2, 3, 4, 5, 6, 7, 8]


def _random_instruction(rng: random.Random) -> str:
    reg = lambda: rng.choice(_REGS)
    kind = rng.randrange(8)
    if kind < 3:
        op = rng.choice(["addq", "subq", "xor", "cmplt"])
        return f"{op} r{reg()},r{reg()},r{reg()}"
    if kind < 5:
        op = rng.choice(["addqi", "srli", "andi"])
        return f"{op} r{reg()},{rng.randrange(1, 64)},r{reg()}"
    if kind == 5:
        return f"ldq r{reg()},{8 * rng.randrange(8)}(r{reg()})"
    if kind == 6:
        return f"stq r{reg()},{8 * rng.randrange(8)}(r{reg()})"
    return f"addq r31,r{reg()},r{reg()}"  # zero-register read


def _random_program(seed: int) -> Program:
    rng = random.Random(seed)
    segments = rng.randrange(1, 4)
    lines = []
    for segment in range(segments):
        lines.append(f"seg{segment}:")
        for _ in range(rng.randrange(3, 11)):
            lines.append("  " + _random_instruction(rng))
        if segment + 1 < segments and rng.random() < 0.7:
            target = rng.randrange(segment + 1, segments)
            lines.append(f"  bne r{rng.choice(_REGS)},seg{target}")
    lines.append("  halt")
    return Program.from_assembly(f"random-{seed}", "\n".join(lines))


def _random_profile(program: Program, seed: int) -> BlockProfile:
    rng = random.Random(seed ^ 0x5EED)
    profile = BlockProfile(program_name=program.name)
    for block in BlockIndex(program).blocks:
        profile.counts[block.block_id] = rng.randrange(0, 8)
    profile.dynamic_instructions = sum(profile.counts.values()) * 4 + 1
    return profile


def _selection_fingerprint(selection):
    return {
        "picks": [(selected.template.key(),
                   [instance.member_indices for instance in selected.instances],
                   selected.dynamic_benefit)
                  for selected in selection.selected],
        "covered": selection.covered_dynamic_instructions,
        "candidates": selection.candidate_count,
        "truncated": selection.truncated,
        "dropped": selection.dropped_candidates,
    }


# -- heap selector vs reference (property) -------------------------------------

class TestHeapSelectorMatchesReference:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_selection_on_random_programs(self, seed):
        program = _random_program(seed)
        profile = _random_profile(program, seed)
        for policy in (DEFAULT_POLICY, INTEGER_POLICY,
                       NON_SERIAL_NON_REPLAY_POLICY,
                       DEFAULT_POLICY.with_mgt_entries(2)):
            fast = select_minigraphs(program, profile, policy=policy)
            reference = select_minigraphs_reference(program, profile, policy=policy)
            assert _selection_fingerprint(fast) == _selection_fingerprint(reference)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_selection_on_shared_candidate_lists(self, seed):
        # The Figure 5 sweep path: one enumeration, many policies.
        program = _random_program(seed)
        profile = _random_profile(program, seed)
        candidates = enumerate_minigraphs(program, EnumerationLimits(max_size=8))
        for entries in (1, 3, 512):
            policy = DEFAULT_POLICY.with_mgt_entries(entries).with_max_size(4)
            fast = select_minigraphs(program, profile, policy=policy,
                                     candidates=candidates)
            reference = select_minigraphs_reference(
                program, profile, policy=policy, candidates=candidates)
            assert _selection_fingerprint(fast) == _selection_fingerprint(reference)


# -- memoized enumeration equals fresh enumeration -----------------------------

def _enumerate_counting_memo(program, limits):
    """(candidates, memo hits, memo misses) of one enumeration."""
    before = FRONTEND_STATS.snapshot()
    result = enumerate_minigraphs(program, limits)
    delta = FRONTEND_STATS.delta_since(before)
    return result, delta.block_memo_hits, delta.block_memo_misses


class TestEnumerationMemo:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_memoized_equals_fresh(self, seed):
        program = _random_program(seed)
        limits = EnumerationLimits()
        clear_block_memo()
        fresh, hits, _ = _enumerate_counting_memo(program, limits)
        assert hits == 0
        memoized, _, misses = _enumerate_counting_memo(program, limits)
        assert misses == 0
        assert list(memoized) == list(fresh)
        assert memoized.truncated_blocks == fresh.truncated_blocks
        assert memoized.dropped_subsets == fresh.dropped_subsets

    def test_memo_key_includes_limits(self):
        program = _random_program(7)
        clear_block_memo()
        wide = enumerate_minigraphs(program, EnumerationLimits(max_size=4))
        narrow, _, misses = _enumerate_counting_memo(
            program, EnumerationLimits(max_size=2))
        assert misses > 0  # different limits never share entries
        assert all(candidate.size <= 2 for candidate in narrow)
        assert len(wide) >= len(narrow)

    def test_memo_shares_repeated_blocks_within_a_program(self):
        # Two byte-identical blocks (same ops, same branch target PC, same
        # live-out slice) followed by a distinct terminator block.
        body = """
        first:
          addq r1,r2,r3
          addq r3,r2,r4
          bne r4,exit
        second:
          addq r1,r2,r3
          addq r3,r2,r4
          bne r4,exit
        exit:
          halt
        """
        program = Program.from_assembly("repeated", body)
        clear_block_memo()
        _, hits, _ = _enumerate_counting_memo(program, EnumerationLimits())
        # The first two blocks are identical in content and live-out slice.
        assert hits >= 1


# -- truncation is surfaced ----------------------------------------------------

class TestTruncationSurfacing:
    def _dense_program(self) -> Program:
        # One block of interwoven dependences: plenty of connected subsets.
        lines = ["  addq r1,r2,r3"]
        for _ in range(10):
            lines.append("  addq r3,r1,r4")
            lines.append("  addq r4,r2,r3")
        lines.append("  halt")
        return Program.from_assembly("dense", "\n".join(lines))

    def test_candidate_cap_reports_truncation(self):
        program = self._dense_program()
        full = enumerate_minigraphs(program, EnumerationLimits())
        assert not full.truncated and full.dropped_subsets == 0
        capped = enumerate_minigraphs(
            program, EnumerationLimits(max_candidates_per_block=1))
        assert capped.truncated
        assert capped.truncated_blocks >= 1
        assert capped.dropped_subsets > 0
        assert len(capped) < len(full)

    def test_selection_result_carries_truncation(self):
        program = self._dense_program()
        profile = _random_profile(program, 1)
        capped = enumerate_minigraphs(
            program, EnumerationLimits(max_candidates_per_block=1))
        selection = select_minigraphs(program, profile, candidates=capped)
        assert selection.truncated
        assert selection.dropped_candidates == capped.dropped_subsets
        clean = select_minigraphs(program, profile)
        assert not clean.truncated and clean.dropped_candidates == 0


# -- registry ------------------------------------------------------------------

class TestTemplateRegistry:
    def test_sort_keys_match_repr_of_canonical_key(self):
        # Force a varied population, then check the fast-path sort keys are
        # byte-identical with the slow form they must reproduce.
        for seed in range(20):
            enumerate_minigraphs(_random_program(seed), EnumerationLimits(max_size=8))
        assert len(TEMPLATE_REGISTRY) > 0
        for tid in range(len(TEMPLATE_REGISTRY)):
            template = TEMPLATE_REGISTRY.template(tid)
            assert TEMPLATE_REGISTRY.sort_key(tid) == repr(template.key())

    def test_interning_is_stable_and_identity_shared(self):
        program = _random_program(3)
        first = enumerate_minigraphs(program, EnumerationLimits())
        second = enumerate_minigraphs(program, EnumerationLimits())
        for a, b in zip(first, second):
            assert a.template_id == b.template_id
            assert a.template is b.template  # canonical registry object

    def test_template_id_is_stripped_on_pickle(self):
        program = _random_program(11)
        candidates = enumerate_minigraphs(program, EnumerationLimits())
        if not candidates:
            pytest.skip("random program produced no candidates")
        candidate = candidates[0]
        assert candidate.template_id is not None
        clone = pickle.loads(pickle.dumps(candidate))
        assert clone.template_id is None
        assert clone == candidate  # identity excludes the id
        assert candidate.template_id is not None  # the original keeps its id

    def test_selection_rejects_a_candidate_without_an_id(self):
        program = _random_program(11)
        candidates = enumerate_minigraphs(program, EnumerationLimits())
        if not candidates:
            pytest.skip("random program produced no candidates")
        clone = pickle.loads(pickle.dumps(candidates[0]))
        profile = _random_profile(program, 11)
        with pytest.raises(ValueError, match="template_id"):
            select_minigraphs(program, profile, candidates=[clone])

    def test_a_shape_that_fails_validation_raises_and_registers_nothing(self):
        size = len(TEMPLATE_REGISTRY)
        builds = []

        def build():
            builds.append(1)
            return MiniGraphTemplate(
                instructions=(TemplateInstruction("addq", external(0),
                                                  external(1)),),
                num_inputs=2, out_index=0)

        raw_key = ((("addq", 0, 1, None),), 2, 0)
        for _ in range(2):  # nothing is memoized: each miss builds again
            with pytest.raises(TemplateError, match="two instructions"):
                TEMPLATE_REGISTRY.intern_raw(raw_key, build)
        assert len(builds) == 2
        assert len(TEMPLATE_REGISTRY) == size

    def test_ranks_realise_sort_key_order(self):
        for seed in range(5):
            enumerate_minigraphs(_random_program(seed), EnumerationLimits())
        tids = list(range(len(TEMPLATE_REGISTRY)))
        ranks = TEMPLATE_REGISTRY.ranks(tids)
        ordered = sorted(tids, key=TEMPLATE_REGISTRY.sort_key)
        assert [ranks[tid] for tid in ordered] == list(range(len(ordered)))


# -- streaming domain selection matches the seed algorithm ---------------------

def _domain_reference(programs, suite_name, policy):
    """The seed's select_domain_minigraphs, re-materialised for comparison."""
    per_program_candidates = {}
    total_benefit = {}
    representative = {}
    limits = EnumerationLimits(max_size=policy.max_size,
                               allow_memory=policy.allow_memory,
                               allow_branches=policy.allow_branches)
    for name, (program, profile) in programs.items():
        candidates = policy.filter_candidates(enumerate_minigraphs(program, limits))
        per_program_candidates[name] = candidates
        for key, group in group_candidates(candidates).items():
            representative.setdefault(key, group.template)
            benefit = group.benefit(profile, set())
            total_benefit[key] = total_benefit.get(key, 0) + benefit
    ranked = sorted(total_benefit.items(), key=lambda item: (-item[1], repr(item[0])))
    shared_keys = {key for key, benefit in ranked[:policy.max_templates] if benefit > 0}
    shared_templates = [representative[key] for key, _ in ranked[:policy.max_templates]
                        if key in shared_keys]
    per_program = {}
    for name, (program, profile) in programs.items():
        restricted = [candidate for candidate in per_program_candidates[name]
                      if candidate.template.key() in shared_keys]
        per_program[name] = select_minigraphs_reference(
            program, profile, policy=policy, candidates=restricted)
    return shared_templates, per_program


class TestStreamingDomainSelection:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_matches_seed_algorithm(self, seed):
        programs = {}
        for offset in range(3):
            program = _random_program(seed + offset * 1_000)
            programs[program.name] = (program, _random_profile(program, seed + offset))
        for policy in (DEFAULT_POLICY, DEFAULT_POLICY.with_mgt_entries(2)):
            domain = select_domain_minigraphs(programs, suite_name="prop",
                                              policy=policy)
            expected_templates, expected_per_program = _domain_reference(
                programs, "prop", policy)
            assert [t.key() for t in domain.templates] == \
                [t.key() for t in expected_templates]
            assert set(domain.per_program) == set(expected_per_program)
            for name, result in domain.per_program.items():
                assert _selection_fingerprint(result) == \
                    _selection_fingerprint(expected_per_program[name])


# -- embedded-suite regression: pick order unchanged ---------------------------

class TestEmbeddedSuiteRegression:
    @pytest.fixture(scope="class")
    def embedded_programs(self):
        programs = {}
        for name in REGISTRY.names("embedded"):
            program = load_benchmark(name)
            result = run_program(program, max_instructions=2_000)
            programs[name] = (program, result.profile)
        return programs

    def test_selection_order_unchanged(self, embedded_programs):
        for name, (program, profile) in embedded_programs.items():
            fast = select_minigraphs(program, profile, policy=DEFAULT_POLICY)
            reference = select_minigraphs_reference(program, profile,
                                                    policy=DEFAULT_POLICY)
            assert [selected.template.key() for selected in fast.selected] == \
                [selected.template.key() for selected in reference.selected], name
            assert _selection_fingerprint(fast) == \
                _selection_fingerprint(reference), name

    def test_domain_selection_order_unchanged(self, embedded_programs):
        policy = DEFAULT_POLICY.with_mgt_entries(64)
        domain = select_domain_minigraphs(embedded_programs,
                                          suite_name="embedded", policy=policy)
        expected_templates, expected_per_program = _domain_reference(
            embedded_programs, "embedded", policy)
        assert [t.key() for t in domain.templates] == \
            [t.key() for t in expected_templates]
        for name, result in domain.per_program.items():
            assert _selection_fingerprint(result) == \
                _selection_fingerprint(expected_per_program[name]), name
