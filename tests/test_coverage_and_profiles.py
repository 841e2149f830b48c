"""Tests for profiles, coverage accounting, sweeps and robustness reports."""

import pytest

from repro.minigraph import (
    DEFAULT_POLICY,
    INTEGER_POLICY,
    measure_selection_on_profile,
    robustness_report,
    select_domain_minigraphs,
    select_minigraphs,
    sweep_coverage,
)
from repro.sim import run_program
from repro.workloads import load_benchmark


def _artifacts(name, budget=5000):
    program = load_benchmark(name)
    result = run_program(program, max_instructions=budget)
    return program, result.profile


class TestCoverageSweep:
    def test_coverage_monotone_in_mgt_entries(self):
        program, profile = _artifacts("gcc")
        sweep = sweep_coverage(program, profile, base_policy=DEFAULT_POLICY,
                               mgt_sizes=(1, 4, 512), graph_sizes=(4,))
        assert (sweep.coverage_at(1, 4) <= sweep.coverage_at(4, 4)
                <= sweep.coverage_at(512, 4))

    def test_coverage_monotone_in_graph_size(self):
        program, profile = _artifacts("adpcm.encode")
        sweep = sweep_coverage(program, profile, base_policy=DEFAULT_POLICY,
                               mgt_sizes=(512,), graph_sizes=(2, 3, 4))
        assert (sweep.coverage_at(512, 2) <= sweep.coverage_at(512, 3)
                <= sweep.coverage_at(512, 4))

    def test_integer_memory_covers_at_least_integer(self):
        program, profile = _artifacts("frag")
        integer = select_minigraphs(program, profile, policy=INTEGER_POLICY).coverage
        memory = select_minigraphs(program, profile, policy=DEFAULT_POLICY).coverage
        assert memory >= integer

    def test_coverage_by_size_sums_to_total(self):
        program, profile = _artifacts("gsm.toast")
        selection = select_minigraphs(program, profile, policy=DEFAULT_POLICY)
        assert sum(selection.coverage_by_size().values()) == pytest.approx(selection.coverage)

    def test_two_instruction_graphs_dominate(self):
        """The paper: ~60% of coverage comes from 2-instruction mini-graphs."""
        totals = {2: 0.0, "other": 0.0}
        for name in ("gcc", "frag", "gsm.toast", "bitcount"):
            program, profile = _artifacts(name)
            selection = select_minigraphs(program, profile, policy=DEFAULT_POLICY)
            for size, coverage in selection.coverage_by_size().items():
                key = 2 if size == 2 else "other"
                totals[key] += coverage
        assert totals[2] > 0.0


class TestDomainSelection:
    def test_domain_mgt_is_shared_and_bounded(self):
        programs = {}
        for name in ("frag", "rtr", "drr"):
            programs[name] = _artifacts(name)
        result = select_domain_minigraphs(programs, suite_name="comm",
                                          policy=DEFAULT_POLICY.with_mgt_entries(16))
        assert result.template_count <= 16
        assert set(result.per_program) == set(programs)

    def test_domain_coverage_not_above_application_specific(self):
        programs = {}
        for name in ("bitcount", "sha", "crc"):
            programs[name] = _artifacts(name)
        policy = DEFAULT_POLICY.with_mgt_entries(8)
        domain = select_domain_minigraphs(programs, suite_name="embedded", policy=policy)
        for name, (program, profile) in programs.items():
            own = select_minigraphs(program, profile, policy=policy).coverage
            assert domain.per_program[name].coverage <= own + 1e-9


class TestRobustness:
    def test_cross_input_coverage_not_above_reference(self):
        program, reference_profile = _artifacts("gsm.toast")
        train = load_benchmark("gsm.toast", "train")
        train_profile = run_program(train, max_instructions=5000).profile
        report = robustness_report(program, reference_profile, train_profile,
                                   policy=DEFAULT_POLICY)
        assert report.cross_input_coverage <= report.reference_coverage + 1e-9
        assert 0.0 <= report.relative_loss <= 1.0

    def test_measuring_selection_on_its_own_profile_matches(self):
        program, profile = _artifacts("frag")
        selection = select_minigraphs(program, profile, policy=DEFAULT_POLICY)
        assert measure_selection_on_profile(selection, profile) == pytest.approx(
            selection.coverage)
