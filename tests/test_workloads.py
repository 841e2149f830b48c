"""Tests for the synthetic workload suites."""

import pytest

from repro.program import BlockIndex, average_block_size
from repro.sim import run_program
from repro.workloads import (
    REGISTRY,
    SUITE_NAMES,
    WorkloadError,
    benchmark_names,
    get_benchmark,
    load_benchmark,
    suite_benchmarks,
)
from repro.workloads.base import LinearCongruentialGenerator


class TestRegistry:
    def test_all_suites_populated(self):
        for suite in SUITE_NAMES:
            assert len(benchmark_names(suite)) >= 5, suite

    def test_total_benchmark_count(self):
        assert len(REGISTRY) >= 30

    def test_unknown_benchmark_raises(self):
        with pytest.raises(WorkloadError):
            get_benchmark("does-not-exist")

    def test_unknown_suite_raises(self):
        with pytest.raises(WorkloadError):
            benchmark_names("unknown-suite")

    def test_unknown_input_raises(self):
        with pytest.raises(WorkloadError):
            get_benchmark("gcc").source("enormous")

    def test_descriptions_present(self):
        for benchmark in REGISTRY.all():
            assert benchmark.description, benchmark.name

    def test_suite_lookup(self):
        media = suite_benchmarks("media")
        assert all(benchmark.suite == "media" for benchmark in media)


class TestDeterminism:
    def test_prng_is_deterministic(self):
        a = LinearCongruentialGenerator(42).sequence(16, 1000)
        b = LinearCongruentialGenerator(42).sequence(16, 1000)
        assert a == b

    def test_program_build_is_deterministic(self):
        first = load_benchmark("sha")
        second = load_benchmark("sha")
        assert [str(i) for i in first.instructions] == [str(i) for i in second.instructions]
        assert first.data == second.data

    def test_train_input_differs_from_reference(self):
        reference = load_benchmark("gsm.toast", "reference")
        train = load_benchmark("gsm.toast", "train")
        assert reference.data != train.data


@pytest.mark.parametrize("name", benchmark_names())
def test_every_kernel_assembles_runs_and_terminates(name):
    program = load_benchmark(name)
    result = run_program(program, max_instructions=60_000)
    assert result.halted, f"{name} did not reach halt within the budget"
    assert result.instructions_executed > 1_000, name


@pytest.mark.parametrize("name", ["listchase", "fnvmix"])
def test_long_horizon_kernels_stress_trace_volume(name):
    """The trace-volume stressors commit an order of magnitude more entries
    than the rest of the embedded suite (they exist to exercise the columnar
    trace pipeline at volume) while still halting within their budget."""
    result = run_program(load_benchmark(name), max_instructions=60_000)
    assert result.halted, name
    assert result.entries_committed > 40_000, name
    assert len(result.trace) == result.entries_committed


@pytest.mark.parametrize("name", ["listchase", "fnvmix"])
def test_long_horizon_kernels_have_character(name):
    """listchase must be load-latency bound, fnvmix a serial ALU recurrence."""
    result = run_program(load_benchmark(name), max_instructions=60_000)
    loads = result.trace.load_count()
    slots = len(result.trace)
    if name == "listchase":
        assert loads / slots > 0.2, "pointer chase should be load dense"
    else:
        assert result.trace.store_count() == 0, "fnvmix is a pure reduction"
        assert loads / slots < 0.15, "fnvmix should be ALU-chain dominated"


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_structure_matches_its_character(suite):
    """SPEC-like kernels must be branchier / smaller-blocked than media kernels."""
    sizes = []
    for name in benchmark_names(suite):
        sizes.append(average_block_size(BlockIndex(load_benchmark(name)).blocks))
    mean_block_size = sum(sizes) / len(sizes)
    if suite == "spec":
        assert mean_block_size < 9.0
    if suite == "media":
        assert mean_block_size > 4.0


def test_spec_static_footprint_is_largest():
    def static_size(suite):
        return sum(len(load_benchmark(name)) for name in benchmark_names(suite)) \
            / len(benchmark_names(suite))
    assert static_size("spec") > static_size("embedded")
