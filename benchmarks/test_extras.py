"""Regenerates the textual results of Section 6: robustness (E4), the
instruction-cache/compression effect (E9) and selected ablations."""

import pytest

from repro.experiments import geometric_mean, run_robustness
from repro.minigraph import DEFAULT_POLICY, select_minigraphs
from repro.minigraph.enumeration import EnumerationLimits, enumerate_minigraphs
from repro.workloads import REGISTRY

from conftest import baseline, bench_budget, full_sweep, grid_report, write_result


@pytest.mark.benchmark(group="extras")
def test_profile_robustness(benchmark, session, benchmarks):
    names = benchmarks if full_sweep() else benchmarks[:8]
    result = benchmark.pedantic(
        lambda: run_robustness(session, benchmarks=names, budget=bench_budget()),
        rounds=1, iterations=1)
    write_result("robustness", result.render())
    # The paper reports ~15% average relative coverage loss across inputs;
    # anything between "no loss" and "half the coverage" matches the shape.
    assert 0.0 <= result.mean_relative_loss <= 0.5


@pytest.mark.benchmark(group="extras")
def test_icache_compression_effect(benchmark, session):
    spec_names = REGISTRY.names("spec")
    if not full_sweep():
        spec_names = spec_names[:4]
    text, (table,) = benchmark.pedantic(
        lambda: grid_report(session, "icache", spec_names),
        rounds=1, iterations=1)
    write_result("icache_effect", text)
    padded = table.overall_mean("padded")
    compressed = table.overall_mean("compressed")
    # Compression can only help (fewer instruction-cache lines touched).
    assert compressed >= padded - 0.02


@pytest.mark.benchmark(group="ablation")
def test_ablation_selection_order(benchmark, session, benchmarks):
    """Ablation: greedy coverage-driven selection vs. a small MGT.

    The selection ordering is a design choice worth ablating; the measurable proxy recorded here is how much coverage a
    16-entry MGT retains compared to the 512-entry default, which is exactly
    what greedy ranking by benefit is supposed to maximise.
    """
    names = benchmarks if full_sweep() else benchmarks[:8]

    def run():
        rows = []
        for name in names:
            program, profile = baseline(session, name)
            full = select_minigraphs(program, profile, policy=DEFAULT_POLICY)
            small = select_minigraphs(program, profile,
                                      policy=DEFAULT_POLICY.with_mgt_entries(16))
            retained = small.coverage / full.coverage if full.coverage else 1.0
            rows.append((name, full.coverage, small.coverage, retained))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["ablation: coverage retained by a 16-entry MGT vs 512 entries"]
    for name, full_cov, small_cov, retained in rows:
        lines.append(f"  {name:20s} full={full_cov:.3f} small={small_cov:.3f} "
                     f"retained={retained * 100.0:.0f}%")
    write_result("ablation_selection", "\n".join(lines))
    mean_retained = geometric_mean([max(row[3], 1e-6) for row in rows])
    assert mean_retained > 0.5


@pytest.mark.benchmark(group="ablation")
def test_ablation_graph_size_limit(benchmark, session, benchmarks):
    """Ablation: two-instruction mini-graphs carry most of the coverage."""
    names = benchmarks if full_sweep() else benchmarks[:8]

    def run():
        rows = []
        for name in names:
            program, profile = baseline(session, name)
            limits = EnumerationLimits(max_size=8)
            candidates = enumerate_minigraphs(program, limits)
            size2 = select_minigraphs(program, profile,
                                      policy=DEFAULT_POLICY.with_max_size(2),
                                      candidates=candidates).coverage
            size8 = select_minigraphs(program, profile,
                                      policy=DEFAULT_POLICY.with_max_size(8),
                                      candidates=candidates).coverage
            rows.append((name, size2, size8))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["ablation: coverage with max size 2 vs max size 8"]
    shares = []
    for name, size2, size8 in rows:
        share = size2 / size8 if size8 else 1.0
        shares.append(share)
        lines.append(f"  {name:20s} size<=2 {size2:.3f}  size<=8 {size8:.3f}  "
                     f"share={share * 100.0:.0f}%")
    write_result("ablation_graph_size", "\n".join(lines))
    # The paper: ~60% of coverage is achieved with 2-instruction graphs.
    assert sum(shares) / len(shares) > 0.4
