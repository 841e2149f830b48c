"""Regenerates Figure 5: mini-graph coverage (E1, E2, E3)."""

from repro.experiments import run_coverage_panel, run_domain_panel

from conftest import bench_budget, write_result


def test_fig5_integer(session, benchmarks):
    """Figure 5 top panel: application-specific integer mini-graphs."""
    table = run_coverage_panel(session, benchmarks=benchmarks,
                               budget=bench_budget(), integer_only=True)
    write_result("fig5_integer", table.render())
    for name in benchmarks:
        assert 0.0 <= table.value(name, "512e/4i") <= 0.6


def test_fig5_integer_memory(session, benchmarks):
    """Figure 5 middle panel: application-specific integer-memory mini-graphs."""
    table = run_coverage_panel(session, benchmarks=benchmarks,
                               budget=bench_budget(), integer_only=False)
    write_result("fig5_integer_memory", table.render())
    integer = run_coverage_panel(session, benchmarks=benchmarks,
                                 budget=bench_budget(), integer_only=True)
    # Integer-memory coverage dominates integer coverage (the paper reports
    # roughly a 50% relative increase).
    for name in benchmarks:
        assert table.value(name, "512e/4i") >= integer.value(name, "512e/4i") - 1e-9


def test_fig5_domain(session, benchmarks):
    """Figure 5 bottom panel: domain-specific integer-memory mini-graphs."""
    table = run_domain_panel(session, benchmarks=benchmarks,
                             budget=bench_budget())
    write_result("fig5_domain", table.render())
    assert table.rows
