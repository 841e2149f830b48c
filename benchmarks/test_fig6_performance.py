"""Regenerates Figure 6: mini-graph performance relative to the baseline (E5)."""

import pytest

from conftest import grid_report, write_result


@pytest.mark.benchmark(group="figure6")
def test_fig6_performance(benchmark, session, benchmarks):
    text, (table,) = benchmark.pedantic(
        lambda: grid_report(session, "fig6", benchmarks),
        rounds=1, iterations=1)
    write_result("fig6_performance", text)

    media_gain = table.suite_means("int-mem").get("media", 1.0)
    spec_gain = table.suite_means("int-mem").get("spec", 1.0)
    # Shape checks from the paper: MediaBench benefits the most, SPECint the
    # least; collapsing ALU pipelines never hurt on average.
    assert media_gain >= spec_gain - 0.02
    assert table.overall_mean("int") > 0.95
    assert table.overall_mean("int-mem+collapse") >= table.overall_mean("int-mem") - 0.02
