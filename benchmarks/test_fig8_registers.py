"""Regenerates Figure 8 (top): register-file reduction compensation (E7)."""

import pytest

from conftest import full_sweep, grid_report, write_result


@pytest.mark.benchmark(group="figure8")
def test_fig8_register_file(benchmark, session, benchmarks):
    names = benchmarks if full_sweep() else benchmarks[:8]
    _, (table, _) = benchmark.pedantic(
        lambda: grid_report(session, "fig8", names),
        rounds=1, iterations=1)
    write_result("fig8_registers", table.render())

    for name in names:
        # Shrinking the register file never speeds up the baseline.
        assert table.value(name, "baseline@104") <= table.value(name, "baseline@164") + 1e-9
    # On average, mini-graphs at 124 registers recover performance relative to
    # the shrunken baseline (the paper: they compensate for ~40% reductions).
    minigraph_mean = table.overall_mean("int-mem@124")
    baseline_mean = table.overall_mean("baseline@124")
    assert minigraph_mean >= baseline_mean - 0.05
