"""Regenerates Figure 7 and the best-policy result (E6, E10)."""

from repro.experiments import FIGURE7_BENCHMARKS, best_policy

from conftest import full_sweep, grid_report, write_result


def test_fig7_serialization(session):
    _, (table,) = grid_report(session, "fig7", FIGURE7_BENCHMARKS)
    write_result("fig7_serialization", table.render())
    # mcf is the paper's replay-loss poster child: removing serialization and
    # replay-vulnerable graphs must not make it worse.
    assert table.value("mcf", "int-mem-noserial-noreplay") >= table.value("mcf", "int-mem") - 0.02


def test_best_policy(session, benchmarks):
    names = benchmarks if full_sweep() else benchmarks[:8]
    _, (table,) = grid_report(session, "fig7", names)
    result = best_policy(table)
    write_result("best_policy", result.render())
    # Choosing the best policy per benchmark can only improve on any fixed policy.
    for name in names:
        assert result.best_speedup[name] >= table.value(name, "int-mem") - 1e-9
