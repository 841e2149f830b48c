"""Regenerates Figure 8 (bottom): bandwidth reduction and scheduler pipelining (E8)."""

from conftest import full_sweep, grid_report, write_result


def test_fig8_bandwidth_and_scheduler(session, benchmarks):
    names = benchmarks if full_sweep() else benchmarks[:8]
    _, (_, table) = grid_report(session, "fig8", names)
    write_result("fig8_bandwidth", table.render())

    for name in names:
        # Narrowing the pipeline never speeds up the baseline.
        assert table.value(name, "baseline@4-wide") <= table.value(name, "baseline@6-wide") + 1e-9
    # Mini-graphs restore part of the 4-wide loss and help tolerate a 2-cycle
    # scheduler, on average.
    assert table.overall_mean("int-mem@4-wide") >= table.overall_mean("baseline@4-wide") - 0.05
    assert table.overall_mean("int-mem@2-cycle-sched") >= \
        table.overall_mean("baseline@2-cycle-sched") - 0.05
    # Restoring the execution width (4-wide + 6-exec) helps the mini-graph
    # machine at least as much as the plain 4-wide machine.
    assert table.overall_mean("int-mem@4-wide+6-exec") >= \
        table.overall_mean("int-mem@4-wide") - 0.05
