"""Tests for the figure harnesses and `repro figure` (small budgets, small
benchmark subsets)."""

import json

import pytest

from repro.api import Session
from repro.api.cli import _build_parser, _figure_benchmarks, _grid_report, main
from repro.experiments import (
    FIGURE7_BENCHMARKS,
    ResultTable,
    best_policy,
    geometric_mean,
    run_coverage_panel,
    run_domain_panel,
    run_robustness,
)
from repro.workloads import QUICK_BENCHMARKS, REGISTRY

SMALL = ["gsm.toast", "frag", "bitcount", "mcf"]
BUDGET = 4000


@pytest.fixture(scope="module")
def session():
    return Session()


def _report(session, name, benchmarks):
    """Catalog grid ``name``'s (text, tables) report, as `repro figure` runs it."""
    return _grid_report(session, name, benchmarks, BUDGET)


class TestReporting:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_result_table_render_and_means(self):
        table = ResultTable(title="demo", columns=["a"])
        table.add("gsm.toast", "a", 1.2, suite="media")
        table.add("mcf", "a", 0.9, suite="spec")
        text = table.render()
        assert "demo" in text and "gsm.toast" in text
        assert table.suite_means("a")["media"] == pytest.approx(1.2)
        assert table.overall_mean("a") == pytest.approx(geometric_mean([1.2, 0.9]))


class TestFigureHarnesses:
    def test_figure5_panels(self, session):
        integer = run_coverage_panel(session, benchmarks=SMALL[:2], budget=BUDGET,
                                     integer_only=True)
        memory = run_coverage_panel(session, benchmarks=SMALL[:2], budget=BUDGET,
                                    integer_only=False)
        for name in SMALL[:2]:
            assert 0.0 <= integer.value(name, "512e/4i") <= 1.0
            assert memory.value(name, "512e/4i") >= integer.value(name, "512e/4i")

    def test_figure5_domain_panel(self, session):
        table = run_domain_panel(session, benchmarks=["frag", "rtr"], budget=BUDGET)
        assert table.column_values("domain-512e")
        assert table.column_values("domain-2048e")

    def test_figure6(self, session):
        text, (table,) = _report(session, "fig6", SMALL[:2])
        for name in SMALL[:2]:
            assert table.value(name, "int") > 0.0
        assert "Figure 6" in text and "baseline IPCs" in text

    def test_figure7(self, session):
        text, (table,) = _report(session, "fig7", ["gsm.toast"])
        row = table.rows["gsm.toast"]
        assert "int" in row and "int-mem-noserial-noreplay" in row
        assert "Best selection policy per benchmark" in text

    def test_best_policy(self, session):
        _, (table,) = _report(session, "fig7", ["gsm.toast", "mcf"])
        result = best_policy(table)
        assert set(result.best_policy) == {"gsm.toast", "mcf"}
        # The best policy can never be worse than the unrestricted default.
        assert result.best_speedup["mcf"] >= table.value("mcf", "int-mem") - 1e-9

    def test_figure8_register_panel(self, session):
        _, (table, _) = _report(session, "fig8", ["gsm.toast"])
        # Shrinking the register file cannot speed the baseline up.
        assert table.value("gsm.toast", "baseline@104") <= \
            table.value("gsm.toast", "baseline@164") + 1e-9

    def test_figure8_bandwidth_panel(self, session):
        _, (_, table) = _report(session, "fig8", ["bitcount"])
        assert table.value("bitcount", "baseline@4-wide") <= \
            table.value("bitcount", "baseline@6-wide") + 1e-9

    def test_robustness(self, session):
        result = run_robustness(session, benchmarks=["gsm.toast"], budget=BUDGET)
        assert "gsm.toast" in result.reports
        assert 0.0 <= result.mean_relative_loss <= 1.0

    def test_icache_effect(self, session):
        _, (table,) = _report(session, "icache", ["gcc"])
        assert table.value("gcc", "padded") > 0.0
        assert table.value("gcc", "compressed") > 0.0


class TestFigureCommand:
    def test_figure7_prints_the_best_policy_block(self, capsys):
        args = ["--no-disk-cache", "figure", "7", "--benchmarks", "mcf", "sha",
                "--budget", "2000"]
        assert main(args) == 0
        assert "Best selection policy per benchmark" in capsys.readouterr().out
        assert main(["--json", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [table["title"] for table in payload["tables"]] == \
            ["Figure 7: serialization and replay effects (relative performance)"]

    @pytest.mark.parametrize("argv, expected", [
        (["figure", "7"], list(FIGURE7_BENCHMARKS)),
        (["figure", "7", "--full"], REGISTRY.names()),
        (["figure", "7", "--full", "--benchmarks", "mcf"], ["mcf"]),
        (["figure", "6"], list(QUICK_BENCHMARKS)),
        (["figure", "extras", "--full"], REGISTRY.names()),
    ], ids=["fig7-default", "fig7-full", "benchmarks-over-full",
            "fig6-default", "extras-full"])
    def test_benchmark_resolution(self, argv, expected):
        """--benchmarks, then --full, then the figure's own default set."""
        assert _figure_benchmarks(_build_parser().parse_args(argv)) == expected

    def test_extras_without_spec_benchmarks(self, capsys):
        assert main(["--no-disk-cache", "figure", "extras", "--benchmarks",
                     "gsm.toast", "--budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Profile robustness across input sets" in out
        icache = out[out.index("Instruction-cache effect"):]
        assert "gsm.toast" not in icache     # rendered, but with no rows
