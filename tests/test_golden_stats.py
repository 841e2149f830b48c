"""Golden-stats equivalence tests for the event-driven scheduler rewrite.

``tests/golden/timing_stats.json`` was generated by the pre-rewrite timing
simulator, whose issue stage rescanned the whole issue queue every cycle.
These tests pin the event-driven wakeup/select scheduler (plus the interned
decode path and the plan-compiled functional simulator feeding it) to those
statistics *bit-for-bit* across every embedded workload, on both the
baseline and the mini-graph machine, and on both timing paths: the compiled
kernel behind ``Session.run`` and the reference ``TimingSimulator`` it falls
back to without a C compiler.  Any scheduling divergence — an entity
selected a cycle early or late, a changed structural-conflict outcome, a
different replay count — shows up as a failed equality on the full stats
dictionary.

Regenerate the golden file only when a *modelling* change is intended::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
from pathlib import Path

import pytest

from repro.api import RunSpec, Session
from repro.uarch.pipeline import TimingSimulator

GOLDEN_PATH = Path(__file__).parent / "golden" / "timing_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def session() -> Session:
    # One shared in-memory session: the equivalence sweep reuses each
    # benchmark's functional artifacts across the baseline/mini-graph runs.
    return Session()


def test_golden_file_covers_the_embedded_suite():
    from repro.workloads import REGISTRY
    assert sorted(GOLDEN) == sorted(REGISTRY.names("embedded"))


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_scheduler_rewrite_matches_golden_stats(workload: str, session: Session):
    expected = GOLDEN[workload]
    artifacts = session.run(RunSpec(benchmark=workload, budget=expected["budget"]))
    assert artifacts.baseline_timing.as_dict() == expected["baseline"], \
        f"{workload}: baseline timing diverged from the pre-rewrite simulator"
    assert artifacts.timing.as_dict() == expected["minigraph"], \
        f"{workload}: mini-graph timing diverged from the pre-rewrite simulator"
    assert artifacts.coverage == expected["coverage"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_reference_simulator_matches_golden_stats(workload: str,
                                                  session: Session):
    expected = GOLDEN[workload]
    spec = RunSpec(benchmark=workload, budget=expected["budget"])
    artifacts = session.run(spec)
    baseline = TimingSimulator(artifacts.program, artifacts.baseline_trace,
                               spec.resolved_baseline_machine).run()
    minigraph = TimingSimulator(artifacts.rewritten, artifacts.minigraph_trace,
                                spec.resolved_machine, mgt=artifacts.mgt).run()
    assert baseline.as_dict() == expected["baseline"], \
        f"{workload}: reference baseline timing diverged from golden"
    assert minigraph.as_dict() == expected["minigraph"], \
        f"{workload}: reference mini-graph timing diverged from golden"
