"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import SpanRecorder, coverage, layer_times  # noqa: E402
from speed import MIN_SPAN_S, REFERENCE_S, SpeedProbe  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_what_children_cover():
    # parent [0, 10] holds a [1, 3] and b [2, 5]; a holds g [1.5, 2].
    # The children overlap, so the parent loses their union (4 s), not
    # the sum of their durations (5 s).
    spans = [["parent", 0.0, 10.0, None], ["a", 1.0, 3.0, 0],
             ["b", 2.0, 5.0, 0], ["g", 1.5, 2.0, 1]]
    layers = layer_times(spans)
    assert layers["parent"]["self_s"] == pytest.approx(6.0)
    assert layers["a"]["self_s"] == pytest.approx(1.5)
    assert layers["b"]["self_s"] == pytest.approx(3.0)
    assert layers["g"]["self_s"] == pytest.approx(0.5)
    assert layers["parent"]["total_s"] == pytest.approx(10.0)
    assert coverage(spans, 0.0, 20.0) == pytest.approx(0.5)


def test_recorder_nests_spans_and_sums_repeated_names():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer"):            # 0 .. 7
        with recorder.span("inner"):        # 1 .. 2
            assert recorder.current == "inner"
        with recorder.span("inner"):        # 3 .. 6
            with recorder.span("leaf"):     # 4 .. 5
                pass
    assert recorder.current is None
    assert [span["parent"] for span in recorder.as_json()] == [None, 0, 0, 2]
    layers = layer_times(recorder.spans)
    assert layers["outer"]["self_s"] == 7.0 - 1.0 - 3.0
    assert layers["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert layers["leaf"]["self_s"] == 1.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_named_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in report["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
