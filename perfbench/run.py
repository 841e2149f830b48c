"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload fig8-timing --seed 1 --seconds 25 --trace 0

Each run starts ``measure.py`` in a fresh interpreter, over and over, until
``--seconds`` have passed (and at least a few times), then reports each metric
over the measurements: timed host times by their lower quartile, set-up
time and memory by their median.  Host times are scaled to a reference
host speed (see ``speed.py``).
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
it alternates traced and untraced measurements and prints the per-layer
metrics instead.  The last line of standard output is one JSON object;
the lines before it show the same numbers for a reader.  Every
measurement checks its rows (see ``campaigns.py``); a wrong row, job or
simulation count fails the run with exit code 1.

Full per-measurement results go to ``.perfbench/out/`` in the checkout,
with the last traced measurement's spans as JSON.  See ``README.md`` for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from campaigns import DEFAULT_SEED
from spans import LAYER_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("fig8-timing", "suite-cold", "warm-rerun", "serve-warm")

#: End-to-end metric -> unit.
END_TO_END = {
    "wall_s": "s", "cells_per_s": "1/s", "sim_kips": "kinst/s",
    "setup_s": "s", "peak_rss_mb": "MB", "job_p50_ms": "ms",
    "job_tail_ms": "ms", "sim_speedup_gmean": "ratio",
    "sim_coverage_mean": "ratio",
}

#: Fewest measurements per run, whatever ``--seconds`` says.
MIN_MEASUREMENTS = 3
#: Store fills of a warm-rerun run, made at once.
FILLS = 2
#: A measurement that takes longer than this is killed and fails the run.
MEASURE_TIMEOUT_S = 150


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric -> unit, in report order."""
    units: Dict[str, str] = {}
    for name in LAYER_SPANS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.share": "ratio"})
    units.update({
        "sim.profile.entries_per_s": "1/s", "sim.trace.entries_per_s": "1/s",
        "sim.profile.paid_in_session": "count",
        "minigraph.select.candidates": "count",
        "minigraph.select.memo_hit_ratio": "ratio",
        "uarch.batched.lanes": "count", "uarch.batched.dedup_ratio": "ratio",
        "uarch.sim_cycles": "cycles", "api.store.hit_ratio": "ratio",
        "api.store.disk_hit_ratio": "ratio", "api.store.put_bytes": "B",
        "serve.resumed_ratio": "ratio",
        "model.dcache_miss_ratio": "ratio", "model.bpred_miss_ratio": "ratio",
        "model.replays_per_kinst": "1/kinst",
        "model.ordering_violations": "count",
        "spans.coverage": "ratio", "trace_overhead_ratio": "ratio",
        "jobs.samples": "count", "jobs.tail_pct": "%",
    })
    return units


class MeasureError(RuntimeError):
    """A measurement process failed or timed out."""


def spawn(args: argparse.Namespace, workdir: Path, *, role: str = "measure",
          trace: bool = False, fill_dir: Optional[Path] = None,
          spans_out: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``measure.py`` once in ``workdir``; returns its result."""
    workdir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--role", role, "--out", "result.json"]
    if trace:
        command.append("--trace")
    if args.smoke:
        command.append("--smoke")
    if fill_dir is not None:
        command += ["--fill-dir", str(fill_dir)]
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    with open(workdir / "stderr.log", "wb") as log:
        # A session of its own, so a timeout can stop the measurement and
        # anything it started (the serve daemon and its workers) together.
        process = subprocess.Popen(command, cwd=workdir, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if code != 0:
        tail = (workdir / "stderr.log").read_text(errors="replace")[-3000:]
        state = "timed out" if code is None else f"exited {code}"
        raise MeasureError(f"{role} measurement {state}:\n{tail}")
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    spans = result.pop("spans", None)
    if spans is not None and spans_out is not None:
        spans_out.write_text(json.dumps(spans), encoding="utf-8")
    return result


def tail_latency(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ranked = sorted(samples)
    index = max(0, len(ranked) - 11)
    return {"value": ranked[index],
            "percentile": 100.0 * (index + 1) / len(ranked)}


def median(results: List[Dict[str, Any]], value) -> float:
    """The median over the measurements of ``value(result)``."""
    return statistics.median(value(result) for result in results)


def low_quartile(results: List[Dict[str, Any]], value) -> float:
    """The lower quartile over the measurements of ``value(result)``.

    Scaling to the reference speed leaves some interference unseen, and
    interference only slows a measurement down, so the lower quartile is
    steadier from run to run than the median; unlike the minimum, it is
    not set by one measurement whose probes ran unusually slow.
    """
    values = [value(result) for result in results]
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(results: List[Dict[str, Any]],
               fill_s: float) -> Dict[str, float]:
    headline = results[0]["headline"]
    wall_s = low_quartile(results, lambda r: r["wall_s"])
    return {
        "wall_s": wall_s,
        "cells_per_s": results[0]["rows"] / wall_s,
        "sim_kips": results[0]["committed"] / wall_s / 1000.0,
        "setup_s": fill_s + median(results, lambda r: r["setup_s"]),
        "peak_rss_mb": median(results, lambda r: r["peak_rss_mb"]),
        "job_p50_ms": low_quartile(
            results, lambda r: statistics.median(r["latencies_ms"])),
        "job_tail_ms": low_quartile(
            results, lambda r: tail_latency(r["latencies_ms"])["value"]),
        "sim_speedup_gmean": headline["speedup_gmean"],
        "sim_coverage_mean": headline["coverage_mean"],
    }


def per_layer(traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Layer numbers of the traced measurement with the median wall time."""
    ranked = sorted(traced, key=lambda result: result["wall_s"])
    metrics = dict(ranked[(len(ranked) - 1) // 2]["layers"])
    metrics["trace_overhead_ratio"] = (
        low_quartile(traced, lambda r: r["wall_s"])
        / low_quartile(untraced, lambda r: r["wall_s"]))
    latencies = untraced[0]["latencies_ms"]
    metrics["jobs.samples"] = len(latencies)
    metrics["jobs.tail_pct"] = tail_latency(latencies)["percentile"]
    return metrics


def measure(args: argparse.Namespace, scratch: Path) -> Dict[str, Any]:
    """Set up, measure for ``--seconds``, check rows; the run's report."""
    WORK.joinpath("out").mkdir(parents=True, exist_ok=True)
    spans_out = WORK / "out" / f"spans-{args.workload}.json"
    fill_dir = None
    fill_s = 0.0
    errors: List[str] = []
    if args.workload == "warm-rerun":
        # Fills run at once, one per core, so set-up time is the median of
        # several set-ups without doubling its cost.  They slow each other
        # down, but the same way in every run.  The measurements read the
        # first fill's store.
        with ThreadPoolExecutor(FILLS) as pool:
            fills = list(pool.map(
                lambda index: spawn(args, scratch / f"fill{index}",
                                    role="fill"),
                range(FILLS)))
        fill_dir = scratch / "fill0"
        fill_s = statistics.median(fill["elapsed_s"] for fill in fills)
        errors += [error for fill in fills for error in fill["errors"]]
    smallest = 1 if args.smoke else 2 if args.trace else MIN_MEASUREMENTS
    results: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    start = time.monotonic()
    count = 0
    # Measurements run one at a time: two at once slow each other by a
    # varying amount.
    while (time.monotonic() - start < args.seconds
           or len(results) < smallest
           or (args.trace and len(traced) < smallest)):
        trace = bool(args.trace) and count % 2 == 1
        workdir = scratch / f"m{count}"
        result = spawn(args, workdir, trace=trace, fill_dir=fill_dir,
                       spans_out=spans_out)
        shutil.rmtree(workdir, ignore_errors=True)
        (traced if trace else results).append(result)
        count += 1

    every = results + traced
    attempted = sum(result["attempted"] for result in every)
    failed = sum(result["failed"] for result in every)
    for result in every:
        errors += result["errors"]
    # Same seed, same inputs: every measurement must produce the same rows.
    for result in every[1:]:
        if result["digest"] != every[0]["digest"]:
            errors.append("rows differ between measurements of one run")
            failed += result["attempted"]
    if errors and not failed:
        failed = attempted
    if args.trace:
        metrics = per_layer(traced, results)
        units = per_layer_units()
    else:
        metrics = end_to_end(results, fill_s)
        units = END_TO_END
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = WORK / "out" / (f"{args.workload}-seed{args.seed}"
                             f"-trace{int(args.trace)}.json")
    detail.write_text(json.dumps({"report": report, "errors": errors,
                                  "fill_s": fill_s, "measurements": every},
                                 indent=1), encoding="utf-8")
    for message in dict.fromkeys(errors):
        print(f"perfbench: error: {message}", file=sys.stderr)
    return report


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and report its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep starting measurements")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, one measurement: a self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK / "tmp"))
    try:
        report = measure(args, scratch)
    except MeasureError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, metric in report["metrics"].items():
        print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
