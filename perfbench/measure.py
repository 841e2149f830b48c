"""One benchmark measurement in a fresh interpreter.

``run.py`` starts this script once per measurement because ``repro``
interns decode tables and memos process-wide: a campaign repeated inside
one interpreter runs faster each time, so every measurement needs a fresh
process.  The script runs in a scratch working directory of its own,
writes one JSON result file and exits.

    python3 perfbench/measure.py --workload suite-cold --seed 1 \\
        --spawned-at <parent time.monotonic()> --out result.json [--trace]

``--role fill`` runs both campaigns cold into ``store/`` for the
``warm-rerun`` measurements, which read it through ``--fill-dir``.
``--pin`` rewrites ``digests.json`` from the default seed's rows.

Every host time in the result is scaled to a reference host speed by the
probe in ``speed.py``, which samples the speed while the work runs;
``host_wall_s`` keeps the unscaled wall time of the timed part.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import campaigns  # noqa: E402
from spans import LAYER_SPANS, SpanRecorder, coverage, layer_times, \
    traced_classes  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Closed-loop jobs per serve-warm measurement: (full, smoke).  Short
#: measurements, so a run takes enough of them for its lower quartile.
SERVE_JOBS = (150, 20)
SERVE_WORKERS = 2

#: Campaigns each workload runs in its timed part.
CAMPAIGNS = {"fig8-timing": ("fig8",), "suite-cold": ("suite",),
             "warm-rerun": ("fig8", "suite")}


class Tracer:
    """The traced API classes plus the one span log they all write."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.session_cls, self.store_cls, self.client_cls = traced_classes()


def make_session(cache_dir: Optional[str], tracer: Optional[Tracer]):
    from repro import __version__
    from repro.api import ArtifactStore, Session

    if tracer is None:
        return Session(store=ArtifactStore(cache_dir, version=__version__))
    store = tracer.store_cls(tracer.recorder, cache_dir, version=__version__)
    return tracer.session_cls(tracer.recorder, store=store)


def run_campaign(session, plan, row_times: List[float]) -> List[Any]:
    """Stream one campaign, noting when each row arrives."""
    rows = []
    for row in session.run_grid(plan, workers=0):
        row_times.append(time.perf_counter())
        rows.append(row)
    return rows


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def written_bytes(directory: Optional[str], since: float) -> int:
    """Bytes of store entries written at or after wall-clock ``since``."""
    if directory is None or not Path(directory).is_dir():
        return 0
    total = 0
    for path in Path(directory).rglob("*.pkl"):
        stat = path.stat()
        if stat.st_mtime >= since:
            total += stat.st_size
    return total


def campaign_digest(rows: Sequence[Dict[str, Any]]) -> str:
    return campaigns.row_digest({"rows": [campaigns.row_digest(row)
                                          for row in rows]})


# -- workloads --------------------------------------------------------------------


def measure_campaigns(args, tracer: Optional[Tracer],
                      probe: SpeedProbe) -> Dict[str, Any]:
    from repro.minigraph.registry import FRONTEND_STATS

    names = CAMPAIGNS[args.workload]
    if args.workload == "fig8-timing":
        cache_dir = None                       # memory-only store
    elif args.workload == "suite-cold":
        cache_dir = "store"                    # empty on-disk store
    else:
        cache_dir = str(Path(args.fill_dir) / "store")
    sessions = [make_session(cache_dir, tracer) for _ in names]
    plans = [session.plan(campaigns.campaign_grid(name, args.seed, args.smoke))
             for session, name in zip(sessions, names)]
    frontend = FRONTEND_STATS.snapshot()
    row_times: List[float] = []
    setup_s = time.monotonic() - args.spawned_at
    since = time.time()
    start = time.perf_counter()
    results = [run_campaign(session, plan, row_times)
               for session, plan in zip(sessions, plans)]
    end = time.perf_counter()
    wall = end - start
    # Every cell of the timed part is asked for at ``start``, so a row's
    # latency counts from there.
    latencies = [(at - start) * 1000.0 * probe.scale(start, at)
                 for at in row_times]

    rows = {name: [row.as_dict() for row in result]
            for name, result in zip(names, results)}
    failed: Dict[str, set] = {name: set() for name in names}
    errors: List[str] = []
    for name in names:
        wrong = campaigns.pinned_failures(name, rows[name], args.seed,
                                          args.smoke)
        if wrong:
            errors.append(f"{name}: {len(wrong)} rows differ from the pins")
            failed[name].update(wrong)
    if args.workload == "warm-rerun":
        cold = json.loads((Path(args.fill_dir) / "fill-rows.json")
                          .read_text(encoding="utf-8"))
        for name, session in zip(names, sessions):
            wrong = campaigns.mismatches(rows[name], cold[name])
            if wrong:
                errors.append(f"{name}: {len(wrong)} warm rows differ "
                              f"from the cold rows")
                failed[name].update(wrong)
            stats = session.stats
            if stats.functional_runs or stats.timing_runs:
                errors.append(f"{name}: warm rerun simulated "
                              f"({stats.functional_runs} functional, "
                              f"{stats.timing_runs} timing runs)")
                failed[name].update(row["index"] for row in rows[name])
    every_row = [row for name in names for row in rows[name]]
    result = {
        "setup_s": setup_s * probe.scale(probe.started, start),
        "wall_s": wall * probe.scale(start, end),
        "host_wall_s": wall,
        "rows": len(every_row),
        "committed": campaigns.committed_instructions(every_row),
        "headline": campaigns.headline(every_row),
        "latencies_ms": latencies,
        "attempted": len(every_row),
        "failed": sum(len(indices) for indices in failed.values()),
        "errors": errors,
        "digest": campaign_digest(every_row),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result.update(trace_result(
            tracer, sessions, wall, start, end,
            FRONTEND_STATS.delta_since(frontend),
            written_bytes(cache_dir, since), resumed_ratio=0.0))
    return result


def serve_job(client, cells,
              jobs: List[Tuple[float, float]]) -> List[Dict[str, Any]]:
    """Submit one grid job and drain its rows (closed loop, one caller)."""
    start = time.perf_counter()
    response = client.submit_cells(cells, label="perfbench", resume=True)
    rows = list(client.stream(response["job_id"]))
    jobs.append((start, time.perf_counter()))
    return rows


def measure_serve(args, tracer: Optional[Tracer],
                  probe: SpeedProbe) -> Dict[str, Any]:
    from repro.serve.client import ServeClient

    cells = list(campaigns.campaign_grid("serve", args.seed, args.smoke).cells())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("daemon.log", "wb") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "--cache-dir", "cache", "serve",
             "start", "--socket", "serve.sock", "--backend", "process",
             "--workers", str(SERVE_WORKERS)],
            env=env, stdout=subprocess.DEVNULL, stderr=log)
    try:
        # The cold job warms the daemon's store.  It is set-up, so it runs
        # on a connection of its own that is never traced.
        with ServeClient("serve.sock", retry_connect=60.0) as warmup:
            cold = sorted(serve_job(warmup, cells, []),
                          key=lambda row: row["index"])
        if tracer is None:
            client = ServeClient("serve.sock")
        else:
            client = tracer.client_cls(tracer.recorder, "serve.sock")
        jobs = SERVE_JOBS[1 if args.smoke else 0]
        job_times: List[Tuple[float, float]] = []
        setup_s = time.monotonic() - args.spawned_at
        start = time.perf_counter()
        served = [serve_job(client, cells, job_times) for _ in range(jobs)]
        end = time.perf_counter()
        client.shutdown(drain=True)
        client.close()
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    wall = end - start
    latencies = [(finish - begin) * 1000.0 * probe.scale(begin, finish)
                 for begin, finish in job_times]

    errors: List[str] = []
    bad_jobs = sum(1 for rows in served if campaigns.mismatches(rows, cold))
    if bad_jobs:
        errors.append(f"{bad_jobs} warm jobs differ from the cold job")
    if campaigns.pinned_failures("serve", cold, args.seed, args.smoke):
        errors.append("the cold job's rows differ from the pins")
        bad_jobs = jobs
    rows_served = sum(len(rows) for rows in served)
    result = {
        "setup_s": setup_s * probe.scale(probe.started, start),
        "wall_s": wall * probe.scale(start, end),
        "host_wall_s": wall,
        "rows": rows_served,
        "committed": campaigns.committed_instructions(cold) * jobs,
        "headline": campaigns.headline(cold),
        "latencies_ms": latencies,
        "attempted": jobs,
        "failed": bad_jobs,
        "errors": errors,
        "digest": campaign_digest(cold),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from repro.minigraph.registry import FrontendStats
        resumed = sum(row["resumed"] for rows in served for row in rows)
        result.update(trace_result(tracer, [], wall, start, end,
                                   FrontendStats(), 0,
                                   resumed_ratio=resumed / rows_served))
    return result


def fill(args, probe: SpeedProbe) -> Dict[str, Any]:
    """Cold runs of both campaigns into ``store/``; their rows are the
    reference the warm reruns must reproduce."""
    rows = {}
    for name in CAMPAIGNS["warm-rerun"]:
        session = make_session("store", None)
        plan = session.plan(campaigns.campaign_grid(name, args.seed, args.smoke))
        rows[name] = [row.as_dict()
                      for row in run_campaign(session, plan, [])]
    Path("fill-rows.json").write_text(json.dumps(rows), encoding="utf-8")
    errors = [f"{name}: cold rows differ from the pins" for name in rows
              if campaigns.pinned_failures(name, rows[name], args.seed,
                                           args.smoke)]
    elapsed = time.monotonic() - args.spawned_at
    return {"elapsed_s": elapsed * probe.scale(probe.started,
                                               time.perf_counter()),
            "errors": errors}


def pin() -> None:
    """Rewrite ``digests.json`` from in-process cold runs at the default seed."""
    pins = {}
    for name in ("fig8", "suite", "serve"):
        session = make_session(None, None)
        grid = campaigns.campaign_grid(name, campaigns.DEFAULT_SEED)
        pins[name] = [campaigns.row_digest(row)
                      for row in session.run_grid(grid, workers=0)]
    document = {"seed": campaigns.DEFAULT_SEED,
                "budgets": {name: budgets[0]
                            for name, budgets in campaigns.BUDGETS.items()},
                "campaigns": pins}
    campaigns.DIGESTS.write_text(json.dumps(document, indent=1) + "\n",
                                 encoding="utf-8")


# -- per-layer numbers ------------------------------------------------------------


def trace_result(tracer: Tracer, sessions, wall: float, start: float,
                 end: float, frontend, put_bytes: int,
                 resumed_ratio: float) -> Dict[str, Any]:
    """Per-layer spans and counts of one traced measurement."""
    spans = tracer.recorder.spans
    layers = layer_times(spans)
    counts: Dict[str, float] = {}
    for name in LAYER_SPANS:
        entry = layers.get(name, {"calls": 0, "self_s": 0.0})
        counts[f"{name}.calls"] = entry["calls"]
        counts[f"{name}.self_s"] = entry["self_s"]
        counts[f"{name}.share"] = entry["self_s"] / wall

    def rate(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    stores = [session.store for session in sessions]
    timings = list({key: stats for session in sessions
                    for key, stats in session.timings.items()}.values())
    lanes = sum(session.stats.batched_timing_lanes for session in sessions)
    lookups = sum(store.stats.lookups for store in stores)
    committed = sum(stats.committed_instructions for stats in timings)
    counts.update({
        "sim.profile.entries_per_s": rate(
            sum(store.profile_entries for store in stores),
            layers.get("sim.profile", {}).get("self_s", 0.0)),
        "sim.trace.entries_per_s": rate(
            sum(store.trace_entries for store in stores),
            layers.get("sim.trace", {}).get("self_s", 0.0)),
        "sim.profile.paid_in_session": sum(
            store.profile_paid_in_session for store in stores),
        "minigraph.select.candidates": frontend.candidates_enumerated,
        "minigraph.select.memo_hit_ratio": rate(
            frontend.block_memo_hits,
            frontend.block_memo_hits + frontend.block_memo_misses),
        "uarch.batched.lanes": lanes,
        "uarch.batched.dedup_ratio": rate(
            sum(session.stats.batched_timing_deduped for session in sessions),
            lanes),
        "uarch.sim_cycles": sum(store.sim_cycles for store in stores),
        "api.store.hit_ratio": rate(
            sum(store.stats.hits for store in stores), lookups),
        "api.store.disk_hit_ratio": rate(
            sum(store.stats.disk_hits for store in stores), lookups),
        "api.store.put_bytes": put_bytes,
        "serve.resumed_ratio": resumed_ratio,
        "model.dcache_miss_ratio": rate(
            sum(stats.dcache_misses for stats in timings),
            sum(stats.dcache_accesses for stats in timings)),
        "model.bpred_miss_ratio": rate(
            sum(stats.branch_mispredictions for stats in timings),
            sum(stats.branch_lookups for stats in timings)),
        "model.replays_per_kinst": rate(
            1000.0 * sum(stats.minigraph_replays for stats in timings),
            committed),
        "model.ordering_violations": sum(
            stats.ordering_violations for stats in timings),
        "spans.coverage": coverage(spans, start, end),
    })
    return {"layers": counts, "spans": tracer.recorder.as_json()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(CAMPAIGNS) + ("serve-warm",))
    parser.add_argument("--seed", type=int, default=campaigns.DEFAULT_SEED)
    parser.add_argument("--role", choices=("measure", "fill"),
                        default="measure")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--fill-dir", default=None)
    parser.add_argument("--out", default="result.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets and few jobs, for self-tests")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json and exit")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    probe = SpeedProbe().start()
    try:
        if args.role == "fill":
            result = fill(args, probe)
        else:
            tracer = Tracer() if args.trace else None
            if args.workload == "serve-warm":
                result = measure_serve(args, tracer, probe)
            else:
                result = measure_campaigns(args, tracer, probe)
    finally:
        probe.stop()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
