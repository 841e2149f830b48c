"""``python -m repro``: the command-line front end of :mod:`repro.api`.

Sub-commands:

* ``repro run BENCHMARK`` — one end-to-end mini-graph run;
* ``repro figure {5,6,7,8,extras}`` — regenerate a figure of the paper;
* ``repro grid`` — run a declarative experiment grid from the catalog
  (``--name fig6``), sharded (``--shard i/N``), resumable (``--resume``:
  cells whose terminal row artifact is already stored are served from it),
  with streaming JSONL row output (``--output``);
* ``repro fuzz`` — differential fuzzing over seeded synthetic programs;
* ``repro cache {info,clear,prune}`` — inspect, drop or GC the on-disk
  artifact cache (``prune`` evicts entries persisted by other
  ``__version__``\\ s, which the current build can never serve again);
* ``repro serve {start,stop,status}`` — the long-lived simulation daemon:
  a warm worker pool behind a local socket, accepting jobs from many
  clients and deduplicating their work through the shared store;
* ``repro submit`` — build a catalog grid as ``repro grid`` does and submit
  its cells to a running daemon (optionally ``--follow``\\ ing its streamed
  rows);
* ``repro jobs`` — list or cancel the daemon's jobs.

Every command accepts ``--cache-dir`` (defaulting to ``$REPRO_CACHE_DIR`` or
``~/.cache/repro``) and ``--no-disk-cache``; ``--json`` switches the report
from rendered text to JSON built on :mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.reporting import ResultTable
from ..workloads.base import WorkloadError
from ..minigraph.mgt import MgtBuildOptions
from ..minigraph.policies import (
    DEFAULT_POLICY,
    INTEGER_POLICY,
    NON_SERIAL_NON_REPLAY_POLICY,
    SelectionPolicy,
)
from ..uarch.config import (
    MachineConfig,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from ..workloads import QUICK_BENCHMARKS, REGISTRY
from .session import Session
from .spec import RunSpec, SpecError
from .store import ArtifactStore, default_cache_dir

_POLICIES: Dict[str, Optional[SelectionPolicy]] = {
    "int-mem": DEFAULT_POLICY,
    "int": INTEGER_POLICY,
    "nonserial": NON_SERIAL_NON_REPLAY_POLICY,
    "baseline": None,
}


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dataflow mini-graphs reproduction (Bracy, Prahlad & Roth, "
                    "MICRO-37 2004): unified pipeline driver.")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk artifact cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="keep artifacts in memory only")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of rendered text")
    parser.add_argument("--stats", action="store_true",
                        help="append session/cache statistics to the report")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="one end-to-end mini-graph run")
    run.add_argument("benchmark", help="registered benchmark name (e.g. gsm.toast)")
    run.add_argument("--input", default="reference", help="benchmark input set")
    run.add_argument("--budget", type=int, default=15_000,
                     help="dynamic-instruction budget")
    run.add_argument("--policy", choices=sorted(_POLICIES), default="int-mem",
                     help="selection policy family")
    run.add_argument("--max-size", type=int, default=None,
                     help="override the maximum mini-graph size")
    run.add_argument("--mgt-entries", type=int, default=None,
                     help="override the MGT capacity")
    run.add_argument("--machine", choices=("default", "baseline", "int", "int-mem"),
                     default="default", help="timing configuration")
    run.add_argument("--collapsing", action="store_true",
                     help="pair-wise collapsing ALU pipelines")
    run.add_argument("--compressed", action="store_true",
                     help="compressed (nop-free) code layout")

    figure = commands.add_parser("figure", help="regenerate a figure of the paper")
    figure.add_argument("number", choices=("5", "6", "7", "8", "extras"),
                        help="figure to regenerate")
    figure.add_argument("--benchmarks", nargs="+", default=None,
                        help="benchmark subset (default: a representative kernel "
                             "per suite, or the figure's own set)")
    figure.add_argument("--budget", type=int, default=8_000,
                        help="dynamic-instruction budget per benchmark")
    figure.add_argument("--full", action="store_true",
                        help="sweep every registered benchmark")

    grid = commands.add_parser(
        "grid", help="run a declarative experiment grid (sharded, resumable)")
    grid.add_argument("--name", default=None,
                      help="named grid from the catalog (see --list)")
    grid.add_argument("--list", action="store_true",
                      help="list the registered grids and exit")
    grid.add_argument("--benchmarks", nargs="+", default=None,
                      help="benchmark axis override (default: the grid's "
                           "own set, or a representative kernel per suite)")
    grid.add_argument("--budget", type=int, default=None,
                      help="dynamic-instruction budget per benchmark "
                           "(default: the grid's own)")
    grid.add_argument("--input", default="reference",
                      help="benchmark input set")
    grid.add_argument("--shard", default=None, metavar="I/N",
                      help="run only stage-shard I of N (0-based); shards "
                           "partition the plan, so their union equals the "
                           "unsharded grid")
    grid.add_argument("--resume", action="store_true",
                      help="serve cells whose terminal row artifact is "
                           "already in the store without re-executing them")
    grid.add_argument("--workers", type=_at_least(0), default=None,
                      help="worker processes to run the stages on "
                           "(0/1 = serial)")
    grid.add_argument("--output", default=None, metavar="PATH",
                      help="stream result rows to PATH as JSONL as they "
                           "complete")
    grid.add_argument("--no-table", action="store_true",
                      help="skip rendering the grid's result tables")

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing over seeded synthetic programs")
    fuzz.add_argument("--seeds", type=int, default=64,
                      help="number of consecutive seeds to run (default 64)")
    fuzz.add_argument("--base-seed", type=int, default=0,
                      help="first seed of the block (default 0)")
    fuzz.add_argument("--oracles", nargs="+", default=None,
                      metavar="ORACLE",
                      help="oracle subset (default: rewrite selection codec "
                           "timing geometry kernel functional)")
    fuzz.add_argument("--budget", type=int, default=None,
                      help="dynamic-instruction budget per functional run")
    fuzz.add_argument("--input", default="reference",
                      help="input set to generate (reference or train)")
    fuzz.add_argument("--workers", type=_at_least(0), default=1,
                      help="process-pool width (0/1 = serial)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failing seeds without dial reduction")
    fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="persist a replayable repro JSON per failing "
                           "seed into DIR (the tests/corpus/ convention)")

    cache = commands.add_parser(
        "cache", help="inspect, clear or prune the artifact cache")
    cache.add_argument("action", choices=("info", "clear", "prune"),
                       help="prune evicts artifacts persisted by stale "
                            "__version__s (GC for long grid campaigns)")

    serve = commands.add_parser(
        "serve", help="long-lived simulation daemon with a warm worker pool")
    serve.add_argument("action", choices=("start", "stop", "status"))
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="daemon socket (default: $REPRO_SERVE_SOCKET or "
                            "<cache-dir>/serve.sock)")
    serve.add_argument("--workers", type=_at_least(1), default=None,
                       help="warm worker count (default: min(4, cpus))")
    serve.add_argument("--backend", choices=("process",), default="process",
                       help="accepted for compatibility: every worker is a "
                            "forked process")
    serve.add_argument("--detach", action="store_true",
                       help="start: fork into the background (writes "
                            "<socket>.pid)")
    serve.add_argument("--no-drain", action="store_true",
                       help="stop: cancel queued jobs instead of draining")

    submit = commands.add_parser(
        "submit", help="submit a catalog grid to a running serve daemon")
    submit.add_argument("--grid", required=True,
                        help="named grid from the catalog (see `repro grid "
                             "--list`); built here, as `repro grid` builds it")
    submit.add_argument("--benchmarks", nargs="+", default=None,
                        help="benchmark axis override")
    submit.add_argument("--budget", type=int, default=None,
                        help="dynamic-instruction budget override")
    submit.add_argument("--input", default="reference",
                        help="benchmark input set")
    submit.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon socket")
    submit.add_argument("--no-resume", action="store_true",
                        help="recompute cells even when their row artifact "
                             "is already stored")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's rows to stdout as JSONL "
                             "until it completes")

    jobs = commands.add_parser(
        "jobs", help="list or cancel jobs on a running serve daemon")
    jobs.add_argument("--socket", default=None, metavar="PATH",
                      help="daemon socket")
    jobs.add_argument("--cancel", default=None, metavar="JOB_ID",
                      help="cancel one job instead of listing")
    return parser


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    if args.no_disk_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return str(default_cache_dir())


def _policy(name: str, max_size: Optional[int] = None,
            mgt_entries: Optional[int] = None) -> Optional[SelectionPolicy]:
    policy = _POLICIES[name]
    if policy is None:
        return None
    if max_size is not None:
        policy = policy.with_max_size(max_size)
    if mgt_entries is not None:
        policy = policy.with_mgt_entries(mgt_entries)
    return policy


def _machine(name: str, collapsing: bool) -> Optional[MachineConfig]:
    if name == "default":
        return None
    if name == "baseline":
        return baseline_config()
    if name == "int":
        return integer_minigraph_config(collapsing=collapsing)
    return integer_memory_minigraph_config(collapsing=collapsing)


def _json_cell(value: Any) -> Any:
    """NaN is not valid JSON; surface it as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _table_to_dict(table: ResultTable) -> Dict[str, Any]:
    return {"title": table.title, "columns": list(table.columns),
            "rows": {row: {column: _json_cell(value)
                           for column, value in cells.items()}
                     for row, cells in table.rows.items()},
            "suites": dict(table.row_suites), "notes": list(table.notes)}


def _emit(args: argparse.Namespace, session: Optional[Session],
          text: str, payload: Dict[str, Any]) -> None:
    if args.stats and session is not None:
        payload["session_stats"] = session.stats.as_dict()
        payload["cache_stats"] = session.cache_stats.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(text)
    if args.stats and session is not None:
        print(f"\nsession stats : {session.stats.as_dict()}")
        print(f"cache stats   : {session.cache_stats.as_dict()}")


# -- sub-commands -------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from ..grid.engine import cell_payload
    session = Session(cache_dir=_cache_dir(args))
    spec = RunSpec(
        benchmark=args.benchmark,
        input_name=args.input,
        budget=args.budget,
        policy=_policy(args.policy, args.max_size, args.mgt_entries),
        machine=_machine(args.machine, args.collapsing),
        mgt_options=MgtBuildOptions(collapsing=args.collapsing),
        compressed_layout=args.compressed,
    )
    row = cell_payload(session, spec)
    lines = [f"benchmark     : {spec.label} ({args.input}, budget {args.budget})",
             f"spec hash     : {spec.spec_hash}"]
    if row["templates"] is not None:
        lines.append(f"templates     : {row['templates']} "
                     f"(coverage {row['coverage'] * 100:.1f}%)")
    lines.append(f"baseline      : {row['baseline_cycles']} cycles, "
                 f"IPC {row['baseline_ipc']:.2f} "
                 f"({spec.resolved_baseline_machine.name})")
    lines.append(f"this machine  : {row['cycles']} cycles, "
                 f"IPC {row['ipc']:.2f} ({spec.resolved_machine.name})")
    speedup = row["speedup"]
    lines.append("speedup       : " +
                 ("n/a (baseline retired nothing)" if math.isnan(speedup)
                  else f"{(speedup - 1.0) * 100.0:+.1f}%"))
    report = {"spec": spec.describe(),
              **{name: _json_cell(value) for name, value in row.items()}}
    _emit(args, session, "\n".join(lines), report)
    return 0


#: ``repro figure`` numbers backed by a catalog grid.
_FIGURE_GRIDS = {"6": "fig6", "7": "fig7", "8": "fig8"}


def _figure_benchmarks(args: argparse.Namespace) -> List[str]:
    """``--benchmarks``, else every registered benchmark with ``--full``,
    else the figure's own default set."""
    from ..grid import get_grid
    if args.benchmarks is not None:
        return list(args.benchmarks)
    if args.full:
        return REGISTRY.names()
    default = None
    if args.number in _FIGURE_GRIDS:
        default = get_grid(_FIGURE_GRIDS[args.number]).default_benchmarks
    return list(default or QUICK_BENCHMARKS)


def _grid_report(session: Session, name: str, benchmarks: Sequence[str],
                 budget: int):
    """Run catalog grid ``name`` serially and render its report.

    An empty benchmark list renders the report's empty tables without
    building a grid (a grid axis needs at least one value).
    """
    from ..grid import get_grid
    definition = get_grid(name)
    rows = []
    if benchmarks:
        grid = definition.build(benchmarks=benchmarks, budget=budget)
        rows = list(session.run_grid(grid, workers=0))
    return definition.report(rows)


def _cmd_figure(args: argparse.Namespace) -> int:
    # Imported here to keep CLI start-up cheap and avoid import cycles.
    from ..experiments import run_figure5, run_robustness
    session = Session(cache_dir=_cache_dir(args))
    names = _figure_benchmarks(args)
    number = args.number
    if number == "5":
        result = run_figure5(session, benchmarks=names, budget=args.budget)
        text, tables = result.render(), result.tables
    elif number == "extras":
        robustness = run_robustness(session, benchmarks=names,
                                    budget=args.budget)
        icache_text, tables = _grid_report(
            session, "icache",
            [name for name in names if REGISTRY.get(name).suite == "spec"],
            args.budget)
        text = robustness.render() + "\n\n" + icache_text
    else:
        text, tables = _grid_report(session, _FIGURE_GRIDS[number], names,
                                    args.budget)
    payload: Dict[str, Any] = {"figure": number,
                               "tables": [_table_to_dict(table) for table in tables]}
    _emit(args, session, text, payload)
    return 0


def _parse_shard(text: str):
    """Parse ``I/N`` into a ``(index, count)`` pair."""
    from ..grid.spec import GridError
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        return int(index_text), int(count_text)
    except ValueError:
        raise GridError(f"--shard expects I/N (e.g. 0/2), got {text!r}") \
            from None


class _RowWriter:
    """Streams grid rows to a JSONL file as they complete."""

    def __init__(self, path: Optional[str]) -> None:
        self._handle = None if path is None \
            else open(path, "w", encoding="utf-8")

    def write(self, row) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(row.as_dict(), sort_keys=True) + "\n")
        # Flush per row: a campaign killed mid-flight keeps every completed
        # cell, which is exactly what --resume restarts from.
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _catalog_grid(name: str, args: argparse.Namespace):
    """Catalog grid ``name`` with the ``--benchmarks``/``--budget``/
    ``--input`` overrides applied: ``(definition, grid)``."""
    from ..grid import get_grid
    definition = get_grid(name)
    benchmarks = args.benchmarks if args.benchmarks is not None else \
        list(definition.default_benchmarks or QUICK_BENCHMARKS)
    budget = args.budget if args.budget is not None \
        else definition.default_budget
    return definition, definition.build(benchmarks=benchmarks, budget=budget,
                                        input_name=args.input)


def _cmd_grid(args: argparse.Namespace) -> int:
    from ..grid import grid_definitions, plan_grid

    if args.list:
        lines = ["registered grids:"]
        rows = []
        for definition in grid_definitions():
            rows.append({"name": definition.name,
                         "description": definition.description,
                         "default_budget": definition.default_budget})
            lines.append(f"  {definition.name:12s} {definition.description}")
        _emit(args, None, "\n".join(lines), {"grids": rows})
        return 0
    if args.name is None:
        print("repro: error: grid needs --name (or --list)", file=sys.stderr)
        return 2

    definition, grid = _catalog_grid(args.name, args)
    plan = plan_grid(grid)
    if args.shard is not None:
        plan = plan.take_shard(*_parse_shard(args.shard))

    session = Session(cache_dir=_cache_dir(args))
    writer = _RowWriter(args.output)
    rows = []
    start = time.perf_counter()
    try:
        for row in session.run_grid(plan, resume=args.resume,
                                    workers=args.workers):
            rows.append(row)
            writer.write(row)
    finally:
        writer.close()
    wall_seconds = time.perf_counter() - start

    executed = sum(1 for row in rows if not row.resumed)
    resumed = len(rows) - executed
    shard = None if plan.shard is None else "{}/{}".format(*plan.shard)
    plan_info = {"cells": len(plan.cells()), "stages": len(plan.stages),
                 "shard": shard}
    cache = session.cache_stats
    lines = [f"grid          : {grid.name} — {grid.title}",
             f"plan          : {plan_info['cells']} cells in "
             f"{plan_info['stages']} shared-profile stages"
             + (f", shard {shard}" if shard else ""),
             f"executed      : {executed} cells ({resumed} resumed) "
             f"in {wall_seconds:.2f}s",
             f"cache         : {cache.hits}/{cache.lookups} hits "
             f"({cache.hit_rate * 100:.0f}%)"]
    if args.output is not None:
        lines.append(f"rows          : {args.output} (jsonl)")
    text = "\n".join(lines)

    tables = []
    if definition.report is not None and not args.no_table and rows:
        report_text, tables = definition.report(rows)
        text += "\n\n" + report_text

    payload: Dict[str, Any] = {
        "grid": grid.name,
        "plan": plan_info,
        "cells": len(rows),
        "executed": executed,
        "resumed": resumed,
        "wall_seconds": wall_seconds,
        "output": args.output,
        "rows": [row.as_dict() for row in rows],
        "tables": [_table_to_dict(table) for table in tables],
    }
    _emit(args, session, text, payload)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from ..fuzz.harness import run_fuzz
    from ..fuzz.oracles import ORACLE_NAMES

    if args.seeds <= 0:
        print("repro: error: --seeds must be positive", file=sys.stderr)
        return 2
    if args.budget is not None and args.budget <= 0:
        print("repro: error: --budget must be positive", file=sys.stderr)
        return 2
    if args.oracles is not None:
        unknown = [name for name in args.oracles if name not in ORACLE_NAMES]
        if unknown:
            print(f"repro: error: unknown oracles {', '.join(unknown)}; "
                  f"available: {', '.join(ORACLE_NAMES)}", file=sys.stderr)
            return 2
    report = run_fuzz(args.seeds, base_seed=args.base_seed,
                      oracles=args.oracles, budget=args.budget,
                      input_name=args.input, workers=args.workers or 1,
                      shrink=not args.no_shrink, corpus_dir=args.corpus_dir)
    lines = [f"fuzz          : {report.seeds} seeds from {report.base_seed}, "
             f"oracles {', '.join(report.oracles)}",
             f"differential  : {report.differential_runs} runs in "
             f"{report.elapsed_seconds:.1f}s "
             f"({report.runs_per_second:,.0f} runs/s)"]
    if report.ok:
        lines.append("result        : all oracles passed")
    else:
        lines.append(f"result        : {len(report.failures)} failing "
                     f"seed(s)")
        for failure in report.failures:
            lines.append(f"  seed {failure.seed}: [{failure.oracle}] "
                         f"{failure.detail}")
            if failure.shrunk:
                lines.append(f"    shrunk to {failure.shrunk}")
            if failure.repro_path:
                lines.append(f"    repro written to {failure.repro_path}")
    _emit(args, None, "\n".join(lines), {"fuzz": report.payload()})
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from .. import __version__
    cache_dir = _cache_dir(args)
    store = ArtifactStore(cache_dir, version=__version__)
    if args.action == "info":
        info = store.info()
        payload = {"cache_dir": info.cache_dir,
                   "version": info.version,
                   "disk_entries": info.disk_entries,
                   "disk_bytes": info.disk_bytes,
                   "stale_entries": info.stale_entries,
                   "stale_bytes": info.stale_bytes,
                   "unreadable": info.unreadable}
        _emit(args, None, info.render(), payload)
        return 0
    if args.action == "prune":
        removed, freed = store.prune()
        _emit(args, None,
              f"pruned {removed} stale-version artifacts ({freed} bytes)",
              {"pruned": removed, "freed_bytes": freed,
               "version": __version__, "cache_dir": cache_dir})
        return 0
    removed = store.clear()
    _emit(args, None, f"removed {removed} cached artifacts",
          {"removed": removed, "cache_dir": cache_dir})
    return 0


# -- serve daemon front end ----------------------------------------------------------


def _serve_socket(args: argparse.Namespace):
    from ..serve import protocol
    from pathlib import Path
    if getattr(args, "socket", None):
        return Path(args.socket)
    return protocol.default_socket_path()


def _serve_connect(args: argparse.Namespace):
    """A connected client, or ``None`` (after printing) if no daemon."""
    from ..serve.client import ServeClient, ServeError
    socket_path = _serve_socket(args)
    try:
        return ServeClient(socket_path)
    except ServeError as error:
        print(f"repro: error: no serve daemon at {socket_path} ({error})",
              file=sys.stderr)
        return None


def _await_detached(pid: int, errors: int, pidfile, socket_path) -> int:
    """Wait until the detached daemon ``pid`` listens (it then writes the
    pidfile naming itself) or exits, and print the error it sent on ``errors``."""
    os.set_blocking(errors, False)
    with open(errors, "rb") as pipe:
        for _ in range(600):
            if os.waitpid(pid, os.WNOHANG)[0]:
                print((pipe.read() or b"repro: error: the daemon exited "
                       b"before it listened").decode(), file=sys.stderr)
                return 2
            with contextlib.suppress(OSError):
                if pidfile.read_text(encoding="utf-8").strip() == str(pid):
                    print(f"serve daemon started (pid {pid}, "
                          f"socket {socket_path})")
                    return 0
            time.sleep(0.05)
    print("repro: error: daemon did not come up", file=sys.stderr)
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    from ..serve.server import ServeServer

    socket_path = _serve_socket(args)
    pidfile = socket_path.with_name(socket_path.name + ".pid")

    if args.action == "status":
        client = _serve_connect(args)
        if client is None:
            return 1
        status = client.status()
        client.close()
        queue = status["queue"]
        text = "\n".join([
            f"daemon        : pid {status['pid']}, protocol "
            f"{status['protocol']}, version {status['version']}",
            f"socket        : {status['socket']}",
            f"cache dir     : {status['cache_dir'] or '(memory only)'}",
            f"workers       : {status['workers']}, "
            f"pids {status['worker_pids']}",
            f"queue         : {queue['active']}/{queue['limit']} active"
            + (" (draining)" if queue["draining"] else ""),
            f"jobs          : {status['jobs']}",
            f"uptime        : {status['uptime_seconds']:.1f}s"])
        _emit(args, None, text, {"running": True, **status})
        return 0

    if args.action == "stop":
        client = _serve_connect(args)
        if client is None:
            return 1
        response = client.shutdown(drain=not args.no_drain)
        client.close()
        for _ in range(600):          # wait for the socket to disappear
            if not socket_path.exists():
                break
            time.sleep(0.05)
        pidfile.unlink(missing_ok=True)
        _emit(args, None, f"daemon stopping ({response['state']})",
              {"stopped": True, "state": response["state"]})
        return 0

    # start
    report = None       # a detached daemon's end of its start-error pipe
    if args.detach:
        errors, report = os.pipe()
        pid = os.fork()
        if pid > 0:
            os.close(report)
            return _await_detached(pid, errors, pidfile, socket_path)
        os.close(errors)
        os.setsid()
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(devnull, fd)
        os.close(devnull)

    server = ServeServer(socket_path, cache_dir=_cache_dir(args),
                         workers=args.workers)

    def _drain(signum, frame) -> None:
        # SIGTERM/SIGINT: reject new submits, finish in-flight jobs, exit.
        server.request_shutdown(drain=True)

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.start()
    except OSError as error:          # a busy socket, no processes, ...
        print(f"repro: error: {error}", file=sys.stderr)
        if report is not None:        # for the parent to print
            os.write(report, f"repro: error: {error}".encode())
        return 2
    if report is not None:
        os.close(report)
    pidfile.write_text(f"{os.getpid()}\n", encoding="utf-8")
    if not args.detach:
        print(f"serve daemon listening on {socket_path} "
              f"({server.pool.size} workers); "
              f"SIGTERM drains and exits", flush=True)
    try:
        server.serve_forever()
    finally:
        pidfile.unlink(missing_ok=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    _, grid = _catalog_grid(args.grid, args)
    client = _serve_connect(args)
    if client is None:
        return 1
    try:
        response = client.submit_grid(grid, resume=not args.no_resume)
        job_id = response["job_id"]
        if not args.follow:
            _emit(args, None,
                  f"submitted {job_id}: {response['cells']} cells "
                  f"({response['resumed']} resume-served) in "
                  f"{response['stages']} stages, state {response['state']}",
                  dict(response))
            return 0
        for row in client.stream(job_id):
            print(json.dumps(row, sort_keys=True), flush=True)
        job = client.poll(job_id)
        print(f"{job_id}: {job['state']}, {job['rows']} rows, "
              f"cache hit rate {job['cache_hit_rate'] * 100:.0f}%",
              file=sys.stderr)
        return 0
    finally:
        client.close()


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _serve_connect(args)
    if client is None:
        return 1
    try:
        if args.cancel is not None:
            job = client.cancel(args.cancel)
            _emit(args, None, f"{job['id']}: {job['state']}", dict(job))
            return 0
        jobs = client.jobs()
        if not jobs:
            _emit(args, None, "no jobs", {"jobs": []})
            return 0
        lines = [f"{'id':10s} {'state':12s} {'cells':>6s} "
                 f"{'rows':>6s} {'hit%':>5s}  label"]
        for job in jobs:
            lines.append(
                f"{job['id']:10s} {job['state']:12s} "
                f"{job['cells']:6d} {job['rows']:6d} "
                f"{job['cache_hit_rate'] * 100:5.0f}  {job['label']}")
        _emit(args, None, "\n".join(lines), {"jobs": jobs})
        return 0
    finally:
        client.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from ..grid.spec import GridError
    from ..serve.client import ServeError
    from ..uarch.config import ConfigError
    from ..uarch.pipeline import TimingError
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "jobs":
            return _cmd_jobs(args)
        return _cmd_cache(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        # The interpreter still flushes sys.stdout at exit, which would
        # re-raise into an "Exception ignored" traceback and exit code 120 —
        # point the standard streams at devnull before that can happen.
        try:
            sys.stdout.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        finally:
            os.close(devnull)
        return 0
    except ServeError as error:
        print(f"repro: error [{error.code}]: {error}", file=sys.stderr)
        return 3
    except (WorkloadError, SpecError, GridError, ConfigError,
            TimingError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
