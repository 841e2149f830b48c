#!/usr/bin/env python3
"""Validate committed BENCH_*.json perf records (CI bench gate).

Two modes:

* ``check_bench.py BENCH_4.json --min-frontend-speedup 3.0`` asserts the
  committed record's embedded before/after comparison still carries the
  front-end speedup the tree claims (guards against someone regenerating the
  record with a regressed front-end);
* ``check_bench.py NEW.json --against BENCH_4.json --max-frontend-ratio 3.0``
  compares a freshly measured record to the committed baseline and fails if
  the fresh enumerate+select time is more than the given factor slower
  (loose by design: CI machines are noisy; a 3x wall-clock regression is a
  real regression, not noise).

Grid-engine gates (``BENCH_5.json`` onwards):

* ``--min-grid-dedup 1.5`` asserts the record's ``grid.dedup_ratio`` — the
  planner's shared-artifact grouping — still folds multiple timing runs
  into each stage;
* ``--require-grid-resume`` asserts ``grid.resume_hit_rate`` is 1.0: a
  resumed pass over a completed campaign must serve every cell from its
  stored row artifact.  Both are deterministic (no wall clock), so they
  gate exactly.

Serve-daemon gates (``BENCH_6.json`` onwards):

* ``--min-serve-warm-speedup 5.0`` asserts ``serve.warm_speedup`` — the
  submit-to-first-row latency of a warm daemon versus a cold submit — holds
  the warm-pool claim (wall clock, so CI passes a looser bound than the
  committed record's);
* ``--require-serve-store-hits`` asserts ``serve.warm_resumed_fraction`` is
  1.0: a warm resubmission of a finished grid must be answered entirely
  from stored row artifacts, executing zero cells (deterministic).

Fuzzing gates (``BENCH_7.json`` onwards):

* ``--min-fuzz-rate 20`` asserts ``fuzz.programs_per_second`` — seeded
  program generation throughput — stays above the floor (wall clock, so CI
  passes a looser bound than the committed record's);
* the fuzz block's ``failures`` count must be zero whenever the record
  carries one: a bench run that tripped an oracle is a failing record.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("record", help="BENCH_*.json to validate")
    parser.add_argument("--min-frontend-speedup", type=float, default=None,
                        help="require record.frontend_speedup_vs_before."
                             "enumerate_select_speedup >= this value")
    parser.add_argument("--against", default=None, metavar="BASELINE_JSON",
                        help="committed baseline record to compare against")
    parser.add_argument("--max-frontend-ratio", type=float, default=3.0,
                        help="with --against: fail if the fresh "
                             "enumerate+select seconds exceed the baseline's "
                             "by more than this factor (default 3.0)")
    parser.add_argument("--min-grid-dedup", type=float, default=None,
                        help="require record.grid.dedup_ratio >= this value")
    parser.add_argument("--require-grid-resume", action="store_true",
                        help="require record.grid.resume_hit_rate == 1.0")
    parser.add_argument("--min-serve-warm-speedup", type=float, default=None,
                        help="require record.serve.warm_speedup >= this value")
    parser.add_argument("--require-serve-store-hits", action="store_true",
                        help="require record.serve.warm_resumed_fraction "
                             "== 1.0")
    parser.add_argument("--min-fuzz-rate", type=float, default=None,
                        help="require record.fuzz.programs_per_second >= "
                             "this value (and zero oracle failures)")
    args = parser.parse_args(argv)

    record = _load(args.record)
    failures = []

    if args.min_grid_dedup is not None:
        dedup = (record.get("grid") or {}).get("dedup_ratio")
        if dedup is None:
            failures.append(f"{args.record}: no grid.dedup_ratio recorded")
        elif dedup < args.min_grid_dedup:
            failures.append(
                f"{args.record}: grid shared-artifact dedup {dedup:.2f}x "
                f"< required {args.min_grid_dedup:.2f}x")
        else:
            print(f"{args.record}: grid shared-artifact dedup {dedup:.2f}x "
                  f"(>= {args.min_grid_dedup:.2f}x)")

    if args.require_grid_resume:
        hit_rate = (record.get("grid") or {}).get("resume_hit_rate")
        if hit_rate is None:
            failures.append(f"{args.record}: no grid.resume_hit_rate recorded")
        elif hit_rate < 1.0:
            failures.append(
                f"{args.record}: grid resume hit rate {hit_rate * 100:.1f}% "
                f"< required 100% — resumed campaigns re-executed cells")
        else:
            print(f"{args.record}: grid resume hit rate 100%")

    if args.min_serve_warm_speedup is not None:
        speedup = (record.get("serve") or {}).get("warm_speedup")
        if speedup is None:
            failures.append(f"{args.record}: no serve.warm_speedup recorded")
        elif speedup < args.min_serve_warm_speedup:
            failures.append(
                f"{args.record}: serve warm first-row speedup {speedup:.2f}x "
                f"< required {args.min_serve_warm_speedup:.2f}x")
        else:
            print(f"{args.record}: serve warm first-row speedup "
                  f"{speedup:.2f}x (>= {args.min_serve_warm_speedup:.2f}x)")

    if args.require_serve_store_hits:
        fraction = (record.get("serve") or {}).get("warm_resumed_fraction")
        if fraction is None:
            failures.append(f"{args.record}: no serve.warm_resumed_fraction "
                            "recorded")
        elif fraction < 1.0:
            failures.append(
                f"{args.record}: serve warm store-hit fraction "
                f"{fraction * 100:.1f}% < required 100% — warm resubmits "
                "re-executed cells")
        else:
            print(f"{args.record}: serve warm resubmits 100% store-served")

    if args.min_fuzz_rate is not None:
        fuzz = record.get("fuzz") or {}
        rate = fuzz.get("programs_per_second")
        if rate is None:
            failures.append(f"{args.record}: no fuzz.programs_per_second "
                            "recorded")
        elif rate < args.min_fuzz_rate:
            failures.append(
                f"{args.record}: fuzz generation rate {rate:.0f} programs/s "
                f"< required {args.min_fuzz_rate:.0f}")
        else:
            print(f"{args.record}: fuzz generation {rate:.0f} programs/s "
                  f"(>= {args.min_fuzz_rate:.0f}), differential "
                  f"{fuzz.get('differential_runs_per_second', 0.0):.0f} "
                  f"runs/s")
        oracle_failures = fuzz.get("failures")
        if oracle_failures:
            failures.append(
                f"{args.record}: fuzz block recorded {oracle_failures} "
                f"oracle failure(s); the record was made on a broken tree")

    if args.min_frontend_speedup is not None:
        speedups = record.get("frontend_speedup_vs_before") or {}
        speedup = speedups.get("enumerate_select_speedup")
        if speedup is None:
            failures.append(f"{args.record}: no frontend_speedup_vs_before."
                            "enumerate_select_speedup recorded")
        elif speedup < args.min_frontend_speedup:
            failures.append(
                f"{args.record}: front-end enumerate+select speedup "
                f"{speedup:.2f}x < required {args.min_frontend_speedup:.2f}x")
        else:
            print(f"{args.record}: front-end enumerate+select speedup "
                  f"{speedup:.2f}x (>= {args.min_frontend_speedup:.2f}x)")

    if args.against is not None:
        baseline = _load(args.against)
        fresh = (record.get("frontend") or {}).get("enumerate_select_seconds")
        committed = (baseline.get("frontend") or {}).get("enumerate_select_seconds")
        if fresh is None or committed is None or committed <= 0:
            failures.append("missing frontend.enumerate_select_seconds in "
                            f"{args.record} or {args.against}")
        elif fresh > committed * args.max_frontend_ratio:
            failures.append(
                f"front-end regression: {fresh * 1000:.2f} ms/sweep vs "
                f"committed {committed * 1000:.2f} ms/sweep "
                f"(> {args.max_frontend_ratio:.1f}x)")
        else:
            print(f"front-end: {fresh * 1000:.2f} ms/sweep vs committed "
                  f"{committed * 1000:.2f} ms/sweep — within "
                  f"{args.max_frontend_ratio:.1f}x")

    for failure in failures:
        print(f"check_bench: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
