"""The fuzzing campaign driver behind ``repro fuzz``.

:func:`run_fuzz` runs a block of seeds on the forked workers of
:mod:`repro.grid.pool` (serially where none can be forked), runs every
requested oracle on each generated program, then *shrinks* each failing
seed — greedy dial reduction toward the smallest program that still trips
the same oracle — and persists a replayable repro JSON next to the
committed corpus (:mod:`repro.fuzz.corpus`).  A seed whose worker dies (a
signal, OOM, or a crash in a compiled core, which the ``kernel`` and
``functional`` oracles exist to find) fails with how it died and is not
shrunk, since its oracles would kill the campaign's process too.

Everything is deterministic: the campaign is a pure function of
``(base_seed, seeds, oracles, budget)``, so a CI failure reproduces locally
with the same arguments, and a persisted repro reproduces forever with
``pytest tests/test_fuzz.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .generator import _DIALS, SynthSpec, SynthSpecError
from .oracles import ORACLE_NAMES, run_oracles


@dataclass(frozen=True)
class FuzzFailure:
    """One seed that tripped at least one oracle."""

    seed: int
    spec: str                      #: full synth: name of the failing program
    oracle: str                    #: first failing oracle (or ``worker``)
    detail: str                    #: that oracle's diagnostic
    shrunk: Optional[str] = None   #: reduced synth: name (None if irreducible)
    repro_path: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        return {"seed": self.seed, "spec": self.spec, "oracle": self.oracle,
                "detail": self.detail, "shrunk": self.shrunk,
                "repro": self.repro_path}


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    base_seed: int
    seeds: int
    oracles: Tuple[str, ...]
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def differential_runs(self) -> int:
        return self.seeds * len(self.oracles)

    @property
    def runs_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.differential_runs / self.elapsed_seconds

    def payload(self) -> Dict[str, Any]:
        return {
            "base_seed": self.base_seed,
            "seeds": self.seeds,
            "oracles": list(self.oracles),
            "ok": self.ok,
            "failure_count": len(self.failures),
            "failures": [failure.payload() for failure in self.failures],
            "differential_runs": self.differential_runs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "runs_per_second": round(self.runs_per_second, 2),
        }


# -- seed workers ---------------------------------------------------------------

_SeedJob = Tuple[int, Tuple[str, ...], Optional[int], str]
_SeedOutcome = Tuple[int, str, List[Tuple[str, bool, str]]]

#: The oracle a seed whose worker died fails: which one was running is
#: unknown.
_WORKER_DIED = "worker"


def _run_seed_job(job: _SeedJob) -> _SeedOutcome:
    """All requested oracles against one seed."""
    seed, oracle_names, budget, input_name = job
    spec = SynthSpec.sample(seed)
    results = run_oracles(spec, oracles=oracle_names, budget=budget,
                          input_name=input_name)
    return seed, spec.name, [(r.oracle, r.ok, r.detail) for r in results]


def _died(job: _SeedJob, how: str) -> _SeedOutcome:
    return job[0], SynthSpec.sample(job[0]).name, [(
        _WORKER_DIED, False,
        f"the worker running oracles {', '.join(job[1])} {how}")]


class _Seeds:
    """A campaign's seeds as the units of :mod:`repro.grid.pool`: a child
    runs one seed at a time, keeping its warm state between seeds, and a
    seed whose child dies fails alone."""

    def __init__(self, jobs: List[_SeedJob]) -> None:
        self.cond = threading.Condition()
        self.outcomes: Dict[int, _SeedOutcome] = {}
        self._waiting = jobs[::-1]

    def claim(self) -> Optional[_SeedJob]:
        return self._waiting.pop() if self._waiting else None

    @staticmethod
    def child(jobs: Iterator[_SeedJob]) -> Iterator[_SeedOutcome]:
        return map(_run_seed_job, jobs)

    def exchange(self, conn, job: _SeedJob) -> None:
        conn.send(job)
        self._report(conn.recv())

    def died(self, job: _SeedJob, how: str) -> None:
        self._report(_died(job, how))

    def _report(self, outcome: _SeedOutcome) -> None:
        with self.cond:
            self.outcomes[outcome[0]] = outcome
            self.cond.notify_all()


def _fan_out(jobs: List[_SeedJob], workers: int) -> List[_SeedOutcome]:
    """Every seed's outcome, in ``jobs`` order, from up to ``workers``
    workers of the grid's pool; serial in this process for one worker or
    where no process can be forked."""
    if workers > 1:
        from ..grid.pool import WorkerPool    # only a pooled campaign forks
        seeds = _Seeds(jobs)
        pool = WorkerPool(seeds, min(workers, len(jobs)))
        try:
            pool.start()
        except OSError:
            pass    # no process can be forked here: run serially below
        else:
            try:
                with seeds.cond:
                    seeds.cond.wait_for(
                        lambda: len(seeds.outcomes) == len(jobs))
            finally:
                pool.stop()
            return [seeds.outcomes[job[0]] for job in jobs]
    return [_run_seed_job(job) for job in jobs]


# -- shrinking ------------------------------------------------------------------

def _reduction_candidates(current: int, minimum: int) -> List[int]:
    """Values to try for one dial, most aggressive first."""
    candidates = []
    if minimum < current:
        candidates.append(minimum)
        midpoint = (minimum + current) // 2
        if midpoint not in (minimum, current):
            candidates.append(midpoint)
        if current - 1 not in candidates and current - 1 >= minimum:
            candidates.append(current - 1)
    return candidates


def shrink_failure(spec: SynthSpec, oracle_names: Sequence[str], *,
                   budget: Optional[int] = None, input_name: str = "reference",
                   max_attempts: int = 64) -> SynthSpec:
    """Greedy dial reduction: the smallest spec still failing an oracle.

    Repeatedly walks the dial list trying ``minimum``, the midpoint, then
    ``current - 1`` for each dial, keeping any reduction under which at
    least one of ``oracle_names`` still fails.  Terminates at a fixpoint or
    after ``max_attempts`` oracle evaluations, whichever comes first — the
    result is always a spec that provably still fails.
    """

    def still_fails(candidate: SynthSpec) -> bool:
        results = run_oracles(candidate, oracles=oracle_names, budget=budget,
                              input_name=input_name)
        return any(not result.ok for result in results)

    attempts = 0
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for _, fieldname, minimum, _maximum in _DIALS:
            current = getattr(spec, fieldname)
            for value in _reduction_candidates(current, minimum):
                if attempts >= max_attempts:
                    return spec
                try:
                    candidate = spec.with_dials(**{fieldname: value})
                except SynthSpecError:
                    continue
                attempts += 1
                if still_fails(candidate):
                    spec = candidate
                    changed = True
                    break
    return spec


# -- campaign driver ------------------------------------------------------------

def run_fuzz(seeds: int, *, base_seed: int = 0,
             oracles: Optional[Sequence[str]] = None,
             budget: Optional[int] = None, input_name: str = "reference",
             workers: int = 1, shrink: bool = True,
             corpus_dir: Optional[str] = None,
             shrink_attempts: int = 24) -> FuzzReport:
    """Run a fuzzing campaign of ``seeds`` consecutive seeds.

    Args:
        seeds: how many seeds to run, starting at ``base_seed``.
        oracles: oracle subset (default: all of :data:`ORACLE_NAMES`).
        budget: dynamic-instruction budget per functional run.
        input_name: which input set to generate (``reference``/``train``).
        workers: how many seeds run at once, each in a forked child;
            ``1`` runs them serially in this process.
        shrink: reduce failing seeds to minimal dials before reporting.
        corpus_dir: if set, persist a replayable repro JSON per failing
            seed into this directory (the ``tests/corpus/`` convention).
        shrink_attempts: oracle-evaluation cap per shrink.
    """
    if seeds <= 0:
        raise ValueError("seeds must be positive")
    names = tuple(oracles) if oracles is not None else ORACLE_NAMES
    started = time.perf_counter()
    jobs: List[_SeedJob] = [(base_seed + offset, names, budget, input_name)
                            for offset in range(seeds)]
    outcomes = _fan_out(jobs, workers)

    report = FuzzReport(base_seed=base_seed, seeds=seeds, oracles=names)
    for seed, spec_name, results in outcomes:
        failed = [(oracle, detail) for oracle, ok, detail in results if not ok]
        if not failed:
            continue
        oracle, detail = failed[0]
        failing_oracles = tuple(name for name, _ in failed)
        shrunk_name: Optional[str] = None
        repro_path: Optional[str] = None
        spec = SynthSpec.from_name(spec_name)
        if shrink and oracle != _WORKER_DIED:
            reduced = shrink_failure(spec, failing_oracles, budget=budget,
                                     input_name=input_name,
                                     max_attempts=shrink_attempts)
            if reduced != spec:
                shrunk_name = reduced.name
        if corpus_dir is not None:
            from .corpus import CorpusEntry, write_repro
            entry = CorpusEntry(
                name=f"repro-seed-{seed:06d}",
                spec=shrunk_name or spec_name,
                oracles=names,
                input=input_name,
                budget=budget,
                note=f"found by fuzz campaign (seed {seed}, "
                     f"oracle {oracle}): {detail}",
            )
            repro_path = str(write_repro(corpus_dir, entry))
        report.failures.append(FuzzFailure(
            seed=seed, spec=spec_name, oracle=oracle, detail=detail,
            shrunk=shrunk_name, repro_path=repro_path))
    report.elapsed_seconds = time.perf_counter() - started
    return report
