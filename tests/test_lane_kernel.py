"""The compiled timing kernel against the reference ``TimingSimulator``.

``simulate_program`` runs every timing simulation in ``lane_kernel.c``,
which ``repro.uarch.lane_kernel`` compiles on first use; without a C
compiler it runs the reference ``TimingSimulator``.  These tests pin that
the kernel gives the reference's stats and errors on every catalog machine,
that the watchdog reports exactly the reference error from both of the
kernel's loop exits, that both fallbacks give the same results, that the
compiled kernel really is the one used wherever a compiler exists (so a CI
run cannot go green on the slow path), that interning a trace's facts does
not keep the trace alive, and that concurrent first builds and an
unwritable cache still load a complete library.
"""

import dataclasses
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import weakref
from importlib import resources
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec, Session
from repro.grid.catalog import get_grid
from repro.sim.functional import run_program
from repro.uarch import lane_kernel, pipeline
from repro.uarch.catalog import machine_config, machine_names
from repro.uarch.config import ConfigError, baseline_config
from repro.uarch.pipeline import TimingError, TimingSimulator, simulate_program
from repro.uarch.stats import PipelineStats
from repro.workloads import load_benchmark

BUDGET = 2_000

needs_compiler = pytest.mark.skipif(lane_kernel.find_compiler() is None,
                                    reason="no C compiler on PATH")


@pytest.fixture(scope="module")
def bitcount():
    program = load_benchmark("bitcount", "reference")
    return program, run_program(program, max_instructions=BUDGET).trace


@pytest.fixture(scope="module")
def crc_run():
    """crc's rewritten program, its trace and its MGT."""
    session, spec = Session(), RunSpec(benchmark="crc", budget=BUDGET)
    return (session.rewritten(spec), session.minigraph_trace(spec),
            session.mgt(spec))


def _outcome(run):
    """A timing run's stats as a dict, or its error as ``(type, message)``."""
    try:
        return dataclasses.asdict(run())
    except (ConfigError, TimingError) as error:
        return (type(error).__name__, str(error))


def _kernel(program, trace, config, **kwargs):
    return _outcome(lambda: simulate_program(program, trace, config,
                                             **kwargs))


def _reference(program, trace, config, max_cycles=5_000_000, **kwargs):
    return _outcome(lambda: TimingSimulator(program, trace, config, **kwargs)
                    .run(max_cycles=max_cycles))


class TestReferenceEquivalence:
    """The kernel's stats or error is the reference simulator's."""

    def test_baseline_trace_all_catalog_machines(self, bitcount):
        program, trace = bitcount
        for name in machine_names():
            config = machine_config(name)
            expected = _reference(program, trace, config)
            assert isinstance(expected, dict), f"{name}: {expected}"
            assert _kernel(program, trace, config) == expected, name

    @pytest.mark.parametrize("compressed", (False, True))
    def test_minigraph_trace_all_catalog_machines(self, crc_run, compressed):
        """Handle-bearing traces: stats and errors both match."""
        program, trace, mgt = crc_run
        outcomes = []
        for name in machine_names():
            config = machine_config(name)
            expected = _reference(program, trace, config, mgt=mgt,
                                  compressed_layout=compressed)
            assert _kernel(program, trace, config, mgt=mgt,
                           compressed_layout=compressed) == expected, name
            outcomes.append(expected)
        # The catalog mixes handle-capable and plain machines, so some must
        # reject the handle trace.
        assert any(isinstance(item, tuple) for item in outcomes)
        assert any(isinstance(item, dict) for item in outcomes)

    def test_fp_units_zero_admission_error(self):
        from repro.fuzz.generator import SynthSpec, generate_program
        spec = SynthSpec.sample(1004).with_dials(fp_density=40)
        program = generate_program(spec, "reference")
        trace = run_program(program, max_instructions=10_000).trace
        good = baseline_config()
        bad = dataclasses.replace(good, name="fp-less", fp_units=0)
        expected = _reference(program, trace, bad)
        assert expected == (
            "ConfigError",
            "machine 'fp-less' has fp_units=0 but the trace for "
            f"{program.name!r} contains floating-point instructions; "
            "they could never issue")
        assert _kernel(program, trace, bad) == expected
        assert _kernel(program, trace, good) == _reference(program, trace,
                                                           good)

    def test_one_entry_trace(self):
        program = load_benchmark("bitcount", "reference")
        trace = run_program(program, max_instructions=1).trace
        assert len(trace) == 1
        config = baseline_config()
        assert _kernel(program, trace, config) == _reference(program, trace,
                                                             config)


class TestWatchdogParity:
    """A too-small ``max_cycles`` raises exactly the reference error."""

    def _check(self, program, trace, max_cycles):
        config = baseline_config()
        expected = _reference(program, trace, config, max_cycles=max_cycles)
        assert expected[0] == "TimingError" and "exceeded" in expected[1]
        assert _kernel(program, trace, config,
                       max_cycles=max_cycles) == expected

    def test_watchdog_after_a_stepped_cycle(self, bitcount):
        # At a cycle where an entry retires no stage is idle, so the loop
        # steps from max_cycles to max_cycles + 1 and the watchdog fires.
        program, trace = bitcount
        reference = TimingSimulator(program, trace, baseline_config(),
                                    record_timeline=True)
        reference.run()
        busy_cycle = reference.timeline[len(trace) // 2].retire_cycle
        self._check(program, trace, busy_cycle)

    def test_watchdog_caps_an_idle_jump(self, bitcount):
        # The cold instruction cache stalls fetch past max_cycles before
        # anything is fetched: the idle-span jump is capped at the watchdog
        # limit instead of reaching the end of the miss.
        program, trace = bitcount
        reference = TimingSimulator(program, trace, baseline_config(),
                                    record_timeline=True)
        reference.run()
        max_cycles = 20
        assert reference.timeline[0].fetch_cycle > max_cycles + 1
        self._check(program, trace, max_cycles)

    def test_negative_and_zero_budgets(self, bitcount):
        program, trace = bitcount
        for max_cycles in (-3, 0):
            self._check(program, trace, max_cycles)


class TestFallback:
    """No compiler: identical stats, errors and grid rows, just slower."""

    def _catalog_outcomes(self, crc_run):
        program, trace, mgt = crc_run
        return [_kernel(program, trace, machine_config(name), mgt=mgt)
                for name in machine_names()]

    def _grid_rows(self):
        grid = get_grid("fig8").build(benchmarks=["bitcount", "crc"],
                                      budget=1_000)
        return [row.as_dict() for row in Session().run_grid(grid, workers=0)]

    def test_fallback_matches_compiled(self, monkeypatch, crc_run):
        compiled = self._catalog_outcomes(crc_run)
        compiled_rows = self._grid_rows()
        # Force the build to fail: the compiler lookup finds nothing.
        monkeypatch.setattr(lane_kernel, "find_compiler", lambda: None)
        monkeypatch.setattr(lane_kernel, "_entry", lane_kernel._UNTRIED)
        assert self._catalog_outcomes(crc_run) == compiled
        assert self._grid_rows() == compiled_rows
        assert lane_kernel.kernel() is None

    def test_failing_compiler_falls_back(self, monkeypatch, bitcount):
        failing = shutil.which("false")
        if failing is None:
            pytest.skip("no `false` command")
        monkeypatch.setattr(lane_kernel, "find_compiler", lambda: failing)
        monkeypatch.setattr(lane_kernel, "_entry", lane_kernel._UNTRIED)
        program, trace = bitcount
        config = baseline_config()
        stats = _kernel(program, trace, config)
        assert lane_kernel.kernel() is None
        assert stats == _reference(program, trace, config)

    def test_geometry_beyond_the_kernel_range_falls_back(self, bitcount):
        program, trace = bitcount
        config = dataclasses.replace(baseline_config(),
                                     lsq_size=lane_kernel.GEOMETRY_LIMIT)
        assert lane_kernel.config_vector(config) is None
        assert _kernel(program, trace, config) == _reference(program, trace,
                                                             config)


class TestTraceFacts:
    def test_timed_trace_is_freed(self):
        # Interned facts hold the trace's columns, never the trace, so a
        # dropped trace is collected along with its packed kernel buffers.
        program = load_benchmark("bitcount", "reference")
        trace = run_program(program, max_instructions=BUDGET).trace
        simulate_program(program, trace, baseline_config())
        alive = weakref.ref(trace)
        del trace
        gc.collect()
        assert alive() is None


@needs_compiler
class TestCompiledKernelIsUsed:
    """With a compiler on PATH the slow path must never run silently."""

    def test_timing_never_reaches_the_reference(self, monkeypatch, bitcount):
        assert lane_kernel.kernel() is not None

        def forbidden(*args, **kwargs):
            raise AssertionError("timing ran the reference simulator")

        monkeypatch.setattr(pipeline, "TimingSimulator", forbidden)
        program, trace = bitcount
        for name in machine_names():
            simulate_program(program, trace, machine_config(name))
        Session().run(RunSpec(benchmark="crc", budget=BUDGET))
        grid = get_grid("fig8").build(benchmarks=["fnvmix"], budget=1_000)
        assert list(Session().run_grid(grid, workers=0))

    def test_broken_invariant_is_a_timing_error(self, bitcount):
        # A packed view whose static-op table is empty: every entry's
        # index is out of range, which the kernel reports instead of
        # reading past the table.
        program, trace = bitcount
        facts = lane_kernel.trace_facts(program, trace)
        lane_kernel.simulate(facts, baseline_config(), 5_000_000)
        packed, buffers = facts.kernel_trace
        broken = type(packed).from_buffer_copy(packed)
        broken.ops = 0
        facts.kernel_trace = (broken, buffers)
        try:
            with pytest.raises(TimingError, match="invariant failed"):
                lane_kernel.simulate(facts, baseline_config(), 5_000_000)
        finally:
            facts.kernel_trace = (packed, buffers)

    def test_concurrent_lanes_in_threads(self, monkeypatch, bitcount):
        # ctypes releases the GIL, so kernel calls run at once; more threads
        # than cores race on the first load and on packing the shared facts.
        program, trace = bitcount
        configs = [machine_config(name) for name in machine_names()[:6]]
        expected = [_reference(program, trace, config) for config in configs]
        facts = lane_kernel.trace_facts(program, trace)
        monkeypatch.setattr(facts, "kernel_trace", None)
        monkeypatch.setattr(lane_kernel, "_entry", lane_kernel._UNTRIED)
        got = [None] * len(configs)

        def work(index):
            got[index] = dataclasses.asdict(
                lane_kernel.simulate(facts, configs[index], 5_000_000))

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    def test_unwritable_cache_builds_in_a_temp_dir(self, monkeypatch,
                                                   tmp_path, bitcount):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setattr(lane_kernel, "CACHE_DIR", blocker / "__pycache__")
        monkeypatch.setattr(lane_kernel, "_entry", lane_kernel._UNTRIED)
        assert lane_kernel.kernel() is not None
        program, trace = bitcount
        facts = lane_kernel.trace_facts(program, trace)
        stats = lane_kernel.simulate(facts, baseline_config(), 5_000_000)
        assert dataclasses.asdict(stats) == _reference(program, trace,
                                                       baseline_config())


_RACE_SCRIPT = """
import dataclasses, json, os, sys, time
from repro.sim.functional import run_program
from repro.uarch import lane_kernel
from repro.uarch.config import baseline_config
from repro.uarch.pipeline import simulate_program
from repro.workloads import load_benchmark

program = load_benchmark("bitcount", "reference")
trace = run_program(program, max_instructions=int(sys.argv[2])).trace
while not os.path.exists(sys.argv[1]):
    time.sleep(0.001)
stats = simulate_program(program, trace, baseline_config())
print(json.dumps({"compiled": lane_kernel.kernel() is not None,
                  "stats": dataclasses.asdict(stats)}))
"""


@needs_compiler
def test_concurrent_first_builds(tmp_path, bitcount):
    """Two processes build into one empty cache at once; both load it."""
    package = Path(repro.__file__).parent
    shutil.copytree(package, tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    go = tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    processes = [subprocess.Popen(
        [sys.executable, "-c", _RACE_SCRIPT, str(go), str(BUDGET)],
        env=env, cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE) for _ in range(2)]
    time.sleep(0.5)
    go.write_text("", encoding="utf-8")
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr.decode()
        outputs.append(json.loads(stdout))
    program, trace = bitcount
    expected = _reference(program, trace, baseline_config())
    for output in outputs:
        assert output == {"compiled": True, "stats": expected}
    cache = tmp_path / "repro" / "uarch" / "__pycache__"
    built = sorted(path.name for path in cache.iterdir()
                   if path.name.startswith("lane_kernel-"))
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_kernel_source_ships_as_package_data():
    """The C source is found as a package resource, not a repo path."""
    source = resources.files("repro.uarch").joinpath(lane_kernel.SOURCE)
    assert source.is_file()
    text = source.read_text(encoding="utf-8")
    assert "int repro_lane_run(" in text
    # The stats vector the kernel fills is PipelineStats, field for field.
    block = re.search(r"enum \{([^}]*OUT_COUNT[^}]*)\}", text).group(1)
    names = [name.lower() for name in re.findall(r"OUT_(\w+)", block)]
    assert names == [field.name for field in
                     dataclasses.fields(PipelineStats)] + ["count"]
