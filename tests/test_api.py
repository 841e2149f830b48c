"""Tests for the unified pipeline API (repro.api): spec hashing, the
content-addressed artifact store, session stage caching and the
``python -m repro`` CLI."""

import dataclasses
import gc
import json
import math
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from contextlib import closing
from pathlib import Path

import pytest

from repro import __version__
from repro.api import (
    ArtifactStore,
    CacheStats,
    RunSpec,
    Session,
    SessionStats,
    SpecError,
    canonical_key,
    content_hash,
)
from repro.api import session as session_module
from repro.api import spec as spec_module
from repro.api import store as store_module
from repro.api.keys import digest
from repro.api.store import MISS
from repro.grid import cell_key, get_grid
from repro.grid.engine import cell_payload
from repro.interning import InternTable, match_key
from repro.minigraph import DEFAULT_POLICY, INTEGER_POLICY, MgtBuildOptions
from repro.program import Program
from repro.sim import trace as trace_module
from repro.sim.trace import TRACE_CODEC_VERSION
from repro.uarch import (
    PipelineStats,
    baseline_config,
    integer_memory_minigraph_config,
)
from repro.uarch import config as config_module
from repro.uarch.config import ConfigError
from repro.uarch.stats import ipc_speedup
from repro.workloads import load_benchmark

BUDGET = 2_000


# -- keys -------------------------------------------------------------------------


class TestKeys:
    def test_canonical_key_covers_every_dataclass_field(self):
        import dataclasses
        key = canonical_key(DEFAULT_POLICY)
        named = {entry[0] for entry in key[1:]}
        assert named == {f.name for f in dataclasses.fields(DEFAULT_POLICY)}

    def test_canonical_key_of_edge_values(self):
        """A dataclass without fields keys as its class name, and a
        subclass of a scalar type (an ``IntEnum``) is not a bare scalar."""
        import enum

        @dataclasses.dataclass(frozen=True)
        class Empty:
            pass

        class Kind(enum.IntEnum):
            ONE = 1

        assert canonical_key(Empty()) == ("Empty",)
        assert canonical_key((Kind.ONE, 1, True, None)) == \
            (("Kind", "ONE"), 1, True, None)
        with pytest.raises(TypeError):
            canonical_key(Empty)   # a class, not an instance

    def test_policy_variants_key_differently(self):
        assert canonical_key(DEFAULT_POLICY) != canonical_key(INTEGER_POLICY)
        assert content_hash(DEFAULT_POLICY) != content_hash(INTEGER_POLICY)

    def test_content_hash_is_stable(self):
        assert content_hash(DEFAULT_POLICY) == content_hash(DEFAULT_POLICY)


#: The version the pinned keys below were derived under.
PINNED_VERSION = "1.4.0"

_LOOP = ("start:\n  ldi r1, 40\n  ldi r2, 0\nloop:\n  addq r2, r1, r2\n"
         "  subqi r1, 1, r1\n  bne r1, loop\n  halt\n")


def _pinned_spec(name):
    if name == "baseline":
        return RunSpec(benchmark="bitcount", budget=BUDGET, policy=None)
    if name == "default":
        return RunSpec(benchmark="bitcount", budget=BUDGET)
    if name == "fig6-int-mem+collapse":
        return RunSpec(benchmark="bitcount", budget=BUDGET,
                       policy=DEFAULT_POLICY,
                       machine=integer_memory_minigraph_config(collapsing=True),
                       baseline_machine=baseline_config(),
                       mgt_options=MgtBuildOptions(collapsing=True))
    return RunSpec.for_program(Program.from_assembly("loop", _LOOP),
                               budget=BUDGET)


_BITCOUNT_UPSTREAM = {
    "assemble": "b9cbb4501934ea1f0d635fc5",
    "profile": "a7ce0ce7e41319a5634076e2",
    "time_baseline": "8427ff8eadc2c7865e8ef940",
}

#: Per spec: every stage key ``Session.run`` derives (stage -> digest), the
#: ``spec_hash``, the row artifact's ``cell_key`` and the machine's
#: ``machine_hash``, as earlier builds wrote them into stores.  The
#: ``profile`` and ``trace`` keys name the trace codec version, and a
#: ``trace`` key names no MGT build option, so the plain and collapsing
#: variants of one policy share a trace.
PINNED_KEYS = {
    "baseline": (
        _BITCOUNT_UPSTREAM,
        "73e2a7d89b0fef56b2fcedaa", "gridcell-b08cf5e8e8f821ac03bf2b39",
        "e0900befed538e05091bd06f"),
    "default": (
        dict(_BITCOUNT_UPSTREAM,
             select="f8d8db983781649089dd484e",
             rewrite="2d0773576cc237e5e2f130c2",
             build_mgt="47a15f60b880966a9b83204f",
             trace="a06fe5eddc26d51f31c77303",
             time="515e13c1e4b48abfd9fdb736"),
        "aaa91a7fef57f603ec633fae", "gridcell-1a8028f4a422730ac5ff9247",
        "9427920b51a5eca988069f0c"),
    "fig6-int-mem+collapse": (
        dict(_BITCOUNT_UPSTREAM,
             select="f8d8db983781649089dd484e",
             rewrite="2d0773576cc237e5e2f130c2",
             build_mgt="7864ba8a5a9bb44d36d9fa9c",
             trace="a06fe5eddc26d51f31c77303",
             time="c0db77f984f9e2313bcab245"),
        "5fef61c3ffcdf714d2d149d7", "gridcell-9b49867aada2b29f2bdb8443",
        "42f0b3031475a63df42392ac"),
    "for-program": (
        {"assemble": "102b0869b9074b70e9b21932",
         "profile": "975742e1dee9323c44ef07cb",
         "time_baseline": "a7425a25b571697bdf595c2b",
         "select": "552136d772ded126409c6628",
         "rewrite": "7f8b87b0ebd3766046ccbc16",
         "build_mgt": "1ab234c7bddc0e7644e5a661",
         "trace": "6891cdf1515a672e2a897b79",
         "time": "06c811bdaac85eab9ba9f711"},
        "b2e8b8248ff8ddc471b4b677", "gridcell-59722b42636a7fed37d73e82",
        "9427920b51a5eca988069f0c"),
}


class _KeyRecordingStore(ArtifactStore):
    """A store noting every key it is asked to get or put (memory-only
    unless given a directory), and every get in order."""

    def __init__(self, cache_dir=None, version=PINNED_VERSION):
        super().__init__(cache_dir, version=version)
        self.keys = set()
        self.gets = []

    def get(self, key):
        self.keys.add(key)
        self.gets.append(key)
        return super().get(key)

    def put(self, key, value):
        self.keys.add(key)
        super().put(key, value)


class TestPinnedKeys:
    """Stores written by earlier builds keep serving only while every key
    derives the same bytes, so the bytes themselves are pinned."""

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_keys_match_their_pins(self, name):
        stages, spec_hash, row_key, machine_hash = PINNED_KEYS[name]
        spec = _pinned_spec(name)
        store = _KeyRecordingStore()
        Session(store=store, version=PINNED_VERSION).run(spec)
        assert dict(key.rsplit("-", 1) for key in store.keys) == stages
        assert len(store.keys) == len(stages)
        assert spec.spec_hash == spec_hash
        assert cell_key(spec, PINNED_VERSION) == row_key
        assert spec.resolved_machine.machine_hash == machine_hash

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_key_material_is_already_canonical(self, name, monkeypatch):
        # ``digest`` hashes material as given, which equals the canonical
        # key's hash only while the material is canonical already.
        materials = []

        def recording_digest(material):
            materials.append(material)
            return digest(material)

        monkeypatch.setattr(session_module, "digest", recording_digest)
        spec = _pinned_spec(name)
        Session(version=PINNED_VERSION).run(spec)
        assert {material[1] for material in materials} == \
            set(PINNED_KEYS[name][0])
        for material in materials + [spec._identity()]:
            assert canonical_key(material) == material
            assert repr(canonical_key(material)) == repr(material)


# -- specs ------------------------------------------------------------------------


class TestRunSpec:
    def test_requires_a_source(self):
        with pytest.raises(SpecError):
            RunSpec()
        with pytest.raises(SpecError):
            RunSpec(benchmark="gsm.toast", budget=0)

    def test_rejects_benchmark_and_program_together(self):
        # Allowing both would cache the ad-hoc program's artifacts under the
        # registered benchmark's keys, poisoning the shared store.
        program = load_benchmark("bitcount")
        with pytest.raises(SpecError):
            RunSpec(benchmark="gcc", program=program)

    def test_spec_hash_is_content_addressed(self):
        first = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        second = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        assert first.spec_hash == second.spec_hash
        assert first.with_budget(BUDGET + 1).spec_hash != first.spec_hash
        assert first.with_policy(INTEGER_POLICY).spec_hash != first.spec_hash

    def test_policies_share_upstream_stage_material(self):
        memory = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        integer = memory.with_policy(INTEGER_POLICY)
        for stage in ("assemble", "profile"):
            assert memory.stage_material(stage) == integer.stage_material(stage)
        assert memory.stage_material("select") != integer.stage_material("select")

    def test_ad_hoc_programs_are_content_addressed(self):
        source = "start:\n  ldi r1, 3\n  addqi r1,1,r1\n  halt\n"
        first = RunSpec.for_program(Program.from_assembly("adhoc", source))
        second = RunSpec.for_program(Program.from_assembly("adhoc", source))
        assert first.source_id == second.source_id
        assert first.source_id.startswith("adhoc-")

    def test_equality_sees_the_ad_hoc_program(self):
        # Specs are dictionary keys; two different programs must not collide.
        first = RunSpec.for_program(load_benchmark("gcc"))
        second = RunSpec.for_program(load_benchmark("mcf"))
        assert first != second
        assert len({first: "a", second: "b"}) == 2
        twin = RunSpec.for_program(load_benchmark("gcc"))
        assert first == twin and hash(first) == hash(twin)

    def test_describe_is_json_serializable(self):
        spec = RunSpec(benchmark="gsm.toast", budget=BUDGET)
        assert json.loads(json.dumps(spec.describe()))["benchmark"] == "gsm.toast"


class _TaggedSpec(RunSpec):
    """A spec subclass: it must unpickle as itself."""


def _round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


#: Attributes a spec or machine memoizes its keys in.
_MEMOS = ("_spec_hash", "_identity_key", "_policy_key", "_mgt_options_key",
          "_source_id", "machine_key", "machine_hash")


class TestSpecPickling:
    """Specs and machines pickle as their field values and unpickle to one
    object per distinct value per process, without changing a key."""

    def test_no_memo_crosses_a_pickle(self):
        machine = baseline_config().with_physical_registers(96)
        machine.machine_hash
        spec = RunSpec(benchmark="bitcount", budget=BUDGET, machine=machine)
        adhoc = RunSpec.for_program(load_benchmark("crc"), budget=BUDGET)
        for value in (spec, adhoc):
            value.spec_hash, value.source_id
        assert {"_spec_hash", "_identity_key", "_policy_key",
                "_mgt_options_key"} <= set(vars(spec))
        assert "_source_id" in vars(adhoc)
        assert {"machine_key", "machine_hash"} <= set(vars(machine))
        for value in (spec, adhoc, machine):
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            assert not [memo for memo in _MEMOS if memo.encode() in blob]

    def test_two_unpickles_of_one_payload_share_their_objects(self):
        machine = baseline_config().with_physical_registers(100)
        spec = RunSpec(benchmark="crc", budget=BUDGET, machine=machine)
        blob = pickle.dumps([spec, machine])
        first, second = pickle.loads(blob), pickle.loads(blob)
        assert first[0] is second[0] and first[1] is second[1]
        assert first[0].machine is first[1]
        assert first[0] == spec and first[0] is not spec
        # A key derived on the shared object serves every later unpickle.
        first[0].spec_hash
        assert vars(pickle.loads(blob)[0])["_spec_hash"] == spec.spec_hash

    @pytest.mark.parametrize("a, b", [
        (RunSpec(benchmark="bitcount", budget=8000),
         RunSpec(benchmark="bitcount", budget=8000.0)),
        (RunSpec(benchmark="bitcount",
                 policy=dataclasses.replace(DEFAULT_POLICY, max_size=4)),
         RunSpec(benchmark="bitcount",
                 policy=dataclasses.replace(DEFAULT_POLICY, max_size=4.0))),
        (RunSpec(benchmark="bitcount",
                 machine=dataclasses.replace(baseline_config(),
                                             fetch_width=1)),
         RunSpec(benchmark="bitcount",
                 machine=dataclasses.replace(baseline_config(),
                                             fetch_width=True))),
    ], ids=["budget", "policy-max-size", "machine-fetch-width"])
    def test_equal_values_of_other_types_stay_apart(self, a, b):
        """``==`` says these specs are one run, but their keys differ:
        interning by ``==`` would serve one the other's rows."""
        assert a == b and a.spec_hash != b.spec_hash
        for payload in ([a, b], [b, a]):
            # Empty tables, so each order interns its first spec first.
            spec_module._SPECS.clear()
            config_module._MACHINES.clear()
            first, second = pickle.loads(pickle.dumps(payload))
            assert first is not second
            assert [first.spec_hash, second.spec_hash] \
                == [spec.spec_hash for spec in payload]
            assert _round_trip(payload[0]) is first
            assert _round_trip(payload[1]) is second

    def test_a_machine_matches_only_its_own_interned_object(self):
        """A spec matches its machines by identity, which is sound only
        while the spec table keeps them alive: an equal machine that is
        another object is another key, never a reused id."""
        machine = baseline_config().with_physical_registers(104)
        payload = pickle.dumps(RunSpec(benchmark="bitcount", budget=BUDGET,
                                       machine=machine))
        first = pickle.loads(payload)
        config_module._MACHINES.clear()        # as an eviction would
        second = pickle.loads(payload)
        assert second.machine is not first.machine
        assert second is not first
        assert second.spec_hash == first.spec_hash
        assert pickle.loads(payload) is second

    def test_ad_hoc_programs_and_subclasses_round_trip(self):
        adhoc = RunSpec.for_program(load_benchmark("crc"), budget=BUDGET)
        copies = [_round_trip(adhoc) for _ in range(2)]
        assert copies[0] == adhoc and copies[0].source_id == adhoc.source_id
        assert copies[0].spec_hash == adhoc.spec_hash
        assert copies[0] is not copies[1]      # never interned
        tagged = _TaggedSpec(benchmark="crc", budget=BUDGET)
        plain = _round_trip(RunSpec(benchmark="crc", budget=BUDGET))
        assert type(_round_trip(tagged)) is _TaggedSpec
        assert _round_trip(tagged) is not plain

    def test_unpickling_validates(self):
        machine = dataclasses.replace(baseline_config())
        object.__setattr__(machine, "rob_size", 0)
        with pytest.raises(ConfigError, match="rob_size"):
            _round_trip(machine)
        cache = dataclasses.replace(baseline_config().dcache)
        object.__setattr__(cache, "size_bytes", 384 * 64)
        with pytest.raises(ConfigError, match="power of two"):
            _round_trip(cache)
        spec = RunSpec(benchmark="crc")
        object.__setattr__(spec, "budget", -1)
        with pytest.raises(SpecError, match="budget"):
            _round_trip(spec)

    def test_an_intern_table_evicts_its_least_recently_used_entry(self):
        table = InternTable(2)
        built = []

        def build(value):
            return lambda: built.append(value) or [value]

        one = table.get(("one",), build(1))
        two = table.get(("two",), build(2))
        assert table.get(("one",), build(1)) is one    # now used last
        table.get(("three",), build(3))                 # evicts "two"
        assert len(table) == 2 and built == [1, 2, 3]
        assert table.get(("one",), build(1)) is one
        assert table.get(("two",), build(2)) is not two
        assert table.get(None, build(4)) is not table.get(None, build(4))
        assert match_key([object()]) is None
        assert spec_module._SPECS.limit == spec_module._INTERNED_SPECS
        assert config_module._MACHINES.limit \
            == config_module._INTERNED_MACHINES

    def test_threads_interning_at_once_share_one_object_per_key(self):
        """Connection threads unpickle at once: each key must still map to
        one object, and a table must stay within its limit."""
        shared, small = InternTable(64), InternTable(8)
        got = [[] for _ in range(8)]
        start = threading.Barrier(len(got))

        def build(key):
            time.sleep(0)   # let another thread in while this one builds
            return [key]

        def work(seen):
            start.wait()
            for round_ in range(50):
                for key in range(32):
                    seen.append((key, shared.get((key,),
                                                 lambda: build(key))))
                    small.get((key, round_ % 3), lambda: build(key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seen,))
                       for seen in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        objects = {}
        for key, value in (pair for seen in got for pair in seen):
            assert objects.setdefault(key, value) is value
        assert len(objects) == len(shared) == 32
        assert len(small) == 8


# -- the artifact store -----------------------------------------------------------


def _database(cache_dir, version):
    """The database holding ``version``'s rows: the cache directory's one."""
    return Path(cache_dir) / "store.sqlite3"


def _row(cache_dir, version, key):
    """The bytes stored for ``key``, or ``None`` when it has no row."""
    with closing(sqlite3.connect(_database(cache_dir, version))) as connection:
        row = connection.execute(
            "SELECT value FROM entries WHERE version = ? AND key = ?",
            (version, key)).fetchone()
    return None if row is None else row[0]


def _keys(cache_dir, version):
    """The keys ``version`` has rows for."""
    with closing(sqlite3.connect(_database(cache_dir, version))) as connection:
        return [key for (key,) in connection.execute(
            "SELECT key FROM entries WHERE version = ?", (version,))]


def _set_row(cache_dir, version, key, value):
    """Store ``value`` (bytes) for ``key`` as another writer would."""
    with closing(sqlite3.connect(_database(cache_dir, version),
                                 isolation_level=None)) as connection:
        connection.execute("INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                           (version, key, value))


def _value(index):
    """The value every writer of the concurrency tests puts for ``index``."""
    return {"index": index, "payload": bytes(range(256)) * (index % 7)}


#: Puts keys ``first`` .. ``first + count - 1`` once ``go`` exists.
_WRITER = """
import os, sys, time
sys.path.insert(0, sys.argv[5])
from test_api import _value
from repro.api import ArtifactStore
cache_dir, first, count, go = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
store = ArtifactStore(cache_dir, version="1.0")
open(go + f".ready-{first}", "w").close()
while not os.path.exists(go):
    time.sleep(0.001)
for index in range(first, first + count):
    store.put(f"key-{index}", _value(index))
"""

#: Puts keys 0, 1, 2, ... until killed; touches ``started`` after 50 puts.
_ENDLESS_WRITER = """
import sys
sys.path.insert(0, sys.argv[3])
from test_api import _value
from repro.api import ArtifactStore
store = ArtifactStore(sys.argv[1], version="1.0")
index = 0
while True:
    store.put(f"key-{index}", _value(index))
    if index == 50:
        open(sys.argv[2], "w").close()
    index += 1
"""

#: Keeps a store's connection open across another process's clear: puts
#: ``before``, touches ``ready``, waits for ``go``, puts ``theirs`` and must
#: then read the ``mine`` the clearing process put.
_CLEAR_BESIDE = """
import os, sys, time
from repro.api import ArtifactStore
cache_dir, ready, go = sys.argv[1:4]
store = ArtifactStore(cache_dir, version="1.0")
store.put("before", 1)
open(ready, "w").close()
while not os.path.exists(go):
    time.sleep(0.001)
store.put("theirs", 2)
assert store.get("mine") == 3, "the clearing process's put is not read"
store.close()
"""


def _env():
    """The environment of a subprocess that imports this checkout's repro."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(script, *args):
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)],
                            env=_env(), stderr=subprocess.PIPE, text=True)


def _wait_for(path, process, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not Path(path).exists():
        assert process.poll() is None, process.stderr.read()
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.005)


def _reap(pids, seconds):
    """Each forked child's exit status, ``None`` for one still running after
    ``seconds`` (it is killed)."""
    deadline = time.monotonic() + seconds
    statuses = {}
    while len(statuses) < len(pids) and time.monotonic() < deadline:
        for pid in pids:
            if pid not in statuses:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    statuses[pid] = os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    for pid in pids:
        if pid not in statuses:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [statuses.get(pid) for pid in pids]


class TestArtifactStore:
    VERSION = "1.0"

    def _store(self, cache_dir=None):
        return ArtifactStore(cache_dir, version=self.VERSION)

    def test_memory_hit_and_miss_accounting(self):
        store = self._store()
        assert store.get("missing") is MISS
        store.put("key", 42)
        assert store.get("key") == 42
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1
        assert store.stats.puts == 1

    def test_disk_round_trip(self, tmp_path):
        first = self._store(tmp_path)
        # A lookup creates nothing on disk; the first put creates the
        # version's database.
        assert first.get("key") is MISS and "key" not in first
        assert list(tmp_path.iterdir()) == []
        first.put("key", {"value": [1, 2, 3]})
        assert pickle.loads(_row(tmp_path, self.VERSION, "key")) == \
            {"value": [1, 2, 3]}
        second = self._store(tmp_path)
        assert "key" in second
        assert second.get("key") == {"value": [1, 2, 3]}
        assert second.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.put("key", 1)
        _set_row(tmp_path, self.VERSION, "key", b"not a pickle")
        fresh = self._store(tmp_path)
        assert fresh.get("key") is MISS
        assert _row(tmp_path, self.VERSION, "key") is None

    def test_put_keeps_an_existing_entry(self, tmp_path):
        writer = self._store(tmp_path)
        writer.put("key", {"value": 1})
        writer.close()
        before = _row(tmp_path, self.VERSION, "key")
        second = self._store(tmp_path)
        # A different value shows that the row is not written again.
        second.put("key", {"value": 2})
        assert _row(tmp_path, self.VERSION, "key") == before
        assert second.stats.puts == 1
        assert self._store(tmp_path).get("key") == {"value": 1}
        second.close()

    def test_put_rewrites_an_entry_get_deleted(self, tmp_path):
        self._store(tmp_path).put("key", {"value": 1})
        damaged = _row(tmp_path, self.VERSION, "key")[:-3]
        _set_row(tmp_path, self.VERSION, "key", damaged)
        store = self._store(tmp_path)
        assert store.get("key") is MISS
        assert _row(tmp_path, self.VERSION, "key") is None
        store.put("key", {"value": 1})
        assert self._store(tmp_path).get("key") == {"value": 1}

    def test_clear_and_info(self, tmp_path):
        store = self._store(tmp_path)
        store.put("a", 1)
        store.put("b", 2)
        info = store.info()
        assert info.disk_entries == 2 and info.memory_entries == 2
        assert info.disk_bytes > 0
        assert store.clear() == 2
        assert store.info().disk_entries == 0
        # The store keeps working after its database is gone.
        store.put("c", 3)
        assert self._store(tmp_path).get("c") == 3


class TestStoreDatabase:
    """The disk layer is one SQLite database per version directory, shared
    by processes and threads; failures degrade to the memory layer."""

    VERSION = "1.0"

    def _store(self, cache_dir):
        return ArtifactStore(cache_dir, version=self.VERSION)

    def _assert_holds(self, cache_dir, indices):
        reader = self._store(cache_dir)
        for index in indices:
            assert reader.get(f"key-{index}") == _value(index), index

    def test_two_processes_put_overlapping_keys_at_once(self, tmp_path):
        go = tmp_path / "go"
        cache_dir = tmp_path / "cache"
        tests = Path(__file__).resolve().parent
        writers = [_python(_WRITER, cache_dir, first, 300, go, tests)
                   for first in (0, 150)]
        for first, writer in zip((0, 150), writers):
            _wait_for(f"{go}.ready-{first}", writer)
        go.touch()
        for writer in writers:
            _, errors = writer.communicate(timeout=120)
            assert writer.returncode == 0, errors
        self._assert_holds(cache_dir, range(450))
        assert self._store(cache_dir).info().disk_entries == 450

    def test_a_lost_switch_to_wal_is_retried(self, tmp_path, monkeypatch):
        # Of two processes switching a new database to WAL at once, the
        # loser's pragma fails at once; its first put must still land.
        lost = []
        connect = sqlite3.connect

        class Losing(sqlite3.Connection):
            def execute(self, statement, *args):
                if statement.startswith("PRAGMA journal_mode") and not lost:
                    lost.append(statement)
                    raise sqlite3.OperationalError("database is locked")
                return super().execute(statement, *args)

        monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs:
                            connect(*args, factory=Losing, **kwargs))
        self._store(tmp_path).put("key-0", _value(0))
        assert lost
        self._assert_holds(tmp_path, [0])

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
    def test_writer_killed_in_a_put_loop_leaves_whole_entries(self, tmp_path):
        started = tmp_path / "started"
        writer = _python(_ENDLESS_WRITER, tmp_path, started,
                         Path(__file__).resolve().parent)
        try:
            _wait_for(started, writer)
            time.sleep(0.05)
        finally:
            writer.send_signal(signal.SIGKILL)
            writer.communicate(timeout=60)
        reader = self._store(tmp_path)
        stored = reader.info().disk_entries
        assert stored > 50
        for index in range(stored + 100):
            value = reader.get(f"key-{index}")
            assert value is MISS or value == _value(index), index
        assert reader.stats.disk_hits == stored

    def test_threads_share_one_store(self, tmp_path):
        store = self._store(tmp_path)
        errors = []

        def work(first):
            try:
                for index in range(first, first + 200):
                    store.put(f"key-{index}", _value(index))
                    if index % 10 == 0:
                        # Every thread's next gets go to the database.
                        store.clear(disk=False)
                    assert store.get(f"key-{index}") == _value(index)
                    assert f"key-{first}" in store
            except Exception as error:  # reported by the main thread
                errors.append(error)

        threads = [threading.Thread(target=work, args=(first,))
                   for first in (0, 100, 200, 300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.stats.disk_hits > 0
        self._assert_holds(tmp_path, range(500))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_opens_its_own_connection(self, tmp_path,
                                                   monkeypatch):
        # Weak references: the test itself keeps no connection alive.
        opened = []
        connect = sqlite3.connect

        class Connection(sqlite3.Connection):
            pass

        def recording_connect(*args, **kwargs):
            connection = connect(*args, factory=Connection, **kwargs)
            opened.append(weakref.ref(connection))
            return connection

        monkeypatch.setattr(sqlite3, "connect", recording_connect)
        store = self._store(tmp_path)
        store.put("parent", 0)
        (parent_connection,) = opened
        stop = threading.Event()

        def hammer():
            # Another thread inside store calls while the main thread forks.
            index = 0
            while not stop.is_set():
                store.put(f"thread-{index}", index)
                store.get(f"thread-{index}")
                index += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        children = []
        try:
            for child in range(8):
                time.sleep(0.01)
                pid = os.fork()
                if pid == 0:  # the child: report through the exit status
                    status = 1
                    try:
                        store.put(f"child-{child}", child)
                        assert store.get("parent") == 0
                        assert len(opened) == 2
                        store.close()
                        gc.collect()
                        # Neither freed nor closed: still open in the child.
                        assert parent_connection().in_transaction is False
                        status = 0
                    finally:
                        os._exit(status)
                children.append(pid)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert _reap(children, seconds=30) == [0] * len(children)
        # The parent's connection still works, and every child's put landed.
        store.put("after", 1)
        reader = self._store(tmp_path)
        assert [reader.get(f"child-{child}") for child in range(8)] == \
            list(range(8))
        assert reader.get("after") == 1
        store.close()

    def test_garbage_database_degrades_to_memory(self, tmp_path):
        database = _database(tmp_path, self.VERSION)
        garbage = b"not a database" * 512
        database.write_bytes(garbage)
        store = self._store(tmp_path)
        assert store.get("key") is MISS and "key" not in store
        store.put("key", 1)
        assert store.get("key") == 1
        assert self._store(tmp_path).get("key") is MISS
        info = store.info()
        assert (info.memory_entries, info.disk_entries) == (1, 0)
        assert info.disk_bytes == len(garbage)
        assert database.read_bytes() == garbage

    def test_an_unreadable_database_is_named_once_and_by_cache_info(
            self, tmp_path, capsys):
        from repro.api.cli import main
        database = _database(tmp_path, self.VERSION)
        database.write_bytes(bytes(range(256)) * 16)
        for _ in range(2):
            store = self._store(tmp_path)
            store.put("key", 1)
            assert store.get("other") is MISS
        assert store.info().unreadable == "file is not a database"
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"repro: warning: cannot read the cache database "
                         f"{database} (file is not a database); the cache "
                         f"runs in memory only"]
        assert main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        output = capsys.readouterr()
        assert "database        : unreadable (file is not a database); " \
            "the cache runs in memory only" in output.out.splitlines()
        assert output.err == ""          # named once per process
        database.unlink()
        store.put("key", 1)              # this store stays memory-only
        assert store.info().unreadable == "file is not a database"
        assert not database.exists()
        fresh = self._store(tmp_path)    # a new store makes a new database
        fresh.put("key", 1)
        assert fresh.info().unreadable is None
        fresh.close()

    def test_a_store_opens_an_unreadable_database_once(self, tmp_path,
                                                       monkeypatch):
        _database(tmp_path, self.VERSION).write_bytes(bytes(range(256)) * 16)
        connects = []
        connect = sqlite3.connect

        def counted(*args, **kwargs):
            connects.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counted)
        store = self._store(tmp_path)
        for index in range(100):
            assert store.get(f"key-{index}") is MISS
        store.put("key", 1)
        assert "key" in store and "other" not in store
        assert store.info().unreadable == "file is not a database"
        assert len(connects) == 1
        assert store.clear(memory=False) == 0    # removes the file unopened
        assert store.info().unreadable is None
        assert len(connects) == 1

    def test_locked_database_degrades_to_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_S", 0.05)
        self._store(tmp_path).put("first", 1)
        with closing(sqlite3.connect(_database(tmp_path, self.VERSION),
                                     isolation_level=None)) as holder:
            holder.execute("BEGIN EXCLUSIVE")
            store = self._store(tmp_path)
            store.put("key", 2)
            assert store.get("key") == 2
            assert store.get("first") == 1       # readers are not blocked
            holder.execute("ROLLBACK")
        assert self._store(tmp_path).get("key") is MISS
        store.put("later", 3)                    # the store still writes
        assert self._store(tmp_path).get("later") == 3

    def test_unwritable_cache_dir_degrades_to_memory(self, tmp_path):
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        store = self._store(not_a_directory)
        store.put("key", 1)
        assert store.get("key") == 1
        assert store.info().disk_entries == 0
        assert store.prune() == (0, 0)

    def test_clear_replaces_an_unreadable_database(self, tmp_path):
        database = _database(tmp_path, self.VERSION)
        database.write_bytes(os.urandom(4096))
        wal = Path(f"{database}-wal")
        wal.write_bytes(os.urandom(4096))    # goes with the database
        store = self._store(tmp_path)
        assert store.clear() == 0
        assert not database.exists() and not wal.exists()
        store.put("key", 1)
        assert store.info().unreadable is None
        assert self._store(tmp_path).get("key") == 1
        store.close()

    def test_a_clear_in_another_process_reaches_a_live_store(self, tmp_path):
        # The other process's store keeps its connection across the clear:
        # each then reads the rows the other puts.
        ready, go = tmp_path / "ready", tmp_path / "go"
        child = _python(_CLEAR_BESIDE, tmp_path, ready, go)
        try:
            _wait_for(ready, child)
            assert self._store(tmp_path).clear() == 1
            writer = self._store(tmp_path)
            writer.put("mine", 3)
            go.touch()
            _, errors = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, errors
        reader = self._store(tmp_path)
        assert reader.get("before") is MISS
        assert reader.get("theirs") == 2
        writer.close()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
    def test_clears_and_prunes_beside_a_writer_leave_whole_entries(
            self, tmp_path):
        # A writer in another process puts through every clear, and through
        # every prune by a store of another version; what it puts after the
        # last one is read, and every row read holds its own value.
        started = tmp_path / "started"
        writer = _python(_ENDLESS_WRITER, tmp_path, started,
                         Path(__file__).resolve().parent)
        other = ArtifactStore(tmp_path, version="0.9")
        try:
            _wait_for(started, writer)
            for round in range(10):
                other.put(f"stale-{round}", round)
                if round % 2:
                    self._store(tmp_path).clear()
                else:
                    other.prune()
                time.sleep(0.01)
            deadline = time.monotonic() + 30
            while not _keys(tmp_path, self.VERSION):
                assert time.monotonic() < deadline, "no put after the clear"
                time.sleep(0.01)
        finally:
            writer.send_signal(signal.SIGKILL)
            writer.communicate(timeout=60)
        reader = self._store(tmp_path)
        for key in _keys(tmp_path, self.VERSION):
            assert reader.get(key) == _value(int(key[len("key-"):])), key
        other.close()

    @pytest.mark.parametrize("action", ["clear", "prune"])
    def test_clear_and_prune_give_the_space_back(self, tmp_path, action):
        stale = ArtifactStore(tmp_path, version="0.9")
        value = bytes(2048)
        for index in range(2000):
            stale.put(f"key-{index}", value)
        live = self._store(tmp_path)
        live.put("mine", 1)
        files = [Path(f"{_database(tmp_path, self.VERSION)}{suffix}")
                 for suffix in ("", "-wal", "-shm")]

        def size():
            return sum(file.stat().st_size for file in files if file.exists())

        assert size() > 2000 * len(value)
        if action == "clear":
            assert live.clear() == 2001
        else:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            assert live.prune() == (2000, 2000 * len(blob))
        assert size() < 100_000          # with ``stale`` still open
        assert ArtifactStore(tmp_path, version="0.9").get("key-0") is MISS
        stale.close()
        live.close()

    def test_two_versions_keep_a_row_each_for_one_key(self, tmp_path):
        old = ArtifactStore(tmp_path, version="0.9")
        new = self._store(tmp_path)
        old.put("key", "old")
        new.put("key", "new")
        assert pickle.loads(_row(tmp_path, "0.9", "key")) == "old"
        assert pickle.loads(_row(tmp_path, self.VERSION, "key")) == "new"
        assert ArtifactStore(tmp_path, version="0.9").get("key") == "old"
        assert self._store(tmp_path).get("key") == "new"
        assert new.info().disk_entries == 2
        old.close()
        new.close()

    def test_memory_only_session_never_imports_sqlite3(self):
        script = textwrap.dedent("""
            import sys
            from repro.api import RunSpec, Session
            from repro.grid import get_grid
            session = Session()
            session.run(RunSpec(benchmark="bitcount", budget=2000))
            grid = get_grid("mini").build(benchmarks=["bitcount"], budget=2000)
            list(session.run_grid(grid, workers=0))
            assert "sqlite3" not in sys.modules, "sqlite3 imported"
            """)
        process = _python(script)
        _, errors = process.communicate(timeout=300)
        assert process.returncode == 0, errors


class TestStorePruneLock:
    def test_prune_deletes_a_live_stores_rows_and_it_keeps_working(
            self, tmp_path):
        """prune() beside a running store of another version (a daemon of an
        older build) deletes that version's rows: they become misses,
        never wrong rows, and the live store's next put is read."""
        live = ArtifactStore(tmp_path, version="0.9.0")
        live.put("fresh", {"payload": 1})
        pruner = ArtifactStore(tmp_path, version="1.0.0")
        pruner.put("mine", {"payload": 2})
        removed, freed = pruner.prune()
        assert removed == 1
        assert freed == len(pickle.dumps({"payload": 1},
                                         protocol=pickle.HIGHEST_PROTOCOL))
        assert ArtifactStore(tmp_path, version="0.9.0").get("fresh") is MISS
        assert ArtifactStore(tmp_path, version="1.0.0").get("mine") == \
            {"payload": 2}
        live.put("later", {"payload": 3})
        assert ArtifactStore(tmp_path, version="0.9.0").get("later") == \
            {"payload": 3}
        live.close()
        pruner.close()

    def test_prune_evicts_after_writer_closes(self, tmp_path):
        stale = ArtifactStore(tmp_path, version="0.9.0")
        stale.put("old", {"payload": 1})
        stale.close()
        pruner = ArtifactStore(tmp_path, version="1.0.0")
        pruner.put("mine", {"payload": 2})
        removed, freed = pruner.prune()
        assert removed == 1
        assert freed > 0
        assert ArtifactStore(tmp_path, version="0.9.0").get("old") is MISS
        assert pruner.get("mine") == {"payload": 2}

    def test_close_is_reentrant_and_reacquired_on_next_put(self, tmp_path):
        store = ArtifactStore(tmp_path, version="1.0.0")
        store.put("a", 1)
        store.close()
        store.close()                      # idempotent
        store.put("b", 2)                  # reopens the connection
        assert ArtifactStore(tmp_path, version="1.0.0").get("b") == 2
        store.close()


# -- statistics -------------------------------------------------------------------


class TestStats:
    @pytest.mark.parametrize("stats_cls", [SessionStats, CacheStats])
    def test_as_dict_and_merge_cover_every_field(self, stats_cls):
        """``--stats`` and the serve protocol print ``as_dict()``; pool
        workers' accounting comes back through ``merge``."""
        names = [field.name for field in dataclasses.fields(stats_cls)]
        values = {name: position + 1 for position, name in enumerate(names)}
        stats = stats_cls(**values)
        assert list(stats.as_dict()) == names
        assert stats.as_dict() == values
        stats.merge(stats_cls(**values))
        assert stats.as_dict() == {name: 2 * value
                                   for name, value in values.items()}


# -- session caching --------------------------------------------------------------


class TestSessionCaching:
    def test_repeated_run_performs_no_new_work(self):
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.run(spec)
        work = session.stats.as_dict()
        misses = session.cache_stats.misses
        session.run(spec)
        assert session.stats.as_dict() == work
        assert session.cache_stats.misses == misses
        assert session.cache_stats.hits > 0

    def test_policies_share_profile_artifacts(self):
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.selection(spec)
        session.selection(spec.with_policy(INTEGER_POLICY))
        # One assemble + one baseline functional run serve both policies.
        assert session.stats.assemble_runs == 1
        assert session.stats.functional_runs == 1
        assert session.stats.selection_runs == 2

    def test_policies_share_baseline_timing(self):
        # Baseline timing depends on neither policy nor MGT options: every
        # policy variant must reuse one cached simulation.
        session = Session()
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        session.baseline_timing(spec)
        session.baseline_timing(spec.with_policy(INTEGER_POLICY))
        session.baseline_timing(spec.with_mgt_options(MgtBuildOptions(collapsing=True)))
        assert session.stats.timing_runs == 1

    def test_warm_disk_cache_skips_all_simulation(self, tmp_path):
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        cold = Session(cache_dir=tmp_path)
        cold_artifacts = cold.run(spec)
        assert cold.stats.simulations > 0
        warm = Session(cache_dir=tmp_path)
        warm_artifacts = warm.run(spec)
        assert warm.stats.simulations == 0
        assert warm.cache_stats.disk_hits > 0
        assert pickle.dumps(warm_artifacts.timing) == pickle.dumps(cold_artifacts.timing)

    def test_version_bump_invalidates_disk_cache(self, tmp_path):
        spec = RunSpec(benchmark="bitcount", budget=BUDGET)
        Session(cache_dir=tmp_path, version="1").run(spec)
        reused = Session(cache_dir=tmp_path, version="1")
        reused.run(spec)
        assert reused.stats.simulations == 0
        bumped = Session(cache_dir=tmp_path, version="2")
        bumped.run(spec)
        assert bumped.stats.simulations > 0

    def test_a_session_keys_with_its_stores_version(self):
        store = ArtifactStore(None, version="x")
        assert Session(store=store).version == "x"
        assert Session(store=store, version="x").version == "x"
        with pytest.raises(ValueError, match="store's version"):
            Session(store=store, version="y")

    def test_baseline_only_spec(self):
        session = Session()
        artifacts = session.run(RunSpec(benchmark="bitcount", budget=BUDGET,
                                        policy=None))
        assert artifacts.selection is None
        assert artifacts.coverage == 0.0
        assert artifacts.timing.cycles > 0

    def test_figure_harness_warm_cache_regenerates_without_simulation(self, tmp_path):
        definition = get_grid("fig6")
        grid = definition.build(benchmarks=["bitcount"], budget=BUDGET)
        first = Session(cache_dir=tmp_path)
        list(first.run_grid(grid, workers=0))
        assert first.stats.simulations > 0
        second = Session(cache_dir=tmp_path)
        _, (table,) = definition.report(list(second.run_grid(grid, workers=0)))
        assert second.stats.functional_runs == 0
        assert second.stats.timing_runs == 0
        assert table.value("bitcount", "int") > 0.0


class TestCodecVersions:
    """Builds whose trace codecs differ share one store: the codec version
    is key material of the two stages whose artifacts hold a trace
    (``profile`` and ``trace``), so neither build reads the other's rows."""

    CODECS = (TRACE_CODEC_VERSION, TRACE_CODEC_VERSION + 1)

    @staticmethod
    def _fresh_run(monkeypatch, cache_dir, codec, modules):
        """The work of one fresh session's ``run`` of a bitcount spec, with
        ``TRACE_CODEC_VERSION`` set to ``codec`` in ``modules``."""
        with monkeypatch.context() as patch:
            for module in modules:
                patch.setattr(module, "TRACE_CODEC_VERSION", codec)
            with Session(cache_dir=cache_dir) as session:
                session.run(RunSpec(benchmark="bitcount", budget=BUDGET))
        return session.stats

    def test_each_codec_reads_only_its_own_rows(self, monkeypatch, tmp_path):
        def run(codec):
            return self._fresh_run(monkeypatch, tmp_path, codec,
                                   (spec_module, trace_module))

        assert run(self.CODECS[0]).simulations > 0
        second = run(self.CODECS[1])
        # Its own profile and trace; every other stage is shared.
        assert (second.functional_runs, second.timing_runs,
                second.selection_runs) == (2, 0, 0)
        for codec in self.CODECS:
            assert run(codec).simulations == 0

    def test_a_codec_outside_the_keys_reruns_in_every_session(
            self, monkeypatch, tmp_path):
        # With the codec version only in the blobs, both builds derive the
        # same keys, and each session finds the other build's profile and
        # trace rows unreadable.
        runs = [self._fresh_run(monkeypatch, tmp_path, codec,
                                (trace_module,)).functional_runs
                for codec in self.CODECS * 2]
        assert runs == [2, 2, 2, 2]


# -- rows -------------------------------------------------------------------------


class TestRowReads:
    """A row is its two timing results: a warm cell reads the timing stages
    and the selection, never the program, profile, MGT, binary or traces."""

    def test_warm_rows_read_only_timing_and_selection(self, tmp_path):
        grids = [get_grid("mini").build(benchmarks=["bitcount", "crc"],
                                        budget=BUDGET),
                 get_grid("fig6").build(benchmarks=["bitcount"],
                                        budget=BUDGET)]
        # The spec `repro run bitcount` builds.
        spec = RunSpec(benchmark="bitcount", budget=BUDGET,
                       mgt_options=MgtBuildOptions(collapsing=False))

        def rows(session):
            return ([[row.as_dict() for row in session.run_grid(grid,
                                                                 workers=0)]
                     for grid in grids], cell_payload(session, spec))

        cold = rows(Session(cache_dir=tmp_path))
        store = _KeyRecordingStore(tmp_path, version=__version__)
        warm = Session(store=store)
        assert rows(warm) == cold
        assert warm.stats.simulations == 0
        stages = {key.rsplit("-", 1)[0] for key in store.gets}
        assert stages == {"time", "time_baseline", "select"}, stages

    def test_policy_and_baseline_cells_read_three_and_two_entries(
            self, tmp_path):
        spec = RunSpec(benchmark="crc", budget=BUDGET)
        for cell_spec, reads in ((spec, 3), (spec.baseline_only(), 2)):
            cell_payload(Session(cache_dir=tmp_path), cell_spec)
            store = _KeyRecordingStore(tmp_path, version=__version__)
            cell_payload(Session(store=store), cell_spec)
            assert len(store.gets) == reads, store.gets


# -- zero-baseline speedups -------------------------------------------------------


def _stub_stats(ipc: float) -> PipelineStats:
    stats = PipelineStats(cycles=100)
    stats.committed_instructions = int(round(ipc * 100))
    return stats


class TestZeroBaselineSpeedup:
    def test_run_artifacts_speedup_nan(self):
        from repro.api.session import RunArtifacts
        artifacts = RunArtifacts(
            spec=RunSpec(benchmark="bitcount"), program=None, profile=None,
            baseline_trace=None, timing=_stub_stats(1.0),
            baseline_timing=PipelineStats())
        assert math.isnan(artifacts.speedup)
        assert math.isnan(ipc_speedup(_stub_stats(1.0), PipelineStats()))
        assert ipc_speedup(_stub_stats(1.5), _stub_stats(1.0)) == 1.5


# -- CLI --------------------------------------------------------------------------


def _run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=_env(), cwd=cwd,
                          timeout=600)


class TestCli:
    def test_run_json_report(self, tmp_path):
        result = _run_cli("--cache-dir", str(tmp_path), "--json", "--stats",
                          "run", "bitcount", "--budget", str(BUDGET))
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["spec"]["benchmark"] == "bitcount"
        assert payload["speedup"] is not None
        assert payload["session_stats"]["functional_runs"] > 0

    @pytest.mark.parametrize("policy", ["int-mem", "baseline"])
    def test_run_prints_the_mini_grid_row(self, tmp_path, policy):
        result = _run_cli("--cache-dir", str(tmp_path), "--json", "run",
                          "bitcount", "--budget", str(BUDGET),
                          "--policy", policy)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        grid = get_grid("mini").build(benchmarks=["bitcount"], budget=BUDGET)
        (row,) = [row.as_dict() for row in Session().run_grid(grid, workers=0)
                  if row.labels["policy"] == policy]
        assert payload["spec"]["spec_hash"] == row["spec_hash"]
        for name in ("coverage", "baseline_ipc", "ipc", "speedup", "cycles",
                     "baseline_cycles", "templates"):
            assert payload[name] == row[name], name

    def test_cache_info_and_clear(self, tmp_path):
        _run_cli("--cache-dir", str(tmp_path), "run", "bitcount",
                 "--budget", str(BUDGET))
        info = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "info")
        assert info.returncode == 0, info.stderr
        assert json.loads(info.stdout)["disk_entries"] > 0
        cleared = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "clear")
        assert json.loads(cleared.stdout)["removed"] > 0
        info = _run_cli("--cache-dir", str(tmp_path), "--json", "cache", "info")
        assert json.loads(info.stdout)["disk_entries"] == 0

    @pytest.mark.parametrize("argv", [
        ["run", "nosuch"],
        ["run", "gsm.toast", "--budget", "-5"],
        ["grid", "--name", "nosuch"],
        ["grid", "--name", "mini", "--shard", "3/2"],
        ["run", "gsm.toast", "--budget", "2000",
         "--machine", "int", "--policy", "int-mem"],
        ["run", "gsm.toast", "--budget", "2000", "--mgt-entries", "0"],
        ["run", "gsm.toast", "--budget", "2000", "--mgt-entries", "-3"],
        ["run", "gsm.toast", "--budget", "2000", "--max-size", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_requests_are_one_line_errors(self, argv, capsys):
        from repro.api.cli import main
        assert main(["--no-disk-cache", *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("repro: error:")
