"""Tests for the columnar trace representation and its binary codec.

Covers the property-based round trip of rows of column values through the
packed columns, the codec and pickle (including empty and incompressible
traces and every flags combination), the versioned header checks, the
counts a timing run derives from a trace with the program and MGT, and the
artifact store's disk format (every entry a pickle whose traces are codec
blobs; rows of another codec version, damaged entries and bare codec
entries written by older builds degrading to cache misses that are
deleted).
"""

import pickle
import random
import sqlite3
import struct
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.api.store import MISS, ArtifactStore
from repro.sim.functional import run_program
from repro.sim.trace import (
    TF_LOAD,
    TF_STORE,
    TRACE_CODEC_VERSION,
    TRACE_MAGIC,
    TRACE_ROW_BYTES,
    Trace,
    TraceCodecError,
    decode_trace,
    encode_trace,
    pack_flags,
)

_WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: One trace row: a value per column, in ``Trace.columns()`` order.
_rows = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),      # index
    _WORD,                                                  # next_pc
    st.builds(pack_flags, st.booleans(), st.none() | st.booleans(),
              st.booleans(), st.booleans(), st.booleans()),  # flags
    _WORD,                                                  # effective_address
)

_row_lists = st.lists(_rows, max_size=40)

#: Codec header bytes before the column payload.
_HEADER_BYTES = 24


def _trace(rows):
    """A trace holding ``rows``."""
    return Trace.from_columns(*(zip(*rows) if rows else [()] * 4))


def _rows_of(trace):
    """The rows of ``trace``, read back from its columns."""
    return list(zip(*trace.columns()))


class TestColumnarRoundTrip:
    @given(rows=_row_lists)
    def test_entries_survive_the_packed_columns(self, rows):
        trace = _trace(rows)
        assert len(trace) == len(rows)
        assert _rows_of(trace) == rows

    @given(rows=_row_lists)
    def test_binary_codec_round_trip(self, rows):
        blob = encode_trace(_trace(rows))
        assert blob[:len(TRACE_MAGIC)] == TRACE_MAGIC
        assert _rows_of(decode_trace(blob)) == rows

    @given(rows=_row_lists)
    def test_pickle_ships_the_packed_columns(self, rows):
        trace = _trace(rows)
        data = pickle.dumps(trace)
        assert encode_trace(trace) in data
        assert _rows_of(pickle.loads(data)) == rows

    @given(rows=_row_lists)
    def test_summary_statistics_match_entry_views(self, rows):
        trace = _trace(rows)
        assert trace.load_count() == sum(1 for row in rows if row[2] & TF_LOAD)
        assert trace.store_count() == \
            sum(1 for row in rows if row[2] & TF_STORE)

    def test_uncompressed_codec_round_trip(self):
        # Random columns give zlib nothing to shrink, so the payload is
        # stored raw: the four columns' bytes, 21 per entry.
        generator = random.Random(26)
        rows = [(generator.getrandbits(32), generator.getrandbits(64),
                 generator.getrandbits(8), generator.getrandbits(64))
                for _ in range(64)]
        blob = encode_trace(_trace(rows))
        assert TRACE_ROW_BYTES == 21
        assert blob[6] == 0     # compression byte: raw
        assert len(blob) == _HEADER_BYTES + len(rows) * TRACE_ROW_BYTES
        assert _rows_of(decode_trace(blob)) == rows

    def test_empty_trace_round_trip(self):
        decoded = decode_trace(encode_trace(_trace([])))
        assert len(decoded) == 0 and _rows_of(decoded) == []
        assert (decoded.load_count(), decoded.store_count()) == (0, 0)


def _summary_by_entry(program, mgt, trace):
    """Reference summary: one Python pass over the trace's entries, with
    each entry's size taken from the program and the MGT."""
    columns = trace.columns()
    original = absorbed = loads = stores = 0
    for index, flags in zip(columns.index, columns.flags):
        instruction = program.instructions[index]
        size = (mgt.lookup(instruction.mgid).template.size
                if instruction.is_handle else 1)
        original += size
        absorbed += size - 1
        loads += bool(flags & TF_LOAD)
        stores += bool(flags & TF_STORE)
    return (original, absorbed, loads, stores)


class TestTraceCounts:
    """A trace's counts, the instructions its timing run commits and the
    coverage it reports (the one coverage definition:
    ``PipelineStats.dynamic_coverage``) match the per-entry reference on
    real traces, with sizes taken from the program and the MGT."""

    @staticmethod
    def _check(specs):
        """Check every baseline and rewritten run of ``specs``; return the
        instructions their handles absorbed."""
        from repro.api import Session
        from repro.uarch import simulate_program
        session = Session()
        absorbed = 0
        for spec in specs:
            runs = [(session.program(spec), None,
                     spec.resolved_baseline_machine)]
            if spec.policy is not None:
                runs.append((session.rewritten(spec), session.mgt(spec),
                             spec.resolved_machine))
            for program, mgt, machine in runs:
                result = run_program(program, mgt=mgt,
                                     max_instructions=spec.budget)
                trace = result.trace
                original, handled, loads, stores = \
                    _summary_by_entry(program, mgt, trace)
                assert (result.instructions_executed, trace.load_count(),
                        trace.store_count()) == (original, loads, stores)
                stats = simulate_program(program, trace, machine, mgt=mgt)
                assert stats.committed_instructions == \
                    result.instructions_executed
                assert stats.dynamic_coverage == \
                    (handled / original if original else 0.0)
                absorbed += handled
        return absorbed

    def test_counts_and_coverage_match_the_entry_loop_on_kernels(self):
        from repro.api import RunSpec
        from repro.minigraph import DEFAULT_POLICY, INTEGER_POLICY
        from repro.workloads import QUICK_BENCHMARKS
        specs = [RunSpec(benchmark=name, budget=2_000, policy=policy)
                 for name in QUICK_BENCHMARKS
                 for policy in (DEFAULT_POLICY, INTEGER_POLICY)]
        assert self._check(specs) > 0

    def test_counts_and_coverage_match_the_entry_loop_on_the_corpus(self):
        from repro.api import RunSpec
        from repro.fuzz.corpus import load_corpus
        corpus = load_corpus(Path(__file__).parent / "corpus")
        self._check([RunSpec(benchmark=entry.spec, input_name=entry.input,
                             budget=entry.budget or 2_000)
                     for entry in corpus])

    def test_counts_of_hand_built_traces(self):
        handle = pack_flags(False, None, False, False, False)
        memory_handle = pack_flags(False, None, True, True, True)
        trace = _trace([(0, 0x1004, 0, 0),
                        (1, 0x1008, handle, 0),
                        (2, 0x100c, memory_handle, 0x2000),
                        (3, 0x1010, handle, 0),
                        (4, 0x1014, pack_flags(False, None, True, False, True),
                         0x2008)])
        assert (trace.load_count(), trace.store_count()) == (2, 1)
        empty = _trace([])
        assert (empty.load_count(), empty.store_count()) == (0, 0)


class TestCodecValidation:
    def _blob(self):
        return encode_trace(_trace([
            (0, 0x1004, 0, 0),
            (1, 0x1008, pack_flags(False, None, True, False, True), 0x2000)]))

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceCodecError):
            decode_trace(b"NOPE" + self._blob()[4:])

    def test_truncated_blob_rejected(self):
        with pytest.raises(TraceCodecError):
            decode_trace(self._blob()[:10])

    def test_payload_length_mismatch_rejected(self):
        with pytest.raises(TraceCodecError):
            decode_trace(self._blob() + b"extra")

    def test_unknown_version_is_its_own_error(self):
        blob = bytearray(self._blob())
        # The version field is the u16 right after the 4-byte magic.
        struct.pack_into("<H", blob, 4, TRACE_CODEC_VERSION + 7)
        with pytest.raises(TraceCodecError) as excinfo:
            decode_trace(bytes(blob))
        assert str(excinfo.value) == (
            f"unknown trace codec version {TRACE_CODEC_VERSION + 7} "
            f"(this build reads version {TRACE_CODEC_VERSION})")


_STORE_VERSION = "1.0"


def _store(cache_dir):
    return ArtifactStore(cache_dir, version=_STORE_VERSION)


def _database(cache_dir):
    """Where a store of ``_STORE_VERSION`` keeps its disk entries."""
    return cache_dir / "store.sqlite3"


def _row(cache_dir, key):
    """The bytes stored for ``key``, or ``None`` when it has no row."""
    with closing(sqlite3.connect(_database(cache_dir))) as connection:
        row = connection.execute(
            "SELECT value FROM entries WHERE version = ? AND key = ?",
            (_STORE_VERSION, key)).fetchone()
    return None if row is None else row[0]


def _set_row(cache_dir, key, value):
    """Store ``value`` (bytes) for ``key`` as another writer would."""
    with closing(sqlite3.connect(_database(cache_dir),
                                 isolation_level=None)) as connection:
        connection.execute("INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                           (_STORE_VERSION, key, value))


class TestStoreCrossCodec:
    def _trace(self):
        return _trace([
            (0, 0x1004, 0, 0),
            (1, 0x1000, pack_flags(True, True, False, False, False), 0),
            (0, 0x1004, pack_flags(False, None, False, True, True), 0x2008)])

    def test_bare_traces_are_stored_binary_and_read_back(self, tmp_path):
        writer = _store(tmp_path)
        trace = self._trace()
        writer.put("trace-abc", trace)
        # A pickle whose payload is the trace's codec blob.
        data = _row(tmp_path, "trace-abc")
        assert data[:len(TRACE_MAGIC)] != TRACE_MAGIC
        assert encode_trace(trace) in data
        reader = _store(tmp_path)  # fresh store: no memory layer
        assert _rows_of(reader.get("trace-abc")) == _rows_of(trace)

    def test_pickle_entries_containing_traces_still_read(self, tmp_path):
        # An artifact embedding a trace carries the same codec blob as a
        # bare trace, and both load from the same database.
        store = _store(tmp_path)
        trace = self._trace()
        store.put("trace-bare", trace)
        store.put("pair-pickle", {"trace": trace, "label": "embedded"})
        reader = _store(tmp_path)
        assert _rows_of(reader.get("pair-pickle")["trace"]) == _rows_of(trace)
        assert _rows_of(reader.get("trace-bare")) == _rows_of(trace)

    def _future_codec_row(self, cache_dir):
        """Rewrite ``pair-future``'s embedded blob to an unknown codec."""
        data = bytearray(_row(cache_dir, "pair-future"))
        # The version field is the u16 right after the embedded blob's magic.
        struct.pack_into("<H", data, data.index(TRACE_MAGIC) + 4,
                         TRACE_CODEC_VERSION + 1)
        _set_row(cache_dir, "pair-future", bytes(data))

    def test_unknown_codec_version_is_a_miss_not_a_crash(self, tmp_path):
        store = _store(tmp_path)
        store.put("pair-future", {"trace": self._trace()})
        self._future_codec_row(tmp_path)
        reader = _store(tmp_path)
        assert reader.get("pair-future") is MISS
        assert reader.stats.misses == 1
        # Keys name the codec version, so such a row is damaged: deleted.
        assert _row(tmp_path, "pair-future") is None

    def test_next_put_writes_this_builds_value(self, tmp_path):
        store = _store(tmp_path)
        store.put("pair-future", {"trace": self._trace()})
        self._future_codec_row(tmp_path)
        reader = _store(tmp_path)
        assert reader.get("pair-future") is MISS
        reader.put("pair-future", {"trace": self._trace()})
        assert _row(tmp_path, "pair-future") == pickle.dumps(
            {"trace": self._trace()}, protocol=pickle.HIGHEST_PROTOCOL)
        # A fresh store reads this build's value from disk.
        assert _rows_of(_store(tmp_path).get("pair-future")["trace"]) == \
            _rows_of(self._trace())

    def test_corrupt_trace_entry_is_dropped_and_missed(self, tmp_path):
        store = _store(tmp_path)
        store.put("trace-corrupt", self._trace())
        _set_row(tmp_path, "trace-corrupt", _row(tmp_path, "trace-corrupt")[:-3])
        reader = _store(tmp_path)
        assert reader.get("trace-corrupt") is MISS
        assert _row(tmp_path, "trace-corrupt") is None

    def test_bare_codec_entry_from_an_older_build_is_dropped_and_missed(
            self, tmp_path):
        # Older builds wrote a bare trace as its codec blob, not a pickle:
        # a row holding one is unreadable like any other damaged row.
        _store(tmp_path).put("other", 1)
        _set_row(tmp_path, "trace-old", encode_trace(self._trace()))
        reader = _store(tmp_path)
        assert reader.get("trace-old") is MISS
        assert reader.stats.misses == 1
        assert _row(tmp_path, "trace-old") is None

    def test_put_serialization_failure_cleans_temp_and_degrades(self, tmp_path):
        store = _store(tmp_path)
        unpicklable = lambda: None  # noqa: E731 - locals cannot be pickled
        store.put("bad-artifact", unpicklable)
        # Memory layer still serves the value; nothing is written to disk.
        assert store.get("bad-artifact") is unpicklable
        assert list(tmp_path.rglob("*")) == []
        store.put("good-artifact", 1)
        assert _row(tmp_path, "bad-artifact") is None
        reader = _store(tmp_path)
        assert reader.get("bad-artifact") is MISS
