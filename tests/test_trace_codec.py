"""Tests for the columnar trace representation and its binary codec.

Covers the property-based round trip of rows of column values through the
packed columns, the codec and pickle (including empty traces and every flags
combination), the versioned header checks, and the artifact store's disk
format (every entry a pickle whose traces are codec blobs; unknown codec
versions, damaged entries and bare codec entries written by older builds
degrading to cache misses).
"""

import pickle
import struct
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.api.store import MISS, ArtifactStore
from repro.sim.trace import (
    TF_HAS_MGID,
    TF_LOAD,
    TF_STORE,
    TRACE_CODEC_VERSION,
    TRACE_MAGIC,
    Trace,
    TraceCodecError,
    UnknownTraceCodecVersion,
    decode_trace,
    encode_trace,
    pack_flags,
)

_WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: One trace row: a value per column, in ``Trace.columns()`` order.
_rows = st.tuples(
    _WORD,                                                  # pc
    st.integers(min_value=0, max_value=(1 << 32) - 1),      # index
    st.integers(min_value=0, max_value=(1 << 16) - 1),      # size
    _WORD,                                                  # next_pc
    st.builds(pack_flags, st.booleans(), st.none() | st.booleans(),
              st.booleans(), st.booleans(), st.booleans(),
              st.booleans()),                               # flags
    _WORD,                                                  # effective_address
    st.integers(min_value=-1, max_value=(1 << 31) - 1),     # mgid
)

_row_lists = st.lists(_rows, max_size=40)


def _trace(rows):
    """A trace holding ``rows``."""
    return Trace.from_columns(*(zip(*rows) if rows else [()] * 7))


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
        original = sum(row[2] for row in rows)
        assert trace.original_instruction_count() == original
        assert trace.load_count() == sum(1 for row in rows if row[4] & TF_LOAD)
        assert trace.store_count() == \
            sum(1 for row in rows if row[4] & TF_STORE)

    def test_uncompressed_codec_round_trip(self):
        rows = [(0x1000, 0, 1, 0x1004, 0, 0, -1),
                (0x1004, 1, 1, 0x1000,
                 pack_flags(True, True, False, False, False, False), 0, -1)]
        blob = encode_trace(_trace(rows), compress=False)
        assert _rows_of(decode_trace(blob)) == rows

    def test_empty_trace_round_trip(self):
        decoded = decode_trace(encode_trace(_trace([])))
        assert len(decoded) == 0 and _rows_of(decoded) == []
        assert decoded.original_instruction_count() == 0


def _summary_by_entry(trace):
    """Reference summary: one Python pass over the trace's entries."""
    columns = trace.columns()
    original = absorbed = loads = stores = 0
    for size, flags in zip(columns.size, columns.flags):
        original += size
        if flags & TF_HAS_MGID:
            absorbed += size - 1
        loads += bool(flags & TF_LOAD)
        stores += bool(flags & TF_STORE)
    return (original, absorbed, loads, stores)


class TestTraceCounts:
    """A trace's counts, and the coverage its timing run reports (the one
    coverage definition: ``PipelineStats.dynamic_coverage``), match the
    per-entry reference on real traces."""

    @staticmethod
    def _check(specs):
        """Check every baseline and rewritten trace of ``specs``; return
        the instructions their handles absorbed."""
        from repro.api import Session
        from repro.uarch import simulate_program
        session = Session()
        absorbed = 0
        for spec in specs:
            runs = [(session.program(spec), session.baseline_trace(spec),
                     None, spec.resolved_baseline_machine)]
            if spec.policy is not None:
                runs.append((session.rewritten(spec),
                             session.minigraph_trace(spec), session.mgt(spec),
                             spec.resolved_machine))
            for program, trace, mgt, machine in runs:
                original, handled, loads, stores = _summary_by_entry(trace)
                assert (trace.original_instruction_count(), trace.load_count(),
                        trace.store_count()) == (original, loads, stores)
                stats = simulate_program(program, trace, machine, mgt=mgt)
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
        handle = pack_flags(False, None, False, False, False, True)
        memory_handle = pack_flags(False, None, True, True, True, True)
        trace = _trace([(0x1000, 0, 1, 0x1004, 0, 0, -1),
                        (0x1004, 1, 2, 0x1008, handle, 0, 0),
                        (0x1008, 2, 3, 0x100c, memory_handle, 0x2000, 1),
                        (0x100c, 3, 4, 0x1010, handle, 0, 2),
                        (0x1010, 4, 1, 0x1014,
                         pack_flags(False, None, True, False, True, False),
                         0x2008, -1)])
        assert _summary_by_entry(trace) == (11, 6, 2, 1)
        assert (trace.original_instruction_count(), trace.load_count(),
                trace.store_count()) == (11, 2, 1)
        empty = _trace([])
        assert (empty.original_instruction_count(), empty.load_count(),
                empty.store_count()) == (0, 0, 0)


class TestCodecValidation:
    def _blob(self):
        return encode_trace(_trace([
            (0x1000, 0, 1, 0x1004, 0, 0, -1),
            (0x1004, 1, 1, 0x1008,
             pack_flags(False, None, True, False, True, False), 0x2000, -1)]))

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
        with pytest.raises(UnknownTraceCodecVersion) as excinfo:
            decode_trace(bytes(blob))
        assert excinfo.value.version == TRACE_CODEC_VERSION + 7
        assert isinstance(excinfo.value, TraceCodecError)


_STORE_VERSION = "1.0"


def _store(cache_dir):
    return ArtifactStore(cache_dir, version=_STORE_VERSION)


def _entry_dir(cache_dir):
    """Where a store of ``_STORE_VERSION`` keeps its disk entries."""
    return cache_dir / f"v-{_STORE_VERSION}"


class TestStoreCrossCodec:
    def _trace(self):
        return _trace([
            (0x1000, 0, 1, 0x1004, 0, 0, -1),
            (0x1004, 1, 2, 0x1000,
             pack_flags(True, True, False, False, False, True), 0, 3),
            (0x1000, 0, 1, 0x1004,
             pack_flags(False, None, False, True, True, False), 0x2008, -1)])

    def test_bare_traces_are_stored_binary_and_read_back(self, tmp_path):
        writer = _store(tmp_path)
        trace = self._trace()
        writer.put("trace-abc", trace)
        (path,) = _entry_dir(tmp_path).glob("*.pkl")
        # A pickle whose payload is the trace's codec blob.
        data = path.read_bytes()
        assert data[:len(TRACE_MAGIC)] != TRACE_MAGIC
        assert encode_trace(trace) in data
        reader = _store(tmp_path)  # fresh store: no memory layer
        assert _rows_of(reader.get("trace-abc")) == _rows_of(trace)

    def test_pickle_entries_containing_traces_still_read(self, tmp_path):
        # An artifact embedding a trace carries the same codec blob as a
        # bare trace, and both load from the same directory.
        store = _store(tmp_path)
        trace = self._trace()
        store.put("trace-bare", trace)
        store.put("pair-pickle", {"trace": trace, "label": "embedded"})
        reader = _store(tmp_path)
        assert _rows_of(reader.get("pair-pickle")["trace"]) == _rows_of(trace)
        assert _rows_of(reader.get("trace-bare")) == _rows_of(trace)

    def test_unknown_codec_version_is_a_miss_not_a_crash(self, tmp_path):
        store = _store(tmp_path)
        store.put("pair-future", {"trace": self._trace()})
        (path,) = _entry_dir(tmp_path).glob("*.pkl")
        data = bytearray(path.read_bytes())
        # The version field is the u16 right after the embedded blob's magic.
        struct.pack_into("<H", data, data.index(TRACE_MAGIC) + 4,
                         TRACE_CODEC_VERSION + 1)
        path.write_bytes(bytes(data))
        reader = _store(tmp_path)
        assert reader.get("pair-future") is MISS
        assert reader.stats.misses == 1
        # The foreign-version entry is left for the build that wrote it.
        assert path.exists()

    def test_put_leaves_an_unknown_codec_entry_for_its_writer(self, tmp_path):
        store = _store(tmp_path)
        store.put("pair-future", {"trace": self._trace()})
        (path,) = _entry_dir(tmp_path).glob("*.pkl")
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, data.index(TRACE_MAGIC) + 4,
                         TRACE_CODEC_VERSION + 1)
        path.write_bytes(bytes(data))
        reader = _store(tmp_path)
        assert reader.get("pair-future") is MISS
        reader.put("pair-future", {"trace": self._trace()})
        assert path.read_bytes() == bytes(data)
        # This build still serves its own value from memory.
        assert _rows_of(reader.get("pair-future")["trace"]) == \
            _rows_of(self._trace())

    def test_corrupt_trace_entry_is_dropped_and_missed(self, tmp_path):
        store = _store(tmp_path)
        store.put("trace-corrupt", self._trace())
        (path,) = _entry_dir(tmp_path).glob("*.pkl")
        path.write_bytes(path.read_bytes()[:-3])
        reader = _store(tmp_path)
        assert reader.get("trace-corrupt") is MISS
        assert not path.exists()

    def test_bare_codec_entry_from_an_older_build_is_dropped_and_missed(
            self, tmp_path):
        # Older builds wrote a bare trace as its codec blob, not a pickle.
        path = _entry_dir(tmp_path) / "trace-old.pkl"
        path.parent.mkdir()
        path.write_bytes(encode_trace(self._trace()))
        reader = _store(tmp_path)
        assert reader.get("trace-old") is MISS
        assert reader.stats.misses == 1
        assert not path.exists()

    def test_put_serialization_failure_cleans_temp_and_degrades(self, tmp_path):
        store = _store(tmp_path)
        unpicklable = lambda: None  # noqa: E731 - locals cannot be pickled
        store.put("bad-artifact", unpicklable)
        # Memory layer still serves the value; nothing (tmp or entry) on
        # disk beyond the version directory's activity lock.
        assert store.get("bad-artifact") is unpicklable
        assert list(tmp_path.rglob("*.pkl")) == []
        assert list(tmp_path.rglob("*.tmp")) == []
        reader = _store(tmp_path)
        assert reader.get("bad-artifact") is MISS
