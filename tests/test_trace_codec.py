"""Tests for the columnar trace representation and its binary codec.

Covers the property-based round trip columnar <-> :class:`TraceEntry`
objects (including ``None`` effective addresses/mgids, ``None`` branch
outcomes and empty traces), the versioned header checks, and the artifact
store's cross-codec behaviour (binary trace entries next to pickle entries,
unknown codec versions degrading to cache misses).
"""

import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from repro.api.store import MISS, ArtifactStore
from repro.sim.trace import (
    TRACE_CODEC_VERSION,
    TRACE_MAGIC,
    Trace,
    TraceCodecError,
    TraceEntry,
    UnknownTraceCodecVersion,
    decode_trace,
    encode_trace,
    is_trace_blob,
)

_WORD = st.integers(min_value=0, max_value=(1 << 64) - 1)

_entries = st.builds(
    TraceEntry,
    pc=_WORD,
    index=st.integers(min_value=0, max_value=(1 << 32) - 1),
    size=st.integers(min_value=0, max_value=(1 << 16) - 1),
    next_pc=_WORD,
    is_control=st.booleans(),
    taken=st.none() | st.booleans(),
    is_load=st.booleans(),
    is_store=st.booleans(),
    effective_address=st.none() | _WORD,
    mgid=st.none() | st.integers(min_value=0, max_value=(1 << 31) - 1),
)

_entry_lists = st.lists(_entries, max_size=40)


class TestColumnarRoundTrip:
    @given(entries=_entry_lists)
    def test_entries_survive_the_packed_columns(self, entries):
        trace = Trace(entries)
        assert len(trace) == len(entries)
        assert list(trace) == entries
        assert [trace[i] for i in range(len(entries))] == entries

    @given(entries=_entry_lists)
    def test_binary_codec_round_trip(self, entries):
        trace = Trace(entries)
        blob = encode_trace(trace)
        assert is_trace_blob(blob)
        assert list(decode_trace(blob)) == entries

    @given(entries=_entry_lists)
    def test_pickle_ships_the_packed_columns(self, entries):
        trace = Trace(entries)
        assert list(pickle.loads(pickle.dumps(trace))) == entries

    @given(entries=_entry_lists)
    def test_summary_statistics_match_entry_views(self, entries):
        trace = Trace(entries)
        assert trace.original_instruction_count() == sum(e.size for e in entries)
        assert trace.pipeline_slot_count() == len(entries)
        assert trace.handle_count() == sum(1 for e in entries if e.is_handle)
        assert trace.load_count() == sum(1 for e in entries if e.is_load)
        assert trace.store_count() == sum(1 for e in entries if e.is_store)

    def test_uncompressed_codec_round_trip(self):
        entries = [TraceEntry(0x1000, 0, 1, 0x1004),
                   TraceEntry(0x1004, 1, 1, 0x1000, is_control=True, taken=True)]
        blob = encode_trace(Trace(entries), compress=False)
        assert list(decode_trace(blob)) == entries

    def test_empty_trace_round_trip(self):
        blob = encode_trace(Trace())
        decoded = decode_trace(blob)
        assert len(decoded) == 0 and list(decoded) == []
        assert decoded.original_instruction_count() == 0
        assert decoded.dynamic_coverage() == 0.0

    def test_slicing_and_negative_indexing(self):
        entries = [TraceEntry(0x1000 + 4 * i, i, 1, 0x1004 + 4 * i)
                   for i in range(5)]
        trace = Trace(entries)
        assert trace[-1] == entries[-1]
        assert trace[1:4] == entries[1:4]


class TestSummaryCache:
    def test_counts_are_cached_and_append_invalidates(self):
        trace = Trace([TraceEntry(0x1000, 0, 1, 0x1004)])
        assert trace.original_instruction_count() == 1
        assert trace.pipeline_slot_count() == 1
        trace.append(TraceEntry(0x1004, 1, 3, 0x1008, mgid=2))
        assert trace.original_instruction_count() == 4
        assert trace.pipeline_slot_count() == 2
        assert trace.handle_count() == 1
        assert trace.dynamic_coverage() == pytest.approx(2 / 4)


class TestCodecValidation:
    def _blob(self):
        return encode_trace(Trace([TraceEntry(0x1000, 0, 1, 0x1004),
                                   TraceEntry(0x1004, 1, 1, 0x1008,
                                              is_load=True,
                                              effective_address=0x2000)]))

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


class TestStoreCrossCodec:
    def _trace(self):
        return Trace([TraceEntry(0x1000, 0, 1, 0x1004),
                      TraceEntry(0x1004, 1, 2, 0x1000, is_control=True,
                                 taken=True, mgid=3),
                      TraceEntry(0x1000, 0, 1, 0x1004, is_store=True,
                                 effective_address=0x2008)])

    def test_bare_traces_are_stored_binary_and_read_back(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        trace = self._trace()
        writer.put("trace-abc", trace)
        (path,) = tmp_path.glob("*.pkl")
        assert path.read_bytes()[:4] == TRACE_MAGIC
        reader = ArtifactStore(tmp_path)  # fresh store: no memory layer
        assert list(reader.get("trace-abc")) == list(trace)

    def test_pickle_entries_containing_traces_still_read(self, tmp_path):
        # Cross-codec: an artifact embedding a trace goes through pickle
        # (whose Trace payload is the same flat binary blob) and must load
        # from the same directory as binary entries.
        store = ArtifactStore(tmp_path)
        trace = self._trace()
        store.put("trace-bin", trace)
        store.put("pair-pickle", {"trace": trace, "label": "embedded"})
        reader = ArtifactStore(tmp_path)
        assert list(reader.get("pair-pickle")["trace"]) == list(trace)
        assert list(reader.get("trace-bin")) == list(trace)

    def test_unknown_codec_version_is_a_miss_not_a_crash(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("trace-future", self._trace())
        (path,) = tmp_path.glob("*.pkl")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, TRACE_CODEC_VERSION + 1)
        path.write_bytes(bytes(blob))
        reader = ArtifactStore(tmp_path)
        assert reader.get("trace-future") is MISS
        assert reader.stats.misses == 1
        # The foreign-version entry is left for the build that wrote it.
        assert path.exists()

    def test_corrupt_trace_entry_is_dropped_and_missed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("trace-corrupt", self._trace())
        (path,) = tmp_path.glob("*.pkl")
        path.write_bytes(path.read_bytes()[:-3])
        reader = ArtifactStore(tmp_path)
        assert reader.get("trace-corrupt") is MISS
        assert not path.exists()

    def test_put_serialization_failure_cleans_temp_and_degrades(self, tmp_path):
        store = ArtifactStore(tmp_path)
        unpicklable = lambda: None  # noqa: E731 - locals cannot be pickled
        store.put("bad-artifact", unpicklable)
        # Memory layer still serves the value; nothing (tmp or entry) on disk.
        assert store.get("bad-artifact") is unpicklable
        assert list(tmp_path.iterdir()) == []
        reader = ArtifactStore(tmp_path)
        assert reader.get("bad-artifact") is MISS
