"""Dynamic trace records produced by the functional simulator.

The timing model (:mod:`repro.uarch`) is *functional-first*: the functional
simulator executes the program and emits one committed-order record per
instruction (or handle), carrying exactly what the run decided — which
static instruction committed, its control outcome and successor, and its
effective address.  The timing model re-derives everything else (pc,
operands, opcode class, latency, a handle's size) from the static program
and the MGT.

A :class:`Trace` *is* its four fixed-width stdlib :class:`array.array`
columns (index, next_pc, flags bitfield, effective_address): there is no
per-record object.  A 200k-instruction run therefore allocates a handful of
buffers rather than 200k records, every consumer (the timing kernel, the
reference pipeline's fetch stage, profile construction) reads the columns
directly at C speed, and the whole trace serializes as raw column bytes
(:func:`encode_trace`) — also when it is pickled, through
``Trace.__reduce__``.

Optional fields are packed with explicit presence bits in the flags column
(:data:`TF_TAKEN_KNOWN`, :data:`TF_HAS_EA`), so an unknown branch outcome
and a missing effective address survive the packed representation exactly.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import NamedTuple, Optional, Tuple

# ---------------------------------------------------------------------------
# Flags bitfield (one byte per entry in the flags column).
# ---------------------------------------------------------------------------

TF_CONTROL = 0x01      #: entry ends with a control transfer
TF_TAKEN_KNOWN = 0x02  #: ``taken`` is a real outcome (False for halt: None)
TF_TAKEN = 0x04        #: control outcome was taken (only with TF_TAKEN_KNOWN)
TF_LOAD = 0x08         #: entry contains a load
TF_STORE = 0x10        #: entry contains a store
TF_HAS_EA = 0x20       #: effective_address column holds a real address

TF_MEMORY = TF_LOAD | TF_STORE
_TF_TAKEN_BOTH = TF_TAKEN_KNOWN | TF_TAKEN


def pack_flags(is_control: bool, taken: Optional[bool], is_load: bool,
               is_store: bool, has_ea: bool) -> int:
    """Fold the per-entry booleans/presence bits into one flags byte."""
    flags = 0
    if is_control:
        flags |= TF_CONTROL
    if taken is not None:
        flags |= (_TF_TAKEN_BOTH if taken else TF_TAKEN_KNOWN)
    if is_load:
        flags |= TF_LOAD
    if is_store:
        flags |= TF_STORE
    if has_ea:
        flags |= TF_HAS_EA
    return flags


class TraceColumns(NamedTuple):
    """Zero-copy view of a trace's four columns (batch consumers)."""

    index: array            # 'I' — static layout indices
    next_pc: array          # 'Q' — committed successor PCs
    flags: array            # 'B' — TF_* bitfield
    effective_address: array  # 'Q' — 0 unless TF_HAS_EA


#: (column name, array typecode, item size) in codec payload order — the
#: single source of truth for the storage layout: encode/decode and
#: :class:`TraceColumns` all follow this tuple.
_COLUMN_LAYOUT: Tuple[Tuple[str, str, int], ...] = (
    ("index", "I", 4), ("next_pc", "Q", 8), ("flags", "B", 1),
    ("effective_address", "Q", 8),
)

assert tuple(name for name, _, _ in _COLUMN_LAYOUT) == TraceColumns._fields

#: Raw column bytes per entry (the uncompressed codec payload width).
TRACE_ROW_BYTES = sum(item_size for _, _, item_size in _COLUMN_LAYOUT)


class Trace:
    """A committed-order dynamic trace: one :class:`TraceColumns`.

    Built by :meth:`from_columns` (the functional simulator) or
    :func:`decode_trace` (the codec); read through :meth:`columns`.
    """

    __slots__ = ("_columns", "__weakref__")

    def __init__(self, columns: TraceColumns) -> None:
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged trace columns: lengths {sorted(lengths)}")
        self._columns = columns

    @classmethod
    def from_columns(cls, index, next_pc, flags,
                     effective_address) -> "Trace":
        """Build a trace directly from column value sequences (one pass).

        This is the functional simulator's bulk path: each argument is any
        iterable of ints (the ``array`` constructor consumes it at C speed).
        """
        return cls(TraceColumns(*(
            array(typecode, values) for (_, typecode, _), values
            in zip(_COLUMN_LAYOUT, (index, next_pc, flags, effective_address)))))

    def __len__(self) -> int:
        return len(self._columns.index)

    def columns(self) -> TraceColumns:
        """The four packed columns (zero-copy; do not mutate)."""
        return self._columns

    # -- statistics ------------------------------------------------------------

    def load_count(self) -> int:
        """Number of entries that contain a load."""
        return sum(1 for flags in self._columns.flags if flags & TF_LOAD)

    def store_count(self) -> int:
        """Number of entries that contain a store."""
        return sum(1 for flags in self._columns.flags if flags & TF_STORE)

    # -- serialization ---------------------------------------------------------

    def __reduce__(self):
        # Pickling (every artifact store disk entry, and every process-pool
        # transfer) ships the packed columns as one codec blob.
        return (decode_trace, (encode_trace(self),))


# ---------------------------------------------------------------------------
# Binary codec: header + raw column bytes.
#
# Layout (all header integers little-endian):
#
#   offset  size  field
#   0       4     magic b"RTRC"
#   4       2     codec version (TRACE_CODEC_VERSION)
#   6       1     compression (0 = raw, 1 = zlib)
#   7       1     reserved (0)
#   8       8     entry count
#   16      8     payload byte length (as stored, i.e. after compression)
#   24      ...   payload: the four columns' little-endian bytes,
#                 concatenated in _COLUMN_LAYOUT order
# ---------------------------------------------------------------------------

TRACE_MAGIC = b"RTRC"
TRACE_CODEC_VERSION = 2
_HEADER = struct.Struct("<4sHBBQQ")

_COMPRESS_NONE = 0
_COMPRESS_ZLIB = 1

#: zlib level 1: traces are dominated by loop repetition, so even the fastest
#: level shrinks them far below one row per entry while staying IO-bound.
_ZLIB_LEVEL = 1

_NATIVE_IS_LITTLE = sys.byteorder == "little"


class TraceCodecError(ValueError):
    """Raised when a binary trace blob cannot be decoded."""


def _column_bytes(column: array) -> bytes:
    if _NATIVE_IS_LITTLE:
        return column.tobytes()
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def encode_trace(trace: Trace) -> bytes:
    """Serialize ``trace`` as header + packed column bytes, zlib-compressed
    unless that would not shrink them."""
    payload = b"".join(map(_column_bytes, trace.columns()))
    compression = _COMPRESS_NONE
    packed = zlib.compress(payload, _ZLIB_LEVEL)
    if len(packed) < len(payload):
        payload = packed
        compression = _COMPRESS_ZLIB
    header = _HEADER.pack(TRACE_MAGIC, TRACE_CODEC_VERSION, compression, 0,
                          len(trace), len(payload))
    return header + payload


def decode_trace(data: bytes) -> Trace:
    """Deserialize a blob produced by :func:`encode_trace`.

    Raises :class:`TraceCodecError` for a blob written by another codec
    version or structurally invalid (callers treat it as a cache miss).
    """
    if len(data) < _HEADER.size:
        raise TraceCodecError(f"trace blob truncated: {len(data)} bytes")
    magic, version, compression, _, count, payload_length = \
        _HEADER.unpack_from(data)
    if magic != TRACE_MAGIC:
        raise TraceCodecError(f"bad trace magic {magic!r}")
    if version != TRACE_CODEC_VERSION:
        raise TraceCodecError(
            f"unknown trace codec version {version} "
            f"(this build reads version {TRACE_CODEC_VERSION})")
    payload = data[_HEADER.size:]
    if len(payload) != payload_length:
        raise TraceCodecError(
            f"trace payload length mismatch: header says {payload_length}, "
            f"got {len(payload)}")
    if compression == _COMPRESS_ZLIB:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as error:
            raise TraceCodecError(f"corrupt trace payload: {error}") from None
    elif compression != _COMPRESS_NONE:
        raise TraceCodecError(f"unknown trace compression {compression}")
    if len(payload) != count * TRACE_ROW_BYTES:
        raise TraceCodecError(
            f"trace payload holds {len(payload)} bytes, expected "
            f"{count * TRACE_ROW_BYTES} for {count} entries")

    columns = []
    offset = 0
    for _, typecode, item_size in _COLUMN_LAYOUT:
        column = array(typecode)
        end = offset + count * item_size
        column.frombytes(payload[offset:end])
        if not _NATIVE_IS_LITTLE:
            column.byteswap()
        columns.append(column)
        offset = end
    return Trace(TraceColumns(*columns))
