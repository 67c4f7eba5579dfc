"""Binary frame codec for protocol messages.

Frame layout, every integer big-endian:

    magic    4 bytes   "PBNK"
    version  1 byte    0x01
    protocol 1 byte    Protocol value: 1 P1, 2 P2, 3 TROPE
    kind     1 byte    Kind value: 1 CHALLENGE, 2 DEPOSIT, 3 LETTER, 6 ACK
    nfields  2 bytes   number of integer fields
    fields   per field: 4-byte length, then that many magnitude bytes
    blob     4-byte length, then that many opaque bytes

Field magnitudes are minimal big-endian naturals: zero encodes as length
0, and a nonzero magnitude must not lead with a 0x00 byte. The empty
message is therefore a fixed 13-byte frame, and every value has exactly
one encoding: decode is the inverse of encode on its image and rejects
everything else with FormatError (structure), TruncationError (ran out
of bytes) or CanonicalityError (padded magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from .errors import (
    CanonicalityError,
    FormatError,
    TransportClosedError,
    TruncationError,
)

MAGIC = b"PBNK"
VERSION = 1

_MAX_FIELDS = (1 << 16) - 1
_MAX_BLOB = (1 << 32) - 1
# read_frame refuses a stream frame longer than this, before reading it
_MAX_FRAME = 1 << 20


class Protocol(IntEnum):
    P1 = 1
    P2 = 2
    TROPE = 3


class Kind(IntEnum):
    CHALLENGE = 1
    DEPOSIT = 2
    LETTER = 3
    ACK = 6  # 4 and 5 stay unassigned so pinned ACK frames keep their bytes


def natural_bytes(value: int) -> bytes:
    """Minimal big-endian encoding of a natural number; 0 becomes b""."""
    if value < 0:
        raise ValueError("naturals only")
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


@dataclass(frozen=True)
class Message:
    """One protocol message. Constructing one the codec cannot frame
    fails early."""

    protocol: Protocol
    kind: Kind
    fields: tuple[int, ...] = ()
    blob: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "fields", tuple(self.fields))
        if len(self.fields) > _MAX_FIELDS:
            raise ValueError("too many fields for the 2-byte count")
        for value in self.fields:
            if not isinstance(value, int) or value < 0:
                raise ValueError("fields must be natural numbers")
        if not isinstance(self.blob, (bytes, bytearray)):
            raise ValueError("blob must be bytes")
        object.__setattr__(self, "blob", bytes(self.blob))
        if len(self.blob) > _MAX_BLOB:
            raise ValueError("blob too long for the 4-byte length")


def encode_msg(msg: Message) -> bytes:
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(msg.protocol)
    out.append(msg.kind)
    out += len(msg.fields).to_bytes(2, "big")
    for value in msg.fields:
        magnitude = natural_bytes(value)
        out += len(magnitude).to_bytes(4, "big")
        out += magnitude
    out += len(msg.blob).to_bytes(4, "big")
    out += msg.blob
    return bytes(out)


def decode_msg(data: bytes) -> Message:
    """Parse one frame, requiring exact consumption of the input. A frame
    longer than _MAX_FRAME bytes is a FormatError on every transport."""
    if len(data) > _MAX_FRAME:
        raise FormatError(f"frame longer than {_MAX_FRAME} bytes")
    head = data[:4]
    if head != MAGIC:
        if len(data) < 4 and MAGIC.startswith(head):
            raise TruncationError("frame ends inside the magic")
        raise FormatError("bad magic")
    pos = 4

    def take(count: int, what: str) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise TruncationError(f"frame ends inside {what}")
        chunk = data[pos : pos + count]
        pos += count
        return chunk

    version = take(1, "the version byte")[0]
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    proto_byte = take(1, "the protocol byte")[0]
    try:
        protocol = Protocol(proto_byte)
    except ValueError:
        raise FormatError(f"unknown protocol tag {proto_byte}") from None
    kind_byte = take(1, "the kind byte")[0]
    try:
        kind = Kind(kind_byte)
    except ValueError:
        raise FormatError(f"unknown kind tag {kind_byte}") from None
    nfields = int.from_bytes(take(2, "the field count"), "big")
    fields = []
    for index in range(nfields):
        length = int.from_bytes(take(4, f"field {index} length"), "big")
        magnitude = take(length, f"field {index}")
        if length and magnitude[0] == 0:
            raise CanonicalityError(f"field {index} has a padded magnitude")
        fields.append(int.from_bytes(magnitude, "big"))
    blob_len = int.from_bytes(take(4, "the blob length"), "big")
    blob = take(blob_len, "the blob")
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes after the frame")
    return Message(protocol, kind, tuple(fields), blob)


def read_frame(read: Callable[[int], bytes]) -> bytes:
    """Assemble one frame from a byte stream.

    read(n) returns n bytes, or fewer only where the stream ends, as a
    binary file's read does. This walks the header, per-field lengths and
    the blob length so a stream transport can pull self-delimiting frames
    without buffering the whole connection. A stream that ends before the
    frame's first byte is TransportClosedError (the peer hung up between
    frames); one that ends inside the frame is TruncationError. A frame
    whose declared lengths would take it past _MAX_FRAME bytes is a
    FormatError, raised before the oversize read is made. Structural
    validation beyond the magic is left to decode_msg.
    """
    buf = bytearray()

    def take(count: int) -> bytes:
        if len(buf) + count > _MAX_FRAME:
            raise FormatError(f"frame longer than {_MAX_FRAME} bytes")
        chunk = read(count)
        buf.extend(chunk)
        if len(chunk) < count:
            if not buf:
                raise TransportClosedError("peer closed the connection")
            raise TruncationError("stream ended mid-frame")
        return chunk

    if take(9)[:4] != MAGIC:
        raise FormatError("bad magic")
    nfields = int.from_bytes(buf[7:9], "big")
    for _ in range(nfields + 1):  # each field, then the blob: length, bytes
        take(int.from_bytes(take(4), "big"))
    return bytes(buf)
