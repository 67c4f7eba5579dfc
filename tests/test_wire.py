"""Codec tests pinned to exact frame bytes.

The golden frames here were written out by hand from the layout comment
in wire.py; if encode_msg ever drifts, these fail before anything
network-facing does.
"""

import random

import pytest

from piggybank import (
    CanonicalityError,
    FormatError,
    Kind,
    Message,
    Protocol,
    TruncationError,
    WireError,
    decode_msg,
    encode_msg,
    natural_bytes,
    read_frame,
)

GOLDEN = bytes.fromhex("50424e4b0101010001000000010400000000")


class TestGoldenFrames:
    def test_single_field_challenge(self):
        msg = Message(Protocol.P1, Kind.CHALLENGE, (4,))
        assert encode_msg(msg).hex() == GOLDEN.hex()
        assert decode_msg(GOLDEN) == msg

    def test_empty_frame_is_13_bytes(self):
        frame = encode_msg(Message(Protocol.P1, Kind.ACK))
        assert len(frame) == 13
        assert frame.hex() == "50424e4b010106000000000000"

    def test_zero_field_encodes_with_length_zero(self):
        frame = encode_msg(Message(Protocol.P2, Kind.DEPOSIT, (0,)))
        assert frame.hex() == "50424e4b01020200010000000000000000"

    def test_blob_sits_after_fields(self):
        frame = encode_msg(Message(Protocol.TROPE, Kind.LETTER, (), b"\xab\xcd"))
        assert frame.hex() == "50424e4b010303000000000002abcd"


class TestNaturalBytes:
    def test_values(self):
        assert natural_bytes(0) == b""
        assert natural_bytes(255) == b"\xff"
        assert natural_bytes(256) == b"\x01\x00"
        assert natural_bytes(1 << 64) == b"\x01" + b"\x00" * 8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            natural_bytes(-1)


@pytest.mark.parametrize(
    "msg",
    [
        Message(Protocol.P1, Kind.ACK),
        Message(Protocol.P1, Kind.CHALLENGE, (0, 4)),
        Message(Protocol.P2, Kind.LETTER, (2**521 - 1,)),
        Message(Protocol.TROPE, Kind.LETTER, (1, 0, 2**64), b"\x00" * 33),
        Message(Protocol.P2, Kind.CHALLENGE, tuple(range(40))),
        Message(Protocol.TROPE, Kind.ACK, (), bytes(range(256))),
    ],
)
def test_roundtrip(msg):
    assert decode_msg(encode_msg(msg)) == msg


class TestDecodeRejects:
    def test_every_proper_prefix_truncates(self):
        frame = encode_msg(Message(Protocol.TROPE, Kind.LETTER, (0, 300), b"xyz"))
        for cut in range(len(frame)):
            with pytest.raises(TruncationError):
                decode_msg(frame[:cut])

    def test_trailing_byte(self):
        with pytest.raises(FormatError):
            decode_msg(GOLDEN + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            decode_msg(b"NKBP" + GOLDEN[4:])
        # four bytes that are not the magic are a format error, not truncation
        with pytest.raises(FormatError):
            decode_msg(b"PBNZ")

    def test_bad_version(self):
        frame = bytearray(GOLDEN)
        frame[4] = 2
        with pytest.raises(FormatError):
            decode_msg(bytes(frame))

    @pytest.mark.parametrize("tag", [0, 4, 5, 255])
    def test_unknown_protocol_tag(self, tag):
        frame = bytearray(GOLDEN)
        frame[5] = tag
        with pytest.raises(FormatError):
            decode_msg(bytes(frame))

    @pytest.mark.parametrize("tag", [0, 4, 5, 7, 255])
    def test_unknown_kind_tag(self, tag):
        frame = bytearray(GOLDEN)
        frame[6] = tag
        with pytest.raises(FormatError):
            decode_msg(bytes(frame))

    def test_padded_magnitude(self):
        # same value 4, magnitude written as 00 04
        frame = bytes.fromhex("50424e4b010101000100000002000400000000")
        with pytest.raises(CanonicalityError):
            decode_msg(frame)
        # a lone zero byte is a padded encoding of 0, which must be empty
        frame = bytes.fromhex("50424e4b010101000100000001" + "00" + "00000000")
        with pytest.raises(CanonicalityError):
            decode_msg(frame)

    def test_every_tag_pair_decodes_bytewise(self):
        for protocol in Protocol:
            for kind in Kind:
                frame = bytearray(GOLDEN)
                frame[5] = protocol
                frame[6] = kind
                msg = decode_msg(bytes(frame))
                assert (msg.protocol, msg.kind) == (protocol, kind)
                assert encode_msg(msg) == frame


class TestMessageValidation:
    def test_field_count_cap(self):
        Message(Protocol.P1, Kind.ACK, (0,) * 65535)
        with pytest.raises(ValueError):
            Message(Protocol.P1, Kind.ACK, (0,) * 65536)

    def test_negative_field(self):
        with pytest.raises(ValueError):
            Message(Protocol.P1, Kind.CHALLENGE, (-1,))

    def test_non_int_field(self):
        with pytest.raises(ValueError):
            Message(Protocol.P1, Kind.CHALLENGE, (1.5,))

    def test_blob_coercion(self):
        msg = Message(Protocol.P1, Kind.ACK, (), bytearray(b"ok"))
        assert isinstance(msg.blob, bytes)
        with pytest.raises(ValueError):
            Message(Protocol.P1, Kind.ACK, (), "not bytes")

    def test_coerces_raw_tags(self):
        msg = Message(1, 6)
        assert msg.protocol is Protocol.P1 and msg.kind is Kind.ACK


class TestFuzz:
    def test_random_messages_roundtrip(self):
        rnd = random.Random(404)
        protocols, kinds = list(Protocol), list(Kind)
        for _ in range(300):
            protocol = rnd.choice(protocols)
            kind = rnd.choice(kinds)
            fields = tuple(
                rnd.getrandbits(rnd.randrange(0, 200)) for _ in range(rnd.randrange(5))
            )
            blob = rnd.randbytes(rnd.randrange(64))
            msg = Message(protocol, kind, fields, blob)
            assert decode_msg(encode_msg(msg)) == msg

    def test_garbage_raises_only_declared_errors(self):
        rnd = random.Random(405)
        for _ in range(2000):
            data = rnd.randbytes(rnd.randrange(40))
            try:
                decode_msg(data)
            except WireError:
                pass

    def test_mutated_frames_never_crash(self):
        rnd = random.Random(406)
        base = encode_msg(
            Message(Protocol.TROPE, Kind.LETTER, (7, 0, 1 << 40), b"seal")
        )
        for _ in range(2000):
            frame = bytearray(base)
            frame[rnd.randrange(len(frame))] ^= 1 << rnd.randrange(8)
            try:
                decode_msg(bytes(frame))
            except WireError:
                pass


class TestReadFrame:
    def test_splits_concatenated_stream(self):
        msgs = [
            Message(Protocol.P1, Kind.CHALLENGE, (0, 4)),
            Message(Protocol.P1, Kind.DEPOSIT, (49,)),
            Message(Protocol.TROPE, Kind.LETTER, (), b"cipher"),
            Message(Protocol.P1, Kind.ACK),
        ]
        stream = b"".join(encode_msg(m) for m in msgs)
        pos = 0

        def read(count):
            nonlocal pos
            chunk = stream[pos : pos + count]
            pos += count
            return chunk

        for msg in msgs:
            assert decode_msg(read_frame(read)) == msg
        assert pos == len(stream)

    def test_bad_magic_detected_early(self):
        with pytest.raises(FormatError):
            read_frame(lambda n: b"\x00" * n)

    def test_oversize_length_refused_before_reading(self):
        # one field declaring 4 GiB - 1 bytes: the reader must refuse the
        # frame without ever being asked for that many bytes
        asked = []
        with pytest.raises(FormatError):
            read_frame(_reader(GOLDEN[:9] + b"\xff\xff\xff\xff", asked))
        assert asked == [9, 4]

    def test_frame_at_the_cap_is_read(self):
        blob = b"x" * ((1 << 20) - 13)
        frame = encode_msg(Message(Protocol.TROPE, Kind.LETTER, (), blob))
        assert len(frame) == 1 << 20
        assert read_frame(_reader(frame)) == frame
        longer = encode_msg(Message(Protocol.TROPE, Kind.LETTER, (), blob + b"x"))
        with pytest.raises(FormatError):
            read_frame(_reader(longer))


def _reader(stream: bytes, asked: list | None = None):
    """A read(n) over a byte string, noting each requested count."""
    pos = 0

    def read(count):
        nonlocal pos
        if asked is not None:
            asked.append(count)
        chunk = stream[pos : pos + count]
        pos += count
        return chunk

    return read
