"""End-to-end sessions over memory and TCP, plus the sealed-manifest flow.

Fixed inputs throughout: modulus 51 with exponents (3, 11), nonce 13,
deposited secret 5, letter key 29. The resulting four frames are pinned
byte for byte.
"""

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from piggybank import (
    AliceP1,
    AliceP2,
    AliceSecrets1,
    AliceSecrets2,
    BobP1,
    BobP2,
    FormatError,
    HandshakeError,
    Kind,
    Message,
    Outcome2,
    PiggyBankError,
    Protocol,
    Recovered1,
    Rng,
    TamperRule,
    TransportClosedError,
    Variant1,
    Variant2,
    decode_msg,
    encode_msg,
    gen_dh,
    gen_rsa,
    memory_pair,
    p1_deposit,
    run_exchange,
    run_pair,
    run_trope_alice,
    run_trope_bob,
    run_trope_session,
    tap_attach,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)
from piggybank.session import _run_both, _script, _stream_xor
from piggybank.wire import _MAX_FRAME

CHALLENGE_HEX = "50424e4b010101000200000000000000010400000000"
DEPOSIT_HEX = "50424e4b0101020001000000013100000000"
LETTER_HEX = "50424e4b0101030001000000011700000000"
ACK_HEX = "50424e4b010106000000000000"


def _stream(key: int, length: int, alg: str = "sha256") -> bytes:
    """Independent keystream oracle, written from the docstring alone."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.new(alg)
        block.update(key.to_bytes((key.bit_length() + 7) // 8, "big"))
        block.update(counter.to_bytes(8, "big"))
        out += block.digest()
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, mask: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, mask))


def _every_variant(desk_rsa, desk_dh):
    """(bob, alice) roles with fixed nonces for all seven variants."""
    params, secret = desk_rsa
    return [
        (
            BobP1(params, secret, v, nonce=1 if v is Variant1.UNIT_R else 13),
            AliceP1(params, v, AliceSecrets1(7, 30)),
        )
        for v in Variant1
    ] + [
        (BobP2(desk_dh, v, nonce=11), AliceP2(desk_dh, v, AliceSecrets2(3, 10)))
        for v in Variant2
    ]


def _over_tcp(bob_run, alice_run):
    """bob_run(end) and alice_run(end) over one loopback connection."""
    listener = tcp_listen("127.0.0.1", 0)
    port = listener.getsockname()[1]
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            bob = pool.submit(lambda: bob_run(tcp_accept(listener)))
            alice = pool.submit(lambda: alice_run(tcp_connect("127.0.0.1", port)))
            return bob.result(timeout=30), alice.result(timeout=30)
    finally:
        listener.close()


class TestRunPair:
    def test_base_golden_frames(self, desk_rsa):
        params, secret = desk_rsa
        bob_out, alice_out = run_pair(
            BobP1(params, secret, Variant1.BASE, nonce=13),
            AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29)),
        )
        assert bob_out.recovered == Recovered1(5, 29)
        assert bob_out.manifest_ok is None
        assert alice_out.recovered is None
        assert bob_out.transcript.transcript_lines() == [
            f"tx {CHALLENGE_HEX}",
            f"rx {DEPOSIT_HEX}",
            f"rx {LETTER_HEX}",
            f"tx {ACK_HEX}",
        ]
        assert alice_out.transcript.transcript_lines() == [
            f"rx {CHALLENGE_HEX}",
            f"tx {DEPOSIT_HEX}",
            f"tx {LETTER_HEX}",
            f"rx {ACK_HEX}",
        ]

    def test_kind_sequence(self, desk_rsa):
        params, secret = desk_rsa
        bob_out, _ = run_pair(
            BobP1(params, secret, Variant1.BASE, nonce=13),
            AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29)),
        )
        kinds = [m.kind for m in bob_out.transcript.messages()]
        assert kinds == [Kind.CHALLENGE, Kind.DEPOSIT, Kind.LETTER, Kind.ACK]

    def test_secrets_never_ride_the_wire(self, desk_rsa):
        # S = 5 and K = 29 must appear in no field of any frame
        params, secret = desk_rsa
        bob_out, _ = run_pair(
            BobP1(params, secret, Variant1.BASE, nonce=13),
            AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29)),
        )
        on_wire = [f for m in bob_out.transcript.messages() for f in m.fields]
        assert 5 not in on_wire
        assert 29 not in on_wire

    @pytest.mark.parametrize("variant", list(Variant1))
    def test_every_variant_recovers(self, desk_rsa, variant):
        params, secret = desk_rsa
        bob_out, alice_out = run_pair(
            BobP1(params, secret, variant),
            AliceP1(params, variant, AliceSecrets1(7, 30)),
            Rng(900 + int(variant)),
        )
        expected_key = None if variant is Variant1.MULTIPLICATIVE else 30
        assert bob_out.recovered == Recovered1(7, expected_key)
        assert alice_out.recovered is None

    @pytest.mark.parametrize("variant", list(Variant2))
    def test_prime_field_variants(self, desk_dh, variant):
        bob_out, _ = run_pair(
            BobP2(desk_dh, variant, nonce=11),
            AliceP2(desk_dh, variant, AliceSecrets2(3, 10)),
        )
        assert bob_out.recovered == Outcome2(10, 14)

    def test_same_rng_same_transcript(self, desk_rsa):
        params, secret = desk_rsa
        runs = [
            run_pair(
                BobP1(params, secret, Variant1.BASE),
                AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29)),
                Rng(31337),
            )[0]
            for _ in range(2)
        ]
        assert (
            runs[0].transcript.transcript_lines()
            == runs[1].transcript.transcript_lines()
        )
        assert runs[0].recovered == runs[1].recovered

    def test_variant_mismatch(self, desk_rsa):
        params, secret = desk_rsa
        with pytest.raises(HandshakeError):
            run_pair(
                BobP1(params, secret, Variant1.BASE, nonce=13),
                AliceP1(params, Variant1.UNIT_R, AliceSecrets1(5, 29)),
            )

    def test_depositor_error_beats_peer_closed(self, desk_rsa):
        # Alice's deposit refuses S = 0; Bob then only sees the transport
        # close, and the error that explains the failure is Alice's
        params, secret = desk_rsa
        with pytest.raises(ValueError, match="secret must lie"):
            run_pair(
                BobP1(params, secret, Variant1.BASE, nonce=13),
                AliceP1(params, Variant1.BASE, AliceSecrets1(0, 29)),
            )

    def test_protocol_mismatch(self, desk_rsa, desk_dh):
        params, secret = desk_rsa
        with pytest.raises(HandshakeError):
            run_pair(
                BobP1(params, secret, Variant1.BASE, nonce=13),
                AliceP2(desk_dh, Variant2.ADDITIVE, AliceSecrets2(3, 10)),
            )


class TestMalformedPeer:
    def _drive_bob(self, desk_rsa, frames):
        params, secret = desk_rsa
        bob_end, alice_end = memory_pair()

        def peer():
            decode_msg(alice_end.recv())
            for frame in frames:
                alice_end.send(frame)

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(HandshakeError):
                run_exchange(BobP1(params, secret, Variant1.BASE, nonce=13), bob_end)
        finally:
            thread.join(timeout=5)

    def test_two_field_deposit(self, desk_rsa):
        self._drive_bob(
            desk_rsa,
            [
                encode_msg(Message(Protocol.P1, Kind.DEPOSIT, (1, 2))),
                encode_msg(Message(Protocol.P1, Kind.LETTER, (1,))),
            ],
        )

    def test_letter_before_deposit(self, desk_rsa):
        self._drive_bob(desk_rsa, [encode_msg(Message(Protocol.P1, Kind.LETTER, (1,)))])

    def test_every_single_bit_tamper_fails_cleanly(self):
        # Each bit of each frame on the depositor's end, flipped in turn, in
        # all seven variants on 64-bit keys: a session may fail, but only
        # with a PiggyBankError.
        params, secret = gen_rsa(64, 3, Rng(1))
        group = gen_dh(64, Rng(1))
        roles = [
            (BobP1(params, secret, v), AliceP1(params, v, AliceSecrets1(7, 30)))
            for v in Variant1
        ] + [
            (BobP2(group, v), AliceP2(group, v, AliceSecrets2(3, 10)))
            for v in Variant2
        ]
        raw = []
        for bob, alice in roles:
            frames = run_pair(bob, alice, Rng(5))[1].transcript.frames()
            for index, frame in enumerate(frames):
                for bit in range(8 * len(frame)):
                    bob_end, alice_end = memory_pair()
                    rule = TamperRule(index, bit // 8, bit % 8)
                    ends = bob_end, tap_attach(alice_end, (rule,))[0]
                    try:
                        _run_both(_script(bob, Rng(5)), _script(alice, None), ends)
                    except PiggyBankError:
                        pass
                    except Exception as exc:
                        raw.append((bob.variant, rule, exc))
        assert not raw, f"{len(raw)} raw exceptions, first {raw[:3]}"


class TestTcpParity:
    def test_tcp_transcript_matches_memory(self, desk_rsa):
        params, secret = desk_rsa
        bob_role = BobP1(params, secret, Variant1.BASE, nonce=13)
        alice_role = AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29))
        mem_bob, _ = run_pair(bob_role, alice_role)

        listener = tcp_listen("127.0.0.1", 0)
        port = listener.getsockname()[1]
        with ThreadPoolExecutor(max_workers=2) as pool:
            bob_future = pool.submit(
                lambda: run_exchange(bob_role, tcp_accept(listener))
            )
            alice_future = pool.submit(
                lambda: run_exchange(alice_role, tcp_connect("127.0.0.1", port))
            )
            tcp_bob = bob_future.result(timeout=30)
            alice_future.result(timeout=30)
        listener.close()
        assert tcp_bob.recovered == mem_bob.recovered
        assert (
            tcp_bob.transcript.transcript_lines()
            == mem_bob.transcript.transcript_lines()
        )

    @pytest.mark.parametrize("index", range(len(Variant1) + len(Variant2)))
    def test_every_variant_matches_over_tcp(self, desk_rsa, desk_dh, index):
        bob_role, alice_role = _every_variant(desk_rsa, desk_dh)[index]
        memory = run_pair(bob_role, alice_role)
        tcp = _over_tcp(
            lambda end: run_exchange(bob_role, end),
            lambda end: run_exchange(alice_role, end),
        )
        for mem_side, tcp_side in zip(memory, tcp):
            assert mem_side.recovered == tcp_side.recovered
            assert mem_side.manifest_ok == tcp_side.manifest_ok
            assert (
                mem_side.transcript.transcript_lines()
                == tcp_side.transcript.transcript_lines()
            )

    def test_trope_matches_over_tcp(self, desk_rsa):
        params, secret = desk_rsa
        bob_end, alice_end = memory_pair()
        alice_end, alice_log = tap_attach(alice_end)
        mem_bob = run_trope_session(
            params,
            secret,
            5,
            "three gold coins",
            rng=Rng(0),
            nonce=13,
            letter_key=29,
            transports=(bob_end, alice_end),
        )
        tcp_bob, tcp_alice = _over_tcp(
            lambda end: run_trope_bob(
                params, secret, end, rng=Rng(0).derive(1), nonce=13
            ),
            lambda end: run_trope_alice(
                params, 5, "three gold coins", end, rng=Rng(0).derive(2), letter_key=29
            ),
        )
        assert (mem_bob.recovered, mem_bob.manifest_ok) == (
            tcp_bob.recovered,
            tcp_bob.manifest_ok,
        )
        assert tcp_alice.recovered is None and tcp_alice.manifest_ok is None
        assert (
            mem_bob.transcript.transcript_lines()
            == tcp_bob.transcript.transcript_lines()
        )
        assert alice_log.transcript_lines() == tcp_alice.transcript.transcript_lines()


class TestInProcess:
    """In-process sessions step both endpoints on the caller's thread."""

    def test_sessions_start_no_thread(self, desk_rsa, desk_dh, monkeypatch):
        params, secret = desk_rsa
        runs = [
            lambda bob=bob, alice=alice: run_pair(bob, alice)
            for bob, alice in _every_variant(desk_rsa, desk_dh)
        ] + [
            lambda: run_trope_session(
                params, secret, 5, "iron nails", rng=Rng(0), nonce=13, letter_key=29
            )
        ]
        unpatched = [run() for run in runs]

        def refuse(thread):
            raise AssertionError(f"an in-process session started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert [run() for run in runs] == unpatched

    def test_trope_session_over_tcp_ends(self, desk_rsa):
        # a TCP end cannot tell whether a frame is waiting, so the runner
        # receives only what the peer has already sent
        params, secret = desk_rsa
        listener = tcp_listen("127.0.0.1", 0)
        alice_end = tcp_connect("127.0.0.1", listener.getsockname()[1])
        bob_end = tcp_accept(listener)
        listener.close()
        outcome = run_trope_session(
            params,
            secret,
            5,
            "iron nails",
            rng=Rng(0),
            nonce=13,
            letter_key=29,
            transports=(bob_end, alice_end),
        )
        assert outcome.manifest_ok is True
        assert outcome.recovered == Recovered1(5, 29)
        assert len(outcome.transcript.entries) == 5

    def test_stalled_pair_fails_fast(self, desk_rsa):
        # two unconnected pairs: neither endpoint ever gets a frame
        params, secret = desk_rsa
        (bob_end, _), (_, alice_end) = memory_pair(), memory_pair()
        started = time.monotonic()
        with pytest.raises(TransportClosedError):
            run_trope_session(
                params,
                secret,
                5,
                "iron nails",
                rng=Rng(0),
                nonce=13,
                letter_key=29,
                transports=(bob_end, alice_end),
            )
        assert time.monotonic() - started < 1.0


class TestTrope:
    def run_fixed(self, desk_rsa, text, **kwargs):
        params, secret = desk_rsa
        return run_trope_session(
            params,
            secret,
            5,
            text,
            rng=Rng(0),
            nonce=13,
            letter_key=29,
            **kwargs,
        )

    def test_honest_session(self, desk_rsa):
        outcome = self.run_fixed(desk_rsa, "three gold coins")
        assert outcome.manifest_ok is True
        assert outcome.recovered == Recovered1(5, 29)
        kinds = [m.kind for m in outcome.transcript.messages()]
        assert kinds == [
            Kind.CHALLENGE,
            Kind.DEPOSIT,
            Kind.LETTER,
            Kind.LETTER,
            Kind.ACK,
        ]
        protocols = {m.protocol for m in outcome.transcript.messages()}
        assert protocols == {Protocol.TROPE}

    def test_sealed_blob_unseals_with_oracle(self, desk_rsa):
        outcome = self.run_fixed(desk_rsa, "three gold coins")
        sealed = outcome.transcript.entries[3].message.blob
        assert len(sealed) == 4 + 16 + 32
        plain = _xor(sealed, _stream(29, len(sealed)))
        assert int.from_bytes(plain[:4], "big") == 16
        assert plain[4:20] == b"three gold coins"
        assert plain[20:] == hashlib.sha256(b"\x05" + b"three gold coins").digest()

    @pytest.mark.parametrize("hash_alg", ["sha256", "blake2b"])
    def test_stream_xor_matches_byte_loop(self, hash_alg):
        # Lengths around one keystream block, and the longest blob a letter
        # frame can carry; zero data shows the leading bytes are kept.
        size = hashlib.new(hash_alg).digest_size
        letter = len(encode_msg(Message(Protocol.TROPE, Kind.LETTER)))
        for length in (0, 1, size, size + 1, _MAX_FRAME - letter):
            for key in (0, 2**200 + 12345):
                for data in (bytes(length), bytes(range(256)) * (length // 256 + 1)):
                    data = data[:length]
                    want = _xor(data, _stream(key, length, hash_alg))
                    assert _stream_xor(key, data, hash_alg) == want, (length, key)

    def test_empty_description_digest(self, desk_rsa):
        # with no description the sealed digest is the hash of the
        # secret's one-byte canonical encoding, nothing else mixed in
        outcome = self.run_fixed(desk_rsa, "")
        sealed = outcome.transcript.entries[3].message.blob
        plain = _xor(sealed, _stream(29, len(sealed)))
        assert plain[:4] == b"\x00\x00\x00\x00"
        assert plain[4:] == hashlib.sha256(b"\x05").digest()
        assert outcome.manifest_ok is True

    def test_sealed_blob_hides_plaintext(self, desk_rsa):
        outcome = self.run_fixed(desk_rsa, "three gold coins")
        sealed = outcome.transcript.entries[3].message.blob
        assert b"gold" not in sealed

    def test_wide_digest(self, desk_rsa):
        outcome = self.run_fixed(desk_rsa, "three gold coins", hash_alg="sha512")
        assert outcome.manifest_ok is True
        sealed = outcome.transcript.entries[3].message.blob
        assert len(sealed) == 4 + 16 + 64

    def test_frame_cap_holds_over_memory(self, desk_rsa):
        # a 1 MiB manifest makes a fifth frame past the cap that a TCP
        # peer's read_frame refuses; the memory pair must refuse it too
        with pytest.raises(FormatError):
            self.run_fixed(desk_rsa, "x" * (1 << 20))

    @pytest.mark.parametrize("hash_alg", ["shake_128", "shake_256", "no-such-hash"])
    def test_hash_without_fixed_digest_refused(self, desk_rsa, hash_alg):
        with pytest.raises(ValueError, match=hash_alg):
            self.run_fixed(desk_rsa, "coins", hash_alg=hash_alg)

    def test_hash_refused_before_any_frame(self, desk_rsa):
        params, secret = desk_rsa
        for run in (
            lambda end: run_trope_bob(params, secret, end, hash_alg="shake_128"),
            lambda end: run_trope_alice(params, 5, "", end, hash_alg="shake_128"),
        ):
            mine, peer = memory_pair()
            with pytest.raises(ValueError, match="shake_128"):
                run(mine)
            with pytest.raises(TransportClosedError, match="peer closed"):
                peer.recv()

    # blob bytes start at offset 13: header 9, no fields, 4 length bytes
    @pytest.mark.parametrize(
        "byte_index,region",
        [(13, "length prefix"), (20, "description"), (45, "digest")],
    )
    def test_single_bit_tamper_fails_check(self, desk_rsa, byte_index, region):
        params, secret = desk_rsa
        bob_end, alice_end = memory_pair()
        tampered_alice, _ = tap_attach(
            alice_end, tamper=(TamperRule(3, byte_index, 0),)
        )
        outcome = run_trope_session(
            params,
            secret,
            5,
            "three gold coins",
            rng=Rng(0),
            nonce=13,
            letter_key=29,
            transports=(bob_end, tampered_alice),
        )
        assert outcome.manifest_ok is False, f"tamper in {region} went unnoticed"
        # recovery itself is untouched; only the manifest verdict flips
        assert outcome.recovered == Recovered1(5, 29)

    def test_sampled_letter_key(self, desk_rsa):
        params, secret = desk_rsa
        outcome = run_trope_session(
            params, secret, 5, "iron nails", rng=Rng(77), nonce=13
        )
        assert outcome.manifest_ok is True
        assert outcome.recovered.secret == 5


class TestTropeHandshake:
    """The box owner and the depositor reject a peer off the trope script."""

    def test_alice_rejects_non_base_challenge(self, desk_rsa):
        params, _ = desk_rsa
        bob_end, alice_end = memory_pair()
        bob_end.send(encode_msg(Message(Protocol.TROPE, Kind.CHALLENGE, (1, 4))))
        with pytest.raises(HandshakeError):
            run_trope_alice(params, 5, "iron nails", alice_end, letter_key=29)
        bob_end.close()

    def test_bob_rejects_sealed_frame_with_fields(self, desk_rsa):
        params, secret = desk_rsa
        bob_end, alice_end = memory_pair()

        def peer():
            challenge = decode_msg(alice_end.recv()).fields[1]
            response = p1_deposit(
                params, Variant1.BASE, challenge, AliceSecrets1(5, 29)
            )
            for msg in (
                Message(Protocol.TROPE, Kind.DEPOSIT, (response.deposit,)),
                Message(Protocol.TROPE, Kind.LETTER, (response.letter,)),
                Message(Protocol.TROPE, Kind.LETTER, (1,), b"sealed"),
            ):
                alice_end.send(encode_msg(msg))

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        try:
            with pytest.raises(HandshakeError, match="only a blob"):
                run_trope_bob(params, secret, bob_end, nonce=13)
        finally:
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_p1_alice_against_trope_bob(self, desk_rsa):
        params, secret = desk_rsa
        bob_end, alice_end = memory_pair()
        with ThreadPoolExecutor(max_workers=1) as pool:
            bob_future = pool.submit(run_trope_bob, params, secret, bob_end, nonce=13)
            with pytest.raises(HandshakeError, match="TROPE"):
                run_exchange(
                    AliceP1(params, Variant1.BASE, AliceSecrets1(5, 29)), alice_end
                )
            with pytest.raises(TransportClosedError):
                bob_future.result(timeout=30)
