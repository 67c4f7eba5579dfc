"""Endpoint state machines that run the exchanges over a transport.

Each exchange is four frames: Bob opens with a challenge carrying the
variant code, Alice answers with deposit and letter frames, Bob closes
with an ack once recovery succeeds. One box-owner driver (_bob) and one
depositor driver (_alice) run that script for every protocol; the
protocol maths comes in as closures. Either endpoint can be driven over
any Transport, and records its own wire transcript via an internal tap.

Trope is the BASE protocol-1 exchange plus one hook on each driver.
Alice's seal hook sends a fifth frame: a manifest naming the deposited
goods and a digest binding them to the secret, encrypted with her key
value as a stream-cipher key. Bob's unseal hook reads it after recovery
and reports whether the digest checks out; a failed check is a verdict,
not an abort.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import HandshakeError, PiggyBankError, TransportClosedError
from .numtheory import Rng, RsaParams, RsaSecret, DhParams
from .protocol1 import (
    AliceSecrets1,
    Recovered1,
    Response1,
    Variant1,
    p1_deposit,
    p1_init,
    p1_recover,
)
from .protocol2 import (
    AliceSecrets2,
    Outcome2,
    Response2,
    Variant2,
    p2_deposit,
    p2_init,
    p2_recover,
)
from .transport import TapLog, Transport, memory_pair, tap_attach
from .wire import Kind, Message, Protocol, decode_msg, encode_msg, natural_bytes

_JOIN_TIMEOUT = 60.0


@dataclass(frozen=True)
class BobP1:
    params: RsaParams
    secret: RsaSecret
    variant: Variant1
    nonce: int | None = None  # forced nonce; sampled from rng when None


@dataclass(frozen=True)
class AliceP1:
    params: RsaParams
    variant: Variant1
    secrets: AliceSecrets1


@dataclass(frozen=True)
class BobP2:
    params: DhParams
    variant: Variant2
    nonce: int | None = None


@dataclass(frozen=True)
class AliceP2:
    params: DhParams
    variant: Variant2
    secrets: AliceSecrets2


@dataclass(frozen=True)
class SessionOutcome:
    """What one endpoint got out of a session.

    recovered is None on the depositing side. manifest_ok is None except
    for the trope box owner, who reports the digest verdict here.
    """

    recovered: Recovered1 | Outcome2 | None
    manifest_ok: bool | None
    transcript: TapLog


def _expect(transport: Transport, protocol: Protocol, kind: Kind) -> Message:
    msg = decode_msg(transport.recv())
    if msg.protocol is not protocol:
        raise HandshakeError(
            f"peer speaks {msg.protocol.name}, this endpoint runs {protocol.name}"
        )
    if msg.kind is not kind:
        raise HandshakeError(f"expected {kind.name}, got {msg.kind.name}")
    return msg


def _send(transport: Transport, msg: Message) -> None:
    transport.send(encode_msg(msg))


def _bob(transport, protocol, variant, init, recover, ack, unseal=None):
    """The box owner: challenge, take deposit and letter, recover, ack.

    init() returns the protocol state holding the challenge to send, and
    recover(state, deposit, letter) opens the box. unseal(t, recovered),
    when given, reads one more frame and returns the manifest verdict.
    """
    t, log = tap_attach(transport)
    try:
        state = init()
        fields = (int(variant), state.challenge_sent)
        _send(t, Message(protocol, Kind.CHALLENGE, fields))
        deposit = _expect(t, protocol, Kind.DEPOSIT)
        letter = _expect(t, protocol, Kind.LETTER)
        if len(deposit.fields) != 1 or len(letter.fields) != 1:
            raise HandshakeError("deposit and letter each carry exactly one field")
        recovered = recover(state, deposit.fields[0], letter.fields[0])
        manifest_ok = None if unseal is None else unseal(t, recovered)
        if ack:
            _send(t, Message(protocol, Kind.ACK))
        return SessionOutcome(recovered, manifest_ok, log)
    finally:
        transport.close()


def _alice(transport, protocol, variant, deposit, ack, seal=None):
    """The depositor: answer the challenge with deposit and letter frames.

    deposit(challenge) returns the response to send. seal(t), when given,
    sends one more frame before the ack.
    """
    t, log = tap_attach(transport)
    try:
        challenge_msg = _expect(t, protocol, Kind.CHALLENGE)
        if len(challenge_msg.fields) != 2:
            raise HandshakeError("challenge carries a variant code and a value")
        variant_code, challenge = challenge_msg.fields
        if variant_code != int(variant):
            raise HandshakeError(
                f"peer runs variant {variant_code}, "
                f"this endpoint is configured for {int(variant)}"
            )
        response = deposit(challenge)
        _send(t, Message(protocol, Kind.DEPOSIT, (response.deposit,)))
        _send(t, Message(protocol, Kind.LETTER, (response.letter,)))
        if seal is not None:
            seal(t)
        if ack:
            _expect(t, protocol, Kind.ACK)
        return SessionOutcome(None, None, log)
    finally:
        transport.close()


def run_exchange(
    role: BobP1 | AliceP1 | BobP2 | AliceP2,
    transport: Transport,
    rng: Rng | None = None,
    *,
    ack: bool = True,
) -> SessionOutcome:
    """Drive one endpoint through a full exchange, then close the transport."""
    if isinstance(role, BobP1):
        return _bob(
            transport,
            Protocol.P1,
            role.variant,
            lambda: p1_init(
                role.params, role.secret, role.variant, rng, nonce=role.nonce
            ),
            lambda state, *pair: p1_recover(state, Response1(*pair)),
            ack,
        )
    if isinstance(role, BobP2):
        return _bob(
            transport,
            Protocol.P2,
            role.variant,
            lambda: p2_init(role.params, rng, nonce=role.nonce),
            lambda state, *pair: p2_recover(state, role.variant, Response2(*pair)),
            ack,
        )
    if isinstance(role, (AliceP1, AliceP2)):
        p1 = isinstance(role, AliceP1)

        def deposit(challenge: int) -> Response1 | Response2:
            step = p1_deposit if p1 else p2_deposit
            return step(role.params, role.variant, challenge, role.secrets)

        protocol = Protocol.P1 if p1 else Protocol.P2
        return _alice(transport, protocol, role.variant, deposit, ack)
    transport.close()
    raise TypeError(f"not a session role: {role!r}")


def _run_both(bob_fn, alice_fn, transports=None):
    """Run bob_fn(bob_end) and alice_fn(alice_end) on two threads.

    transports defaults to a fresh memory pair. When one endpoint fails
    and the other then dies of the dropped connection, the meaningful
    error is the one re-raised: a TransportClosedError only when nothing
    else failed, and a PiggyBankError before any other error.
    """
    bob_end, alice_end = transports or memory_pair()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(bob_fn, bob_end), pool.submit(alice_fn, alice_end)]
        results, errors = [], []
        for future in futures:
            try:
                results.append(future.result(timeout=_JOIN_TIMEOUT))
            except Exception as exc:  # re-raised below, most meaningful first
                errors.append(exc)
    errors.sort(
        key=lambda exc: (
            isinstance(exc, TransportClosedError),
            not isinstance(exc, PiggyBankError),
        )
    )
    if errors:
        raise errors[0]
    return tuple(results)


def run_pair(
    bob: BobP1 | BobP2,
    alice: AliceP1 | AliceP2,
    rng: Rng | None = None,
    *,
    ack: bool = True,
) -> tuple[SessionOutcome, SessionOutcome]:
    """Run both endpoints over an in-memory pair; rng feeds Bob's nonce."""
    return _run_both(
        lambda end: run_exchange(bob, end, rng, ack=ack),
        lambda end: run_exchange(alice, end, ack=ack),
    )


# --- trope: sealed contents manifest on top of a BASE exchange ---


def _stream_xor(key: int, data: bytes, hash_alg: str) -> bytes:
    """XOR data with the counter-mode stream hash(key bytes || 8-byte
    counter), blocks concatenated; the same call seals and unseals."""
    blocks = -(-len(data) // hashlib.new(hash_alg).digest_size)
    stream = b"".join(
        hashlib.new(hash_alg, natural_bytes(key) + i.to_bytes(8, "big")).digest()
        for i in range(blocks)
    )
    return bytes(a ^ b for a, b in zip(data, stream))


def _manifest_digest(secret: int, description: bytes, hash_alg: str) -> bytes:
    # Binds the deposited secret AND the stated contents: a manifest must
    # not survive edits to either half. With an empty description this is
    # exactly the hash of the secret's canonical encoding.
    return hashlib.new(hash_alg, natural_bytes(secret) + description).digest()


def _require_fixed_digest(hash_alg: str, transport: Transport) -> None:
    """Trope sizes its keystream blocks and its manifest digest by the
    hash's digest size; refuse, and close the transport, before any frame
    when hash_alg is unknown or has no fixed size (shake_128, shake_256)."""
    try:
        fixed = hashlib.new(hash_alg).digest_size > 0
    except ValueError:
        fixed = False
    if not fixed:
        transport.close()
        raise ValueError(
            f"trope needs a hash with a fixed digest size, not {hash_alg!r}"
        )


def run_trope_alice(
    params: RsaParams,
    deposit_secret: int,
    manifest_text: str,
    transport: Transport,
    *,
    rng: Rng | None = None,
    letter_key: int | None = None,
    hash_alg: str = "sha256",
    ack: bool = True,
) -> SessionOutcome:
    """Deposit a secret plus a sealed manifest naming what was deposited."""
    _require_fixed_digest(hash_alg, transport)

    def deposit(challenge: int) -> Response1:
        nonlocal letter_key
        if letter_key is None:
            if rng is None:
                raise ValueError("sampling a letter key requires an rng")
            letter_key = rng.randbelow(params.n)
        secrets = AliceSecrets1(deposit_secret, letter_key)
        return p1_deposit(params, Variant1.BASE, challenge, secrets)

    def seal(t: Transport) -> None:
        description = manifest_text.encode("utf-8")
        digest = _manifest_digest(deposit_secret, description, hash_alg)
        plain = len(description).to_bytes(4, "big") + description + digest
        sealed = _stream_xor(letter_key, plain, hash_alg)
        _send(t, Message(Protocol.TROPE, Kind.LETTER, (), sealed))

    return _alice(transport, Protocol.TROPE, Variant1.BASE, deposit, ack, seal)


def run_trope_bob(
    params: RsaParams,
    secret: RsaSecret,
    transport: Transport,
    *,
    rng: Rng | None = None,
    nonce: int | None = None,
    hash_alg: str = "sha256",
    ack: bool = True,
) -> SessionOutcome:
    """Open the box: recover S and K, unseal the manifest, check its digest."""
    _require_fixed_digest(hash_alg, transport)

    def unseal(t: Transport, recovered: Recovered1) -> bool:
        sealed_msg = _expect(t, Protocol.TROPE, Kind.LETTER)
        if sealed_msg.fields:
            raise HandshakeError("the sealed manifest carries only a blob")
        plain = _stream_xor(recovered.key, sealed_msg.blob, hash_alg)
        # plaintext: 4-byte description length, description, digest; a
        # length prefix that misstates the rest leaves a digest of the
        # wrong size, which fails the check
        desc_len = int.from_bytes(plain[:4], "big")
        description, digest = plain[4 : 4 + desc_len], plain[4 + desc_len :]
        return len(digest) == hashlib.new(hash_alg).digest_size and (
            _manifest_digest(recovered.secret, description, hash_alg) == digest
        )

    return _bob(
        transport,
        Protocol.TROPE,
        Variant1.BASE,
        lambda: p1_init(params, secret, Variant1.BASE, rng, nonce=nonce),
        lambda state, *pair: p1_recover(state, Response1(*pair)),
        ack,
        unseal,
    )


def run_trope_session(
    params: RsaParams,
    secret: RsaSecret,
    deposit_secret: int,
    manifest_text: str,
    *,
    rng: Rng,
    hash_alg: str = "sha256",
    nonce: int | None = None,
    letter_key: int | None = None,
    transports: tuple[Transport, Transport] | None = None,
    ack: bool = True,
) -> SessionOutcome:
    """Drive both trope endpoints and return the box owner's outcome.

    transports, when given, is the (bob_end, alice_end) pair to run over,
    e.g. pre-wrapped in a tampering tap; default is a fresh memory pair.
    The rng is split deterministically between the two threads.
    """
    bob_rng, alice_rng = rng.derive(1), rng.derive(2)
    bob_outcome, _ = _run_both(
        lambda end: run_trope_bob(
            params, secret, end, rng=bob_rng, nonce=nonce, hash_alg=hash_alg, ack=ack
        ),
        lambda end: run_trope_alice(
            params,
            deposit_secret,
            manifest_text,
            end,
            rng=alice_rng,
            letter_key=letter_key,
            hash_alg=hash_alg,
            ack=ack,
        ),
        transports,
    )
    return bob_outcome
