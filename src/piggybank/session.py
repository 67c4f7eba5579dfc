"""Endpoint scripts for the exchanges, and the runners that drive them.

Each exchange is four frames: Bob opens with a challenge carrying the
variant code, Alice answers with deposit and letter frames, Bob closes
with an ack once recovery succeeds. One box-owner script (_bob) and one
depositor script (_alice) run every protocol. A script is a generator:
it yields each frame to send, yields None to take the next frame, and
returns (recovered, manifest_ok). _drive runs one over any blocking
Transport; _run_both steps both ends of an in-process session on the
caller's thread. Each endpoint records its transcript via a tap.

Trope is BASE plus one hook on each script, run by its own two roles
(BobTrope, AliceTrope), which run_pair and run_exchange drive as they
drive the P1 and P2 roles. Alice's seal hook returns a fifth frame: a
manifest naming the deposited goods and a digest binding them to the
secret, encrypted with her key value as a stream-cipher key. Bob's
unseal hook takes it after recovery and reports whether the digest
checks out; a failed check is a verdict, not an abort.
"""

from __future__ import annotations

import hashlib
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
from .wire import _MAX_FRAME, Kind, Message, Protocol, decode_msg, encode_msg
from .wire import natural_bytes


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
class BobTrope:
    params: RsaParams
    secret: RsaSecret
    nonce: int | None = None
    hash_alg: str = "sha256"


@dataclass(frozen=True)
class AliceTrope:
    params: RsaParams
    deposit_secret: int
    manifest_text: str
    letter_key: int | None = None  # sampled from rng when None
    hash_alg: str = "sha256"


@dataclass(frozen=True)
class SessionOutcome:
    """What one endpoint got out of a session.

    recovered is None on the depositing side. manifest_ok is None except
    for the trope box owner, who reports the digest verdict here.
    """

    recovered: Recovered1 | Outcome2 | None
    manifest_ok: bool | None
    transcript: TapLog


def _expect(frame: bytes, protocol: Protocol, kind: Kind) -> Message:
    msg = decode_msg(frame)
    if msg.protocol is not protocol:
        raise HandshakeError(
            f"peer speaks {msg.protocol.name}, this endpoint runs {protocol.name}"
        )
    if msg.kind is not kind:
        raise HandshakeError(f"expected {kind.name}, got {msg.kind.name}")
    return msg


def _bob(role, rng, protocol=None, unseal=None):
    """The box owner's script: challenge, take deposit and letter, recover, ack.

    rng feeds the nonce. Trope runs a BASE BobP1 under Protocol.TROPE with
    unseal(frame, recovered), which takes one more frame after recovery and
    returns the manifest verdict.
    """
    p1 = isinstance(role, BobP1)
    protocol = protocol or (Protocol.P1 if p1 else Protocol.P2)
    if p1:
        state = p1_init(role.params, role.secret, role.variant, rng, nonce=role.nonce)
    else:
        state = p2_init(role.params, rng, nonce=role.nonce)
    fields = (int(role.variant), state.challenge_sent)
    yield encode_msg(Message(protocol, Kind.CHALLENGE, fields))
    deposit = _expect((yield), protocol, Kind.DEPOSIT)
    letter = _expect((yield), protocol, Kind.LETTER)
    if len(deposit.fields) != 1 or len(letter.fields) != 1:
        raise HandshakeError("deposit and letter each carry exactly one field")
    pair = deposit.fields[0], letter.fields[0]
    if p1:
        recovered = p1_recover(state, Response1(*pair))
    else:
        recovered = p2_recover(state, role.variant, Response2(*pair))
    manifest_ok = None if unseal is None else unseal((yield), recovered)
    yield encode_msg(Message(protocol, Kind.ACK))
    return recovered, manifest_ok


def _alice(protocol, variant, deposit, seal=None):
    """The depositor's script: answer the challenge with deposit and letter.

    deposit(challenge) returns the response to send. seal(), when given,
    returns one more frame to send before the ack.
    """
    challenge_msg = _expect((yield), protocol, Kind.CHALLENGE)
    if len(challenge_msg.fields) != 2:
        raise HandshakeError("challenge carries a variant code and a value")
    variant_code, challenge = challenge_msg.fields
    if variant_code != int(variant):
        raise HandshakeError(
            f"peer runs variant {variant_code}, "
            f"this endpoint is configured for {int(variant)}"
        )
    response = deposit(challenge)
    yield encode_msg(Message(protocol, Kind.DEPOSIT, (response.deposit,)))
    yield encode_msg(Message(protocol, Kind.LETTER, (response.letter,)))
    if seal is not None:
        yield seal()
    _expect((yield), protocol, Kind.ACK)
    return None, None


def _script(role, rng):
    """The script of one session role; rng feeds a box owner's nonce and
    a trope depositor's letter key."""
    if isinstance(role, (BobP1, BobP2)):
        return (yield from _bob(role, rng))
    if isinstance(role, BobTrope):
        return (yield from _trope_bob(role, rng))
    if isinstance(role, AliceTrope):
        return (yield from _trope_alice(role, rng))
    if not isinstance(role, (AliceP1, AliceP2)):
        raise TypeError(f"not a session role: {role!r}")
    p1 = isinstance(role, AliceP1)

    def deposit(challenge: int) -> Response1 | Response2:
        step = p1_deposit if p1 else p2_deposit
        return step(role.params, role.variant, challenge, role.secrets)

    protocol = Protocol.P1 if p1 else Protocol.P2
    return (yield from _alice(protocol, role.variant, deposit))


def _drive(script, transport: Transport) -> SessionOutcome:
    """Run one script over a blocking transport, then close the transport."""
    side = _Side(script, transport)
    side.step(receive=False)
    while side.result is None:
        side.step(receive=True)
    if isinstance(side.result, Exception):
        raise side.result
    return side.result


def run_exchange(
    role: BobP1 | AliceP1 | BobP2 | AliceP2 | BobTrope | AliceTrope,
    transport: Transport,
    rng: Rng | None = None,
) -> SessionOutcome:
    """Drive one endpoint through a full exchange, then close the transport."""
    return _drive(_script(role, rng), transport)


class _Side:
    """One running script, its tapped end, and the frames it sent and read."""

    def __init__(self, script, end: Transport) -> None:
        self.script, self.end = script, end
        self.tap, self.log = tap_attach(end)
        self.sent = self.read = 0
        self.result: SessionOutcome | Exception | None = None  # None: running

    def can_receive(self, peer: _Side) -> bool:
        """Waiting on a frame peer sent, or on its close, and it is here."""
        waited = peer.sent > self.read or peer.result is not None
        return self.result is None and waited and self.tap.ready()

    def step(self, receive: bool) -> None:
        """Feed the script the next frame (when receive) and send what it
        yields until it waits for a frame or ends, closing the end."""
        try:
            reply = self.tap.recv() if receive else None
            self.read += receive
            while (frame := self.script.send(reply)) is not None:
                self.tap.send(frame)
                self.sent += 1
                reply = None
        except StopIteration as done:
            self.finish(SessionOutcome(*done.value, self.log))
        except Exception as exc:  # raised by the runner, once ranked
            self.finish(exc)

    def finish(self, result: SessionOutcome | Exception) -> None:
        self.result = result
        self.end.close()


def _run_both(bob_script, alice_script, transports=None):
    """Step both scripts on the caller's thread; return both outcomes.

    transports defaults to a fresh memory pair. When neither side can
    receive, the unfinished ones fail at once. The error raised is the
    most meaningful: a TransportClosedError only when nothing else failed,
    and a PiggyBankError before any other error.
    """
    ends = transports or memory_pair()
    bob, alice = sides = [_Side(bob_script, ends[0]), _Side(alice_script, ends[1])]
    for side in sides:
        side.step(receive=False)
    while ready := [s for s, p in ((bob, alice), (alice, bob)) if s.can_receive(p)]:
        ready[0].step(receive=True)
    for side in sides:
        if side.result is None:
            side.finish(TransportClosedError("neither endpoint can move"))
    errors = [side.result for side in sides if isinstance(side.result, Exception)]
    errors.sort(key=lambda exc: not isinstance(exc, PiggyBankError))
    errors.sort(key=lambda exc: isinstance(exc, TransportClosedError))  # stable
    if errors:
        raise errors[0]
    return bob.result, alice.result


def run_pair(
    bob: BobP1 | BobP2 | BobTrope,
    alice: AliceP1 | AliceP2 | AliceTrope,
    rng: Rng | None = None,
) -> tuple[SessionOutcome, SessionOutcome]:
    """Run both endpoints over an in-memory pair; rng feeds Bob's nonce.
    Alice gets no rng, so an AliceTrope must carry its letter_key."""
    return _run_both(_script(bob, rng), _script(alice, None))


# --- trope: sealed contents manifest on top of a BASE exchange ---


def _stream_xor(key: int, data: bytes, hash_alg: str) -> bytes:
    """XOR data with the counter-mode stream hash(key bytes || 8-byte
    counter), blocks concatenated; the same call seals and unseals."""
    keyed = hashlib.new(hash_alg, natural_bytes(key))
    blocks = []
    for i in range(-(-len(data) // keyed.digest_size)):
        block = keyed.copy()
        block.update(i.to_bytes(8, "big"))
        blocks.append(block.digest())
    stream = int.from_bytes(b"".join(blocks)[: len(data)], "big")
    return (int.from_bytes(data, "big") ^ stream).to_bytes(len(data), "big")


def _manifest_digest(secret: int, description: bytes, hash_alg: str) -> bytes:
    # Binds the deposited secret AND the stated contents: a manifest must
    # not survive edits to either half. With an empty description this is
    # exactly the hash of the secret's canonical encoding.
    return hashlib.new(hash_alg, natural_bytes(secret) + description).digest()


def _require_fixed_digest(hash_alg: str) -> None:
    """Trope sizes its keystream blocks and its manifest digest by the
    hash's digest size; its scripts first refuse, before any frame, a
    hash_alg that is unknown or has no fixed size (shake_128, shake_256)."""
    try:
        if hashlib.new(hash_alg).digest_size > 0:
            return
    except ValueError:
        pass
    raise ValueError(f"trope needs a hash with a fixed digest size, not {hash_alg!r}")


def _require_manifest_fits(text: str, hash_alg: str) -> None:
    """Refuse, before any frame is sent, a manifest whose sealed frame would
    pass the frame limit that every peer's decoder enforces."""
    _require_fixed_digest(hash_alg)
    # the sealed plaintext: 4-byte description length, description, digest
    plain = 4 + len(text.encode("utf-8")) + hashlib.new(hash_alg).digest_size
    size = len(encode_msg(Message(Protocol.TROPE, Kind.LETTER))) + plain
    if size > _MAX_FRAME:
        raise ValueError(
            f"the manifest seals into a {size}-byte frame, "
            f"over the {_MAX_FRAME}-byte frame limit"
        )


def _trope_alice(role: AliceTrope, rng):
    """The depositor's trope script: BASE plus the sealed manifest frame."""
    _require_fixed_digest(role.hash_alg)
    letter_key = role.letter_key

    def deposit(challenge: int) -> Response1:
        nonlocal letter_key
        if letter_key is None:
            if rng is None:
                raise ValueError("sampling a letter key requires an rng")
            letter_key = rng.randbelow(role.params.n)
        secrets = AliceSecrets1(role.deposit_secret, letter_key)
        return p1_deposit(role.params, Variant1.BASE, challenge, secrets)

    def seal() -> bytes:
        description = role.manifest_text.encode("utf-8")
        digest = _manifest_digest(role.deposit_secret, description, role.hash_alg)
        plain = len(description).to_bytes(4, "big") + description + digest
        sealed = _stream_xor(letter_key, plain, role.hash_alg)
        return encode_msg(Message(Protocol.TROPE, Kind.LETTER, (), sealed))

    return (yield from _alice(Protocol.TROPE, Variant1.BASE, deposit, seal))


def _trope_bob(role: BobTrope, rng):
    """The box owner's trope script: BASE, then unseal and check the manifest."""
    hash_alg = role.hash_alg
    _require_fixed_digest(hash_alg)

    def unseal(frame: bytes, recovered: Recovered1) -> bool:
        sealed_msg = _expect(frame, Protocol.TROPE, Kind.LETTER)
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

    box = BobP1(role.params, role.secret, Variant1.BASE, role.nonce)
    return (yield from _bob(box, rng, Protocol.TROPE, unseal))


def run_trope_alice(
    params: RsaParams,
    deposit_secret: int,
    manifest_text: str,
    transport: Transport,
    *,
    rng: Rng | None = None,
    letter_key: int | None = None,
    hash_alg: str = "sha256",
) -> SessionOutcome:
    """Deposit a secret plus a sealed manifest naming what was deposited."""
    role = AliceTrope(params, deposit_secret, manifest_text, letter_key, hash_alg)
    return _drive(_script(role, rng), transport)


def run_trope_bob(
    params: RsaParams,
    secret: RsaSecret,
    transport: Transport,
    *,
    rng: Rng | None = None,
    nonce: int | None = None,
    hash_alg: str = "sha256",
) -> SessionOutcome:
    """Open the box: recover S and K, unseal the manifest, check its digest."""
    role = BobTrope(params, secret, nonce, hash_alg)
    return _drive(_script(role, rng), transport)


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
) -> SessionOutcome:
    """Drive both trope endpoints and return the box owner's outcome.

    transports, when given, is the (bob_end, alice_end) pair to run over,
    e.g. pre-wrapped in a tampering tap; default is a fresh memory pair.
    The box owner draws from rng.derive(1) and the depositor from
    rng.derive(2).
    """
    bob = BobTrope(params, secret, nonce, hash_alg)
    alice = AliceTrope(params, deposit_secret, manifest_text, letter_key, hash_alg)
    scripts = _script(bob, rng.derive(1)), _script(alice, rng.derive(2))
    return _run_both(*scripts, transports)[0]
