"""The benchmark's workloads: set-up, seeded op streams, and checked ops.

Every call into piggybank goes through a module attribute (session.run_pair,
not a name imported here), so a Tracer that wraps those attributes sees it.
Inputs come from Python's own random.Random(seed), never from the program's
Rng, so a change to the program's random streams cannot change the inputs;
only key generation and nonces, which take the program's Rng by API, use it.
"""

from __future__ import annotations

import hashlib
import queue
import random
import threading
from dataclasses import dataclass

from piggybank import numtheory, protocol1, protocol2, qkd, session, transport

HOST = "127.0.0.1"
_RESULT_TIMEOUT = 90.0
FINGERPRINT_OPS = 1024

# Round-robin order of the eight session kinds.
KINDS = (
    ("p1", protocol1.Variant1.BASE),
    ("p1", protocol1.Variant1.UNIT_R),
    ("p1", protocol1.Variant1.MULTIPLICATIVE),
    ("p1", protocol1.Variant1.PLAIN_R),
    ("p1", protocol1.Variant1.PLAIN_R_KEYED),
    ("p2", protocol2.Variant2.ADDITIVE),
    ("p2", protocol2.Variant2.MULTIPLICATIVE),
    ("trope", None),
)


@dataclass(frozen=True)
class Outcome:
    """failure is None for an op whose outputs all checked out."""

    failure: str | None
    records: tuple = ()


@dataclass(frozen=True)
class SessionOp:
    kind: int
    secret: int  # P1/trope: deposited secret S; P2: Alice's exponent
    key: int  # K (the trope letter key)
    nonce_seed: int  # seeds the Rng that feeds Bob's nonce
    text: str  # trope manifest

    @property
    def label(self) -> str:
        proto, variant = KINDS[self.kind]
        return proto if variant is None else f"{proto}.{variant.name}"


class _Peer:
    """Bob over TCP: one worker thread, one accepted connection per job."""

    def __init__(self) -> None:
        self.listener = transport.tcp_listen(HOST, 0)
        self.port = self.listener.getsockname()[1]
        self._jobs: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._serve, name="bob", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            try:
                result = job(transport.tcp_accept(self.listener))
            except Exception as exc:  # handed to the caller, who counts it
                result = exc
            self._results.put(result)

    def session(self, bob, alice, tamper=()):
        """Run bob on the worker and alice here; return both outcomes."""
        self._jobs.put(bob)
        alice_error = None
        try:
            end = transport.tcp_connect(HOST, self.port)
            if tamper:
                end, _ = transport.tap_attach(end, tamper)
            alice_out = alice(end)
        except Exception as exc:  # Bob's error, if any, says more
            alice_error = exc
        bob_out = self._results.get(timeout=_RESULT_TIMEOUT)
        if isinstance(bob_out, Exception):
            raise bob_out
        if alice_error is not None:
            raise alice_error
        return bob_out, alice_out

    def close(self) -> None:
        self._jobs.put(None)
        self._thread.join(timeout=_RESULT_TIMEOUT)
        self.listener.close()


class SessionWorkload:
    """The eight session kinds in round-robin, in process or over TCP."""

    def __init__(self, rsa_bits: int, dh_bits: int, tcp: bool) -> None:
        self.rsa_bits, self.dh_bits, self.tcp = rsa_bits, dh_bits, tcp
        self.tamper: tuple = ()

    def setup(self, key_seed: int) -> None:
        """Keys from the package's generators; over TCP, bind and start Bob."""
        self.rsa = numtheory.gen_rsa(self.rsa_bits, 3, numtheory.Rng(key_seed))
        self.dh = numtheory.gen_dh(self.dh_bits, numtheory.Rng(key_seed))
        self.peer = _Peer() if self.tcp else None

    def close(self) -> None:
        if self.peer is not None:
            self.peer.close()

    def fingerprint_items(self):
        (params, secret), dh = self.rsa, self.dh
        return [params.n, params.e, secret.d, dh.p, dh.g]

    def ops(self, seed: int):
        rnd = random.Random(seed)
        n, p = self.rsa[0].n, self.dh.p
        i = 0
        while True:
            kind = i % len(KINDS)
            proto, variant = KINDS[kind]
            if proto == "p2":
                secret = rnd.randrange(1, p - 1)
                low = 1 if variant is protocol2.Variant2.MULTIPLICATIVE else 0
                key = rnd.randrange(low, p)
            else:
                secret, key = rnd.randrange(1, n), rnd.randrange(0, n)
            text = f"box {i}: {rnd.getrandbits(64):016x}" if proto == "trope" else ""
            yield SessionOp(kind, secret, key, rnd.getrandbits(64), text)
            i += 1

    def run(self, op: SessionOp) -> Outcome:
        proto, variant = KINDS[op.kind]
        params, secret = self.rsa
        rng = numtheory.Rng(op.nonce_seed)
        if proto == "trope":
            bob_out, alice_out = self._trope(op, rng)
        else:
            if proto == "p1":
                bob = session.BobP1(params, secret, variant)
                alice = session.AliceP1(
                    params, variant, protocol1.AliceSecrets1(op.secret, op.key)
                )
            else:
                bob = session.BobP2(self.dh, variant)
                alice = session.AliceP2(
                    self.dh, variant, protocol2.AliceSecrets2(op.secret, op.key)
                )
            if self.peer is None:
                bob_out, alice_out = session.run_pair(bob, alice, rng)
            else:
                bob_out, alice_out = self.peer.session(
                    lambda end: session.run_exchange(bob, end, rng),
                    lambda end: session.run_exchange(alice, end),
                    self.tamper,
                )
        return Outcome(self.check(op, bob_out, alice_out))

    def _trope(self, op: SessionOp, rng):
        params, secret = self.rsa
        if self.peer is None:
            bob_out = session.run_trope_session(
                params, secret, op.secret, op.text, rng=rng, letter_key=op.key
            )
            return bob_out, None
        return self.peer.session(
            lambda end: session.run_trope_bob(params, secret, end, rng=rng.derive(1)),
            lambda end: session.run_trope_alice(
                params, op.secret, op.text, end, rng=rng.derive(2), letter_key=op.key
            ),
            self.tamper,
        )

    def check(self, op: SessionOp, bob_out, alice_out) -> str | None:
        """Compare what Bob recovered with what Alice put in."""
        proto, variant = KINDS[op.kind]
        got = bob_out.recovered
        frames = 5 if proto == "trope" else 4
        for side, out in (("bob", bob_out), ("alice", alice_out)):
            if out is not None and len(out.transcript.entries) != frames:
                return f"{side} saw {len(out.transcript.entries)} frames, not {frames}"
        if proto == "p2":
            challenge = bob_out.transcript.entries[0].message.fields[1]
            if got.key != op.key:
                return "P2 key differs from Alice's"
            if got.shared != pow(challenge, op.secret, self.dh.p):
                return "P2 shared value is not challenge^secret mod p"
            return None
        if proto == "trope" and bob_out.manifest_ok is not True:
            return "trope manifest_ok is not true"
        want_key = None if variant is protocol1.Variant1.MULTIPLICATIVE else op.key
        if got.secret != op.secret or got.key != want_key:
            return "P1 recovered secret or key differs from Alice's"
        return None


@dataclass(frozen=True)
class QkdOp:
    scenario: qkd.Scenario  # trials=1
    seed: int
    label = "trial"


class QkdWorkload:
    """One-trial compare_strategies studies, each on its own seed."""

    def __init__(self, **fields) -> None:
        self.fields = fields

    def setup(self, key_seed: int) -> None:
        """Nothing beyond the import: each op builds its own scenario."""

    def close(self) -> None:
        pass

    def fingerprint_items(self):
        return sorted(self.fields.items())

    def ops(self, seed: int):
        rnd = random.Random(seed)
        while True:
            trial_seed = rnd.getrandbits(64)
            yield QkdOp(qkd.Scenario(**self.fields, trials=1, seed=trial_seed), trial_seed)

    def run(self, op: QkdOp) -> Outcome:
        report = qkd.compare_strategies(op.scenario, numtheory.Rng(op.seed))
        return Outcome(self.check(op, report), report.records)

    def check(self, op: QkdOp, report) -> str | None:
        """Study invariants; a failed reconciliation is a result, not a fault."""
        records = report.records
        trials = op.scenario.trials
        if len(records) != 2 * trials:
            return f"{len(records)} records for {trials} trials"
        if sorted(r.strategy for r in records) != ["cascade"] * trials + ["digest"] * trials:
            return "records are not one cascade and one digest per trial"
        for r in records:
            # A digest arm that hits max_rounds accepts no bits and fails
            # with zero residual errors, hence the accepted_bits term.
            if r.success != (r.residual_errors == 0 and r.accepted_bits > 0):
                return f"{r.strategy} success disagrees with its residual errors"
            if r.strategy == "digest" and not 1 <= r.rounds <= op.scenario.max_rounds:
                return "digest rounds outside [1, max_rounds]"
            if r.pulses != r.rounds * op.scenario.pulses:
                return "pulses is not rounds times pulses per round"
        return None


WORKLOADS = {
    "session-mem": lambda: SessionWorkload(1024, 256, tcp=False),
    "session-tcp-desk": lambda: SessionWorkload(64, 64, tcp=True),
    "qkd-retry": lambda: QkdWorkload(
        pulses=1024, p_noise=0.03, eve_fraction=0.0, max_rounds=500
    ),
    "qkd-cascade": lambda: QkdWorkload(
        pulses=65536, p_noise=0.02, eve_fraction=0.04, max_rounds=1
    ),
}


def fingerprint(workload, seed: int) -> str:
    """Hash of the keys or scenario and the first FINGERPRINT_OPS ops."""
    digest = hashlib.sha256(repr(workload.fingerprint_items()).encode())
    stream = workload.ops(seed)
    for _ in range(FINGERPRINT_OPS):
        digest.update(repr(next(stream)).encode())
    return digest.hexdigest()[:16]
