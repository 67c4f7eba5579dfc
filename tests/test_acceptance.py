"""Acceptance gate: nine checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside the pytest report. Each check owns its tolerances; the
statistical ones run on fixed seeds and documented sample sizes.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from piggybank import (
    AliceSecrets1,
    AliceSecrets2,
    CascadeConfig,
    ChannelModel,
    DegenerateCaseError,
    DhParams,
    DigestConfig,
    Kind,
    Message,
    Protocol,
    Recovered1,
    Rng,
    RsaParams,
    RsaSecret,
    SiftedPair,
    TamperRule,
    Variant1,
    Variant2,
    WireError,
    cascade_reconcile,
    channel_transmit,
    decode_msg,
    encode_msg,
    gen_dh,
    gen_rsa,
    generate_round,
    memory_pair,
    mod_exp,
    p1_deposit,
    p1_init,
    p1_recover,
    p2_deposit,
    p2_init,
    p2_recover,
    rand_residue,
    run_digest_protocol,
    run_trope_session,
    sift,
    tap_attach,
)

DESK_RSA = (RsaParams(51, 3), RsaSecret(3, 17, 32, 11))
DESK_DH = DhParams(37, 2)


@contextmanager
def verdict(number: int, detail: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {detail}", flush=True)
        raise
    print(f"PASS criterion {number}: {detail}", flush=True)


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_trapdoor_worked_example():
    params, secret = DESK_RSA

    def run():
        state = p1_init(params, secret, Variant1.BASE, nonce=13)
        response = p1_deposit(
            params, Variant1.BASE, state.challenge_sent, AliceSecrets1(5, 29)
        )
        return state.challenge_sent, response, p1_recover(state, response)

    with verdict(1, "trapdoor worked example, challenge/deposit/letter 4/49/23"):
        challenge, response, recovered = run()
        assert challenge == 4
        assert response.deposit == 49
        assert response.letter == 23
        assert recovered == Recovered1(5, 29)
        assert best_time(run) < 1e-3


def test_criterion_2_prime_field_worked_example():
    def run():
        state = p2_init(DESK_DH, nonce=11)
        response = p2_deposit(
            DESK_DH, Variant2.ADDITIVE, state.challenge_sent, AliceSecrets2(3, 10)
        )
        return state, response, p2_recover(state, Variant2.ADDITIVE, response)

    with verdict(2, "prime-field worked example, both sides share 14"):
        state, response, outcome = run()
        assert state.challenge_sent == 13
        assert response.deposit == 24
        assert response.letter == 8
        assert outcome.key == 10
        assert outcome.shared == 14
        # the depositing side computes the same shared value from the challenge
        assert mod_exp(state.challenge_sent, 3, 37) == 14
        assert best_time(run) < 1e-3


def test_criterion_3_exhaustive_desk_scale():
    params, secret = DESK_RSA
    n = params.n
    units = [r for r in range(1, n) if math.gcd(r, n) == 1]
    nonce_space = {
        Variant1.BASE: range(1, n),
        Variant1.UNIT_R: (1,),
        Variant1.MULTIPLICATIVE: units,
        Variant1.PLAIN_R: range(1, n),
        Variant1.PLAIN_R_KEYED: units,
    }

    with verdict(3, "exhaustive recovery at n=51 and p=37, every admissible input"):
        start = time.perf_counter()

        checked = 0
        for variant, nonces in nonce_space.items():
            for nonce in nonces:
                state = p1_init(params, secret, variant, nonce=nonce)
                for s in range(1, n):
                    for k in range(n):
                        response = p1_deposit(
                            params, variant, state.challenge_sent, AliceSecrets1(s, k)
                        )
                        recovered = p1_recover(state, response)
                        assert recovered.secret == s, (variant, nonce, s, k)
                        expected_key = (
                            None if variant is Variant1.MULTIPLICATIVE else k
                        )
                        assert recovered.key == expected_key, (variant, nonce, s, k)
                        checked += 1
        assert checked == 2 * 50 * 50 * 51 + 50 * 51 + 2 * 32 * 50 * 51

        p = DESK_DH.p
        checked = 0
        skipped = 0
        for variant in Variant2:
            k_lo = 0 if variant is Variant2.ADDITIVE else 1
            for nonce in range(1, p - 1):
                state = p2_init(DESK_DH, nonce=nonce)
                for s in range(1, p - 1):
                    for k in range(k_lo, p):
                        try:
                            response = p2_deposit(
                                DESK_DH,
                                variant,
                                state.challenge_sent,
                                AliceSecrets2(s, k),
                            )
                        except DegenerateCaseError:
                            # only the t = p-1 blind spot may be skipped
                            assert variant is Variant2.MULTIPLICATIVE
                            assert pow(2, nonce * s, p) == p - 1
                            skipped += 1
                            continue
                        outcome = p2_recover(state, variant, response)
                        assert outcome.key == k, (variant, nonce, s, k)
                        assert outcome.shared == pow(2, nonce * s, p)
                        checked += 1
        assert checked + skipped == 35 * 35 * 37 + 35 * 35 * 36
        assert skipped > 0  # the degenerate ridge exists and was stepped over

        assert time.perf_counter() - start < 60.0


def test_criterion_4_scale_roundtrip():
    with verdict(4, "100 random exchanges at 512-bit n and 256-bit safe prime"):
        start = time.perf_counter()
        rng = Rng(4242)

        params, secret = gen_rsa(512, 3, rng)
        assert params.n.bit_length() == 512
        variants = list(Variant1)
        for i in range(100):
            variant = variants[i % len(variants)]
            state = p1_init(params, secret, variant, rng)
            s = rand_residue(params.n, False, rng)
            k = rng.randbelow(params.n)
            response = p1_deposit(
                params, variant, state.challenge_sent, AliceSecrets1(s, k)
            )
            recovered = p1_recover(state, response)
            assert recovered.secret == s
            if variant is not Variant1.MULTIPLICATIVE:
                assert recovered.key == k

        group = gen_dh(256, rng)
        assert group.p.bit_length() == 256
        done = 0
        while done < 100:
            variant = list(Variant2)[done % 2]
            state = p2_init(group, rng)
            s = 1 + rng.randbelow(group.p - 2)
            if variant is Variant2.ADDITIVE:
                k = rng.randbelow(group.p)
            else:
                k = 1 + rng.randbelow(group.p - 1)
            try:
                response = p2_deposit(
                    group, variant, state.challenge_sent, AliceSecrets2(s, k)
                )
            except DegenerateCaseError:  # pragma: no cover - 2^-256 event
                continue
            outcome = p2_recover(state, variant, response)
            assert outcome.key == k
            assert outcome.shared == mod_exp(response.letter, state.nonce, group.p)
            done += 1

        assert time.perf_counter() - start < 30.0


def test_criterion_5_codec_fuzz():
    with verdict(5, "10^4 valid frames round-trip, 10^4 byte strings only raise"):
        rnd = random.Random(55)
        protocols, kinds = list(Protocol), list(Kind)
        for _ in range(10_000):
            protocol = rnd.choice(protocols)
            kind = rnd.choice(kinds)
            fields = tuple(
                rnd.getrandbits(rnd.randrange(0, 256))
                for _ in range(rnd.randrange(4))
            )
            blob = rnd.randbytes(rnd.randrange(32))
            msg = Message(protocol, kind, fields, blob)
            assert decode_msg(encode_msg(msg)) == msg

        for i in range(10_000):
            data = rnd.randbytes(rnd.randrange(48))
            if i % 2:  # half the inputs get past the magic check
                data = b"PBNK" + data
            try:
                decode_msg(data)
            except WireError:
                pass


def test_criterion_6_intercept_resend_qber():
    with verdict(6, "full interception disturbs 25% +/- 1% of the sifted key"):
        rng = Rng(42)
        pulses = 200_000
        train, bob_bases = generate_round(pulses, rng)
        bob_bits = channel_transmit(
            train, bob_bases, ChannelModel(eve_fraction=1.0), rng
        )
        pair = sift(train, bob_bases, bob_bits)
        assert len(pair) > 90_000
        qber = np.count_nonzero(pair.alice_key != pair.bob_key) / len(pair)
        assert abs(qber - 0.25) <= 0.01, f"measured {qber:.4f}"


def test_criterion_7_cascade_reliability():
    with verdict(7, "cascade repairs 1024-bit keys at 3% in >=99% of 200 trials"):
        successes = 0
        for trial in range(200):
            g = Rng(0).derive(trial)
            alice = g.np.integers(0, 2, 1024, dtype=np.uint8)
            flips = (g.np.random(1024) < 0.03).astype(np.uint8)
            bob = alice ^ flips
            config = CascadeConfig(
                passes=4, qber_hint=0.03, shuffle_seed=g.getrandbits(64)
            )
            pair = SiftedPair(alice, bob)
            # any flip on an already-correct bit raises and fails the test
            result = cascade_reconcile(pair, config)
            if result.success:
                assert np.array_equal(result.corrected_bob_key, alice)
                successes += 1
        assert successes >= 198, f"{successes}/200 trials converged"


def test_criterion_8_digest_rounds_match_geometric_law():
    with verdict(8, "digest retry count matches the geometric law within 5%"):
        trials = 10_000
        model = ChannelModel(p_noise=0.01)
        config = DigestConfig("sha256", 64)
        total_rounds = 0
        for trial in range(trials):
            run = run_digest_protocol(128, model, config, 1000, Rng(8).derive(trial))
            assert np.array_equal(run.alice_key, run.bob_key)
            total_rounds += run.rounds
        mean_rounds = total_rounds / trials
        analytic = 1.0 / (1.0 - 0.01) ** 64
        assert abs(mean_rounds - analytic) / analytic < 0.05, (
            f"mean {mean_rounds:.4f} vs analytic {analytic:.4f}"
        )


def test_criterion_9_trope_tamper_exhaustive():
    params, secret = DESK_RSA
    manifest = "three gold coins"

    def run_once(tamper=()):
        bob_end, alice_end = memory_pair()
        if tamper:
            alice_end, _ = tap_attach(alice_end, tamper=tamper)
        return run_trope_session(
            params,
            secret,
            5,
            manifest,
            rng=Rng(0),
            nonce=13,
            letter_key=29,
            transports=(bob_end, alice_end),
        )

    with verdict(9, "honest manifest verifies; all 416 single-bit forgeries fail"):
        honest = run_once()
        assert honest.manifest_ok is True
        sealed_len = len(honest.transcript.entries[3].message.blob)
        assert sealed_len == 4 + len(manifest.encode()) + 32

        unnoticed = []
        for byte_index in range(sealed_len):
            for bit in range(8):
                # frame 3 on the depositor's side is the sealed manifest;
                # its blob starts after the 13 header and length bytes
                outcome = run_once(tamper=(TamperRule(3, 13 + byte_index, bit),))
                if outcome.manifest_ok is not False:
                    unnoticed.append((byte_index, bit))
        assert not unnoticed, f"{len(unnoticed)} forgeries went unnoticed"
