"""Channel simulator and strategy-comparison tests.

Statistical checks here use short runs with loose bands; the tight
long-run numbers live in the acceptance suite.
"""

import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os

import numpy as np
import pytest

from piggybank import qkd
from piggybank import (
    ChannelModel,
    DigestConfig,
    NoKeyError,
    PulseTrain,
    Rng,
    Scenario,
    channel_transmit,
    compare_strategies,
    estimate_qber,
    generate_round,
    key_digest,
    parse_scenario,
    render_csv,
    render_table,
    run_digest_protocol,
    sift,
)


class TestGenerateRound:
    def test_shapes_and_values(self):
        train, bob_bases = generate_round(500, Rng(1))
        assert len(train) == 500
        for arr in (train.bits, train.bases, bob_bases):
            assert arr.dtype == np.uint8
            assert arr.shape == (500,)
            assert set(np.unique(arr)) <= {0, 1}

    def test_deterministic(self):
        a_train, a_bases = generate_round(100, Rng(9))
        b_train, b_bases = generate_round(100, Rng(9))
        assert np.array_equal(a_train.bits, b_train.bits)
        assert np.array_equal(a_train.bases, b_train.bases)
        assert np.array_equal(a_bases, b_bases)

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            generate_round(0, Rng(1))

    def test_bits_are_raw_word_bits_least_significant_first(self):
        # Each array takes ceil(n/64) raw words; its bit i is bit i % 64 of
        # its word i // 64.
        words = Rng(4).np.bit_generator.random_raw(9).tolist()
        train, bob_bases = generate_round(130, Rng(4))
        for k, arr in enumerate((train.bits, train.bases, bob_bases)):
            want = [(words[3 * k + i // 64] >> (i % 64)) & 1 for i in range(130)]
            assert arr.tolist() == want


class TestRoundLayout:
    def test_random_below_compares_32_bit_halves_low_half_first(self):
        p = 0.3
        edge = math.ceil(p * 2**32)
        halves = [edge - 1, edge, 0, 2**32 - 1, 5]
        words = np.array(
            [halves[0] | halves[1] << 32, halves[2] | halves[3] << 32, halves[4]],
            dtype=np.uint64,
        )
        below = qkd._random_below(lambda count: words[:count], 5, p)
        assert below.tolist() == [True, False, True, False, True]
        assert qkd._random_below(lambda count: words[:count], 5, 1.0).all()

    @pytest.mark.parametrize(
        "eve,noise,arrays", [(0, 0, 4), (0, 0.1, 4), (0.5, 0.1, 6)]
    )
    def test_round_draws_whole_words(self, eve, noise, arrays):
        # A round of n pulses takes ceil(n/64) words per bit array and
        # ceil(n/2) per random() < p array, and nothing else.
        for n in (1, 63, 64, 65, 129):
            rng = Rng(n)
            train, bob_bases = generate_round(n, rng)
            channel_transmit(train, bob_bases, ChannelModel(noise, eve), rng)
            used = arrays * -(-n // 64) + ((eve > 0) + (noise > 0)) * -(-n // 2)
            assert used == qkd._round_words(n, ChannelModel(noise, eve))
            expected = Rng(n).np.bit_generator.random_raw(used + 1)[-1]
            assert rng.np.bit_generator.random_raw(1)[0] == expected


class TestChannel:
    def test_quiet_channel_matched_bases_copy_exactly(self):
        train, _ = generate_round(300, Rng(2))
        bob_bits = channel_transmit(
            train, train.bases.copy(), ChannelModel(), Rng(3)
        )
        assert np.array_equal(bob_bits, train.bits)

    def test_full_noise_flips_every_matched_bit(self):
        train, _ = generate_round(300, Rng(4))
        bob_bits = channel_transmit(
            train, train.bases.copy(), ChannelModel(p_noise=1.0), Rng(5)
        )
        assert np.array_equal(bob_bits, train.bits ^ 1)

    def test_interceptor_disturbs_quarter_of_sifted_bits(self):
        # full interception: half her bases are wrong, half of those
        # measurements land wrong, so the sifted error rate sits near 1/4
        rng = Rng(6)
        train, bob_bases = generate_round(20000, rng)
        bob_bits = channel_transmit(
            train, bob_bases, ChannelModel(eve_fraction=1.0), rng
        )
        pair = sift(train, bob_bases, bob_bits)
        qber = np.count_nonzero(pair.alice_key != pair.bob_key) / len(pair)
        assert abs(qber - 0.25) < 0.03

    def test_rejects_mismatched_lengths(self):
        train, _ = generate_round(10, Rng(7))
        with pytest.raises(ValueError):
            channel_transmit(train, np.zeros(9, dtype=np.uint8), ChannelModel(), Rng(8))

    @pytest.mark.parametrize("part", ["bits", "bases", "bob_bases"])
    def test_rejects_values_other_than_bits(self, part):
        train, bob_bases = generate_round(16, Rng(9))
        for bad in (
            np.full(16, 2, dtype=np.uint8),
            np.full(16, -1, dtype=np.int64),
            np.zeros(16, dtype=np.float64),
            train.bits.astype(np.float32),
        ):
            arrays = dict(bits=train.bits, bases=train.bases, bob_bases=bob_bases)
            arrays[part] = bad
            with pytest.raises(ValueError, match="0s and 1s"):
                channel_transmit(
                    PulseTrain(arrays["bits"], arrays["bases"]),
                    arrays["bob_bases"],
                    ChannelModel(p_noise=0.1),
                    Rng(10),
                )

    def test_accepts_bool_and_wide_int_bits(self):
        train, bob_bases = generate_round(64, Rng(11))
        model = ChannelModel(p_noise=0.1, eve_fraction=0.2)
        expected = channel_transmit(train, bob_bases, model, Rng(12))
        for dtype in (bool, np.int64):
            wide = PulseTrain(train.bits.astype(dtype), train.bases.astype(dtype))
            got = channel_transmit(wide, bob_bases.astype(dtype), model, Rng(12))
            assert got.dtype == np.uint8
            assert np.array_equal(got, expected)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(p_noise=1.5)
        with pytest.raises(ValueError):
            ChannelModel(eve_fraction=-0.1)


def _pulse_by_pulse_channel(bits, bases, bob_bases, model, rng):
    """channel_transmit as the README states the physics and the raw-word
    layout, one pulse at a time: np.where selects, and each draw's bit
    read from its raw word with Python integers."""
    n = len(bits)
    bits, bases, bob_bases = (np.asarray(a, np.int64) for a in (bits, bases, bob_bases))
    take = rng.np.bit_generator.random_raw

    def random_bits():
        words = take(-(-n // 64)).tolist()
        return np.array([words[i // 64] >> (i % 64) & 1 for i in range(n)])

    def random_below(p):
        words = take(-(-n // 2)).tolist()
        halves = [words[i // 2] >> (32 * (i % 2)) & 0xFFFFFFFF for i in range(n)]
        return np.array(halves) <= math.ceil(p * 2**32) - 1

    send_bits, send_bases = bits, bases
    if model.eve_fraction > 0:
        hit = random_below(model.eve_fraction)
        eve_bases, eve_outcomes = random_bits(), random_bits()
        eve_bits = np.where(eve_bases == bases, bits, eve_outcomes)
        send_bits = np.where(hit, eve_bits, bits)
        send_bases = np.where(hit, eve_bases, bases)
    bob_bits = np.where(bob_bases == send_bases, send_bits, random_bits())
    if model.p_noise > 0:
        bob_bits = np.where(random_below(model.p_noise), 1 - bob_bits, bob_bits)
    return bob_bits


class TestChannelOracle:
    """channel_transmit computes on packed words; the oracle above works
    pulse by pulse, so a slip the word code and the digest arm share
    still shows here."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 1000])
    @pytest.mark.parametrize(
        "model",
        [
            ChannelModel(),
            ChannelModel(p_noise=0.1),
            ChannelModel(eve_fraction=0.4),
            ChannelModel(p_noise=0.1, eve_fraction=0.4),
        ],
        ids=["quiet", "noisy", "eve", "eve-noisy"],
    )
    def test_matches_pulse_by_pulse_physics(self, n, model):
        pick = np.random.default_rng(n)
        for dtype in (np.uint8, bool, np.int64):
            bits, bases, bob_bases = pick.integers(0, 2, (3, n)).astype(dtype)
            ours, oracle = Rng(n), Rng(n)
            got = channel_transmit(PulseTrain(bits, bases), bob_bases, model, ours)
            want = _pulse_by_pulse_channel(bits, bases, bob_bases, model, oracle)
            assert got.dtype == np.uint8 and got.tolist() == want.tolist(), dtype
            # Both drew the same raw words: the streams go on alike.
            following = [r.np.bit_generator.random_raw(2) for r in (ours, oracle)]
            assert np.array_equal(*following), dtype


def sifted_error_rate(model):
    """The closed form e = f/4 + Q - Q*f/2 for noise Q and adversary
    fraction f: half of her hits are in the wrong basis and half of
    those err, so f/4 of the bits err before the noise, which inverts
    each bit with chance Q: e = f/4 * (1 - Q) + (1 - f/4) * Q."""
    f, q = model.eve_fraction, model.p_noise
    return f / 4 + q - q * f / 2


class TestClosedForms:
    """The simulator against BB84's closed forms, seeded, within 4.5
    standard errors: goldens pin bytes, these pin the physics."""

    @pytest.mark.parametrize(
        "model",
        [
            ChannelModel(p_noise=0.02, eve_fraction=0.04),
            ChannelModel(p_noise=0.05, eve_fraction=0.5),
        ],
    )
    def test_sifted_error_rate(self, model):
        rng = Rng(12)
        train, bob_bases = generate_round(400_000, rng)
        pair = sift(train, bob_bases, channel_transmit(train, bob_bases, model, rng))
        e = sifted_error_rate(model)
        measured = np.count_nonzero(pair.alice_key != pair.bob_key) / len(pair)
        assert abs(measured - e) < 4.5 * math.sqrt(e * (1 - e) / len(pair))

    @pytest.mark.parametrize(
        "pulses, model",
        [
            (64, ChannelModel(p_noise=0.02)),
            (48, ChannelModel(p_noise=0.03, eve_fraction=0.2)),
            (128, ChannelModel(p_noise=0.01, eve_fraction=0.05)),
        ],
    )
    def test_mean_digest_rounds(self, pulses, model):
        # A round is accepted when none of its pulses is both sifted (1/2)
        # and in error (e), so rounds are geometric with mean 1/P.
        accept = (1 - sifted_error_rate(model) / 2) ** pulses
        # Every run draws fresh words, so runs on one stream are independent.
        config, trials, rng = DigestConfig("sha256", 64), 3000, Rng(11)
        rounds = [
            run_digest_protocol(pulses, model, config, 10_000, rng).rounds
            for _ in range(trials)
        ]
        spread = math.sqrt((1 - accept) / trials) / accept
        assert abs(sum(rounds) / trials - 1 / accept) < 4.5 * spread


class TestSift:
    def test_matches_index_oracle(self):
        rng = Rng(11)
        train, bob_bases = generate_round(400, rng)
        bob_bits = channel_transmit(train, bob_bases, ChannelModel(0.1, 0.3), rng)
        pair = sift(train, bob_bases, bob_bits)
        kept = [i for i in range(400) if train.bases[i] == bob_bases[i]]
        assert pair.alice_key.tolist() == [int(train.bits[i]) for i in kept]
        assert pair.bob_key.tolist() == [int(bob_bits[i]) for i in kept]

    def test_quiet_channel_sifts_equal_keys(self):
        rng = Rng(12)
        train, bob_bases = generate_round(400, rng)
        bob_bits = channel_transmit(train, bob_bases, ChannelModel(), rng)
        pair = sift(train, bob_bases, bob_bits)
        assert np.array_equal(pair.alice_key, pair.bob_key)
        assert 100 < len(pair) < 300  # about half survive


class TestEstimateQber:
    def _pair(self, n, error_rate, seed):
        rng = Rng(seed)
        train, bob_bases = generate_round(n, rng)
        bob_bits = channel_transmit(
            train, bob_bases, ChannelModel(p_noise=error_rate), rng
        )
        return sift(train, bob_bases, bob_bits)

    def test_partition_sizes(self):
        pair = self._pair(1000, 0.05, 13)
        n = len(pair)
        estimate, remainder = estimate_qber(pair, 0.2, Rng(14))
        assert len(remainder) == n - math.ceil(0.2 * n)
        assert 0.0 <= estimate <= 1.0

    def test_full_sample_measures_exactly(self):
        pair = self._pair(600, 0.1, 15)
        estimate, remainder = estimate_qber(pair, 1.0, Rng(16))
        true_rate = np.count_nonzero(pair.alice_key != pair.bob_key) / len(pair)
        assert estimate == pytest.approx(true_rate)
        assert len(remainder) == 0

    def test_estimate_tracks_true_rate(self):
        pair = self._pair(20000, 0.08, 17)
        estimate, _ = estimate_qber(pair, 0.5, Rng(18))
        assert abs(estimate - 0.08) < 0.02

    def test_validation(self):
        pair = self._pair(100, 0.0, 19)
        with pytest.raises(ValueError):
            estimate_qber(pair, 0.0, Rng(20))
        with pytest.raises(ValueError):
            estimate_qber(pair, 1.1, Rng(20))


class TestKeyDigest:
    def test_matches_hashlib_oracle(self):
        key = Rng(21).np.integers(0, 2, 77, dtype=np.uint8)
        digest = hashlib.sha256()
        digest.update((77).to_bytes(8, "big"))
        digest.update(np.packbits(key).tobytes())
        expected = int.from_bytes(digest.digest(), "big") >> (256 - 64)
        assert key_digest(key, DigestConfig("sha256", 64)) == expected

    def test_single_bit_sensitivity(self):
        config = DigestConfig("sha256", 64)
        key = Rng(22).np.integers(0, 2, 128, dtype=np.uint8)
        reference = key_digest(key, config)
        for i in range(len(key)):
            mutated = key.copy()
            mutated[i] ^= 1
            assert key_digest(mutated, config) != reference

    def test_length_is_bound_into_the_digest(self):
        one = np.zeros(1, dtype=np.uint8)
        two = np.zeros(2, dtype=np.uint8)  # same packed bytes, longer key
        config = DigestConfig("sha256", 64)
        assert key_digest(one, config) != key_digest(two, config)

    @pytest.mark.parametrize("hash_id", ["sha256", "sha3_256", "blake2b"])
    @pytest.mark.parametrize("truncate_bits", [32, 33, 256])
    def test_block_rows_match_key_digest(self, hash_id, truncate_bits):
        # Rows of a block, some empty and most not a whole number of bytes,
        # each packed alone and the rows joined, hash as key_digest hashes
        # each row, and _first_agreeing finds the row a key_digest loop finds.
        config = DigestConfig(hash_id, truncate_bits)
        pick = np.random.default_rng(truncate_bits)
        for _ in range(30):
            sizes = [0, 0, 1, 7, 8, 9, 63, 65, 200, 513]
            ends = np.cumsum(pick.choice(sizes, pick.integers(1, 9))).tolist()
            alice = pick.integers(0, 2, ends[-1], dtype=np.uint8)
            bob = alice ^ (pick.random(ends[-1]) < pick.choice([0.0, 0.002, 0.05]))
            want, start, rows = None, 0, []
            for row, end in enumerate(ends):
                packed = np.packbits(alice[start:end]).tobytes()
                bob_packed = np.packbits(bob[start:end]).tobytes()
                rows.append((end - start, packed, bob_packed))
                digest = key_digest(alice[start:end], config)
                fresh = hashlib.new(hash_id)
                assert qkd._digest(end - start, packed, fresh, config) == digest
                if want is None and digest == key_digest(bob[start:end], config):
                    want = row
                start = end
            lengths, alice_rows, bob_rows = zip(*rows)
            byte_ends = np.cumsum([len(packed) for packed in alice_rows]).tolist()
            keys = b"".join(alice_rows), b"".join(bob_rows)
            got = qkd._first_agreeing(*keys, list(lengths), byte_ends, config)
            assert got == want

    def test_colliding_digests_accept_unequal_keys(self):
        # Two 61-bit keys whose sha256 digests share their top 32 bits but
        # not their 33rd, found by a birthday search, after a row of
        # unequal keys whose digests differ.
        alice, bob = (
            np.array([(x >> (60 - i)) & 1 for i in range(61)], dtype=np.uint8)
            for x in (0x1DBDD21AD90F7F1B, 0x1EA1046DDA809BCD)
        )
        first = np.zeros(10, dtype=np.uint8)
        rows = ((first, first ^ 1), (alice, bob))
        keys = (b"".join(np.packbits(k).tobytes() for k in side) for side in zip(*rows))
        args = (*keys, [10, 61], [2, 10])  # each row's bit count and byte end
        assert qkd._first_agreeing(*args, DigestConfig("sha256", 32)) == 1
        assert qkd._first_agreeing(*args, DigestConfig("sha256", 33)) is None

    def test_truncation_keeps_top_bits(self):
        key = Rng(24).np.integers(0, 2, 64, dtype=np.uint8)
        wide = key_digest(key, DigestConfig("sha256", 256))
        narrow = key_digest(key, DigestConfig("sha256", 32))
        assert narrow == wide >> (256 - 32)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DigestConfig("not-a-hash", 64)
        with pytest.raises(ValueError):
            DigestConfig("sha256", 16)
        with pytest.raises(ValueError):
            DigestConfig("sha256", 257)
        assert DigestConfig("sha512", 512).truncate_bits == 512


class TestDigestProtocol:
    def test_quiet_channel_accepts_first_round(self):
        run = run_digest_protocol(
            256, ChannelModel(), DigestConfig("sha256", 64), 10, Rng(25)
        )
        assert run.rounds == 1
        assert run.pulses == 256
        assert np.array_equal(run.alice_key, run.bob_key)

    def test_hostile_channel_exhausts_rounds(self):
        with pytest.raises(NoKeyError) as info:
            run_digest_protocol(
                256, ChannelModel(p_noise=0.5), DigestConfig("sha256", 64), 3, Rng(26)
            )
        assert info.value.rounds == 3
        assert info.value.pulses == 3 * 256

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError):
            run_digest_protocol(
                256, ChannelModel(), DigestConfig("sha256", 64), 0, Rng(27)
            )


def _reference_digest_run(n_pulses, model, config, max_rounds, rng):
    """run_digest_protocol as the round-by-round loop of generate_round,
    channel_transmit, sift and key_digest."""
    for round_no in range(1, max_rounds + 1):
        train, bob_bases = generate_round(n_pulses, rng)
        pair = sift(train, bob_bases, channel_transmit(train, bob_bases, model, rng))
        if key_digest(pair.alice_key, config) == key_digest(pair.bob_key, config):
            return qkd.DigestRun(
                pair.alice_key, pair.bob_key, round_no, round_no * n_pulses
            )
    raise NoKeyError(max_rounds, max_rounds * n_pulses)


def _digest_fingerprint(
    pulses, eve, noise, max_rounds, predraw, seed, run=run_digest_protocol
):
    """Rounds, and a hash of the outcome of `run` (run_digest_protocol by
    default). predraw first shifts the stream by one raw word (three uint8
    values come from one 32-bit draw); the rounds read raw words only, so
    the half-word that draw leaves buffered plays no part."""
    rng = Rng(seed)
    if predraw:
        rng.np.integers(0, 2, 3, dtype=np.uint8)
    try:
        result = run(
            pulses, ChannelModel(noise, eve), DigestConfig("sha256", 64),
            max_rounds, rng,
        )
    except NoKeyError as exc:
        rounds, outcome = exc.rounds, ("none", exc.rounds, exc.pulses)
    else:
        rounds = result.rounds
        outcome = (
            result.rounds,
            result.pulses,
            result.alice_key.dtype.str,
            result.bob_key.dtype.str,
            hashlib.sha256(result.alice_key.tobytes()).hexdigest(),
            hashlib.sha256(result.bob_key.tobytes()).hexdigest(),
        )
    return rounds, hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


# (pulses, eve_fraction, p_noise, max_rounds, pre-draw, seed) ->
# (rounds, fingerprint), recorded from _reference_digest_run.
_DIGEST_GOLDEN = {
    (1, 0.0, 0.0, 1, False, 0): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.0, 1, True, 1): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.0, 5, False, 2): (1, 'd5c046f496e31c3c'),
    (1, 0.0, 0.0, 5, True, 3): (1, 'd5c046f496e31c3c'),
    (1, 0.0, 0.0, 200, False, 4): (1, '294ed090a76acde6'),
    (1, 0.0, 0.0, 200, True, 5): (1, 'd5c046f496e31c3c'),
    (1, 0.0, 0.03, 1, False, 6): (1, '294ed090a76acde6'),
    (1, 0.0, 0.03, 1, True, 7): (1, 'd5c046f496e31c3c'),
    (1, 0.0, 0.03, 5, False, 8): (1, '294ed090a76acde6'),
    (1, 0.0, 0.03, 5, True, 9): (1, '294ed090a76acde6'),
    (1, 0.0, 0.03, 200, False, 10): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.03, 200, True, 11): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.2, 1, False, 12): (1, '294ed090a76acde6'),
    (1, 0.0, 0.2, 1, True, 13): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.2, 5, False, 14): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.2, 5, True, 15): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.2, 200, False, 16): (1, 'ea695aef34b21dbb'),
    (1, 0.0, 0.2, 200, True, 17): (1, 'd5c046f496e31c3c'),
    (1, 0.05, 0.0, 1, False, 18): (1, 'd5c046f496e31c3c'),
    (1, 0.05, 0.0, 1, True, 19): (1, 'd5c046f496e31c3c'),
    (1, 0.05, 0.0, 5, False, 20): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.0, 5, True, 21): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.0, 200, False, 22): (1, 'd5c046f496e31c3c'),
    (1, 0.05, 0.0, 200, True, 23): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.03, 1, False, 24): (1, '294ed090a76acde6'),
    (1, 0.05, 0.03, 1, True, 25): (1, '294ed090a76acde6'),
    (1, 0.05, 0.03, 5, False, 26): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.03, 5, True, 27): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.03, 200, False, 28): (1, '294ed090a76acde6'),
    (1, 0.05, 0.03, 200, True, 29): (1, '294ed090a76acde6'),
    (1, 0.05, 0.2, 1, False, 30): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.2, 1, True, 31): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.2, 5, False, 32): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.2, 5, True, 33): (1, 'ea695aef34b21dbb'),
    (1, 0.05, 0.2, 200, False, 34): (3, '6342b3eed97cbd55'),
    (1, 0.05, 0.2, 200, True, 35): (2, '8a9aa62bc3877a7d'),
    (1, 0.5, 0.0, 1, False, 36): (1, '294ed090a76acde6'),
    (1, 0.5, 0.0, 1, True, 37): (1, '294ed090a76acde6'),
    (1, 0.5, 0.0, 5, False, 38): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.0, 5, True, 39): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.0, 200, False, 40): (1, '294ed090a76acde6'),
    (1, 0.5, 0.0, 200, True, 41): (2, '8a9aa62bc3877a7d'),
    (1, 0.5, 0.03, 1, False, 42): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.03, 1, True, 43): (1, '294ed090a76acde6'),
    (1, 0.5, 0.03, 5, False, 44): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.03, 5, True, 45): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.03, 200, False, 46): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.03, 200, True, 47): (1, 'ea695aef34b21dbb'),
    (1, 0.5, 0.2, 1, False, 48): (1, '281c96915b84d0bb'),
    (1, 0.5, 0.2, 1, True, 49): (1, '281c96915b84d0bb'),
    (1, 0.5, 0.2, 5, False, 50): (1, 'd5c046f496e31c3c'),
    (1, 0.5, 0.2, 5, True, 51): (2, '09d723cc1f4240fc'),
    (1, 0.5, 0.2, 200, False, 52): (2, 'a90c1e376efb49cb'),
    (1, 0.5, 0.2, 200, True, 53): (1, 'ea695aef34b21dbb'),
    (3, 0.0, 0.0, 1, False, 54): (1, '7fc98fff5fdd1a6b'),
    (3, 0.0, 0.0, 1, True, 55): (1, 'be8f35c5ca871841'),
    (3, 0.0, 0.0, 5, False, 56): (1, 'be8f35c5ca871841'),
    (3, 0.0, 0.0, 5, True, 57): (1, 'b650aa3f249a1c87'),
    (3, 0.0, 0.0, 200, False, 58): (1, 'be8f35c5ca871841'),
    (3, 0.0, 0.0, 200, True, 59): (1, 'a264e21c2c0c979b'),
    (3, 0.0, 0.03, 1, False, 60): (1, 'f6faf06e1958ff18'),
    (3, 0.0, 0.03, 1, True, 61): (1, 'be8f35c5ca871841'),
    (3, 0.0, 0.03, 5, False, 62): (1, '9eee416f22d4386f'),
    (3, 0.0, 0.03, 5, True, 63): (1, 'a264e21c2c0c979b'),
    (3, 0.0, 0.03, 200, False, 64): (1, 'be8f35c5ca871841'),
    (3, 0.0, 0.03, 200, True, 65): (1, '76a720d63eca982a'),
    (3, 0.0, 0.2, 1, False, 66): (1, '76a720d63eca982a'),
    (3, 0.0, 0.2, 1, True, 67): (1, 'f6faf06e1958ff18'),
    (3, 0.0, 0.2, 5, False, 68): (1, '76a720d63eca982a'),
    (3, 0.0, 0.2, 5, True, 69): (1, '30f8e5d82ee3d4ae'),
    (3, 0.0, 0.2, 200, False, 70): (1, 'f6faf06e1958ff18'),
    (3, 0.0, 0.2, 200, True, 71): (2, '7e9aea30170a00f5'),
    (3, 0.05, 0.0, 1, False, 72): (1, 'be8f35c5ca871841'),
    (3, 0.05, 0.0, 1, True, 73): (1, '7d1a9f9bb548596b'),
    (3, 0.05, 0.0, 5, False, 74): (1, '7d1a9f9bb548596b'),
    (3, 0.05, 0.0, 5, True, 75): (1, 'be8f35c5ca871841'),
    (3, 0.05, 0.0, 200, False, 76): (1, 'c56162844979de07'),
    (3, 0.05, 0.0, 200, True, 77): (1, 'a264e21c2c0c979b'),
    (3, 0.05, 0.03, 1, False, 78): (1, '30f8e5d82ee3d4ae'),
    (3, 0.05, 0.03, 1, True, 79): (1, '9eee416f22d4386f'),
    (3, 0.05, 0.03, 5, False, 80): (1, 'fc5296fcf0ff27f5'),
    (3, 0.05, 0.03, 5, True, 81): (1, '30f8e5d82ee3d4ae'),
    (3, 0.05, 0.03, 200, False, 82): (1, 'c56162844979de07'),
    (3, 0.05, 0.03, 200, True, 83): (1, 'f6faf06e1958ff18'),
    (3, 0.05, 0.2, 1, False, 84): (1, 'f40e2cd39d645147'),
    (3, 0.05, 0.2, 1, True, 85): (1, 'f40e2cd39d645147'),
    (3, 0.05, 0.2, 5, False, 86): (1, 'f6faf06e1958ff18'),
    (3, 0.05, 0.2, 5, True, 87): (2, '7e9aea30170a00f5'),
    (3, 0.05, 0.2, 200, False, 88): (1, '7fc98fff5fdd1a6b'),
    (3, 0.05, 0.2, 200, True, 89): (2, '6fe606dac9266000'),
    (3, 0.5, 0.0, 1, False, 90): (1, '7fc98fff5fdd1a6b'),
    (3, 0.5, 0.0, 1, True, 91): (1, '7fc98fff5fdd1a6b'),
    (3, 0.5, 0.0, 5, False, 92): (5, '559e9949e8ebfc41'),
    (3, 0.5, 0.0, 5, True, 93): (1, '30f8e5d82ee3d4ae'),
    (3, 0.5, 0.0, 200, False, 94): (2, '3b302de59eda6b0f'),
    (3, 0.5, 0.0, 200, True, 95): (2, '0e876c533b3c2cc9'),
    (3, 0.5, 0.03, 1, False, 96): (1, 'a264e21c2c0c979b'),
    (3, 0.5, 0.03, 1, True, 97): (1, '7d1a9f9bb548596b'),
    (3, 0.5, 0.03, 5, False, 98): (1, '6358b50ae185dc0b'),
    (3, 0.5, 0.03, 5, True, 99): (1, 'a264e21c2c0c979b'),
    (3, 0.5, 0.03, 200, False, 100): (1, 'be8f35c5ca871841'),
    (3, 0.5, 0.03, 200, True, 101): (2, 'e4da61edd20f62ce'),
    (3, 0.5, 0.2, 1, False, 102): (1, 'f6faf06e1958ff18'),
    (3, 0.5, 0.2, 1, True, 103): (1, 'f40e2cd39d645147'),
    (3, 0.5, 0.2, 5, False, 104): (1, 'a264e21c2c0c979b'),
    (3, 0.5, 0.2, 5, True, 105): (1, '76a720d63eca982a'),
    (3, 0.5, 0.2, 200, False, 106): (2, 'fa55fa4c068d13a7'),
    (3, 0.5, 0.2, 200, True, 107): (1, 'f6faf06e1958ff18'),
    (7, 0.0, 0.0, 1, False, 108): (1, '134479f0e30e7cd8'),
    (7, 0.0, 0.0, 1, True, 109): (1, '1cacc98f264eebd5'),
    (7, 0.0, 0.0, 5, False, 110): (1, '9e8277d6e4f2f99f'),
    (7, 0.0, 0.0, 5, True, 111): (1, 'ac79ececffcc7e18'),
    (7, 0.0, 0.0, 200, False, 112): (1, 'c6f03ab376b5a2ad'),
    (7, 0.0, 0.0, 200, True, 113): (1, '3efecdf2f6716dbf'),
    (7, 0.0, 0.03, 1, False, 114): (1, '7a7fec0065741d1e'),
    (7, 0.0, 0.03, 1, True, 115): (1, '8efa8ae2c5b41936'),
    (7, 0.0, 0.03, 5, False, 116): (1, 'c5390927e0e0a048'),
    (7, 0.0, 0.03, 5, True, 117): (1, '132d6b87ae41c994'),
    (7, 0.0, 0.03, 200, False, 118): (2, '0191fec2b725687a'),
    (7, 0.0, 0.03, 200, True, 119): (2, 'de14ce1f1c1db51e'),
    (7, 0.0, 0.2, 1, False, 120): (1, '42db3aeb953ae9d7'),
    (7, 0.0, 0.2, 1, True, 121): (1, '8efa8ae2c5b41936'),
    (7, 0.0, 0.2, 5, False, 122): (5, '93fb46639a0b6764'),
    (7, 0.0, 0.2, 5, True, 123): (1, '7a7fec0065741d1e'),
    (7, 0.0, 0.2, 200, False, 124): (2, '7519086bb017fcb4'),
    (7, 0.0, 0.2, 200, True, 125): (1, 'b5374e470ef1511d'),
    (7, 0.05, 0.0, 1, False, 126): (1, 'bd95fbf1d83cb0b5'),
    (7, 0.05, 0.0, 1, True, 127): (1, '3c704f21b7014b9b'),
    (7, 0.05, 0.0, 5, False, 128): (1, 'c5390927e0e0a048'),
    (7, 0.05, 0.0, 5, True, 129): (1, '9c4c64cf08fb86ea'),
    (7, 0.05, 0.0, 200, False, 130): (1, 'c87797e7bb9a58af'),
    (7, 0.05, 0.0, 200, True, 131): (1, 'e099f3d256ebefdd'),
    (7, 0.05, 0.03, 1, False, 132): (1, 'a68fd1742dc586aa'),
    (7, 0.05, 0.03, 1, True, 133): (1, 'cf3fd7e1ec176999'),
    (7, 0.05, 0.03, 5, False, 134): (1, '078cb88a06cc883a'),
    (7, 0.05, 0.03, 5, True, 135): (1, '1b9f594ae7d4b7a7'),
    (7, 0.05, 0.03, 200, False, 136): (1, 'fade82d554b4e2d7'),
    (7, 0.05, 0.03, 200, True, 137): (1, '1cacc98f264eebd5'),
    (7, 0.05, 0.2, 1, False, 138): (1, '8efa8ae2c5b41936'),
    (7, 0.05, 0.2, 1, True, 139): (1, '8efa8ae2c5b41936'),
    (7, 0.05, 0.2, 5, False, 140): (2, 'eee6b4a36be3a3b5'),
    (7, 0.05, 0.2, 5, True, 141): (4, '6f8c038e7a3a2cf5'),
    (7, 0.05, 0.2, 200, False, 142): (1, 'c98b2bf441e0f049'),
    (7, 0.05, 0.2, 200, True, 143): (1, 'f3a4e46363527a3b'),
    (7, 0.5, 0.0, 1, False, 144): (1, '8efa8ae2c5b41936'),
    (7, 0.5, 0.0, 1, True, 145): (1, '8efa8ae2c5b41936'),
    (7, 0.5, 0.0, 5, False, 146): (1, '3b9993e13d3ea049'),
    (7, 0.5, 0.0, 5, True, 147): (1, '4c6d227d179d2d60'),
    (7, 0.5, 0.0, 200, False, 148): (1, '818747cafdbde553'),
    (7, 0.5, 0.0, 200, True, 149): (1, '4c6d227d179d2d60'),
    (7, 0.5, 0.03, 1, False, 150): (1, '8efa8ae2c5b41936'),
    (7, 0.5, 0.03, 1, True, 151): (1, '8efa8ae2c5b41936'),
    (7, 0.5, 0.03, 5, False, 152): (1, '134479f0e30e7cd8'),
    (7, 0.5, 0.03, 5, True, 153): (1, '1cacc98f264eebd5'),
    (7, 0.5, 0.03, 200, False, 154): (1, 'c5390927e0e0a048'),
    (7, 0.5, 0.03, 200, True, 155): (1, '54d88f92a15c67a1'),
    (7, 0.5, 0.2, 1, False, 156): (1, '8efa8ae2c5b41936'),
    (7, 0.5, 0.2, 1, True, 157): (1, '3efecdf2f6716dbf'),
    (7, 0.5, 0.2, 5, False, 158): (5, '7dde57e3b66ca500'),
    (7, 0.5, 0.2, 5, True, 159): (5, 'b8624e64cb4bd365'),
    (7, 0.5, 0.2, 200, False, 160): (2, 'eee6b4a36be3a3b5'),
    (7, 0.5, 0.2, 200, True, 161): (10, 'cd3fce35187279ee'),
    (9, 0.0, 0.0, 1, False, 162): (1, '2154e7f1a3e44814'),
    (9, 0.0, 0.0, 1, True, 163): (1, 'a042afda18a2e3d0'),
    (9, 0.0, 0.0, 5, False, 164): (1, '773a8fe1d6eb9507'),
    (9, 0.0, 0.0, 5, True, 165): (1, '7391393e75409026'),
    (9, 0.0, 0.0, 200, False, 166): (1, '2e5673956ab05af5'),
    (9, 0.0, 0.0, 200, True, 167): (1, 'fee8f5e95e7a01ee'),
    (9, 0.0, 0.03, 1, False, 168): (1, '4b3f59cec3ed666d'),
    (9, 0.0, 0.03, 1, True, 169): (1, '752d68af0319e09a'),
    (9, 0.0, 0.03, 5, False, 170): (2, '21825d561a624627'),
    (9, 0.0, 0.03, 5, True, 171): (1, 'da05417b31ac4ff9'),
    (9, 0.0, 0.03, 200, False, 172): (1, '057dea4680ef045b'),
    (9, 0.0, 0.03, 200, True, 173): (1, '7391393e75409026'),
    (9, 0.0, 0.2, 1, False, 174): (1, '69c3939008da4503'),
    (9, 0.0, 0.2, 1, True, 175): (1, '8a15659f97ef0079'),
    (9, 0.0, 0.2, 5, False, 176): (2, '4a0533a7dbaff8e9'),
    (9, 0.0, 0.2, 5, True, 177): (2, 'f6916cb3ef8dd621'),
    (9, 0.0, 0.2, 200, False, 178): (1, '773a8fe1d6eb9507'),
    (9, 0.0, 0.2, 200, True, 179): (1, 'bc35b38d3a4e6291'),
    (9, 0.05, 0.0, 1, False, 180): (1, '646eedd54287de0e'),
    (9, 0.05, 0.0, 1, True, 181): (1, '6c8d440a84ab0250'),
    (9, 0.05, 0.0, 5, False, 182): (1, '12ee2a0ee6b8f928'),
    (9, 0.05, 0.0, 5, True, 183): (1, '2f1c0d295f3eb424'),
    (9, 0.05, 0.0, 200, False, 184): (1, '0c4cabfbb88589bf'),
    (9, 0.05, 0.0, 200, True, 185): (1, 'b1824e181e46e398'),
    (9, 0.05, 0.03, 1, False, 186): (1, 'a48f46debce659d4'),
    (9, 0.05, 0.03, 1, True, 187): (1, 'e282229760ebca0e'),
    (9, 0.05, 0.03, 5, False, 188): (1, 'a48f46debce659d4'),
    (9, 0.05, 0.03, 5, True, 189): (1, 'e07da9a3ba5402b6'),
    (9, 0.05, 0.03, 200, False, 190): (1, '811e86eb16274e6b'),
    (9, 0.05, 0.03, 200, True, 191): (1, 'ca9cab502a87dba0'),
    (9, 0.05, 0.2, 1, False, 192): (1, '8a15659f97ef0079'),
    (9, 0.05, 0.2, 1, True, 193): (1, '8a15659f97ef0079'),
    (9, 0.05, 0.2, 5, False, 194): (3, '91359a7bc1b55a56'),
    (9, 0.05, 0.2, 5, True, 195): (1, 'bc35b38d3a4e6291'),
    (9, 0.05, 0.2, 200, False, 196): (5, '4741aab290d60216'),
    (9, 0.05, 0.2, 200, True, 197): (6, '7e004e0dc563fc64'),
    (9, 0.5, 0.0, 1, False, 198): (1, '8d00b808b22c1863'),
    (9, 0.5, 0.0, 1, True, 199): (1, '51e98c16bd99e2a0'),
    (9, 0.5, 0.0, 5, False, 200): (2, 'dd4187124e396513'),
    (9, 0.5, 0.0, 5, True, 201): (1, '8d00b808b22c1863'),
    (9, 0.5, 0.0, 200, False, 202): (3, '7413bef549a563ad'),
    (9, 0.5, 0.0, 200, True, 203): (1, '23488b5341de12e8'),
    (9, 0.5, 0.03, 1, False, 204): (1, '8a15659f97ef0079'),
    (9, 0.5, 0.03, 1, True, 205): (1, '8a15659f97ef0079'),
    (9, 0.5, 0.03, 5, False, 206): (1, 'a042afda18a2e3d0'),
    (9, 0.5, 0.03, 5, True, 207): (1, '48cc975ec16e8862'),
    (9, 0.5, 0.03, 200, False, 208): (1, '474b9c65841ac3df'),
    (9, 0.5, 0.03, 200, True, 209): (1, '474b9c65841ac3df'),
    (9, 0.5, 0.2, 1, False, 210): (1, '4e24920178cef41d'),
    (9, 0.5, 0.2, 1, True, 211): (1, '8a15659f97ef0079'),
    (9, 0.5, 0.2, 5, False, 212): (5, '6d38ef88358a6ce7'),
    (9, 0.5, 0.2, 5, True, 213): (1, '07ed0739a0465465'),
    (9, 0.5, 0.2, 200, False, 214): (7, '40d2719dbc8da41f'),
    (9, 0.5, 0.2, 200, True, 215): (9, '4d373ce6cc6f89a6'),
    (255, 0.0, 0.0, 1, False, 216): (1, '0c9e162d7a9d255c'),
    (255, 0.0, 0.0, 1, True, 217): (1, 'adaf8e3a48829bc4'),
    (255, 0.0, 0.0, 5, False, 218): (1, '8ff5a5eacc6e37e4'),
    (255, 0.0, 0.0, 5, True, 219): (1, '54ece5f7ce9c7663'),
    (255, 0.0, 0.0, 200, False, 220): (1, '181bf810eeda2ae8'),
    (255, 0.0, 0.0, 200, True, 221): (1, '9ac30fc218db65a3'),
    (255, 0.0, 0.03, 1, False, 222): (1, '0b2fdffa7f487cd8'),
    (255, 0.0, 0.03, 1, True, 223): (1, '0b2fdffa7f487cd8'),
    (255, 0.0, 0.03, 5, False, 224): (5, '56faecb7df5749a0'),
    (255, 0.0, 0.03, 5, True, 225): (5, '56faecb7df5749a0'),
    (255, 0.0, 0.03, 200, False, 226): (64, '4a9e2e6f4215211d'),
    (255, 0.0, 0.03, 200, True, 227): (92, '29de5270c71b430d'),
    (255, 0.0, 0.2, 1, False, 228): (1, '0b2fdffa7f487cd8'),
    (255, 0.0, 0.2, 1, True, 229): (1, '0b2fdffa7f487cd8'),
    (255, 0.0, 0.2, 5, False, 230): (5, '56faecb7df5749a0'),
    (255, 0.0, 0.2, 5, True, 231): (5, '56faecb7df5749a0'),
    (255, 0.0, 0.2, 200, False, 232): (200, 'e0de5235a74c76d0'),
    (255, 0.0, 0.2, 200, True, 233): (200, 'e0de5235a74c76d0'),
    (255, 0.05, 0.0, 1, False, 234): (1, 'dd11dbfb146aa88d'),
    (255, 0.05, 0.0, 1, True, 235): (1, '0b2fdffa7f487cd8'),
    (255, 0.05, 0.0, 5, False, 236): (5, '56faecb7df5749a0'),
    (255, 0.05, 0.0, 5, True, 237): (2, '320a3abb3bed9b41'),
    (255, 0.05, 0.0, 200, False, 238): (5, 'c7b01538fb51bde1'),
    (255, 0.05, 0.0, 200, True, 239): (5, '912bb8dcde0058e3'),
    (255, 0.05, 0.03, 1, False, 240): (1, '0b2fdffa7f487cd8'),
    (255, 0.05, 0.03, 1, True, 241): (1, '0b2fdffa7f487cd8'),
    (255, 0.05, 0.03, 5, False, 242): (5, '56faecb7df5749a0'),
    (255, 0.05, 0.03, 5, True, 243): (5, '56faecb7df5749a0'),
    (255, 0.05, 0.03, 200, False, 244): (200, 'e0de5235a74c76d0'),
    (255, 0.05, 0.03, 200, True, 245): (5, '77aa981d5a6b03ba'),
    (255, 0.05, 0.2, 1, False, 246): (1, '0b2fdffa7f487cd8'),
    (255, 0.05, 0.2, 1, True, 247): (1, '0b2fdffa7f487cd8'),
    (255, 0.05, 0.2, 5, False, 248): (5, '56faecb7df5749a0'),
    (255, 0.05, 0.2, 5, True, 249): (5, '56faecb7df5749a0'),
    (255, 0.05, 0.2, 200, False, 250): (200, 'e0de5235a74c76d0'),
    (255, 0.05, 0.2, 200, True, 251): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.0, 1, False, 252): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.0, 1, True, 253): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.0, 5, False, 254): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.0, 5, True, 255): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.0, 200, False, 256): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.0, 200, True, 257): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.03, 1, False, 258): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.03, 1, True, 259): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.03, 5, False, 260): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.03, 5, True, 261): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.03, 200, False, 262): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.03, 200, True, 263): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.2, 1, False, 264): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.2, 1, True, 265): (1, '0b2fdffa7f487cd8'),
    (255, 0.5, 0.2, 5, False, 266): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.2, 5, True, 267): (5, '56faecb7df5749a0'),
    (255, 0.5, 0.2, 200, False, 268): (200, 'e0de5235a74c76d0'),
    (255, 0.5, 0.2, 200, True, 269): (200, 'e0de5235a74c76d0'),
    (1024, 0.0, 0.0, 1, False, 270): (1, '895df61e24233382'),
    (1024, 0.0, 0.0, 1, True, 271): (1, 'b45156d3caf30c4f'),
    (1024, 0.0, 0.0, 5, False, 272): (1, 'f8565ea2f449395c'),
    (1024, 0.0, 0.0, 5, True, 273): (1, '6ef0298ad0951a48'),
    (1024, 0.0, 0.0, 200, False, 274): (1, '613dead1944ee013'),
    (1024, 0.0, 0.0, 200, True, 275): (1, 'f412b2ad5979185a'),
    (1024, 0.0, 0.03, 1, False, 276): (1, '13a7e8d73d261517'),
    (1024, 0.0, 0.03, 1, True, 277): (1, '13a7e8d73d261517'),
    (1024, 0.0, 0.03, 5, False, 278): (5, 'beebcdcdba3804ad'),
    (1024, 0.0, 0.03, 5, True, 279): (5, 'beebcdcdba3804ad'),
    (1024, 0.0, 0.03, 200, False, 280): (200, '6e8f04f5bc458947'),
    (1024, 0.0, 0.03, 200, True, 281): (200, '6e8f04f5bc458947'),
    (1024, 0.0, 0.2, 1, False, 282): (1, '13a7e8d73d261517'),
    (1024, 0.0, 0.2, 1, True, 283): (1, '13a7e8d73d261517'),
    (1024, 0.0, 0.2, 5, False, 284): (5, 'beebcdcdba3804ad'),
    (1024, 0.0, 0.2, 5, True, 285): (5, 'beebcdcdba3804ad'),
    (1024, 0.0, 0.2, 200, False, 286): (200, '6e8f04f5bc458947'),
    (1024, 0.0, 0.2, 200, True, 287): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.0, 1, False, 288): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.0, 1, True, 289): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.0, 5, False, 290): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.0, 5, True, 291): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.0, 200, False, 292): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.0, 200, True, 293): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.03, 1, False, 294): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.03, 1, True, 295): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.03, 5, False, 296): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.03, 5, True, 297): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.03, 200, False, 298): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.03, 200, True, 299): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.2, 1, False, 300): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.2, 1, True, 301): (1, '13a7e8d73d261517'),
    (1024, 0.05, 0.2, 5, False, 302): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.2, 5, True, 303): (5, 'beebcdcdba3804ad'),
    (1024, 0.05, 0.2, 200, False, 304): (200, '6e8f04f5bc458947'),
    (1024, 0.05, 0.2, 200, True, 305): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.0, 1, False, 306): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.0, 1, True, 307): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.0, 5, False, 308): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.0, 5, True, 309): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.0, 200, False, 310): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.0, 200, True, 311): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.03, 1, False, 312): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.03, 1, True, 313): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.03, 5, False, 314): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.03, 5, True, 315): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.03, 200, False, 316): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.03, 200, True, 317): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.2, 1, False, 318): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.2, 1, True, 319): (1, '13a7e8d73d261517'),
    (1024, 0.5, 0.2, 5, False, 320): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.2, 5, True, 321): (5, 'beebcdcdba3804ad'),
    (1024, 0.5, 0.2, 200, False, 322): (200, '6e8f04f5bc458947'),
    (1024, 0.5, 0.2, 200, True, 323): (200, '6e8f04f5bc458947'),
}


def _blocked_and_reference(seed, config):
    """run_digest_protocol's and _reference_digest_run's outcomes on one
    seeded random scenario: the rounds and both keys, or NoKeyError's
    counts. The blocked run may draw past its accepted round, so the
    streams after the two runs are not compared."""
    pick = np.random.default_rng(seed)
    pulses = int(pick.choice([2, 5, 8, 13, 100, 257, 258, pick.integers(1, 700)]))
    model = ChannelModel(
        float(pick.choice([0.0, 0.002, 0.01, 0.05, 1.0])),
        float(pick.choice([0.0, 0.0, 0.01, 0.5, 1.0])),
    )
    max_rounds = int(pick.choice([1, 3, 40, 90]))
    predraw = int(pick.integers(0, 3))  # 1 and 2 both shift by one raw word
    outcomes = []
    for run in (run_digest_protocol, _reference_digest_run):
        rng = Rng(seed)
        rng.np.integers(0, 2, predraw, dtype=np.uint8)
        try:
            got = run(pulses, model, config, max_rounds, rng)
            outcomes.append(
                (got.rounds, got.alice_key.tolist(), got.bob_key.tolist())
            )
        except NoKeyError as exc:
            outcomes.append((exc.rounds, exc.pulses))
    return outcomes


class TestDigestGolden:
    @pytest.mark.parametrize("case", sorted(_DIGEST_GOLDEN))
    def test_grid_pinned(self, case):
        assert _digest_fingerprint(*case) == _DIGEST_GOLDEN[case]

    def test_success_deep_in_a_run_pinned(self):
        # Part-used last words in every array (258 pulses), a one-word
        # shift at the start and an adversary; the digests first agree
        # in round 46, in the sixth block of rounds.
        assert _digest_fingerprint(258, 0.05, 0.02, 200, True, 3) == (
            46, "b8becec3c0c80041"
        )

    @pytest.mark.parametrize("pulses", [1, 7, 64, 65, 200])
    @pytest.mark.parametrize("noise, eve", [(0.0, 0.0), (0.05, 0.0), (0.05, 0.3)])
    def test_block_rows_are_the_per_call_keys_packed(self, pulses, noise, eve):
        # Every row of a decoded block, accepted or not, holds np.packbits of
        # the keys generate_round, channel_transmit and sift make from it.
        model, rounds = ChannelModel(noise, eve), 9
        per_round = qkd._round_words(pulses, model)
        words = Rng(pulses).np.bit_generator.random_raw(rounds * per_round)
        alice, bob, sizes, ends = qkd._sifted_rounds(words, pulses, model)
        rng, start = Rng(pulses), 0
        for size, end in zip(sizes, ends):
            train, bob_bases = generate_round(pulses, rng)
            bob_bits = channel_transmit(train, bob_bases, model, rng)
            pair = sift(train, bob_bases, bob_bits)
            assert size == len(pair)
            assert alice[start:end] == np.packbits(pair.alice_key).tobytes()
            assert bob[start:end] == np.packbits(pair.bob_key).tobytes()
            start = end
        assert len(sizes) == rounds and start == len(alice) == len(bob)

    @pytest.mark.parametrize(  # CI runs 3,000 seeds (DIGEST_FUZZ_CASES=3000)
        "seed", range(int(os.environ.get("DIGEST_FUZZ_CASES", 40)))
    )
    def test_matches_round_by_round_reference(self, seed):
        blocked, reference = _blocked_and_reference(seed, DigestConfig("sha256", 64))
        assert blocked == reference

    @pytest.mark.parametrize("hash_id", ["sha256", "sha3_256", "blake2b"])
    @pytest.mark.parametrize("truncate_bits", [32, 33, 256])
    def test_reference_across_digest_settings(self, hash_id, truncate_bits):
        config = DigestConfig(hash_id, truncate_bits)
        for seed in range(40, 52):
            blocked, reference = _blocked_and_reference(seed, config)
            assert blocked == reference, seed

    def test_keys_own_their_data(self):
        run = run_digest_protocol(
            1024, ChannelModel(p_noise=0.001), DigestConfig("sha256", 64), 50,
            Rng(3),
        )
        for key in (run.alice_key, run.bob_key):
            assert key.base is None and key.flags.owndata


def _per_call_cascade_trial(scenario, trial, rng):
    """The cascade arm one call at a time: one generate_round,
    channel_transmit and sift per attempt, a sample of numpy's choice
    without replacement, the hint floored at 3 / sample size, then the
    shuffle seed."""
    model = ChannelModel(scenario.p_noise, scenario.eve_fraction)
    rounds = 0
    while True:
        train, bob_bases = generate_round(scenario.pulses, rng)
        pair = sift(train, bob_bases, channel_transmit(train, bob_bases, model, rng))
        rounds += 1
        if len(pair) >= 2 and math.ceil(scenario.sample_frac * len(pair)) < len(pair):
            break
    n = len(pair)
    m = math.ceil(scenario.sample_frac * n)
    chosen = rng.np.choice(n, m, replace=False)
    sample, rest = np.sort(chosen), np.setdiff1d(np.arange(n), chosen)
    estimate = np.count_nonzero(pair.alice_key[sample] != pair.bob_key[sample]) / m
    remainder = qkd.SiftedPair(pair.alice_key[rest], pair.bob_key[rest])
    config = qkd.CascadeConfig(
        scenario.passes, min(max(float(estimate), 3 / m), 0.5), rng.getrandbits(64)
    )
    result = qkd.cascade_reconcile(remainder, config)
    return qkd.TrialRecord(
        "cascade",
        trial,
        rounds,
        result.parities_disclosed,
        rounds * scenario.pulses,
        len(remainder),
        int(np.count_nonzero(result.corrected_bob_key != remainder.alice_key)),
        result.success,
    )


def _per_call_digest_trial(scenario, trial, rng):
    """The digest arm's record from _reference_digest_run."""
    model = ChannelModel(scenario.p_noise, scenario.eve_fraction)
    config = DigestConfig(scenario.hash_id, scenario.truncate_bits)
    try:
        run = _reference_digest_run(
            scenario.pulses, model, config, scenario.max_rounds, rng
        )
    except NoKeyError as exc:
        rounds, pulses, accepted, residual = exc.rounds, exc.pulses, 0, 0
        success = False
    else:
        rounds, pulses, accepted = run.rounds, run.pulses, len(run.alice_key)
        residual = int(np.count_nonzero(run.bob_key != run.alice_key))
        success = residual == 0
    return qkd.TrialRecord(
        "digest",
        trial,
        rounds,
        rounds * scenario.truncate_bits,
        pulses,
        accepted,
        residual,
        success,
    )


def _per_call_report(scenario, rng):
    """compare_strategies from the per-call arms, each trial's two streams
    spawned from SeedSequence(seed).spawn(trials)."""
    records = []
    per_trial = np.random.SeedSequence(rng.seed).spawn(scenario.trials)
    for trial, seq in enumerate(per_trial):
        cascade_rng, digest_rng = (
            Rng(int(child.generate_state(1, np.uint64)[0])) for child in seq.spawn(2)
        )
        records.append(_per_call_cascade_trial(scenario, trial, cascade_rng))
        records.append(_per_call_digest_trial(scenario, trial, digest_rng))
    cascade, digest = (
        qkd._stats([r for r in records if r.strategy == name])
        for name in ("cascade", "digest")
    )
    return qkd.StrategyReport(scenario, cascade, digest, tuple(records))


def _random_scenario(seed):
    """A seeded random scenario over 2-4,096 pulses, with and without an
    adversary, noise from 0 to 1, and truncation at 32, 33 and 256 bits."""
    pick = np.random.default_rng(seed)
    pulses = int(pick.choice([2, 3, 5, 64, 65, 127, 129, pick.integers(2, 4097)]))
    return Scenario(
        pulses=pulses,
        p_noise=float(pick.choice([0.0, 0.001, 0.02, 0.1, 0.5, 1.0, pick.random()])),
        eve_fraction=float(pick.choice([0.0, 0.0, 0.05, 0.5, 1.0])),
        passes=int(pick.integers(1, 6)),
        sample_frac=float(pick.choice([0.1, 0.3, 0.5])),
        trials=int(pick.integers(1, 4)),
        hash_id=str(pick.choice(["sha256", "sha3_256", "blake2s"])),
        truncate_bits=int(pick.choice([32, 33, 256])),
        max_rounds=int(pick.choice([1, 2, 7, 40])),
    )


class TestCascadeArm:
    @pytest.mark.parametrize("pulses", [2, 3, 5, 9, 64, 1024])
    @pytest.mark.parametrize("sample_frac", [0.1, 0.5])
    def test_matches_per_call_arm(self, pulses, sample_frac):
        # Each channel with and without a half-word buffered before the
        # trial. The arm draws exactly what it uses, so the records and
        # every later draw must agree.
        for eve, noise, predraw in itertools.product((0, 0.5), (0, 0.05), (0, 1)):
            scenario = Scenario(
                pulses=pulses, p_noise=noise, eve_fraction=eve, sample_frac=sample_frac
            )
            outcomes = []
            for arm in (qkd._cascade_trial, _per_call_cascade_trial):
                rng = Rng(pulses * 100 + predraw)
                rng.np.integers(0, 2, predraw, dtype=np.uint8)
                record = arm(scenario, 3, rng)
                tail = rng.np.integers(0, 2, 7, dtype=np.uint8).tolist()
                raw = rng.np.bit_generator.random_raw(3).tolist()
                outcomes.append((record, tail, raw))
            assert outcomes[0] == outcomes[1], (eve, noise, predraw)


class TestTrialStreams:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_call_report(self, seed):
        scenario = _random_scenario(seed)
        got = compare_strategies(scenario, Rng(seed))
        assert got == _per_call_report(scenario, Rng(seed)), scenario

    def test_adjacent_seeds_share_no_trial(self):
        # With streams derived as seed ^ trial, trial 0 of seed s + 1 was
        # trial 1 of seed s.
        scenario = Scenario(pulses=256, p_noise=0.002, trials=2, max_rounds=5)
        for seed in (0, 6, 2**40):
            first = compare_strategies(scenario, Rng(seed)).records
            second = compare_strategies(scenario, Rng(seed + 1)).records
            for arm in range(2):
                later, earlier = first[2 + arm], second[arm]
                assert later.trial == 1 and earlier.trial == 0
                assert dataclasses.replace(earlier, trial=1) != later

    def test_high_seed_words_do_not_alias_trials(self):
        # SeedSequence([seed, trial]) reads both pairs as the words 5, 3, 0.
        first, second = (qkd._trial_streams(*p) for p in ((5, 3), (5 + 3 * 2**32, 0)))
        assert {rng.seed for rng in first}.isdisjoint(rng.seed for rng in second)

    def test_digest_arm_ignores_cascade_fields(self):
        base = Scenario(pulses=128, p_noise=0.02, eve_fraction=0.1, trials=5)
        digest = compare_strategies(base, Rng(3)).records[1::2]
        assert {r.strategy for r in digest} == {"digest"}
        for changes in ({"sample_frac": 0.4}, {"passes": 1}, {"passes": 7}):
            report = compare_strategies(dataclasses.replace(base, **changes), Rng(3))
            assert report.records[1::2] == digest


class TestCascadeHint:
    @pytest.mark.parametrize("p_noise", [0.01, 0.02, 0.05])
    def test_floored_hint_reconciles(self, p_noise):
        # About 52 sampled bits often read an error rate of 0, and a hint
        # of 0 made the first block most of the key: without the floor,
        # 140, 194 and 264 of these 300 trials reconciled.
        scenario = Scenario(pulses=1024, p_noise=p_noise, trials=300)
        successes = sum(
            qkd._cascade_trial(scenario, t, qkd._trial_streams(17, t)[0]).success
            for t in range(300)
        )
        assert successes >= 297, f"{successes}/300"


SCENARIO_TEXT = """\
# comparison fixture
pulses = 128
p_noise = 0.01   # channel flip probability
eve_fraction = 0.0
passes = 4
sample_frac = 0.125
trials = 6
seed = 5
hash = sha256
truncate_bits = 64
max_rounds = 50
"""


class TestParseScenario:
    def test_golden_file(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        assert scenario == Scenario(
            pulses=128,
            p_noise=0.01,
            eve_fraction=0.0,
            passes=4,
            sample_frac=0.125,
            trials=6,
            seed=5,
            hash_id="sha256",
            truncate_bits=64,
            max_rounds=50,
        )

    def test_empty_text_is_all_defaults(self):
        assert parse_scenario("# nothing here\n\n") == Scenario()

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("pulses = 128\nwat = 1\n", 2, "unknown key"),
            ("pulses = 128\npulses = 256\n", 2, "duplicate"),
            ("trials = soon\n", 1, "bad value"),
            ("\njust words\n", 2, "expected key=value"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ValueError, match=f"line {line}"):
            parse_scenario(text)
        with pytest.raises(ValueError, match=fragment):
            parse_scenario(text)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(sample_frac=1.0)
        with pytest.raises(ValueError):
            Scenario(trials=0)
        with pytest.raises(ValueError):
            Scenario(truncate_bits=8)

    @pytest.mark.parametrize(
        "pulses,sample_frac",
        [(1, 0.1), (0, 0.1), (64, 0.99), (2, 0.51), (10, 0.95), (100, 0.999)],
    )
    def test_scenario_whose_sample_leaves_no_remainder(self, pulses, sample_frac):
        # The cascade arm would redraw rounds forever: no sifted length up
        # to pulses leaves a bit after its sample.
        with pytest.raises(ValueError):
            Scenario(pulses=pulses, sample_frac=sample_frac)
        text = f"pulses = {pulses}\nsample_frac = {sample_frac}\n"
        with pytest.raises(ValueError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "pulses,sample_frac", [(2, 0.5), (2, 0.01), (200, 0.99), (11, 0.9)]
    )
    def test_scenario_leaving_a_bit_is_accepted(self, pulses, sample_frac):
        # A round whose bases all match leaves 1 or 2 bits after its sample.
        assert Scenario(pulses=pulses, sample_frac=sample_frac).pulses == pulses

    @pytest.mark.parametrize(
        "pulses,sample_frac", [(1000, 0.999), (1000, 0.9985), (500, 0.9975)]
    )
    def test_scenario_rarely_leaving_a_remainder_refused(self, pulses, sample_frac):
        # A remainder needs about 1/(1 - sample_frac) sifted bits, which a
        # round reaches with chance below 2^-40: the arm would never finish.
        with pytest.raises(ValueError, match="chance"):
            Scenario(pulses=pulses, sample_frac=sample_frac)
        text = f"pulses = {pulses}\nsample_frac = {sample_frac}\n"
        with pytest.raises(ValueError, match="chance"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "pulses,sample_frac", [(64, 0.98), (1000, 0.998), (300, 0.995)]
    )
    def test_scenario_with_a_likely_remainder_accepted(self, pulses, sample_frac):
        # (64, 0.98) needs some 283,000 rounds a trial on average.
        assert Scenario(pulses=pulses, sample_frac=sample_frac).pulses == pulses

    @pytest.mark.parametrize(
        "pulses,sample_frac",
        [
            (2, 0.5),
            (3, 0.6),
            (11, 0.9),
            (64, 0.98),
            (300, 0.995),
            (1000, 0.9985),
            (200, 0.99),
            (1000, 0.998),
        ],
    )
    def test_remainder_chance_is_the_binomial_tail(self, pulses, sample_frac):
        shortest = next(
            n
            for n in range(2, pulses + 1)
            if math.ceil(sample_frac * n) < n
        )
        tail = sum(math.comb(pulses, k) for k in range(shortest, pulses + 1))
        exact = math.log2(tail) - pulses
        got = qkd._log2_remainder_chance(pulses, sample_frac)
        if 2 * shortest <= pulses + 1:
            assert got == -1.0 and exact >= -1.0
        else:
            assert got == pytest.approx(exact, abs=1e-9)


@pytest.fixture(scope="module")
def comparison_report():
    return compare_strategies(parse_scenario(SCENARIO_TEXT), Rng(5))


class TestCompareStrategies:
    @pytest.fixture
    def report(self, comparison_report):
        return comparison_report

    def test_record_shape(self, report):
        assert len(report.records) == 12
        by_strategy = {"cascade": [], "digest": []}
        for record in report.records:
            by_strategy[record.strategy].append(record)
        assert [r.trial for r in by_strategy["cascade"]] == list(range(6))
        assert [r.trial for r in by_strategy["digest"]] == list(range(6))
        for record in by_strategy["cascade"]:
            assert record.accepted_bits > 0
            assert record.pulses == record.rounds * 128

    def test_stats_recomputable_from_records(self, report):
        for name, stats in (("cascade", report.cascade), ("digest", report.digest)):
            records = [r for r in report.records if r.strategy == name]
            assert stats.trials == len(records)
            assert stats.mean_rounds == pytest.approx(
                sum(r.rounds for r in records) / len(records)
            )
            assert stats.mean_disclosed_bits == pytest.approx(
                sum(r.disclosed_bits for r in records) / len(records)
            )
            accepted = sum(r.accepted_bits for r in records)
            assert stats.pulses_per_accepted_bit == pytest.approx(
                sum(r.pulses for r in records) / accepted
            )
            assert stats.residual_error_rate == pytest.approx(
                sum(r.residual_errors for r in records) / accepted
            )
            assert stats.success_rate == pytest.approx(
                sum(r.success for r in records) / len(records)
            )

    def test_digest_discloses_truncate_bits_per_round(self, report):
        for record in report.records:
            if record.strategy == "digest":
                assert record.disclosed_bits == record.rounds * 64

    def test_deterministic_reports(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        first = compare_strategies(scenario, Rng(5))
        second = compare_strategies(scenario, Rng(5))
        assert render_csv(first) == render_csv(second)

    def test_sample_disagreeing_everywhere(self):
        # p_noise = 1 flips every matched bit, so the estimate is exactly 1.0
        scenario = Scenario(pulses=256, trials=1, p_noise=1.0, max_rounds=2)
        report = compare_strategies(scenario, Rng(0))
        assert report.cascade.trials == 1
        assert report.digest.success_rate == 0.0

    def test_quiet_channel_is_perfect(self):
        scenario = Scenario(pulses=64, trials=3, p_noise=0.0, truncate_bits=64)
        report = compare_strategies(scenario, Rng(31))
        for stats in (report.cascade, report.digest):
            assert stats.success_rate == 1.0
            assert stats.residual_error_rate == 0.0
        assert report.digest.mean_rounds == 1.0


@pytest.fixture(scope="module")
def rendering_report():
    scenario = Scenario(pulses=64, trials=4, p_noise=0.02, truncate_bits=64)
    return compare_strategies(scenario, Rng(8))


class TestRendering:
    @pytest.fixture
    def report(self, rendering_report):
        return rendering_report

    def test_csv_structure(self, report):
        rows = list(csv.reader(io.StringIO(render_csv(report))))
        assert rows[0] == [
            "strategy",
            "trial",
            "rounds",
            "disclosed_bits",
            "pulses",
            "accepted_bits",
            "residual_errors",
            "success",
        ]
        body, summaries = rows[1:-2], rows[-2:]
        assert len(body) == 8
        assert [r[0] for r in body] == ["cascade"] * 4 + ["digest"] * 4
        assert [r[1] for r in body] == [str(t) for t in range(4)] * 2
        assert all(r[7] in ("true", "false") for r in body)
        assert [r[0] for r in summaries] == ["cascade", "digest"]
        for row in summaries:
            assert row[1] == "summary"
            assert row[5] == ""  # accepted_bits has no meaningful mean
            float(row[2]), float(row[6]), float(row[7])

    def test_csv_summary_values(self, report):
        rows = list(csv.reader(io.StringIO(render_csv(report))))
        cascade_summary = rows[-2]
        assert cascade_summary[2] == f"{report.cascade.mean_rounds:.6f}"
        assert cascade_summary[7] == f"{report.cascade.success_rate:.6f}"

    def test_csv_uses_newline_terminators(self, report):
        text = render_csv(report)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_table_layout(self, report):
        lines = render_table(report).splitlines()
        assert lines[0].startswith("strategy")
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith("cascade")
        assert lines[3].startswith("digest")
        assert len(lines) == 4


# Byte-for-byte CSV pins: any change to how the random stream is consumed,
# to the record schema or to the number formatting shows up here.
GOLDEN_CSV = """\
strategy,trial,rounds,disclosed_bits,pulses,accepted_bits,residual_errors,success
cascade,0,1,50,64,26,0,true
cascade,1,1,52,64,27,0,true
cascade,2,1,64,64,33,0,true
cascade,3,1,52,64,27,0,true
digest,0,2,128,128,27,0,true
digest,1,1,64,64,32,0,true
digest,2,2,128,128,21,0,true
digest,3,1,64,64,37,0,true
cascade,summary,1.000000,54.500000,2.265487,,0.000000,1.000000
digest,summary,1.500000,96.000000,3.282051,,0.000000,1.000000
"""

# sample_frac=0.99 leaves no remainder on a short sifted key, so cascade
# trial 2 redoes its round; with max_rounds=2, digest trials 1 and 2
# accept their second round and trials 0 and 3 end in NoKeyError.
GOLDEN_EXHAUSTED_CSV = """\
strategy,trial,rounds,disclosed_bits,pulses,accepted_bits,residual_errors,success
cascade,0,1,4,200,1,0,true
cascade,1,1,4,200,1,0,true
cascade,2,2,4,400,1,0,true
cascade,3,1,4,200,1,0,true
digest,0,2,64,400,0,0,false
digest,1,2,64,400,96,0,true
digest,2,2,64,400,101,0,true
digest,3,2,64,400,0,0,false
cascade,summary,1.250000,4.000000,250.000000,,0.000000,1.000000
digest,summary,2.000000,64.000000,8.121827,,0.000000,0.500000
"""
GOLDEN_EXHAUSTED_TABLE = """\
strategy   trials   rounds  disclosed  pulses/bit   residual  success
---------------------------------------------------------------------
cascade         4    1.250        4.0     250.000   0.000000    1.000
digest          4    2.000       64.0       8.122   0.000000    0.500
"""


class TestGoldenReports:
    def test_csv_pinned(self, rendering_report):
        text = render_csv(rendering_report)
        assert text == GOLDEN_CSV
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2f98b2784bb17e6f3a5165bd70ef4ef2e08887b85ea5929892b95729f1dc813e"
        )

    def test_qkd_cascade_benchmark_scenario_pinned(self):
        # The benchmark's Cascade-bound scenario at three trials: about
        # 29,500 bits per reconciliation, with the digest arm capped at one
        # round.
        scenario = Scenario(
            pulses=65536, p_noise=0.02, eve_fraction=0.04, max_rounds=1,
            trials=3, seed=41,
        )
        text = render_csv(compare_strategies(scenario, Rng(41)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dc908978805368a34b7806d7ab23a8842b0b18b8c7937079569041f190c4584d"
        )

    def test_retried_and_exhausted_trials_pinned(self):
        scenario = Scenario(
            pulses=200,
            trials=4,
            p_noise=0.01,
            eve_fraction=0.02,
            hash_id="blake2s",
            truncate_bits=32,
            sample_frac=0.99,
            max_rounds=2,
        )
        report = compare_strategies(scenario, Rng(4))
        assert render_csv(report) == GOLDEN_EXHAUSTED_CSV
        assert render_table(report) == GOLDEN_EXHAUSTED_TABLE
