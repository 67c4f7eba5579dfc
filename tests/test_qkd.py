"""Channel simulator and strategy-comparison tests.

Statistical checks here use short runs with loose bands; the tight
long-run numbers live in the acceptance suite.
"""

import csv
import hashlib
import io
import itertools
import math

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
        # Rows cut from one packed block, some empty and most not a whole
        # number of bytes, hash as key_digest hashes each row alone, and
        # _first_agreeing finds the row a key_digest loop finds.
        config = DigestConfig(hash_id, truncate_bits)
        pick = np.random.default_rng(truncate_bits)
        for _ in range(30):
            sizes = [0, 0, 1, 7, 8, 9, 63, 65, 200, 513]
            ends = np.cumsum(pick.choice(sizes, pick.integers(1, 9))).tolist()
            alice = pick.integers(0, 2, ends[-1], dtype=np.uint8)
            bob = alice ^ (pick.random(ends[-1]) < pick.choice([0.0, 0.002, 0.05]))
            want, start = None, 0
            rows = qkd._packed_rows(alice, ends)
            for row, (end, packed) in enumerate(zip(ends, rows)):
                assert packed == np.packbits(alice[start:end]).tobytes()
                digest = key_digest(alice[start:end], config)
                fresh = hashlib.new(hash_id)
                assert qkd._digest(end - start, packed, fresh, config) == digest
                if want is None and digest == key_digest(bob[start:end], config):
                    want = row
                start = end
            assert qkd._first_agreeing(alice, bob, ends, config) == want

    def test_colliding_digests_accept_unequal_keys(self):
        # Two 61-bit keys whose sha256 digests share their top 32 bits but
        # not their 33rd, found by a birthday search, after a row of
        # unequal keys whose digests differ.
        alice, bob = (
            np.array([(x >> (60 - i)) & 1 for i in range(61)], dtype=np.uint8)
            for x in (0x1DBDD21AD90F7F1B, 0x1EA1046DDA809BCD)
        )
        first = np.zeros(10, dtype=np.uint8)
        alice, bob = np.concatenate([first, alice]), np.concatenate([first ^ 1, bob])
        ends = [10, 71]
        assert qkd._first_agreeing(alice, bob, ends, DigestConfig("sha256", 32)) == 1
        assert qkd._first_agreeing(alice, bob, ends, DigestConfig("sha256", 33)) is None

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


def _digest_fingerprint(pulses, eve, noise, max_rounds, predraw, seed):
    """Rounds, and a hash of the outcome plus the stream after it: the
    next 8 raw words and a 5-bit draw, which reads any buffered half-word."""
    rng = Rng(seed)
    if predraw:  # leaves a 32-bit half-word buffered
        rng.np.integers(0, 2, 3, dtype=np.uint8)
    try:
        run = run_digest_protocol(
            pulses, ChannelModel(noise, eve), DigestConfig("sha256", 64),
            max_rounds, rng,
        )
    except NoKeyError as exc:
        rounds, outcome = exc.rounds, ("none", exc.rounds, exc.pulses)
    else:
        rounds = run.rounds
        outcome = (
            run.rounds,
            run.pulses,
            run.alice_key.dtype.str,
            run.bob_key.dtype.str,
            hashlib.sha256(run.alice_key.tobytes()).hexdigest(),
            hashlib.sha256(run.bob_key.tobytes()).hexdigest(),
        )
    tail = (
        rng.np.bit_generator.random_raw(8).tolist(),
        rng.np.integers(0, 2, 5, dtype=np.uint8).tolist(),
    )
    return rounds, hashlib.sha256(repr((outcome, tail)).encode()).hexdigest()[:16]


# (pulses, eve_fraction, p_noise, max_rounds, pre-draw, seed) ->
# (rounds, fingerprint), recorded from the per-round implementation.
_DIGEST_GOLDEN = {
    (1, 0.0, 0.0, 1, False, 0): (1, '298275c3ea53e769'),
    (1, 0.0, 0.0, 1, True, 1): (1, 'a70f803c301c9709'),
    (1, 0.0, 0.0, 5, False, 2): (1, '69a8e22d5edab673'),
    (1, 0.0, 0.0, 5, True, 3): (1, '5d3138624ee34bfb'),
    (1, 0.0, 0.0, 200, False, 4): (1, 'cf8d4c470b3b7ed7'),
    (1, 0.0, 0.0, 200, True, 5): (1, '4180a9efc4a47c12'),
    (1, 0.0, 0.03, 1, False, 6): (1, 'e37be89673c30207'),
    (1, 0.0, 0.03, 1, True, 7): (1, '9a1e4b0ce0df07c8'),
    (1, 0.0, 0.03, 5, False, 8): (1, '237cf17abc97edf2'),
    (1, 0.0, 0.03, 5, True, 9): (1, 'b0d83e190c235540'),
    (1, 0.0, 0.03, 200, False, 10): (1, '7d0734916a938dcb'),
    (1, 0.0, 0.03, 200, True, 11): (1, 'f38b53faba75d7df'),
    (1, 0.0, 0.2, 1, False, 12): (1, '27c53f33e4f6c743'),
    (1, 0.0, 0.2, 1, True, 13): (1, '4d4266645f5443a5'),
    (1, 0.0, 0.2, 5, False, 14): (1, '30bb3b62f79c0695'),
    (1, 0.0, 0.2, 5, True, 15): (1, '40f07d01688d756a'),
    (1, 0.0, 0.2, 200, False, 16): (4, 'e64ab220b09e9620'),
    (1, 0.0, 0.2, 200, True, 17): (1, '6bc6f9b30a95db9b'),
    (1, 0.05, 0.0, 1, False, 18): (1, '1e29f1c22c255fff'),
    (1, 0.05, 0.0, 1, True, 19): (1, 'da527e96b463fddf'),
    (1, 0.05, 0.0, 5, False, 20): (1, '86ed740dc161b5ea'),
    (1, 0.05, 0.0, 5, True, 21): (1, '2d9e789156f3653e'),
    (1, 0.05, 0.0, 200, False, 22): (1, '58524aa3e5431c90'),
    (1, 0.05, 0.0, 200, True, 23): (1, 'f4a0ed951dc130ce'),
    (1, 0.05, 0.03, 1, False, 24): (1, '4ac435b513c9fd2a'),
    (1, 0.05, 0.03, 1, True, 25): (1, 'aa8a56193952a434'),
    (1, 0.05, 0.03, 5, False, 26): (1, '44592e0d999d56a4'),
    (1, 0.05, 0.03, 5, True, 27): (1, 'c496bad77f7b80c8'),
    (1, 0.05, 0.03, 200, False, 28): (1, '371e3475ee2edbfb'),
    (1, 0.05, 0.03, 200, True, 29): (1, '39546ae7eba7e522'),
    (1, 0.05, 0.2, 1, False, 30): (1, '6f9d7fe49127b6de'),
    (1, 0.05, 0.2, 1, True, 31): (1, 'ce31be13dc204a14'),
    (1, 0.05, 0.2, 5, False, 32): (1, '97848e01751da947'),
    (1, 0.05, 0.2, 5, True, 33): (1, 'cc4d52254da48fc2'),
    (1, 0.05, 0.2, 200, False, 34): (1, 'cf643641a33e4817'),
    (1, 0.05, 0.2, 200, True, 35): (1, '5f6b2b5abe7f5e6c'),
    (1, 0.5, 0.0, 1, False, 36): (1, 'f6ce137323e6f017'),
    (1, 0.5, 0.0, 1, True, 37): (1, '9c1b758b2a6b2207'),
    (1, 0.5, 0.0, 5, False, 38): (1, 'be4bd7fbd516eeaf'),
    (1, 0.5, 0.0, 5, True, 39): (1, 'f6169d84b2032ee5'),
    (1, 0.5, 0.0, 200, False, 40): (1, 'af8dfb1dbad49bbd'),
    (1, 0.5, 0.0, 200, True, 41): (2, 'f14383b8523e30a3'),
    (1, 0.5, 0.03, 1, False, 42): (1, '12dbcd2037bb1a8f'),
    (1, 0.5, 0.03, 1, True, 43): (1, '82433ac38b535f21'),
    (1, 0.5, 0.03, 5, False, 44): (1, '1bc133c769ab708c'),
    (1, 0.5, 0.03, 5, True, 45): (1, '37242579aa1ac768'),
    (1, 0.5, 0.03, 200, False, 46): (1, '653625c779438bb8'),
    (1, 0.5, 0.03, 200, True, 47): (1, '0b0f44b02a9de523'),
    (1, 0.5, 0.2, 1, False, 48): (1, '093b23e0a667582c'),
    (1, 0.5, 0.2, 1, True, 49): (1, '24820548a46acce0'),
    (1, 0.5, 0.2, 5, False, 50): (1, '94238940c3e59543'),
    (1, 0.5, 0.2, 5, True, 51): (1, 'bb4d38859e6f7ce1'),
    (1, 0.5, 0.2, 200, False, 52): (1, 'ec7aaea24167892e'),
    (1, 0.5, 0.2, 200, True, 53): (2, 'fba5f837a9cf0473'),
    (3, 0.0, 0.0, 1, False, 54): (1, '16b7e758cd3f7e54'),
    (3, 0.0, 0.0, 1, True, 55): (1, '6e13c94943c36a93'),
    (3, 0.0, 0.0, 5, False, 56): (1, '1c9dbaf245982f9b'),
    (3, 0.0, 0.0, 5, True, 57): (1, '20715e94a6bb716e'),
    (3, 0.0, 0.0, 200, False, 58): (1, '49a0bb3bf9ba81bd'),
    (3, 0.0, 0.0, 200, True, 59): (1, '7821a63ccd650be1'),
    (3, 0.0, 0.03, 1, False, 60): (1, '0ba32d5c85bb0218'),
    (3, 0.0, 0.03, 1, True, 61): (1, 'cb6114df8c231aad'),
    (3, 0.0, 0.03, 5, False, 62): (1, 'ad8a133bafc65fdb'),
    (3, 0.0, 0.03, 5, True, 63): (1, '29b8756bec2e6bfc'),
    (3, 0.0, 0.03, 200, False, 64): (1, 'e32150e4e489084e'),
    (3, 0.0, 0.03, 200, True, 65): (1, 'a11d3bc2a8ec582d'),
    (3, 0.0, 0.2, 1, False, 66): (1, '55bc667da8bbe452'),
    (3, 0.0, 0.2, 1, True, 67): (1, '0086d297af6d4300'),
    (3, 0.0, 0.2, 5, False, 68): (1, 'e04b018cbca186eb'),
    (3, 0.0, 0.2, 5, True, 69): (1, '1c5a1e43ae639447'),
    (3, 0.0, 0.2, 200, False, 70): (1, 'b4b66a0cb1224fed'),
    (3, 0.0, 0.2, 200, True, 71): (1, 'fde1da701a8fe88c'),
    (3, 0.05, 0.0, 1, False, 72): (1, 'dae7e88c819fc184'),
    (3, 0.05, 0.0, 1, True, 73): (1, '782485ad90d7e4b1'),
    (3, 0.05, 0.0, 5, False, 74): (1, '931a0d08e4c0af20'),
    (3, 0.05, 0.0, 5, True, 75): (1, '72f1bd67cbcd2601'),
    (3, 0.05, 0.0, 200, False, 76): (1, '6159b21acbe76797'),
    (3, 0.05, 0.0, 200, True, 77): (1, 'a920f5f7b97b50ea'),
    (3, 0.05, 0.03, 1, False, 78): (1, 'f8fbc421eb3ad434'),
    (3, 0.05, 0.03, 1, True, 79): (1, 'bd4a92b85d095e3c'),
    (3, 0.05, 0.03, 5, False, 80): (1, 'bac5fe88e9dc079b'),
    (3, 0.05, 0.03, 5, True, 81): (1, '21a32168ac84230d'),
    (3, 0.05, 0.03, 200, False, 82): (1, 'a9b8c2f430546e38'),
    (3, 0.05, 0.03, 200, True, 83): (1, '500a780236bd6728'),
    (3, 0.05, 0.2, 1, False, 84): (1, '55691de0bfb2583d'),
    (3, 0.05, 0.2, 1, True, 85): (1, 'dc7d1fa58bb7c5cd'),
    (3, 0.05, 0.2, 5, False, 86): (1, '4a6271ed1ff64300'),
    (3, 0.05, 0.2, 5, True, 87): (1, 'ed7fce181f6db80d'),
    (3, 0.05, 0.2, 200, False, 88): (2, 'ae875d194d65a931'),
    (3, 0.05, 0.2, 200, True, 89): (2, '1796f5d78da49881'),
    (3, 0.5, 0.0, 1, False, 90): (1, '565de44040c315c1'),
    (3, 0.5, 0.0, 1, True, 91): (1, 'b20a2e37d16eb03a'),
    (3, 0.5, 0.0, 5, False, 92): (1, '5cdd042e119201ff'),
    (3, 0.5, 0.0, 5, True, 93): (1, '674247b77675b32d'),
    (3, 0.5, 0.0, 200, False, 94): (2, '8e5670620c917d44'),
    (3, 0.5, 0.0, 200, True, 95): (2, '494a61d4de8c184b'),
    (3, 0.5, 0.03, 1, False, 96): (1, '15dfc2f2b8f0aab3'),
    (3, 0.5, 0.03, 1, True, 97): (1, '23eba99986d51160'),
    (3, 0.5, 0.03, 5, False, 98): (1, '04b0f8786ebe598a'),
    (3, 0.5, 0.03, 5, True, 99): (1, '18ed564784cab8a9'),
    (3, 0.5, 0.03, 200, False, 100): (2, 'bf2f67e2c3474c05'),
    (3, 0.5, 0.03, 200, True, 101): (1, '29813f847b8d7bfc'),
    (3, 0.5, 0.2, 1, False, 102): (1, '35f5dcaeb9d9831a'),
    (3, 0.5, 0.2, 1, True, 103): (1, 'c0cea9603c488a9a'),
    (3, 0.5, 0.2, 5, False, 104): (1, '651a965c61765e8c'),
    (3, 0.5, 0.2, 5, True, 105): (1, '7b0c3e0693a9d386'),
    (3, 0.5, 0.2, 200, False, 106): (1, '3158cc814e536de5'),
    (3, 0.5, 0.2, 200, True, 107): (1, 'dd69ddbdeaa9c1de'),
    (7, 0.0, 0.0, 1, False, 108): (1, '0945723697f5bc01'),
    (7, 0.0, 0.0, 1, True, 109): (1, '4990808f26e3f637'),
    (7, 0.0, 0.0, 5, False, 110): (1, '72a0e5dac1a092d5'),
    (7, 0.0, 0.0, 5, True, 111): (1, 'c69ead4644180af1'),
    (7, 0.0, 0.0, 200, False, 112): (1, '06bcd35c8cee2e07'),
    (7, 0.0, 0.0, 200, True, 113): (1, '731cf300596eb076'),
    (7, 0.0, 0.03, 1, False, 114): (1, 'ce3cab84c9e63c6e'),
    (7, 0.0, 0.03, 1, True, 115): (1, '7491c21f173b8128'),
    (7, 0.0, 0.03, 5, False, 116): (1, 'ac08d434ba6dab18'),
    (7, 0.0, 0.03, 5, True, 117): (1, 'a77d8558011aac81'),
    (7, 0.0, 0.03, 200, False, 118): (1, '2332d92988b2eda5'),
    (7, 0.0, 0.03, 200, True, 119): (2, '90903b85fd80ebe7'),
    (7, 0.0, 0.2, 1, False, 120): (1, 'ac1c2e68e2e24c58'),
    (7, 0.0, 0.2, 1, True, 121): (1, '2d6c7aacf7db18bd'),
    (7, 0.0, 0.2, 5, False, 122): (3, '9074a0c1f13311d1'),
    (7, 0.0, 0.2, 5, True, 123): (1, '4819451261ad0d76'),
    (7, 0.0, 0.2, 200, False, 124): (4, '4c52dc9e1379060d'),
    (7, 0.0, 0.2, 200, True, 125): (1, '8c4bcfbd78d68839'),
    (7, 0.05, 0.0, 1, False, 126): (1, 'f49c49b3ca087450'),
    (7, 0.05, 0.0, 1, True, 127): (1, 'ffa9bdf0068d4447'),
    (7, 0.05, 0.0, 5, False, 128): (1, '9744e8b1a9c07ca1'),
    (7, 0.05, 0.0, 5, True, 129): (1, '49faecf82de30003'),
    (7, 0.05, 0.0, 200, False, 130): (1, '2cbbe7e1b856d9ac'),
    (7, 0.05, 0.0, 200, True, 131): (1, 'f28c57e15176d3e8'),
    (7, 0.05, 0.03, 1, False, 132): (1, '92d50444065f4dae'),
    (7, 0.05, 0.03, 1, True, 133): (1, 'cf556dc8a8ae01eb'),
    (7, 0.05, 0.03, 5, False, 134): (1, '7d247fbdf6f2b3cf'),
    (7, 0.05, 0.03, 5, True, 135): (1, '1b840792675593cc'),
    (7, 0.05, 0.03, 200, False, 136): (1, '081532c25e846cb3'),
    (7, 0.05, 0.03, 200, True, 137): (1, '1a521b22640ef294'),
    (7, 0.05, 0.2, 1, False, 138): (1, '43bc47bce760b77b'),
    (7, 0.05, 0.2, 1, True, 139): (1, 'd1ac404568f65e72'),
    (7, 0.05, 0.2, 5, False, 140): (2, 'f4c2b8686252dac1'),
    (7, 0.05, 0.2, 5, True, 141): (1, '654d0b24119bc826'),
    (7, 0.05, 0.2, 200, False, 142): (1, 'ebba165e58acd0d6'),
    (7, 0.05, 0.2, 200, True, 143): (1, '24777cf46f2116ba'),
    (7, 0.5, 0.0, 1, False, 144): (1, '23936e0a55c9d237'),
    (7, 0.5, 0.0, 1, True, 145): (1, 'fbf4dcf2a12f30c3'),
    (7, 0.5, 0.0, 5, False, 146): (1, '6d0f5de779835d35'),
    (7, 0.5, 0.0, 5, True, 147): (2, '26cfee88f45ea43e'),
    (7, 0.5, 0.0, 200, False, 148): (1, '0639e2106db68bfa'),
    (7, 0.5, 0.0, 200, True, 149): (1, 'af4815b584bc012b'),
    (7, 0.5, 0.03, 1, False, 150): (1, '8093c5d863ac04eb'),
    (7, 0.5, 0.03, 1, True, 151): (1, '8a91977152d1f89c'),
    (7, 0.5, 0.03, 5, False, 152): (1, '13f828a26936ae66'),
    (7, 0.5, 0.03, 5, True, 153): (2, '6f592277b346f0b6'),
    (7, 0.5, 0.03, 200, False, 154): (4, '8167d5f71f731964'),
    (7, 0.5, 0.03, 200, True, 155): (1, '5e92a24dfa17075b'),
    (7, 0.5, 0.2, 1, False, 156): (1, '277b4caf839f40cc'),
    (7, 0.5, 0.2, 1, True, 157): (1, 'de3ec60789614f37'),
    (7, 0.5, 0.2, 5, False, 158): (2, '1dd7d333287a4042'),
    (7, 0.5, 0.2, 5, True, 159): (1, '86a31abd5bc49012'),
    (7, 0.5, 0.2, 200, False, 160): (3, '13ad1efc601ec42d'),
    (7, 0.5, 0.2, 200, True, 161): (1, '7ba341b0439c9f99'),
    (9, 0.0, 0.0, 1, False, 162): (1, '110530ff25b17346'),
    (9, 0.0, 0.0, 1, True, 163): (1, 'e5742972c48a5cb5'),
    (9, 0.0, 0.0, 5, False, 164): (1, '9af7082b6695a40a'),
    (9, 0.0, 0.0, 5, True, 165): (1, 'fc4bde1830ed95dd'),
    (9, 0.0, 0.0, 200, False, 166): (1, 'e54a737324a08423'),
    (9, 0.0, 0.0, 200, True, 167): (1, '4f89cc973e8ba754'),
    (9, 0.0, 0.03, 1, False, 168): (1, '1caa45f6fbf8617b'),
    (9, 0.0, 0.03, 1, True, 169): (1, 'e02821a6fd1f00de'),
    (9, 0.0, 0.03, 5, False, 170): (1, '2c39e9c596f35f03'),
    (9, 0.0, 0.03, 5, True, 171): (1, '4ed58dbf11ed61ef'),
    (9, 0.0, 0.03, 200, False, 172): (1, 'bbd4f1841db60030'),
    (9, 0.0, 0.03, 200, True, 173): (1, 'be421da43be1bbc8'),
    (9, 0.0, 0.2, 1, False, 174): (1, 'b801c1dd13844838'),
    (9, 0.0, 0.2, 1, True, 175): (1, 'd1f2ba720a10acf7'),
    (9, 0.0, 0.2, 5, False, 176): (3, '40b6abe3a4a2c40f'),
    (9, 0.0, 0.2, 5, True, 177): (2, '94e0aeba859cbfdc'),
    (9, 0.0, 0.2, 200, False, 178): (2, '025f64a4a67ab5e7'),
    (9, 0.0, 0.2, 200, True, 179): (1, 'eb3e61fa4dc17201'),
    (9, 0.05, 0.0, 1, False, 180): (1, '78116e593555c232'),
    (9, 0.05, 0.0, 1, True, 181): (1, '1376c5b11a8bde1d'),
    (9, 0.05, 0.0, 5, False, 182): (1, '38da6b6629db22ef'),
    (9, 0.05, 0.0, 5, True, 183): (1, '76f6610d0242828d'),
    (9, 0.05, 0.0, 200, False, 184): (1, 'b4056affec4d51eb'),
    (9, 0.05, 0.0, 200, True, 185): (1, '701de716744a3617'),
    (9, 0.05, 0.03, 1, False, 186): (1, 'c6446808999d57f8'),
    (9, 0.05, 0.03, 1, True, 187): (1, '1cb7ec83171914cc'),
    (9, 0.05, 0.03, 5, False, 188): (1, '10f0b1a7b27980cf'),
    (9, 0.05, 0.03, 5, True, 189): (2, '85c0ca374025df3e'),
    (9, 0.05, 0.03, 200, False, 190): (1, '7314f2cb10c123ac'),
    (9, 0.05, 0.03, 200, True, 191): (1, '409c438024db6ab9'),
    (9, 0.05, 0.2, 1, False, 192): (1, '496a87dff62c1ae9'),
    (9, 0.05, 0.2, 1, True, 193): (1, '33fbc239c5a7ccae'),
    (9, 0.05, 0.2, 5, False, 194): (1, '3a03a7a8adcbd967'),
    (9, 0.05, 0.2, 5, True, 195): (2, 'a637823c34e1c8a8'),
    (9, 0.05, 0.2, 200, False, 196): (1, '6d44fe5f89f7ae53'),
    (9, 0.05, 0.2, 200, True, 197): (1, 'ba564a7e65b36cf3'),
    (9, 0.5, 0.0, 1, False, 198): (1, '0a0254d895fca78a'),
    (9, 0.5, 0.0, 1, True, 199): (1, '8111fc583cb52a17'),
    (9, 0.5, 0.0, 5, False, 200): (1, 'a2d0505424f1c244'),
    (9, 0.5, 0.0, 5, True, 201): (1, '6686cab8b555ff22'),
    (9, 0.5, 0.0, 200, False, 202): (1, 'afa10c8b89fd3f3f'),
    (9, 0.5, 0.0, 200, True, 203): (3, '0579a410468bda4e'),
    (9, 0.5, 0.03, 1, False, 204): (1, 'f4415e6ee5bbf75b'),
    (9, 0.5, 0.03, 1, True, 205): (1, '039c340134dfcbca'),
    (9, 0.5, 0.03, 5, False, 206): (1, '84ca39e3d016ff26'),
    (9, 0.5, 0.03, 5, True, 207): (1, 'f47b6069abcb3122'),
    (9, 0.5, 0.03, 200, False, 208): (4, '42c5e13763e4bf50'),
    (9, 0.5, 0.03, 200, True, 209): (6, '69982186b6623c80'),
    (9, 0.5, 0.2, 1, False, 210): (1, '022e79b74e6c1b39'),
    (9, 0.5, 0.2, 1, True, 211): (1, 'daf79cc3d63411f0'),
    (9, 0.5, 0.2, 5, False, 212): (1, '060c3f41f7c57edd'),
    (9, 0.5, 0.2, 5, True, 213): (5, '9f75fbaca59c1a55'),
    (9, 0.5, 0.2, 200, False, 214): (3, '3cd662e6321c052d'),
    (9, 0.5, 0.2, 200, True, 215): (4, '3974e0490688dbdb'),
    (255, 0.0, 0.0, 1, False, 216): (1, 'fe29397fb258779c'),
    (255, 0.0, 0.0, 1, True, 217): (1, 'af4b00b7c135a75d'),
    (255, 0.0, 0.0, 5, False, 218): (1, '200252a83e9f75c7'),
    (255, 0.0, 0.0, 5, True, 219): (1, 'b83bbaae355736d4'),
    (255, 0.0, 0.0, 200, False, 220): (1, '765b19dd34226d0b'),
    (255, 0.0, 0.0, 200, True, 221): (1, 'e3d6ab8bf71501ce'),
    (255, 0.0, 0.03, 1, False, 222): (1, '758beff6513b9dbb'),
    (255, 0.0, 0.03, 1, True, 223): (1, '3ef06f789ef29d2b'),
    (255, 0.0, 0.03, 5, False, 224): (5, 'f30bd817d1d0cea3'),
    (255, 0.0, 0.03, 5, True, 225): (5, 'cf492d3af592cd08'),
    (255, 0.0, 0.03, 200, False, 226): (54, '3659546ca84fcfa7'),
    (255, 0.0, 0.03, 200, True, 227): (33, '1366ac88c22e6e32'),
    (255, 0.0, 0.2, 1, False, 228): (1, 'c9456f24428f05a4'),
    (255, 0.0, 0.2, 1, True, 229): (1, '07ab61b638a598a7'),
    (255, 0.0, 0.2, 5, False, 230): (5, '2c62bc81f2e718ce'),
    (255, 0.0, 0.2, 5, True, 231): (5, '5117475ac8bf0c67'),
    (255, 0.0, 0.2, 200, False, 232): (200, 'dca68df8b0bf590b'),
    (255, 0.0, 0.2, 200, True, 233): (200, '20529a61da00fcd7'),
    (255, 0.05, 0.0, 1, False, 234): (1, 'f56d07b9baa9fbc4'),
    (255, 0.05, 0.0, 1, True, 235): (1, 'b913b75eaaf5499a'),
    (255, 0.05, 0.0, 5, False, 236): (5, '8dbb939f25fbce12'),
    (255, 0.05, 0.0, 5, True, 237): (5, '8946dd0dd0085f64'),
    (255, 0.05, 0.0, 200, False, 238): (7, 'b71b6036fa576f59'),
    (255, 0.05, 0.0, 200, True, 239): (4, '5cc8f8392e61b214'),
    (255, 0.05, 0.03, 1, False, 240): (1, 'f54d8b35f8113746'),
    (255, 0.05, 0.03, 1, True, 241): (1, 'aa5cd4b783cffe22'),
    (255, 0.05, 0.03, 5, False, 242): (5, '13b9e5a131e8aa55'),
    (255, 0.05, 0.03, 5, True, 243): (5, '3291cf2f60d4259b'),
    (255, 0.05, 0.03, 200, False, 244): (200, 'f174f95c035d9aa0'),
    (255, 0.05, 0.03, 200, True, 245): (14, '4494f3a45071c927'),
    (255, 0.05, 0.2, 1, False, 246): (1, '7937f9ae2874d9c6'),
    (255, 0.05, 0.2, 1, True, 247): (1, 'c361f21bf17c3e74'),
    (255, 0.05, 0.2, 5, False, 248): (5, 'ecca7a0a8d26d39a'),
    (255, 0.05, 0.2, 5, True, 249): (5, '37278ba51b5a8e79'),
    (255, 0.05, 0.2, 200, False, 250): (200, '8be4c9c24092c243'),
    (255, 0.05, 0.2, 200, True, 251): (200, '55c6e5ea0f4c6913'),
    (255, 0.5, 0.0, 1, False, 252): (1, '3610d2446e85053d'),
    (255, 0.5, 0.0, 1, True, 253): (1, '00fb2dc465c0cb99'),
    (255, 0.5, 0.0, 5, False, 254): (5, '3b3cd9b380f9baed'),
    (255, 0.5, 0.0, 5, True, 255): (5, '328ab1b261d538d7'),
    (255, 0.5, 0.0, 200, False, 256): (200, 'a677c409f4bcd1cd'),
    (255, 0.5, 0.0, 200, True, 257): (200, '96d627ad28cd89d9'),
    (255, 0.5, 0.03, 1, False, 258): (1, '523cbaaffbf2ad40'),
    (255, 0.5, 0.03, 1, True, 259): (1, '19118db3ca61050f'),
    (255, 0.5, 0.03, 5, False, 260): (5, 'cb47e35af2d43e1d'),
    (255, 0.5, 0.03, 5, True, 261): (5, '99b2ad022f44be2f'),
    (255, 0.5, 0.03, 200, False, 262): (200, '3ab3d59455badfca'),
    (255, 0.5, 0.03, 200, True, 263): (200, 'f9bdce2dbe856ee0'),
    (255, 0.5, 0.2, 1, False, 264): (1, '1678e1f23a5b1650'),
    (255, 0.5, 0.2, 1, True, 265): (1, 'ac3074df797c2359'),
    (255, 0.5, 0.2, 5, False, 266): (5, '417e71521329303a'),
    (255, 0.5, 0.2, 5, True, 267): (5, '311089397bd8718e'),
    (255, 0.5, 0.2, 200, False, 268): (200, '612680312134a3d4'),
    (255, 0.5, 0.2, 200, True, 269): (200, 'af635b8b13373136'),
    (1024, 0.0, 0.0, 1, False, 270): (1, '32bd6c11791faec5'),
    (1024, 0.0, 0.0, 1, True, 271): (1, '166249a4c6a8aa3c'),
    (1024, 0.0, 0.0, 5, False, 272): (1, 'a5989a64b78003b9'),
    (1024, 0.0, 0.0, 5, True, 273): (1, '077d898772e26ace'),
    (1024, 0.0, 0.0, 200, False, 274): (1, '518d6dfd690d9a84'),
    (1024, 0.0, 0.0, 200, True, 275): (1, '78298245a05495f2'),
    (1024, 0.0, 0.03, 1, False, 276): (1, '585ba257cdf4aa0a'),
    (1024, 0.0, 0.03, 1, True, 277): (1, '5749e4969045af39'),
    (1024, 0.0, 0.03, 5, False, 278): (5, 'e2801ecf9a53deca'),
    (1024, 0.0, 0.03, 5, True, 279): (5, '8ec383d36c25b831'),
    (1024, 0.0, 0.03, 200, False, 280): (200, '1cb0783723053872'),
    (1024, 0.0, 0.03, 200, True, 281): (200, '5b2aab773e1528c2'),
    (1024, 0.0, 0.2, 1, False, 282): (1, '00e952a2a0dd038c'),
    (1024, 0.0, 0.2, 1, True, 283): (1, 'd18886e4a9c628cd'),
    (1024, 0.0, 0.2, 5, False, 284): (5, '322efe0f55d79dde'),
    (1024, 0.0, 0.2, 5, True, 285): (5, 'd3598ed6ef1a827a'),
    (1024, 0.0, 0.2, 200, False, 286): (200, '8441775c85f11fc7'),
    (1024, 0.0, 0.2, 200, True, 287): (200, '664041c52d7b6998'),
    (1024, 0.05, 0.0, 1, False, 288): (1, 'c20850b505c08916'),
    (1024, 0.05, 0.0, 1, True, 289): (1, '26d7802b1f7cfe55'),
    (1024, 0.05, 0.0, 5, False, 290): (5, '281e0d8f2672d5dd'),
    (1024, 0.05, 0.0, 5, True, 291): (5, '160c656e3961423f'),
    (1024, 0.05, 0.0, 200, False, 292): (200, '4f5ab1a8a2cd0320'),
    (1024, 0.05, 0.0, 200, True, 293): (200, '1b2f4c302ba23c71'),
    (1024, 0.05, 0.03, 1, False, 294): (1, '17f8bb5d23a65a27'),
    (1024, 0.05, 0.03, 1, True, 295): (1, '369b635bb7223970'),
    (1024, 0.05, 0.03, 5, False, 296): (5, 'e50af2bee1aad3c1'),
    (1024, 0.05, 0.03, 5, True, 297): (5, 'cbcbb7ee8d41c004'),
    (1024, 0.05, 0.03, 200, False, 298): (200, '5d7da48ed12409f7'),
    (1024, 0.05, 0.03, 200, True, 299): (200, 'b3a95e44a61f7189'),
    (1024, 0.05, 0.2, 1, False, 300): (1, '695df0033b4170f7'),
    (1024, 0.05, 0.2, 1, True, 301): (1, 'fa4762f8809ed3f9'),
    (1024, 0.05, 0.2, 5, False, 302): (5, '361aece56100f7bf'),
    (1024, 0.05, 0.2, 5, True, 303): (5, 'f079bbf2320d1aa4'),
    (1024, 0.05, 0.2, 200, False, 304): (200, 'a8854d5d6f80df91'),
    (1024, 0.05, 0.2, 200, True, 305): (200, 'ca21bcebb151986f'),
    (1024, 0.5, 0.0, 1, False, 306): (1, '6801b4d618b99a42'),
    (1024, 0.5, 0.0, 1, True, 307): (1, '4e898b09b55ad74b'),
    (1024, 0.5, 0.0, 5, False, 308): (5, '6a68121cd684998f'),
    (1024, 0.5, 0.0, 5, True, 309): (5, '51a10e086eda5417'),
    (1024, 0.5, 0.0, 200, False, 310): (200, 'd3edc29b629bf763'),
    (1024, 0.5, 0.0, 200, True, 311): (200, 'b629ce3f43fecc3c'),
    (1024, 0.5, 0.03, 1, False, 312): (1, '35c5d04eb5fb5107'),
    (1024, 0.5, 0.03, 1, True, 313): (1, 'fd5d970ed95a368d'),
    (1024, 0.5, 0.03, 5, False, 314): (5, 'd914367a51bb6637'),
    (1024, 0.5, 0.03, 5, True, 315): (5, '7d0067a63e005a14'),
    (1024, 0.5, 0.03, 200, False, 316): (200, '5e2565d0c9fed76a'),
    (1024, 0.5, 0.03, 200, True, 317): (200, 'ed7b4a1565361564'),
    (1024, 0.5, 0.2, 1, False, 318): (1, '148dea2a9d0e3286'),
    (1024, 0.5, 0.2, 1, True, 319): (1, 'e488ce0878eb482e'),
    (1024, 0.5, 0.2, 5, False, 320): (5, '0303adea09af49c6'),
    (1024, 0.5, 0.2, 5, True, 321): (5, '24281afadb452312'),
    (1024, 0.5, 0.2, 200, False, 322): (200, '948d0d2490010f65'),
    (1024, 0.5, 0.2, 200, True, 323): (200, 'c6609b3ffc2a8add'),
}


def _blocked_and_reference(seed, config):
    """run_digest_protocol and the round-by-round loop of generate_round,
    channel_transmit, sift and key_digest on one seeded random scenario:
    each one's outcome and the stream after it."""
    pick = np.random.default_rng(seed)
    pulses = int(pick.choice([2, 5, 8, 13, 100, 257, 258, pick.integers(1, 700)]))
    model = ChannelModel(
        float(pick.choice([0.0, 0.002, 0.01, 0.05, 1.0])),
        float(pick.choice([0.0, 0.0, 0.01, 0.5, 1.0])),
    )
    max_rounds = int(pick.choice([1, 3, 40, 90]))
    predraw = int(pick.integers(0, 3))  # 1 or 2 leave a half-word buffered
    outcomes = []
    for blocked in (True, False):
        rng = Rng(seed)
        rng.np.integers(0, 2, predraw, dtype=np.uint8)
        if blocked:
            try:
                run = run_digest_protocol(pulses, model, config, max_rounds, rng)
                got = (run.rounds, run.alice_key.tolist(), run.bob_key.tolist())
            except NoKeyError as exc:
                got = (exc.rounds, exc.pulses)
        else:
            got = (max_rounds, max_rounds * pulses)
            for round_no in range(1, max_rounds + 1):
                train, bob_bases = generate_round(pulses, rng)
                bob_bits = channel_transmit(train, bob_bases, model, rng)
                pair = sift(train, bob_bases, bob_bits)
                alice_digest = key_digest(pair.alice_key, config)
                if alice_digest == key_digest(pair.bob_key, config):
                    got = (round_no, pair.alice_key.tolist(), pair.bob_key.tolist())
                    break
        tail = rng.np.integers(0, 2, 7, dtype=np.uint8).tolist()
        outcomes.append((got, tail, rng.np.bit_generator.random_raw(3).tolist()))
    return outcomes


class TestDigestGolden:
    @pytest.mark.parametrize("case", sorted(_DIGEST_GOLDEN))
    def test_grid_pinned(self, case):
        assert _digest_fingerprint(*case) == _DIGEST_GOLDEN[case]

    def test_success_deep_in_a_run_pinned(self):
        # Odd words per 32-bit group (258 pulses), a buffered half-word at
        # the start and an adversary; the digests first agree in round 73.
        assert _digest_fingerprint(258, 0.05, 0.02, 200, True, 3) == (
            73, "ddcb1343c64795c6"
        )

    @pytest.mark.parametrize("seed", range(40))
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
    """The cascade arm as it ran before it decoded raw words: one
    generate_round, channel_transmit and sift per attempt, and a sample
    chosen by sorting the split of a permutation."""
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
    perm = rng.np.permutation(n)
    sample, rest = np.sort(perm[:m]), np.sort(perm[m:])
    estimate = np.count_nonzero(pair.alice_key[sample] != pair.bob_key[sample]) / m
    remainder = qkd.SiftedPair(pair.alice_key[rest], pair.bob_key[rest])
    config = qkd.CascadeConfig(
        scenario.passes, min(float(estimate), 0.5), rng.getrandbits(64)
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


class TestCascadeArm:
    @pytest.mark.parametrize("pulses", [2, 3, 5, 9, 64, 1024])
    @pytest.mark.parametrize("sample_frac", [0.1, 0.5])
    def test_matches_per_call_arm(self, pulses, sample_frac):
        # Each channel with and without a half-word buffered before the
        # trial; the records and every later draw must agree.
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
cascade,0,1,5,64,25,0,true
cascade,1,1,10,64,30,0,true
cascade,2,1,5,64,29,0,true
cascade,3,1,5,64,27,2,false
digest,0,1,64,64,27,0,true
digest,1,1,64,64,39,0,true
digest,2,1,64,64,26,0,true
digest,3,2,128,128,36,0,true
cascade,summary,1.000000,6.250000,2.306306,,0.018018,0.750000
digest,summary,1.250000,80.000000,2.500000,,0.000000,1.000000
"""

# sample_frac=0.99 leaves no remainder on a short sifted key, so cascade
# trials 1-3 redo their round; max_rounds=2 makes digest trials 0, 2 and
# 3 end in NoKeyError.
GOLDEN_EXHAUSTED_CSV = """\
strategy,trial,rounds,disclosed_bits,pulses,accepted_bits,residual_errors,success
cascade,0,1,4,200,1,0,true
cascade,1,4,4,800,1,0,true
cascade,2,2,4,400,1,0,true
cascade,3,2,4,400,1,0,true
digest,0,2,64,400,0,0,false
digest,1,1,32,200,89,0,true
digest,2,2,64,400,0,0,false
digest,3,2,64,400,0,0,false
cascade,summary,2.250000,4.000000,450.000000,,0.000000,1.000000
digest,summary,1.750000,56.000000,15.730337,,0.000000,0.250000
"""
GOLDEN_EXHAUSTED_TABLE = """\
strategy   trials   rounds  disclosed  pulses/bit   residual  success
---------------------------------------------------------------------
cascade         4    2.250        4.0     450.000   0.000000    1.000
digest          4    1.750       56.0      15.730   0.000000    0.250
"""


class TestGoldenReports:
    def test_csv_pinned(self, rendering_report):
        text = render_csv(rendering_report)
        assert text == GOLDEN_CSV
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f190e89bc814822310f2dccb14886a6bd3cd7e6b9fbec51a7a9de7a7663c93c2"
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
            "ad6089c357e900220e7f740fb83147e65b10baba78ee765cbbbffae251e875ff"
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
