"""Channel simulator and strategy-comparison tests.

Statistical checks here use short runs with loose bands; the tight
long-run numbers live in the acceptance suite.
"""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

from piggybank import (
    ChannelModel,
    DigestConfig,
    NoKeyError,
    Rng,
    Scenario,
    channel_transmit,
    compare_strategies,
    digest_verify,
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
        assert pair.kept_indices.tolist() == kept
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
        remainder_set = set(remainder.kept_indices.tolist())
        assert remainder_set < set(pair.kept_indices.tolist())

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

    def test_digest_verify(self):
        config = DigestConfig("sha256", 48)
        key = Rng(23).np.integers(0, 2, 64, dtype=np.uint8)
        assert digest_verify(key, key.copy(), config)
        assert not digest_verify(key, key ^ 1, config)

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
