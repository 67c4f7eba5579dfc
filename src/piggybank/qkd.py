"""BB84-style channel simulator and the digest-retry reconciliation study.

The channel model supports an intercept-resend adversary measuring a
fraction of pulses in random bases, plus unconditional bit-flip noise.
Two post-processing strategies are compared on identical channels:

  * cascade: sacrifice a sample to estimate the error rate, then repair
    the remainder with parity reconciliation (piggybank.cascade);
  * digest: never repair, announce a truncated hash of the whole sifted
    key and throw the round away on mismatch, repeating until a round
    survives.

The channel physics runs on packed 64-bit words, bit j of word k being
pulse 64k + j. The cascade arm draws each round with generate_round,
channel_transmit and sift; the digest arm decodes, sifts and packs whole
blocks of rounds from raw PCG64 words as they would. A scenario and its
Rng's seed reproduce byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cascade import CascadeConfig, cascade_reconcile
from .errors import NoKeyError
from .numtheory import Rng


@dataclass(frozen=True)
class PulseTrain:
    """Sender-side record of one round: bit and basis per pulse."""

    bits: np.ndarray
    bases: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.shape != self.bases.shape or self.bits.ndim != 1:
            raise ValueError("bits and bases must be equal-length 1-d arrays")

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class ChannelModel:
    """p_noise flips each received bit independently; eve_fraction is the
    share of pulses measured and resent by an intercept-resend adversary."""

    p_noise: float = 0.0
    eve_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_noise <= 1.0:
            raise ValueError("p_noise must lie in [0, 1]")
        if not 0.0 <= self.eve_fraction <= 1.0:
            raise ValueError("eve_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class SiftedPair:
    """Basis-matched bits on both sides."""

    alice_key: np.ndarray
    bob_key: np.ndarray

    def __len__(self) -> int:
        return int(self.alice_key.size)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of uint64 words along their last axis, least
    significant bit of each word first (bit j of word k is pulse 64k + j),
    as uint8 0s and 1s."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :n]


def _words(flags: np.ndarray, count: int) -> np.ndarray:
    """_bits' inverse: `count` words per row of flags along the last axis,
    a nonzero flag a set bit, the spare bits clear."""
    octets = np.zeros(flags.shape[:-1] + (8 * count,), np.uint8)
    octets[..., : -(-flags.shape[-1] // 8)] = np.packbits(flags, -1, "little")
    return octets.view("<u8")


def _random_below(take, n: int, p: float) -> np.ndarray:
    """n draws of `random() < p` from the next ceil(n/2) raw words: their
    32-bit halves, low half first, each True when below ceil(p * 2**32),
    so at p = 1 every draw is True."""
    halves = take(-(-n // 2)).astype("<u8", copy=False).view("<u4")[..., :n]
    return halves <= np.uint32(math.ceil(p * 2.0**32) - 1)


def generate_round(n_pulses: int, rng: Rng) -> tuple[PulseTrain, np.ndarray]:
    """Alice's random bits and bases, and Bob's independent basis choices,
    drawn in that order, each the _bits of the next ceil(n_pulses/64) of
    rng's raw words."""
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    take, count = rng.np.bit_generator.random_raw, -(-n_pulses // 64)
    bits, bases, bob_bases = (_bits(take(count), n_pulses) for _ in range(3))
    return PulseTrain(bits, bases), bob_bases


def channel_transmit(
    train: PulseTrain,
    bob_bases: np.ndarray,
    model: ChannelModel,
    rng: Rng,
) -> np.ndarray:
    """Bob's measured bits after the adversary and the noisy channel,
    drawn from rng's raw words as _measure says. Bits and bases must be
    bool or integer arrays holding only 0 and 1."""
    n = len(train)
    if bob_bases.shape != train.bits.shape:
        raise ValueError("bob_bases length must match the pulse train")
    for values in (train.bits, train.bases, bob_bases):
        if values.dtype.kind not in "biu" or not ((values == 0) | (values == 1)).all():
            raise ValueError("bits and bases must be integer arrays of 0s and 1s")
    count = -(-n // 64)
    words = [_words(values, count) for values in (train.bits, train.bases, bob_bases)]
    take = rng.np.bit_generator.random_raw
    return _bits(_measure(take, *words, model, n), n)


def _measure(
    take,
    bits: np.ndarray,
    bases: np.ndarray,
    bob_bases: np.ndarray,
    model: ChannelModel,
    n: int,
) -> np.ndarray:
    """The channel physics over the words of n pulses, laid out as _bits
    reads them, along their last axis, one round or many, drawn from the
    raw words `take(count)` returns in this order: the adversary's hits,
    bases and random outcomes (only when eve_fraction > 0), Bob's random
    outcomes, then the noise flips (only when p_noise > 0). Returns Bob's
    bits as words, their spare bits arbitrary.

    A measurement in the pulse's own basis reproduces its bit; any basis
    mismatch yields the random outcome drawn for it. The adversary, on
    the pulses she hits, resends in her measurement basis, so her wrong
    guesses poison Bob's statistics even where his basis matches
    Alice's. A noise flip inverts Bob's bit. Each choice is a select on
    words, b ^ ((a ^ b) & m) taking a where m is set.
    """
    count = bits.shape[-1]
    send_bits, send_bases = bits, bases
    if model.eve_fraction > 0.0:
        hit = _words(_random_below(take, n, model.eve_fraction), count)
        eve_bases, eve_noise = take(count), take(count)
        # A hit in the other basis resends her basis and random outcome.
        swapped = (eve_bases ^ bases) & hit
        send_bits = bits ^ ((eve_noise ^ bits) & swapped)
        send_bases = bases ^ swapped
    outcomes = take(count)
    bob_bits = send_bits ^ ((outcomes ^ send_bits) & (bob_bases ^ send_bases))
    if model.p_noise > 0.0:
        bob_bits ^= _words(_random_below(take, n, model.p_noise), count)
    return bob_bits


def sift(
    train: PulseTrain,
    bob_bases: np.ndarray,
    bob_bits: np.ndarray,
) -> SiftedPair:
    """Keep only the positions where Bob guessed Alice's basis."""
    kept = np.flatnonzero(train.bases == bob_bases)
    return SiftedPair(train.bits[kept], np.asarray(bob_bits)[kept])


def estimate_qber(
    pair: SiftedPair,
    sample_frac: float,
    rng: Rng,
) -> tuple[float, SiftedPair]:
    """Sacrifice a random sample to estimate the error rate.

    Returns the estimate and the pair with the sampled positions removed
    (they are public now and cannot stay in the key).
    """
    if not 0.0 < sample_frac <= 1.0:
        raise ValueError("sample_frac must lie in (0, 1]")
    n = len(pair)
    if n == 0:
        raise ValueError("nothing to sample")
    m = math.ceil(sample_frac * n)
    sampled = np.zeros(n, dtype=bool)
    sampled[rng.np.choice(n, m, replace=False)] = True
    errors = int(np.count_nonzero((pair.alice_key != pair.bob_key) & sampled))
    rest = np.flatnonzero(~sampled)
    return errors / m, SiftedPair(pair.alice_key.take(rest), pair.bob_key.take(rest))


@dataclass(frozen=True)
class DigestConfig:
    hash_id: str = "sha256"
    truncate_bits: int = 256

    def __post_init__(self) -> None:
        try:
            size_bits = hashlib.new(self.hash_id).digest_size * 8
        except ValueError as exc:
            raise ValueError(f"unknown hash {self.hash_id!r}") from exc
        if not 32 <= self.truncate_bits <= size_bits:
            raise ValueError(
                f"truncate_bits must lie in [32, {size_bits}] for {self.hash_id}"
            )


def key_digest(key: np.ndarray, config: DigestConfig) -> int:
    """Truncated hash of a bit-string key: hash(8-byte bit count || packed
    bits), keeping the most significant truncate_bits of the digest."""
    packed = np.packbits(np.asarray(key, dtype=np.uint8)).tobytes()
    return _digest(int(key.size), packed, hashlib.new(config.hash_id), config)


def _digest(size: int, packed: bytes, digest, config: DigestConfig) -> int:
    """key_digest of the `size`-bit key whose packbits bytes are `packed`;
    `digest` is a hashlib object of config.hash_id that nothing has fed
    yet, and this call feeds it."""
    digest.update(size.to_bytes(8, "big"))
    digest.update(packed)
    value = int.from_bytes(digest.digest(), "big")
    return value >> (digest.digest_size * 8 - config.truncate_bits)


@dataclass(frozen=True)
class DigestRun:
    alice_key: np.ndarray
    bob_key: np.ndarray
    rounds: int
    pulses: int


# Raw words drawn per block of digest rounds (256 KiB); a block always
# holds at least one round, however long.
_BLOCK_WORDS = 1 << 15


def _round_words(n_pulses: int, model: ChannelModel) -> int:
    """Raw words one round draws: four bit arrays, two more and the hits
    with an adversary, and the flips on a noisy channel."""
    eve, noisy = model.eve_fraction > 0.0, model.p_noise > 0.0
    return (4 + 2 * eve) * -(-n_pulses // 64) + (eve + noisy) * -(-n_pulses // 2)


# Each byte value's count of set bits.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], 1).sum(1, np.uint8)


def _sifted_rounds(
    words: np.ndarray, n_pulses: int, model: ChannelModel
) -> tuple[bytes, bytes, list[int], list[int]]:
    """Both sifted keys of each round whose raw words are a row of
    `words`, as generate_round, channel_transmit and sift make them from
    those words.

    Returns all rounds' keys end to end as np.packbits bytes, each key
    padded with 0 bits to whole bytes, Alice's and Bob's; each key's
    length in bits; and the byte index where each round's keys end.
    """
    rows = words.reshape(-1, _round_words(n_pulses, model))
    count, used = -(-n_pulses // 64), 0

    def take(count: int) -> np.ndarray:  # the next `count` words of every row
        nonlocal used
        used += count
        return rows[:, used - count : used]

    bits, bases, bob_bases = (take(count) for _ in range(3))
    bob_bits = _measure(take, bits, bases, bob_bases, model, n_pulses)
    sifted = ~(bases ^ bob_bases)
    if n_pulses % 64:
        sifted[:, -1] &= np.uint64((1 << n_pulses % 64) - 1)
    # Each row's sift mask, bits and Bob's bits as bytes, then one byte
    # that keeps 0-valued pulses to pad the row's keys to whole bytes.
    octets = np.zeros((3, len(rows), 8 * count + 1), np.uint8)
    for plane, values in zip(octets, (sifted, bits, bob_bits)):
        plane[:, :-1] = values.astype("<u8", copy=False).view(np.uint8)
    sizes = _POPCOUNT.take(octets[0]).sum(axis=1, dtype=np.intp)
    octets[0, :, -1] = (1 << -sizes % 8) - 1
    pulses = np.unpackbits(octets, axis=-1, bitorder="little")
    # Alice's bit plus twice Bob's, on uint8 (adds run faster than shifts)
    both = pulses[1] + pulses[2] + pulses[2]
    kept = both.take(np.flatnonzero(pulses[0].view(bool)))
    alice, bob = (np.packbits(kept & side).tobytes() for side in (1, 2))
    return alice, bob, sizes.tolist(), np.cumsum((sizes + 7) // 8).tolist()


def _first_agreeing(
    alice: bytes, bob: bytes, sizes: list[int], ends: list[int], config: DigestConfig
) -> int | None:
    """The first row, as _sifted_rounds returns them, whose two keys'
    key_digest agree, or None if none does: both keys of every row up to
    it are hashed, from copies of one hash object fed the row's bit count,
    and their digests compared on the first truncate_bits bits."""
    fresh = hashlib.new(config.hash_id)
    last = (config.truncate_bits - 1) // 8  # the last digest byte compared
    spare = 8 * last + 8 - config.truncate_bits  # and its bits past the cut
    start = 0
    for row, (size, end) in enumerate(zip(sizes, ends)):
        bob_hash = fresh.copy()
        bob_hash.update(size.to_bytes(8, "big"))
        alice_hash = bob_hash.copy()
        alice_hash.update(alice[start:end])
        bob_hash.update(bob[start:end])
        a, b = alice_hash.digest(), bob_hash.digest()
        if a[:last] == b[:last] and not (a[last] ^ b[last]) >> spare:
            return row
        start = end
    return None


def run_digest_protocol(
    n_pulses: int,
    model: ChannelModel,
    config: DigestConfig,
    max_rounds: int,
    rng: Rng,
) -> DigestRun:
    """Repeat whole rounds until the sifted keys' digests agree.

    No bits are sacrificed for estimation; the digest is the only check.
    Raises NoKeyError when max_rounds rounds all fail.

    Rounds are drawn as raw words in blocks of 1, 2, 4, ... rounds (at
    most _BLOCK_WORDS words unless one round needs more), and each block
    is sifted and packed at once (_sifted_rounds); its rounds are checked
    in order up to the first that agrees (_first_agreeing). The result is
    the round-by-round loop of generate_round, channel_transmit and
    sift's; the stream may be drawn past the accepted round, so what it
    holds afterwards is not part of the result.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be positive")
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    per_round = _round_words(n_pulses, model)
    done, block = 0, 1
    while done < max_rounds:
        count = min(block, max_rounds - done, max(1, _BLOCK_WORDS // per_round))
        words = rng.np.bit_generator.random_raw(count * per_round)
        alice, bob, sizes, ends = _sifted_rounds(words, n_pulses, model)
        row = _first_agreeing(alice, bob, sizes, ends, config)
        if row is not None:
            cut, rounds = slice(ends[row - 1] if row else 0, ends[row]), done + row + 1
            keys = (np.frombuffer(side[cut], np.uint8) for side in (alice, bob))
            alice_key, bob_key = (np.unpackbits(key, count=sizes[row]) for key in keys)
            return DigestRun(alice_key, bob_key, rounds, rounds * n_pulses)
        done += count
        block *= 2
    raise NoKeyError(max_rounds, max_rounds * n_pulses)


# --- scenario files and the strategy comparison ---

# Least chance, as a power of 2, that a cascade-arm round leaves a
# remainder; below it a trial would need some 10^12 rounds on average.
_MIN_LOG2_CHANCE = -40


def _log2_remainder_chance(pulses: int, sample_frac: float) -> float:
    """log2 of the chance that a round's sifted length, Bin(pulses, 1/2),
    leaves a remainder after its sample (see Scenario). The rule holds at
    every length from the shortest one that passes it, L, up, so this is
    P(Bin(pulses, 1/2) >= L). Returns -1.0 when L <= (pulses + 1) / 2,
    where the chance is at least 1/2 by symmetry. The rule must hold at
    L = pulses."""
    lo = 2 + bisect_left(
        range(2, pulses), True, key=lambda m: math.ceil(sample_frac * m) < m
    )
    if 2 * lo <= pulses + 1:
        return -1.0
    # P(Bin = lo) times the sum of the later terms relative to it; their
    # ratios (pulses - k) / (k + 1) fall below 1 and keep falling.
    log_first = math.lgamma(pulses + 1) - math.lgamma(lo + 1)
    log_first -= math.lgamma(pulses - lo + 1)
    total, term = 1.0, 1.0
    for k in range(lo, pulses):
        term *= (pulses - k) / (k + 1)
        total += term
        if term < 1e-17 * total:
            break
    return (log_first + math.log(total)) / math.log(2) - pulses


@dataclass(frozen=True)
class Scenario:
    pulses: int = 1024
    p_noise: float = 0.0
    eve_fraction: float = 0.0
    passes: int = 4
    sample_frac: float = 0.1
    trials: int = 100
    seed: int = 0
    hash_id: str = "sha256"
    truncate_bits: int = 256
    max_rounds: int = 10000

    def __post_init__(self) -> None:
        if self.pulses < 2:
            raise ValueError("pulses must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        ChannelModel(self.p_noise, self.eve_fraction)
        CascadeConfig(passes=self.passes)
        DigestConfig(self.hash_id, self.truncate_bits)
        if not 0.0 < self.sample_frac < 1.0:
            raise ValueError("sample_frac must lie in (0, 1)")
        # The cascade arm redraws a round until its sifted length n leaves
        # a remainder after the sample, ceil(f * n) < n. That holds at n
        # only if it holds at every longer length, so unless it holds at
        # n = pulses (every basis matched) the arm would never stop.
        if math.ceil(self.sample_frac * self.pulses) >= self.pulses:
            raise ValueError(
                f"sample_frac={self.sample_frac} leaves no remainder of "
                f"{self.pulses} pulses: ceil(sample_frac * pulses) >= pulses"
            )
        chance = _log2_remainder_chance(self.pulses, self.sample_frac)
        if chance < _MIN_LOG2_CHANCE:
            raise ValueError(
                f"sample_frac={self.sample_frac} on {self.pulses} pulses leaves "
                f"a remainder with chance 2^{chance:.1f} a round, below "
                f"2^{_MIN_LOG2_CHANCE}: the cascade arm would not finish"
            )
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")


# Scenario-file key -> Scenario field, typed by its default; each is a qkd flag.
_SCENARIO_KEYS = {
    "hash" if field.name == "hash_id" else field.name: field
    for field in fields(Scenario)
}


def parse_scenario(text: str) -> Scenario:
    """Parse a flat key=value scenario; '#' starts a comment.

    Unknown or duplicate keys are errors so a typo cannot silently run
    the default.
    """
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        field = _SCENARIO_KEYS[key]
        if field.name in values:
            raise ValueError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[field.name] = type(field.default)(value)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad value for {key!r}: {exc}") from exc
    return Scenario(**values)


@dataclass(frozen=True)
class TrialRecord:
    strategy: str
    trial: int
    rounds: int
    disclosed_bits: int
    pulses: int
    accepted_bits: int
    residual_errors: int
    success: bool


@dataclass(frozen=True)
class StrategyStats:
    trials: int
    mean_rounds: float
    mean_disclosed_bits: float
    pulses_per_accepted_bit: float
    residual_error_rate: float
    success_rate: float


@dataclass(frozen=True)
class StrategyReport:
    scenario: Scenario
    cascade: StrategyStats
    digest: StrategyStats
    records: tuple[TrialRecord, ...]


def _cascade_trial(scenario: Scenario, trial: int, rng: Rng) -> TrialRecord:
    model = ChannelModel(scenario.p_noise, scenario.eve_fraction)
    rounds = 0
    while True:
        train, bob_bases = generate_round(scenario.pulses, rng)
        pair = sift(train, bob_bases, channel_transmit(train, bob_bases, model, rng))
        rounds += 1
        # The sample is sacrificed, so the round must leave a remainder.
        if math.ceil(scenario.sample_frac * len(pair)) < len(pair):
            break
    estimate, remainder = estimate_qber(pair, scenario.sample_frac, rng)
    # An error-free sample of m bits bounds the rate by 3/m at 95% (the
    # rule of three); a hint of 0 would make the first block most of the
    # key. Any hint from 0.487 up gives block size 1; CascadeConfig
    # refuses 1.0.
    floor = 3 / (len(pair) - len(remainder))
    config = CascadeConfig(
        passes=scenario.passes,
        qber_hint=min(max(estimate, floor), 0.5),
        shuffle_seed=rng.getrandbits(64),
    )
    result = cascade_reconcile(remainder, config)
    residual = int(
        np.count_nonzero(result.corrected_bob_key != remainder.alice_key)
    )
    return TrialRecord(
        strategy="cascade",
        trial=trial,
        rounds=rounds,
        disclosed_bits=result.parities_disclosed,
        pulses=rounds * scenario.pulses,
        accepted_bits=len(remainder),
        residual_errors=residual,
        success=result.success,
    )


def _digest_trial(scenario: Scenario, trial: int, rng: Rng) -> TrialRecord:
    model = ChannelModel(scenario.p_noise, scenario.eve_fraction)
    config = DigestConfig(scenario.hash_id, scenario.truncate_bits)
    try:
        run = run_digest_protocol(
            scenario.pulses, model, config, scenario.max_rounds, rng
        )
    except NoKeyError as exc:
        rounds, pulses, accepted, residual = exc.rounds, exc.pulses, 0, 0
        success = False
    else:
        rounds, pulses, accepted = run.rounds, run.pulses, len(run.alice_key)
        residual = int(np.count_nonzero(run.bob_key != run.alice_key))
        success = residual == 0
    return TrialRecord(
        strategy="digest",
        trial=trial,
        rounds=rounds,
        disclosed_bits=rounds * scenario.truncate_bits,
        pulses=pulses,
        accepted_bits=accepted,
        residual_errors=residual,
        success=success,
    )


def _stats(records: list[TrialRecord]) -> StrategyStats:
    n = len(records)
    total_accepted = sum(r.accepted_bits for r in records)
    total_pulses = sum(r.pulses for r in records)
    total_residual = sum(r.residual_errors for r in records)
    return StrategyStats(
        trials=n,
        mean_rounds=sum(r.rounds for r in records) / n,
        mean_disclosed_bits=sum(r.disclosed_bits for r in records) / n,
        pulses_per_accepted_bit=(
            total_pulses / total_accepted if total_accepted else math.inf
        ),
        residual_error_rate=(
            total_residual / total_accepted if total_accepted else 0.0
        ),
        success_rate=sum(r.success for r in records) / n,
    )


def _trial_streams(seed: int, trial: int) -> tuple[Rng, Rng]:
    """Trial `trial`'s cascade-arm and digest-arm streams: the two
    children that SeedSequence(seed, spawn_key=(trial,)) spawns, which is
    SeedSequence(seed).spawn's child `trial`, each seeding an Rng with its
    first 64-bit state word.

    The spawn key keeps every (seed, trial) pair's entropy distinct:
    SeedSequence([seed, trial]) would read seed 5, trial 3 and seed
    5 + 3 * 2**32, trial 0 as the same words.
    """
    children = np.random.SeedSequence(seed, spawn_key=(trial,)).spawn(2)
    cascade, digest = (Rng(int(c.generate_state(1, np.uint64)[0])) for c in children)
    return cascade, digest


def compare_strategies(scenario: Scenario, rng: Rng) -> StrategyReport:
    """Run both strategies on identically distributed but independent
    channels: trial t's cascade arm and digest arm each draw from their
    own stream of _trial_streams(rng.seed, t)."""
    records: list[TrialRecord] = []
    for trial in range(scenario.trials):
        cascade_rng, digest_rng = _trial_streams(rng.seed, trial)
        records.append(_cascade_trial(scenario, trial, cascade_rng))
        records.append(_digest_trial(scenario, trial, digest_rng))
    cascade_records = [r for r in records if r.strategy == "cascade"]
    digest_records = [r for r in records if r.strategy == "digest"]
    return StrategyReport(
        scenario=scenario,
        cascade=_stats(cascade_records),
        digest=_stats(digest_records),
        records=tuple(records),
    )


def render_table(report: StrategyReport) -> str:
    """Human-readable comparison, one row per strategy."""
    header = (
        f"{'strategy':<10} {'trials':>6} {'rounds':>8} {'disclosed':>10} "
        f"{'pulses/bit':>11} {'residual':>10} {'success':>8}"
    )
    lines = [header, "-" * len(header)]
    for name, stats in (("cascade", report.cascade), ("digest", report.digest)):
        lines.append(
            f"{name:<10} {stats.trials:>6} {stats.mean_rounds:>8.3f} "
            f"{stats.mean_disclosed_bits:>10.1f} "
            f"{stats.pulses_per_accepted_bit:>11.3f} "
            f"{stats.residual_error_rate:>10.6f} {stats.success_rate:>8.3f}"
        )
    return "\n".join(lines) + "\n"


def render_csv(report: StrategyReport) -> str:
    """Machine-readable report: one row per (strategy, trial), then one
    summary row per strategy whose numeric columns carry the means
    (success carries the success rate). No timestamps, no environment:
    same scenario and seed give byte-identical output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(field.name for field in fields(TrialRecord))
    for record in sorted(report.records, key=lambda r: (r.strategy, r.trial)):
        row = asdict(record)
        row["success"] = str(record.success).lower()
        writer.writerow(row.values())
    for name, stats in (("cascade", report.cascade), ("digest", report.digest)):
        writer.writerow(
            [
                name,
                "summary",
                f"{stats.mean_rounds:.6f}",
                f"{stats.mean_disclosed_bits:.6f}",
                f"{stats.pulses_per_accepted_bit:.6f}",
                "",
                f"{stats.residual_error_rate:.6f}",
                f"{stats.success_rate:.6f}",
            ]
        )
    return out.getvalue()
