"""BB84-style channel simulator and the digest-retry reconciliation study.

The channel model supports an intercept-resend adversary measuring a
fraction of pulses in random bases, plus unconditional bit-flip noise.
Two post-processing strategies are compared on identical channels:

  * cascade: sacrifice a sample to estimate the error rate, then repair
    the remainder with parity reconciliation (piggybank.cascade);
  * digest: never repair, announce a truncated hash of the whole sifted
    key and throw the round away on mismatch, repeating until a round
    survives.

The cascade arm draws each round with generate_round, channel_transmit
and sift; the digest arm decodes blocks of rounds from raw PCG64 words
as they would. A scenario and its Rng's seed reproduce byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
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


def _random_bits(take, n: int) -> np.ndarray:
    """n random bits from the next ceil(n/64) raw PCG64 words that
    `take(count)` returns, least significant bit of each word first, as
    uint8 0s and 1s along the words' last axis."""
    octets = take(-(-n // 64)).astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :n]


def _random_below(take, n: int, p: float) -> np.ndarray:
    """n draws of `random() < p` from the next ceil(n/2) raw words: their
    32-bit halves, low half first, each True when below ceil(p * 2**32),
    so at p = 1 every draw is True."""
    halves = take(-(-n // 2)).astype("<u8", copy=False).view("<u4")[..., :n]
    return halves <= np.uint32(math.ceil(p * 2.0**32) - 1)


def generate_round(n_pulses: int, rng: Rng) -> tuple[PulseTrain, np.ndarray]:
    """Alice's random bits and bases, and Bob's independent basis choices,
    drawn in that order as _random_bits arrays of rng's raw words."""
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    take = rng.np.bit_generator.random_raw
    bits, bases, bob_bases = (_random_bits(take, n_pulses) for _ in range(3))
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
    take = rng.np.bit_generator.random_raw
    return _measure(take, train.bits, train.bases, bob_bases, model)


def _select(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.where(cond, a, b) for integer arrays, without branching per
    element: on a random mask np.where runs about 20x slower."""
    return b ^ ((a ^ b) * cond)


def _measure(
    take,
    bits: np.ndarray,
    bases: np.ndarray,
    bob_bases: np.ndarray,
    model: ChannelModel,
) -> np.ndarray:
    """The channel physics over arrays of pulses along their last axis,
    one round or many, drawn from the raw words `take(count)` returns in
    this order: the adversary's hits, bases and random outcomes (only
    when eve_fraction > 0), Bob's random outcomes, then the noise flips
    (only when p_noise > 0).

    A measurement in the pulse's own basis reproduces its bit; any basis
    mismatch yields the random outcome drawn for it. The adversary, on
    the pulses she hits, resends in her measurement basis, so her wrong
    guesses poison Bob's statistics even where his basis matches
    Alice's. A noise flip inverts Bob's bit.
    """
    n = bits.shape[-1]
    send_bits, send_bases = bits, bases
    if model.eve_fraction > 0.0:
        hit = _random_below(take, n, model.eve_fraction)
        eve_bases, eve_noise = _random_bits(take, n), _random_bits(take, n)
        eve_bits = _select(eve_bases == bases, bits, eve_noise)
        send_bits = _select(hit, eve_bits, bits)
        send_bases = _select(hit, eve_bases, bases)
    bob_bits = _select(bob_bases == send_bases, send_bits, _random_bits(take, n))
    if model.p_noise > 0.0:
        bob_bits ^= _random_below(take, n, model.p_noise)
    return bob_bits.astype(np.uint8, copy=False)


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
    rest = ~sampled
    return errors / m, SiftedPair(pair.alice_key[rest], pair.bob_key[rest])


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


def _sifted_rounds(
    words: np.ndarray, n_pulses: int, model: ChannelModel
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Both sifted keys of each round whose raw words are a row of
    `words`, as generate_round, channel_transmit and sift make them from
    those words.

    Returns every round's keys end to end, Alice's and Bob's, and the
    index where each round's keys end.
    """
    rows = words.reshape(-1, _round_words(n_pulses, model))
    used = 0

    def take(count: int) -> np.ndarray:  # the next `count` words of every row
        nonlocal used
        used += count
        return rows[:, used - count : used]

    bits, bases, bob_bases = (_random_bits(take, n_pulses) for _ in range(3))
    bob_bits = _measure(take, bits, bases, bob_bases, model)
    kept = np.flatnonzero(bases == bob_bases)
    ends = np.searchsorted(kept, np.arange(1, len(rows) + 1) * n_pulses).tolist()
    return bits.take(kept), bob_bits.take(kept), ends


def _packed_rows(keys: np.ndarray, ends: list[int]) -> list[bytes]:
    """np.packbits(keys[start:end]).tobytes() for each row of the flat
    `keys` that ends at an index in `ends`, from one packbits call."""
    top = -(-keys.size // 8) * 8
    whole = int.from_bytes(np.packbits(keys).tobytes(), "big")
    rows, start = [], 0
    for end in ends:  # key bit i is bit top - 1 - i of whole
        size = end - start
        nbytes = -(-size // 8)
        row = (whole >> (top - end)) & ((1 << size) - 1)
        rows.append((row << (nbytes * 8 - size)).to_bytes(nbytes, "big"))
        start = end
    return rows


def _first_agreeing(
    alice_keys: np.ndarray, bob_keys: np.ndarray, ends: list[int], config: DigestConfig
) -> int | None:
    """The first row, as in _packed_rows, whose two keys' key_digest
    agree, or None if none does. Each row's keys are hashed from copies
    of one hash object."""
    fresh = hashlib.new(config.hash_id)
    start = 0
    rows = zip(_packed_rows(alice_keys, ends), _packed_rows(bob_keys, ends), ends)
    for row, (alice_row, bob_row, end) in enumerate(rows):
        size = end - start
        alice = _digest(size, alice_row, fresh.copy(), config)
        if alice == _digest(size, bob_row, fresh.copy(), config):
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
    most _BLOCK_WORDS words unless one round needs more) and decoded at
    once. Each side's keys are packed once per block, and the rounds are
    checked in order up to the first that agrees (_first_agreeing). The
    result is the round-by-round loop of generate_round, channel_transmit
    and sift's; the stream may be drawn past the accepted round, so what
    it holds afterwards is not part of the result.
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
        alice_keys, bob_keys, ends = _sifted_rounds(words, n_pulses, model)
        row = _first_agreeing(alice_keys, bob_keys, ends, config)
        if row is not None:
            start, end = ends[row - 1] if row else 0, ends[row]
            rounds = done + row + 1
            return DigestRun(
                alice_keys[start:end].copy(),
                bob_keys[start:end].copy(),
                rounds,
                rounds * n_pulses,
            )
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
    lo, hi = 2, pulses
    while lo < hi:
        mid = (lo + hi) // 2
        if math.ceil(sample_frac * mid) < mid:
            hi = mid
        else:
            lo = mid + 1
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
