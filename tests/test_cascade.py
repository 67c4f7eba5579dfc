"""Parity-repair tests: a hand-traced repair, disclosure accounting, and
the cross-pass backtracking that rescues error pairs."""

import collections
import gc
import hashlib
import heapq
import itertools
import math
import os

import numpy as np
import pytest

from piggybank import (
    CascadeConfig,
    Rng,
    SiftedPair,
    cascade_reconcile,
    initial_block_size,
)


def make_pair(alice_bits, bob_bits) -> SiftedPair:
    alice = np.array(alice_bits, dtype=np.uint8)
    bob = np.array(bob_bits, dtype=np.uint8)
    return SiftedPair(alice, bob)


def zero_error_disclosure(hint: float, n: int, passes: int) -> int:
    """With no errors each pass announces one parity per block and stops."""
    k1 = initial_block_size(hint, n)
    return sum(math.ceil(n / min(n, k1 << p)) for p in range(passes))


class TestInitialBlockSize:
    @pytest.mark.parametrize(
        "hint,length,expected",
        [
            (0.25, 8, 3),
            (0.2, 8, 4),
            (0.03, 1024, 24),
            (0.0, 8, 6),  # floor kicks in: effective rate 1/8
            (0.5, 1000, 1),
            (0.000001, 1_000_000, 730000),
        ],
    )
    def test_frozen_values(self, hint, length, expected):
        assert initial_block_size(hint, length) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            initial_block_size(1.0, 8)
        with pytest.raises(ValueError):
            initial_block_size(-0.1, 8)
        with pytest.raises(ValueError):
            initial_block_size(0.1, 0)


class TestHandTraced:
    def test_single_error_one_pass(self):
        # n = 8, hint 0.2 gives k1 = 4; the error sits at index 3.
        # Announcements: two top blocks, then halves [0,1] and [2] while
        # bisecting, so exactly 4 parities cross the channel.
        pair = make_pair([1, 0, 1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0, 1, 0])
        result = cascade_reconcile(pair, CascadeConfig(passes=1, qber_hint=0.2))
        assert result.success
        assert np.array_equal(result.corrected_bob_key, pair.alice_key)
        assert result.parities_disclosed == 4

    def test_zero_errors_disclose_one_parity_per_block(self):
        bits = Rng(5).np.integers(0, 2, 32, dtype=np.uint8)
        result = cascade_reconcile(
            make_pair(bits, bits.copy()),
            CascadeConfig(passes=4, qber_hint=0.1, shuffle_seed=9),
        )
        assert result.success
        assert result.parities_disclosed == 11
        assert result.parities_disclosed == zero_error_disclosure(0.1, 32, 4)

    @pytest.mark.parametrize(
        "hint,n,passes", [(0.0, 8, 1), (0.05, 100, 4), (0.3, 7, 2)]
    )
    def test_zero_error_formula_holds(self, hint, n, passes):
        bits = Rng(n).np.integers(0, 2, n, dtype=np.uint8)
        result = cascade_reconcile(
            make_pair(bits, bits.copy()),
            CascadeConfig(passes=passes, qber_hint=hint, shuffle_seed=3),
        )
        assert result.parities_disclosed == zero_error_disclosure(hint, n, passes)


def _pass2_separates(seed: int, n: int, block: int) -> bool:
    """Whether the second pass puts bits 0 and 1, the key's only wrong bits and
    left alone by the first pass, in different blocks."""
    first, second = Rng(seed ^ 2).np.choice(n, 2, replace=False)
    return first // block != second // block


class TestBacktracking:
    """Two errors in one first-pass block cancel in its parity. Whether the
    second pass can expose them depends only on its shuffle."""

    N = 8  # hint 0.25 gives k1 = 3, so indices 0 and 1 share a block

    def _run(self, seed: int):
        alice = np.zeros(self.N, dtype=np.uint8)
        bob = alice.copy()
        bob[0] ^= 1
        bob[1] ^= 1
        return cascade_reconcile(
            make_pair(alice, bob),
            CascadeConfig(passes=2, qber_hint=0.25, shuffle_seed=seed),
        )

    def test_separating_shuffle_repairs_both(self):
        seed = next(s for s in range(100) if _pass2_separates(s, self.N, 6))
        result = self._run(seed)
        assert result.success
        assert not result.corrected_bob_key.any()
        # more than the zero-error floor was spent on the repair
        assert result.parities_disclosed > zero_error_disclosure(0.25, self.N, 2)

    def test_trapping_shuffle_reports_failure(self):
        seed = next(s for s in range(100) if not _pass2_separates(s, self.N, 6))
        result = self._run(seed)
        assert not result.success
        assert int(result.corrected_bob_key.sum()) == 2  # both errors remain

    def test_residual_is_always_even(self):
        # every announced parity ends up matched, so leftover errors pair up
        for seed in range(30):
            result = self._run(seed)
            residual = int(result.corrected_bob_key.sum())
            assert residual % 2 == 0
            assert result.success == (residual == 0)


class TestSeededTrials:
    @pytest.mark.parametrize("trial", range(20))
    def test_convergence_and_honest_flags(self, trial):
        g = Rng(1000 + trial)
        n = 256
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        flips = (g.np.random(n) < 0.05).astype(np.uint8)
        bob = alice ^ flips
        result = cascade_reconcile(
            make_pair(alice, bob),
            CascadeConfig(passes=4, qber_hint=0.05, shuffle_seed=g.getrandbits(64)),
        )
        residual = int(np.count_nonzero(result.corrected_bob_key != alice))
        assert result.success == (residual == 0)
        assert residual % 2 == 0
        # audited flips only ever repair true errors, never mint new ones
        assert residual <= int(flips.sum())

    def test_deterministic(self):
        g = Rng(77)
        alice = g.np.integers(0, 2, 512, dtype=np.uint8)
        bob = alice ^ (g.np.random(512) < 0.03).astype(np.uint8)
        config = CascadeConfig(passes=4, qber_hint=0.03, shuffle_seed=123)
        first = cascade_reconcile(make_pair(alice, bob), config)
        second = cascade_reconcile(make_pair(alice, bob), config)
        assert np.array_equal(first.corrected_bob_key, second.corrected_bob_key)
        assert first.parities_disclosed == second.parities_disclosed
        assert first.success == second.success

    def test_corrected_key_is_a_private_writable_array(self):
        alice = Rng(79).np.integers(0, 2, 64, dtype=np.uint8)
        bob = alice.copy()
        bob[[3, 40]] ^= 1
        pair = make_pair(alice, bob)
        result = cascade_reconcile(pair, CascadeConfig(passes=4, qber_hint=0.1))
        key = result.corrected_bob_key
        assert key.dtype == np.uint8 and key.shape == (64,)
        assert key.flags.writeable
        for part in (pair.alice_key, pair.bob_key):
            assert not np.shares_memory(key, part)

    def test_input_pair_not_mutated(self):
        g = Rng(78)
        alice = g.np.integers(0, 2, 64, dtype=np.uint8)
        bob = alice ^ (g.np.random(64) < 0.1).astype(np.uint8)
        bob_before = bob.copy()
        pair = make_pair(alice, bob)
        cascade_reconcile(pair, CascadeConfig(passes=4, qber_hint=0.1))
        assert np.array_equal(pair.bob_key, bob_before)


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CascadeConfig(passes=0)
        with pytest.raises(ValueError):
            CascadeConfig(qber_hint=1.0)
        with pytest.raises(ValueError):
            CascadeConfig(qber_hint=-0.01)

    def test_reconcile_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            cascade_reconcile(make_pair([1, 0], [1]), CascadeConfig())
        with pytest.raises(ValueError):
            cascade_reconcile(make_pair([], []), CascadeConfig())

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_config_rejects_seed_outside_64_bits(self, seed):
        # passes=1 never shuffles, so only the config itself can catch it
        with pytest.raises(ValueError, match="shuffle_seed"):
            CascadeConfig(passes=1, shuffle_seed=seed)

    def test_config_accepts_64_bit_seed_bounds(self):
        for seed in (0, (1 << 64) - 1):
            assert CascadeConfig(shuffle_seed=seed).shuffle_seed == seed

    @pytest.mark.parametrize(
        "alice,bob",
        [
            ([256, 1], [0, 1]),  # 256 wraps to 0 as uint8
            ([1, 0, 1, 1], [2, 0, 1, 1]),
            ([0, 1], [-1, 1]),
            ([0.5, 1.0], [0.0, 1.0]),
        ],
    )
    def test_reconcile_rejects_non_bit_values(self, alice, bob):
        pair = SiftedPair(np.array(alice), np.array(bob))
        with pytest.raises(ValueError, match="0 and 1"):
            cascade_reconcile(pair, CascadeConfig(passes=2, qber_hint=0.1))

    def test_reconcile_accepts_bool_and_wide_int_bits(self):
        alice = np.array([True, False, True, True, False, False, True, False])
        bob = np.array([1, 0, 1, 0, 0, 0, 1, 0], dtype=np.int64)
        result = cascade_reconcile(
            SiftedPair(alice, bob), CascadeConfig(passes=1, qber_hint=0.2)
        )
        assert result.success and result.parities_disclosed == 4
        assert result.corrected_bob_key.dtype == np.uint8


def _golden_case(n: int, rate: float, passes: int):
    g = Rng(n * 1000 + round(rate * 100) * 10 + passes)
    alice = g.np.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
    config = CascadeConfig(
        passes=passes, qber_hint=rate, shuffle_seed=g.getrandbits(64)
    )
    return make_pair(alice, bob), config


def _fingerprint(result) -> tuple[str, int, bool]:
    digest = hashlib.sha256(result.corrected_bob_key.tobytes()).hexdigest()
    return digest[:16], result.parities_disclosed, result.success


# (n, error rate = qber_hint, passes) -> (sha256 prefix of the corrected
# key, parities disclosed, success), recorded from the per-bit bookkeeping
# that preceded the interval blocks; the cases the shuffle reaches were
# re-pinned from the reference below when each pass came to draw only the
# wrong bits' slots. Any change to the shuffle, the bisection order, the
# heap's tie-breaks or the disclosure accounting moves these.
_GOLDEN = {
    (1, 0.0, 1): ("6e340b9cffb37a98", 1, True),
    (1, 0.0, 4): ("4bf5122f344554c5", 4, True),
    (1, 0.0, 6): ("4bf5122f344554c5", 6, True),
    (1, 0.03, 1): ("6e340b9cffb37a98", 1, True),
    (1, 0.03, 4): ("4bf5122f344554c5", 4, True),
    (1, 0.03, 6): ("6e340b9cffb37a98", 6, True),
    (1, 0.2, 1): ("4bf5122f344554c5", 1, True),
    (1, 0.2, 4): ("6e340b9cffb37a98", 4, True),
    (1, 0.2, 6): ("6e340b9cffb37a98", 6, True),
    (1, 0.5, 1): ("4bf5122f344554c5", 1, True),
    (1, 0.5, 4): ("6e340b9cffb37a98", 4, True),
    (1, 0.5, 6): ("4bf5122f344554c5", 6, True),
    (2, 0.0, 1): ("96a296d224f285c6", 2, True),
    (2, 0.0, 4): ("47dc540c94ceb704", 5, True),
    (2, 0.0, 6): ("b413f47d13ee2fe6", 7, True),
    (2, 0.03, 1): ("96a296d224f285c6", 2, True),
    (2, 0.03, 4): ("47dc540c94ceb704", 5, True),
    (2, 0.03, 6): ("96a296d224f285c6", 7, True),
    (2, 0.2, 1): ("b413f47d13ee2fe6", 2, True),
    (2, 0.2, 4): ("96a296d224f285c6", 5, True),
    (2, 0.2, 6): ("47dc540c94ceb704", 7, True),
    (2, 0.5, 1): ("9dcf97a184f32623", 2, True),
    (2, 0.5, 4): ("96a296d224f285c6", 5, True),
    (2, 0.5, 6): ("b413f47d13ee2fe6", 7, True),
    (7, 0.0, 1): ("7cc35434c8e26e64", 2, True),
    (7, 0.0, 4): ("e75f0d5cf1fb54c6", 5, True),
    (7, 0.0, 6): ("04ff57ccce73e378", 7, True),
    (7, 0.03, 1): ("6f8f97bc5e3eebd0", 2, True),
    (7, 0.03, 4): ("c1196e20e60a3e2b", 5, True),
    (7, 0.03, 6): ("ac82e3cd5011c942", 7, True),
    (7, 0.2, 1): ("7300813dfc2f3629", 2, True),
    (7, 0.2, 4): ("3cd197dc7ee1c476", 5, True),
    (7, 0.2, 6): ("b816e0509adcfc29", 8, True),
    (7, 0.5, 1): ("989a3b81f32a10a8", 7, True),
    (7, 0.5, 4): ("8d2dcf6f6d13b395", 14, True),
    (7, 0.5, 6): ("418aa78637be3eb4", 16, True),
    (1000, 0.0, 1): ("a00baa1bc0493cd9", 2, True),
    (1000, 0.0, 4): ("8cb12b8b6620731e", 5, True),
    (1000, 0.0, 6): ("7151a2bcd42fc4f1", 7, True),
    (1000, 0.03, 1): ("bfeb4cea6eb5a65b", 134, False),
    (1000, 0.03, 4): ("3df55498f25634f4", 240, True),
    (1000, 0.03, 6): ("c33666ca811f8743", 228, True),
    (1000, 0.2, 1): ("6398421fbfbbd047", 472, False),
    (1000, 0.2, 4): ("c10df52639e440cc", 906, True),
    (1000, 0.2, 6): ("f37a52b3b662d3b3", 949, True),
    (1000, 0.5, 1): ("d546d64331499c9b", 1000, True),
    (1000, 0.5, 4): ("8ff5b840f2130dd5", 1875, True),
    (1000, 0.5, 6): ("76d7d14be1ac18f0", 1970, True),
    (29500, 0.0, 1): ("698c6dd9e30f9e33", 2, True),
    (29500, 0.0, 4): ("523ed0cdb5b7925e", 5, True),
    (29500, 0.0, 6): ("bbb5322db274edf0", 7, True),
    (29500, 0.03, 1): ("e018f46c0d172738", 3348, False),
    (29500, 0.03, 4): ("7cc7a03badec155b", 6611, True),
    (29500, 0.03, 6): ("fcd7f7d5d90868fa", 6803, True),
    (29500, 0.2, 1): ("623275d019231dd5", 13729, False),
    (29500, 0.2, 4): ("ac2e955b353ad006", 26775, True),
    (29500, 0.2, 6): ("e8088fb66dbc0119", 27222, True),
    (29500, 0.5, 1): ("9afb4b22dc8659f2", 29500, True),
    (29500, 0.5, 4): ("1aaacf6d19710edc", 55313, True),
    (29500, 0.5, 6): ("08ddbd513365041e", 58079, True),
}


# (n, error rate, qber_hint) -> fingerprint, at passes=4, recorded from the
# numpy-gather bisection and re-pinned like the sweep. The study sizes
# blocks from a sampled estimate, so the hint is rarely the true rate. Hint
# 0.0 makes the first block 73% of the key, so a half's parity spans
# thousands of bits.
_HINT_GOLDEN = {
    (29500, 0.03, 0.0): ("eedcb373ca5d2d8b", 18, False),
    (29500, 0.05, 0.01): ("65c84daeb43c4a78", 9196, True),
    (29500, 0.01, 0.2): ("a751b3c07219ee60", 14488, True),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("case", sorted(_GOLDEN))
    def test_sweep_pinned(self, case):
        pair, config = _golden_case(*case)
        assert _fingerprint(cascade_reconcile(pair, config)) == _GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(_HINT_GOLDEN))
    def test_hint_off_the_true_rate_pinned(self, case):
        n, rate, hint = case
        g = Rng(n * 1000 + round(rate * 100) * 10 + round(hint * 100))
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        config = CascadeConfig(passes=4, qber_hint=hint, shuffle_seed=g.getrandbits(64))
        result = cascade_reconcile(make_pair(alice, bob), config)
        assert _fingerprint(result) == _HINT_GOLDEN[case]

    def test_backtracking_across_passes_pinned(self):
        # Errors at 0 and 1 share a first-pass block (k1 = 24) and cancel
        # in its parity; a later pass repairs one, which turns that block
        # odd again, and its bisection then finds the other.
        alice = Rng(7).np.integers(0, 2, 1000, dtype=np.uint8)
        bob = alice.copy()
        bob[[0, 1]] ^= 1
        config = CascadeConfig(passes=4, qber_hint=0.03, shuffle_seed=0)
        result = cascade_reconcile(make_pair(alice, bob), config)
        assert np.array_equal(result.corrected_bob_key, alice)
        assert _fingerprint(result) == ("8b727a7527106b15", 91, True)


def _reference_reconcile(alice, bob, config, seen=None, full_shuffle=False):
    """Cascade settled one block at a time, every pass through the heap:
    every odd block, each half a descent moves into included, goes on a heap
    ordered by (length, push order), and a flip re-parities the blocks that
    hold its bit in the order they were registered. If given, the set seen
    collects the lazy-building cases the run reaches. From pass 1 on, the
    bits wrong as a pass begins take the slots drawn for them and the other
    bits fill the rest in ascending order, as a correct bit's place changes
    no parity; full_shuffle orders each pass by a full permutation instead,
    the draw the slot draw replaced."""
    alice, bob = alice.tolist(), bob.tolist()
    n, heap, pushes, disclosed = len(alice), [], itertools.count(), 0
    holders = [[] for _ in range(n)]  # per bit, the blocks holding it
    seen = set() if seen is None else seen
    untouched = {}  # id of an even top-level block no flip has reached -> pass
    idle = False  # whether a pass so far began with no odd top-level block

    def register(idx):
        block = [idx, sum(alice[i] for i in idx) & 1, sum(bob[i] for i in idx) & 1]
        for i in idx:
            holders[i].append(block)
        return block

    def push_if_odd(block):
        if block[1] != block[2]:
            heapq.heappush(heap, (len(block[0]), next(pushes), block))

    def flip(i):
        assert bob[i] != alice[i], "the reference flipped a correct bit"
        bob[i] ^= 1
        for block in holders[i]:
            if untouched.pop(id(block), p) < p:  # any other block reads as pass p
                seen.add("a flip reaches an earlier pass's untouched top block")
            block[2] ^= 1
            push_if_odd(block)

    k1 = initial_block_size(config.qber_hint, n)
    for p in range(config.passes):
        size = min(n, k1 << p)
        order = list(range(n))
        draw = Rng(config.shuffle_seed ^ (p + 1)).np
        if p and full_shuffle:
            order = draw.permutation(n).tolist()
        elif p:
            wrong = [i for i in range(n) if bob[i] != alice[i]]
            slots = dict(zip(draw.choice(n, len(wrong), replace=False).tolist(), wrong))
            rest = iter(sorted(set(order) - set(wrong)))  # the correct bits
            order = [slots[t] if t in slots else next(rest) for t in range(n)]
        odd = False
        for start in range(0, n, size):
            block = register(order[start : start + size])
            if block[1] == block[2]:
                untouched[id(block)] = p
            else:
                odd = True
            push_if_odd(block)
            disclosed += 1
        if odd and idle:
            seen.add("a pass with no odd top block, then one with")
        idle |= not odd
        while heap:
            block = heapq.heappop(heap)[2]
            while block[1] != block[2] and len(block[0]) > 1:
                idx, half = block[0], (len(block[0]) + 1) // 2
                first, second = register(idx[:half]), register(idx[half:])
                disclosed += 1
                block = first if first[1] != first[2] else second
                push_if_odd(block)
            if block[1] != block[2]:
                flip(block[0][0])
    return np.array(bob, dtype=np.uint8), disclosed, bob == alice


def _oracle_cases():
    # One key in five has at most 12 bits; passes cycle through 1-6 and the
    # hint through 0, half the true rate, the true rate and double it.
    g = Rng(2026)
    for case in range(200):
        n = int(g.np.integers(1, 13 if case % 5 == 0 else 1500))
        rate = float(g.np.uniform(0.01, 0.35))
        hint = (0.0, rate / 2, rate, 2 * rate)[case // 6 % 4]
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        yield alice, bob, CascadeConfig(case % 6 + 1, hint, g.getrandbits(64))


def _small_dense_cases():
    # Short keys with many errors: a pass whose blocks each hold an even
    # number of errors, followed by one with an odd block, is common here and
    # rare in the cases above.
    g = Rng(7)
    for _ in range(120):
        n = int(g.np.integers(8, 40))
        rate = float(g.np.uniform(0.05, 0.3))
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        passes = int(g.np.integers(3, 7))
        yield alice, bob, CascadeConfig(passes, rate, g.getrandbits(64))


class TestAgainstReference:
    CASES = list(_oracle_cases())
    SMALL_DENSE = list(_small_dense_cases())

    def test_matches_one_by_one_reference(self):
        for alice, bob, config in self.CASES:
            result = cascade_reconcile(make_pair(alice, bob), config)
            key, disclosed, success = _reference_reconcile(alice, bob, config)
            assert np.array_equal(result.corrected_bob_key, key), config
            assert (result.parities_disclosed, result.success) == (disclosed, success)

    def test_cases_reach_the_batch_edges(self):
        seen = collections.Counter()
        for alice, bob, config in self.CASES:
            n, errors = alice.size, (alice ^ bob).astype(int)
            k1 = initial_block_size(config.qber_hint, n)
            per_block = np.add.reduceat(errors, np.arange(0, n, k1))
            seen["odd short tail"] += bool(n % k1 and per_block[-1] % 2)
            seen["3+ errors in a first-pass block"] += bool((per_block >= 3).any())
            seen["a pass's block size capped at n"] += k1 << config.passes - 1 > n
            seen[f"{config.passes} passes"] += 1
        assert len(seen) == 9 and min(seen.values()) >= 5, seen

    def test_small_dense_cases_match_reference(self):
        for alice, bob, config in self.SMALL_DENSE:
            result = cascade_reconcile(make_pair(alice, bob), config)
            key, disclosed, success = _reference_reconcile(alice, bob, config)
            assert np.array_equal(result.corrected_bob_key, key), config
            assert (result.parities_disclosed, result.success) == (disclosed, success)

    def test_cases_reach_the_lazy_building_edges(self):
        seen = collections.Counter()
        for alice, bob, config in self.CASES + self.SMALL_DENSE:
            reached = set()
            _reference_reconcile(alice, bob, config, reached)
            seen.update(reached)
        assert len(seen) == 2 and min(seen.values()) >= 5, seen


def _workload_scale_cases():
    # Keys the size of a qkd-cascade trial's remainder, 2-4% wrong, the hint
    # within 15% of the true rate.
    g = Rng(23)
    for _ in range(8):
        n = int(g.np.integers(25_000, 30_001))
        rate = float(g.np.uniform(0.02, 0.04))
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        hint = rate * float(g.np.uniform(0.85, 1.15))
        yield alice, bob, CascadeConfig(4, hint, g.getrandbits(64))


def _fuzz_cases(count: int):
    # Short dense keys; CI runs 3,000 of them (CASCADE_FUZZ_CASES=3000).
    g = Rng(4242)
    for _ in range(count):
        n = int(g.np.integers(16, 401))
        rate = float(g.np.uniform(0.05, 0.45))
        hint = rate * float(g.np.uniform(0.2, 1.5)) * (g.randbelow(4) > 0)
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        passes = int(g.np.integers(2, 8))
        yield alice, bob, CascadeConfig(passes, hint, g.getrandbits(64))


class TestAgainstReferenceAtScale:
    """Pass 0's lone-error blocks settle in bulk and a descent registers only
    the halves it passes by that hold wrong bits; these cases check both
    against the reference, which registers every half."""

    CASES = list(_workload_scale_cases())

    def test_workload_scale_keys_match_reference(self):
        for alice, bob, config in self.CASES:
            result = cascade_reconcile(make_pair(alice, bob), config)
            key, disclosed, success = _reference_reconcile(alice, bob, config)
            assert np.array_equal(result.corrected_bob_key, key), config
            assert (result.parities_disclosed, result.success) == (disclosed, success)

    def test_cases_reach_the_pass0_edges(self):
        tails = triples = 0
        for alice, bob, config in self.CASES:
            n, errors = alice.size, (alice ^ bob).astype(int)
            k1 = initial_block_size(config.qber_hint, n)
            per_block = np.add.reduceat(errors, np.arange(0, n, k1))
            tails += bool(n % k1 and per_block[-1] % 2)
            triples += bool((per_block[: n // k1] >= 3).any())
        assert tails >= 2 and triples == len(self.CASES)

    def test_fuzzed_dense_keys_match_reference(self):
        count = int(os.environ.get("CASCADE_FUZZ_CASES", "200"))
        for alice, bob, config in _fuzz_cases(count):
            result = cascade_reconcile(make_pair(alice, bob), config)
            key, disclosed, success = _reference_reconcile(alice, bob, config)
            assert np.array_equal(result.corrected_bob_key, key), config
            assert (result.parities_disclosed, result.success) == (disclosed, success)


def _draw_cases(count: int):
    # 16-400 bits, 5-30% wrong, 2-5 passes, the hint at the rate; CI runs
    # 20,000 of them (CASCADE_DRAW_KEYS=20000).
    g = Rng(1993)
    for _ in range(count):
        n = int(g.np.integers(16, 401))
        rate = float(g.np.uniform(0.05, 0.3))
        alice = g.np.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (g.np.random(n) < rate).astype(np.uint8)
        passes = int(g.np.integers(2, 6))
        yield alice, bob, CascadeConfig(passes, rate, g.getrandbits(64))


class TestSlotDraw:
    """From pass 1 on, Cascade draws slots for the wrong bits alone. That is
    a full shuffle restricted to them, so over many keys it must disclose as
    much and succeed as often as the reference under a full permutation."""

    def test_same_cascade_as_a_full_shuffle(self):
        count = int(os.environ.get("CASCADE_DRAW_KEYS", "2000"))
        slot, full = np.zeros((2, count, 2))  # per key: disclosed, success
        for k, (alice, bob, config) in enumerate(_draw_cases(count)):
            result = cascade_reconcile(make_pair(alice, bob), config)
            slot[k] = result.parities_disclosed, result.success
            full[k] = _reference_reconcile(alice, bob, config, full_shuffle=True)[1:]
        gap = slot - full  # within 4.5 paired standard errors
        error = gap.std(0, ddof=1) / math.sqrt(count)
        assert (abs(gap.mean(0)) <= 4.5 * error).all(), (slot.mean(0), full.mean(0))
        assert 0.85 < full[:, 1].mean() < 0.97  # some keys fail, most do not


class TestEfficiency:
    """Cascade's leak against the Shannon bound, f_EC = disclosed / (n h(Q)),
    measured at about 1.1-1.2 for 4 passes with the hint at the true rate."""

    @pytest.mark.parametrize("q", [0.01, 0.02, 0.04, 0.06, 0.08])
    def test_disclosure_near_the_shannon_bound(self, q):
        n, g = 10_000, Rng(int(q * 1000))
        h = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
        for _ in range(4):
            alice = g.np.integers(0, 2, n, dtype=np.uint8)
            bob = alice.copy()
            bob[g.np.permutation(n)[: round(q * n)]] ^= 1  # exactly q * n wrong
            config = CascadeConfig(4, q, g.getrandbits(64))
            result = cascade_reconcile(make_pair(alice, bob), config)
            assert 1.05 <= result.parities_disclosed / (n * h) <= 1.25, config


class TestPassesPastTheSpanningPass:
    """Once a pass's one block spans the key and settles, every registered
    block is even, so each later pass announces one parity and flips
    nothing. Those passes are charged at once: a billion of them, run one
    by one, would take hours."""

    @pytest.mark.parametrize("reconciles", [True, False])
    def test_later_passes_cost_one_parity_each(self, reconciles):
        if reconciles:
            g = Rng(31)
            alice = g.np.integers(0, 2, 500, dtype=np.uint8)
            bob = alice ^ (g.np.random(500) < 0.04).astype(np.uint8)
            hint, seed = 0.04, g.getrandbits(64)  # block 18 spans the key at pass 5
        else:  # TestBacktracking's trapped pair, spanned at pass 2
            alice, bob, hint = np.zeros(8, np.uint8), np.zeros(8, np.uint8), 0.25
            bob[:2] = 1
            seed = next(s for s in range(100) if not _pass2_separates(s, 8, 6))
        few = CascadeConfig(passes=12, qber_hint=hint, shuffle_seed=seed)
        key, disclosed, success = _reference_reconcile(alice, bob, few)
        assert success == reconciles
        for passes in (12, 10**9):
            config = CascadeConfig(passes, hint, seed)
            result = cascade_reconcile(make_pair(alice, bob), config)
            assert np.array_equal(result.corrected_bob_key, key)
            assert result.parities_disclosed == disclosed + passes - 12
            assert result.success == success


class TestGarbageCollection:
    def test_reconcile_leaves_the_collector_idle(self):
        # Blocks are serials in flat lists of ints, so a reconcile allocates few
        # objects that the cyclic collector tracks. A small list for each of this
        # key's 10,000-odd blocks would set off 14-16 collections here.
        g = Rng(29_500)
        alice = g.np.integers(0, 2, 29_500, dtype=np.uint8)
        bob = alice ^ (g.np.random(29_500) < 0.03).astype(np.uint8)
        config = CascadeConfig(passes=4, qber_hint=0.03, shuffle_seed=g.getrandbits(64))
        pair, runs = make_pair(alice, bob), collections.Counter()

        def count_run(phase, info):
            if phase == "stop":
                runs[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(count_run)
        try:
            result = cascade_reconcile(pair, config)
        finally:
            gc.callbacks.remove(count_run)
        assert result.success
        assert sum(runs.values()) <= 2 and runs[2] == 0, runs
