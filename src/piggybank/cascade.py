"""Cascade parity reconciliation over a public channel.

Alice and Bob hold nearly equal bit strings; Bob repairs his copy using
block parities that Alice announces. A mismatched block is bisected down
to the single wrong bit (announcing one half's parity per level; the
other half's parity comes free). Later passes reshuffle the bits with a
doubled block size, and earlier blocks stay registered: when a flip lands
inside one, its parity flips too, re-exposing any second error it was
masking. From pass 1 on, odd blocks go smallest first through a heap, so
one repair can cascade across passes until no registered block is odd.

A real Cascade derives each pass's whole permutation from a public seed.
A correct bit's place changes no parity, so the simulator draws slots
only for the w bits wrong as a pass begins, Generator.choice(n, w,
replace=False) taken in ascending bit order: a uniformly random injection
into the n slots, a full permutation restricted to those bits.

Alice's key doubles as ground truth in this simulator, so the only state
is which of Bob's bits are wrong: one bytearray by bit, and one per pass
by slot. A block's parities differ when it holds an odd number of wrong
bits, one bytearray.count per bisection level. Every flip is audited:
flipping a bit that is not wrong raises CascadeAuditError.

A block is an interval of its pass's order named by its registration
serial, a plain int; its start, length and oddness live in flat lists
indexed by that serial, which give Python's cyclic garbage collector
nothing to track. A pass registers its top-level blocks as it begins,
their parities from one numpy bincount of the wrong bits' slots, and
keeps the slot of each bit wrong then, as no other bit can be flipped. A
flip finds the blocks holding its bit from its slot in each pass.

Only blocks that can turn odd again are registered, which changes no
output. A half without a wrong bit stays even, as flips only clear wrong
bits. A half a descent enters is tiled by the fixed leaf and by shorter
registered siblings; the heap pops by (length, push order) and every odd
registered block has an entry, so an entry the half could get would pop
after they settle, with it even again. So a descent registers only the
halves it passes by that still hold wrong bits: about 2,000 blocks per
call, top-level ones included, on a qkd-cascade trial's 29,500 bits.

Other shortcuts change no output either. Pass 0's odd blocks are
disjoint and a flip in one touches no other, so they are bisected in one
batch, in the heap's order but without it; a full-length one with a
single wrong bit registers nothing and its descent ends at that bit, so
those bits are cleared at once, each charged its depth from a table.
From pass 1 on, a popped block with a single wrong bit settles the same
way: the bit is found with bytearray.index and charged from the same
table, with no descent. Once the keys agree, no later pass is shuffled.
Once a pass's single block spans the key and settles, every registered
block is even, so each later pass would announce one parity and flip
nothing: those passes are charged without being run.

Disclosure accounting charges exactly one bit per parity Alice
announces; inferred parities are free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from .errors import CascadeAuditError
from .numtheory import Rng

if TYPE_CHECKING:
    from .qkd import SiftedPair


@dataclass(frozen=True)
class CascadeConfig:
    passes: int = 4
    qber_hint: float = 0.0
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError("at least one pass is required")
        if not 0.0 <= self.qber_hint < 1.0:
            raise ValueError("qber_hint must lie in [0, 1)")
        if not 0 <= self.shuffle_seed < 1 << 64:
            raise ValueError("shuffle_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class CascadeResult:
    corrected_bob_key: np.ndarray
    parities_disclosed: int
    success: bool


def initial_block_size(qber_hint: float, length: int) -> int:
    """First-pass block size, roughly 0.73 / qber, floored at one error
    per block on average and capped implicitly by later doubling."""
    if length < 1:
        raise ValueError("length must be positive")
    if not 0.0 <= qber_hint < 1.0:
        raise ValueError("qber_hint must lie in [0, 1)")
    return max(1, round(0.73 / max(qber_hint, 1.0 / length)))


_CORRUPT = "flip at index {} would corrupt a correct bit"


def _depths(length: int, memo: dict[int, list[int]]) -> list[int]:
    """Halvings a descent takes to reach each offset of a block of `length`."""
    if length not in memo:
        mid = (length + 1) // 2
        memo[length] = [d + 1 for d in _depths(mid, memo) + _depths(length - mid, memo)]
    return memo[length]


def cascade_reconcile(pair: "SiftedPair", config: CascadeConfig) -> CascadeResult:
    """Repair Bob's key against Alice's, counting disclosed parity bits."""
    alice, bob_key = np.asarray(pair.alice_key), np.asarray(pair.bob_key)
    if alice.shape != bob_key.shape or alice.ndim != 1:
        raise ValueError("keys must be equal-length 1-d bit arrays")
    n = int(alice.size)
    if n == 0:
        raise ValueError("nothing to reconcile")
    if not all(((key == 0) | (key == 1)).all() for key in (alice, bob_key)):
        raise ValueError("keys must hold only the bit values 0 and 1")
    alice = alice.astype(np.uint8)
    # Bob's errors by bit; in pass 0's order, which is the key's, they are
    # also that pass's errs, so clearing a pass's errs clears them.
    wrong = bytearray(alice ^ bob_key.astype(np.uint8))
    errors = np.frombuffer(wrong, np.uint8)

    # depths memoises _depths for the block lengths a descent is charged at.
    disclosed, seq, depths = 0, count(), {1: [0]}
    heappush, heappop = heapq.heappush, heapq.heappop
    # Heap entries are (length, seq, serial, pass_no); (length, seq) is unique.
    heap: list[tuple[int, int, int, int]] = []
    # By serial: a block's start and length in its pass's order, and whether
    # it holds an odd number of Bob's errors (1) or not (0). descend, which
    # registers blocks, unpacks these as locals, where += appends.
    fields = starts, lengths, is_odd = [], [], []
    # Per pass: position -> bit and bit -> position for the bits wrong at its
    # start (range(n) for pass 0), block size, the serials registered inside
    # each top-level block that has any, Bob's errors in order, and the serial
    # of its first top-level block.
    passes: list[tuple] = []

    def flip(i: int) -> None:
        if not wrong[i]:
            raise CascadeAuditError(_CORRUPT.format(i))
        holders: list[tuple[int, int]] = []
        for k, (_, pos_of, size, tops, errs, base) in enumerate(passes):
            p = pos_of[i]
            errs[p] = 0
            holders.append((base + p // size, k))  # the top-level block
            if into := tops.get(p // size):
                holders += [(s, k) for s in into if 0 <= p - starts[s] < lengths[s]]
        # Registration order, the order the heap's tie-breaks are pinned to;
        # top-level serials alone already rise with the pass.
        for s, pass_no in sorted(holders) if len(holders) > len(passes) else holders:
            if is_odd[s]:
                is_odd[s] = 0
            else:
                is_odd[s] = 1
                heappush(heap, (lengths[s], next(seq), s, pass_no))

    def descend(s: int, pass_no: int) -> int:
        # Bisect the odd block s, registering the halves passed by that hold
        # wrong bits, and return the position of its wrong bit in the pass's order.
        nonlocal disclosed
        starts, lengths, is_odd = fields
        start, length = starts[s], lengths[s]
        _, _, size, tops, errs, _ = passes[pass_no]
        aside, left = [], errs.count(1, start, start + length)
        while length > 1:
            mid = (length + 1) // 2
            disclosed += 1  # Alice announces the first half's parity
            first = errs.count(1, start, start + mid)
            if first & 1:
                if left - first:  # the half passed by holds wrong bits
                    aside += start + mid, length - mid
                length, left = mid, first
            else:
                if first:
                    aside += start, mid
                start, length, left = start + mid, length - mid, left - first
        if aside:
            serials = range(len(starts), len(starts) + len(aside) // 2)
            tops.setdefault(starts[s] // size, []).extend(serials)
            starts += aside[::2]
            lengths += aside[1::2]
            is_odd += [0] * len(serials)
        return start

    k1 = initial_block_size(config.qber_hint, n)
    # After the first pass whose one block spans the key settles, every
    # registered block is even, so each later pass announces one parity and
    # flips nothing: those passes are charged here and not run.
    spans = next(p for p in count() if k1 << p >= n)
    disclosed += max(0, config.passes - spans - 1)
    for pass_no in range(min(config.passes, spans + 1)):
        size = min(n, k1 << pass_no)
        blocks = -(-n // size)
        disclosed += blocks
        if 1 not in wrong:
            continue  # no flip can happen any more
        # The slot in the pass's order of each bit wrong now, as no other bit
        # can be flipped; pass 0's order is the key's.
        order = pos_of = range(n)
        errs, slots = wrong, np.flatnonzero(errors.view(bool))
        if pass_no:
            # Only those slots are drawn: a uniformly random injection, in
            # ascending bit order, which is a full shuffle restricted to them.
            draw = Rng(config.shuffle_seed ^ (pass_no + 1)).np
            bits = slots.tolist()
            slots = draw.choice(n, len(bits), replace=False)
            np.frombuffer(errs := bytearray(n), np.uint8)[slots] = 1
            order = dict(zip(slots.tolist(), bits))
            pos_of = dict(zip(bits, order))  # order's keys are the slots drawn
        base, tops = len(starts), {}
        passes.append((order, pos_of, size, tops, errs, base))
        counts = np.bincount(slots // size, minlength=blocks)
        starts += range(0, n, size)
        lengths += [size] * (blocks - 1) + [n - (blocks - 1) * size]
        is_odd += (counts & 1).tolist()
        if not pass_no:
            # Pass 0's odd top blocks are disjoint, so they settle one after
            # another in the heap's order; every block of the pass ends even.
            # A full-length block with one wrong bit registers nothing and its
            # descent ends at that bit, so all of those settle at once.
            lone = counts == 1
            lone[n // size :] = False  # a short tail descends as usual
            bits = slots[lone[slots // size]]
            if bits.size:  # charge each bit's depth in a full block
                disclosed += int(np.array(_depths(size, depths))[bits % size].sum())
            errors[bits] = 0
            odd = np.flatnonzero(counts & ~lone & 1).tolist()
            for t in sorted(odd, key=lengths.__getitem__):
                leaf = descend(t, 0)
                if not wrong[leaf]:
                    raise CascadeAuditError(_CORRUPT.format(leaf))
                wrong[leaf] = 0
            is_odd[:] = [0] * len(is_odd)
            continue
        for s in (base + np.flatnonzero(counts & 1)).tolist():
            heappush(heap, (lengths[s], next(seq), s, pass_no))
        # Smallest odd block first; entries of blocks since repaired are stale.
        while heap:
            length, _, s, p = heappop(heap)
            if not is_odd[s]:
                continue
            order, _, _, _, errs, _ = passes[p]
            start = starts[s]
            if errs.count(1, start, start + length) == 1:
                # Its descent would register nothing and end at the wrong bit.
                at = errs.index(1, start, start + length)
                disclosed += _depths(length, depths)[at - start]
                flip(order[at])
            else:
                flip(order[descend(s, p)])

    return CascadeResult(alice ^ errors, disclosed, 1 not in wrong)
