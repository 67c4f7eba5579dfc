"""Cascade parity reconciliation over a public channel.

Alice and Bob hold nearly equal bit strings; Bob repairs his copy using
block parities that Alice announces. A mismatched block is bisected down
to the single wrong bit (announcing one half's parity per level; the
other half's parity comes free). Later passes reshuffle the bits with a
doubled block size, and every block whose parity was ever announced or
inferred stays registered: when a flip lands inside an earlier block,
that block's parity flips too, re-exposing any second error it was
masking. Pass 0's odd blocks are disjoint, so they are bisected in one
batch that skips the heap; from pass 1 on, work goes smallest-block-first,
so one repair can cascade back and forth across passes until no registered
block is odd.

Every block is an interval of its pass's order (a bisection half, of its
parent), named by its registration serial, a plain int: its start, its
length and whether Bob's parity differs from Alice's live in flat lists
indexed by that serial. A reconcile registers some 10,000 blocks; as
lists of ints rather than a small list each, they give Python's cyclic
garbage collector nothing to track, so it seldom runs inside a reconcile.
Each pass holds Alice's prefix parities along its order as bytes and Bob's
bits in that order as a bytearray that every flip updates, so a half's
parity is one prefix XOR for Alice and one bytearray.count for Bob, with
no numpy call per bisection level. A flip finds the blocks holding its
bit from the bit's position in each pass, so the Python-level bookkeeping
costs per block and per flip, never per bit.

A pass registers its top-level blocks as it begins, their parities from
one numpy reduction. The serials each top-level block holds are listed
only when it is odd as its pass begins or a flip first lands in it. Once
the keys agree, no later pass is even shuffled.

Alice's key doubles as ground truth in this simulator, so every flip is
audited: a flip that would corrupt a correct bit raises
CascadeAuditError instead of silently diverging.

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
    alice_bits, bob = alice.tobytes(), bytearray(bob_key.astype(np.uint8))

    disclosed, seq = 0, count()
    # Heap entries are (length, seq, serial, pass_no); (length, seq) is unique.
    heap: list[tuple[int, int, int, int]] = []
    # By serial: a block's start and length in its pass's order, and whether
    # Alice's and Bob's parities of it differ (1) or not (0). The nested
    # functions that register blocks unpack these as locals, where += appends.
    fields = starts, lengths, is_odd = [], [], []
    # Per pass: order, bit -> position, block size, the serials registered in
    # each top-level block that has any (top first), Alice's prefix parities,
    # Bob's bits in order, and the serial of its first top-level block.
    passes: list[tuple] = []

    def flip(i: int) -> None:
        if bob[i] == alice_bits[i]:
            raise CascadeAuditError(_CORRUPT.format(i))
        bob[i] ^= 1
        holders: list[tuple[int, int]] = []
        for pass_no, (_, pos_of, size, tops, _, bob_seq, base) in enumerate(passes):
            p = int(pos_of[i])
            bob_seq[p] ^= 1
            t = p // size
            into = tops.get(t) or tops.setdefault(t, [base + t])
            holders += [(s, pass_no) for s in into if 0 <= p - starts[s] < lengths[s]]
        # Registration order, the order the heap's tie-breaks are pinned to.
        for s, pass_no in sorted(holders):
            is_odd[s] ^= 1
            if is_odd[s]:
                heapq.heappush(heap, (lengths[s], next(seq), s, pass_no))

    def bisect_to_error(s: int, pass_no: int) -> None:
        nonlocal disclosed
        starts, lengths, is_odd = fields
        start, length = starts[s], lengths[s]
        order, _, size, tops, prefix, bob_seq, _ = passes[pass_no]
        into, s = tops[start // size], len(starts)
        while length > 1:
            mid = (length + 1) // 2
            disclosed += 1  # Alice announces the first half's parity
            a = prefix[start + mid] ^ prefix[start]
            odd = bob_seq.count(1, start, start + mid) & 1 ^ a
            into += s, s + 1
            s += 2
            starts += start, start + mid
            lengths += mid, length - mid
            is_odd += odd, odd ^ 1  # the second half's comes free
            # The block is odd, so exactly one half is. It gets no heap entry: it is
            # tiled by the leaf flipped below and by shorter siblings, which are all
            # even before an entry for it could pop, so that pop would find it even.
            if odd:
                length = mid
            else:
                start, length = start + mid, length - mid
        flip(int(order[start]))

    def settle_first_pass(odd: np.ndarray, errors: np.ndarray) -> None:
        # Pass 0's odd top blocks are disjoint and a flip in one touches no
        # other, so they settle in one batch, without the heap but in its order,
        # each bisected into halves that end even. A first half is the odd one
        # when diff, the running parity of Bob's errors, differs across it.
        nonlocal disclosed
        starts, lengths, is_odd = fields
        _, _, size, tops, _, bob_seq, _ = passes[0]  # its serials start at 0
        diff = np.bitwise_xor.accumulate(np.append(np.uint8(0), errors)).tobytes()
        for t in sorted(odd.tolist(), key=lengths.__getitem__):
            tops[t] = into = [t]
            start, length, s = starts[t], lengths[t], len(starts)
            while length > 1:
                mid = (length + 1) // 2
                into += s, s + 1
                s += 2
                starts += start, start + mid
                lengths += mid, length - mid
                is_odd += 0, 0
                disclosed += 1
                if diff[start + mid] == diff[start]:
                    start, length = start + mid, length - mid
                else:
                    length = mid
            if bob[start] == alice_bits[start]:
                raise CascadeAuditError(_CORRUPT.format(start))
            bob[start] = bob_seq[start] = alice_bits[start]
            is_odd[t] = 0

    def settle() -> None:
        # Smallest odd block first; entries of blocks since repaired are stale.
        while heap:
            _, _, s, pass_no = heapq.heappop(heap)
            if is_odd[s]:
                bisect_to_error(s, pass_no)

    k1, rng = initial_block_size(config.qber_hint, n), Rng(config.shuffle_seed)
    for pass_no in range(config.passes):
        size = min(n, k1 << pass_no)
        disclosed += -(-n // size)
        errors = alice ^ np.frombuffer(bob, np.uint8)
        if not errors.any():
            continue  # no flip can happen any more
        order = pos_of = range(n)
        alice_seq, along = alice, errors
        if pass_no:
            order = rng.derive(pass_no + 1).np.permutation(n)
            pos_of = np.empty(n, dtype=np.intp)
            pos_of[order] = np.arange(n)
            alice_seq, along = alice[order], errors[order]
        prefix = bytes(1) + np.bitwise_xor.accumulate(alice_seq).tobytes()
        bob_seq = bytearray(alice_seq ^ along)
        base, cuts, tops = len(starts), np.arange(0, n, size), {}
        passes.append((order, pos_of, size, tops, prefix, bob_seq, base))
        top_odd = np.bitwise_xor.reduceat(along, cuts)
        starts += range(0, n, size)
        lengths += np.diff(cuts, append=n).tolist()
        is_odd += top_odd.tolist()
        odd = np.flatnonzero(top_odd)
        if pass_no:
            for s in (base + odd).tolist():
                tops[s - base] = [s]
                heapq.heappush(heap, (lengths[s], next(seq), s, pass_no))
        else:
            settle_first_pass(odd, errors)
        settle()

    return CascadeResult(np.frombuffer(bob, np.uint8), disclosed, bob == alice_bits)
