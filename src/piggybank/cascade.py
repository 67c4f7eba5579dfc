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
parent), kept as the plain list [pass_no, start, length, alice_par,
bob_par, serial]. Each pass holds Alice's prefix parities along its order
as bytes and Bob's bits in that order as a bytearray that every flip
updates, so a half's parity is one prefix XOR for Alice and one
bytearray.count for Bob, with no numpy call per bisection level. A flip
finds the blocks holding its bit from the bit's position in each pass, so
the Python-level bookkeeping costs per block and per flip, never per bit.

No block is built before a flip can reach it. A top-level block, its
serial reserved, is built when it is odd as its pass begins or a flip
first lands in it; until then it is even. Once the keys agree, no later
pass is even shuffled.

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
from operator import itemgetter
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


_START, _LENGTH, _ALICE, _BOB, _SERIAL = range(1, 6)
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

    disclosed = 0
    heap: list[tuple[int, int, list[int]]] = []
    seq, serials = count(), count()
    # Per pass: order, bit -> position, block size, the blocks registered in
    # each top-level block that has any (top first), Alice's prefix parities,
    # Bob's bits in order, and the serial of its first top-level block.
    passes: list[tuple] = []

    def top(pass_no: int, t: int, odd: int) -> list[list[int]]:
        # Registers top-level block t, whose parities differ by odd.
        _, _, size, tops, prefix, _, base = passes[pass_no]
        start, end = t * size, min(n, (t + 1) * size)
        a = prefix[end] ^ prefix[start]
        tops[t] = [[pass_no, start, end - start, a, a ^ odd, base + t]]
        return tops[t]

    def flip(i: int) -> None:
        if bob[i] == alice_bits[i]:
            raise CascadeAuditError(_CORRUPT.format(i))
        bob[i] ^= 1
        holders: list[list[int]] = []
        for pass_no, (_, pos_of, size, tops, _, bob_seq, _) in enumerate(passes):
            p = int(pos_of[i])
            bob_seq[p] ^= 1
            into = tops.get(p // size) or top(pass_no, p // size, 0)
            holders += [b for b in into if 0 <= p - b[_START] < b[_LENGTH]]
        # Registration order, the order the heap's tie-breaks are pinned to.
        for block in sorted(holders, key=itemgetter(_SERIAL)):
            block[_BOB] ^= 1
            if block[_ALICE] != block[_BOB]:
                heapq.heappush(heap, (block[_LENGTH], next(seq), block))

    def bisect_to_error(block: list[int]) -> None:
        nonlocal disclosed
        pass_no, start, length, alice_par, bob_par, _ = block
        order, _, size, tops, prefix, bob_seq, _ = passes[pass_no]
        into = tops[start // size]
        while length > 1:
            mid = (length + 1) // 2
            disclosed += 1  # Alice announces the first half's parity
            a = prefix[start + mid] ^ prefix[start]
            b = bob_seq.count(1, start, start + mid) & 1
            first = [pass_no, start, mid, a, b, next(serials)]
            a, b = alice_par ^ a, bob_par ^ b  # the second half's come free
            second = [pass_no, start + mid, length - mid, a, b, next(serials)]
            into += first, second
            # The block is odd, so exactly one half is. It gets no heap entry: it is
            # tiled by the leaf flipped below and by shorter siblings, which are all
            # even before an entry for it could pop, so that pop would find it even.
            block = second if a != b else first
            _, start, length, alice_par, bob_par, _ = block
        flip(int(order[start]))

    def settle_first_pass(odd: np.ndarray, errors: np.ndarray) -> None:
        # Pass 0's odd top blocks are disjoint and a flip in one touches no
        # other, so they settle in one batch, without the heap but in its order,
        # each bisected into halves that end even. A first half is the odd one
        # when diff, the running parity of Bob's errors, differs across it.
        nonlocal disclosed
        _, _, size, _, prefix, bob_seq, _ = passes[0]
        diff = np.bitwise_xor.accumulate(np.append(np.uint8(0), errors)).tobytes()
        for t in sorted(odd.tolist(), key=lambda t: min(size, n - t * size)):
            into = top(0, t, 1)
            _, start, length, *_ = into[0]
            while length > 1:
                mid = (length + 1) // 2
                a = prefix[start + mid] ^ prefix[start]
                e = prefix[start + length] ^ prefix[start + mid]
                first = [0, start, mid, a, a, next(serials)]
                into += first, [0, start + mid, length - mid, e, e, next(serials)]
                disclosed += 1
                if diff[start + mid] == diff[start]:
                    start, length = start + mid, length - mid
                else:
                    length = mid
            if bob[start] == alice_bits[start]:
                raise CascadeAuditError(_CORRUPT.format(start))
            bob[start] = bob_seq[start] = alice_bits[start]
            into[0][_BOB] ^= 1

    def settle() -> None:
        # Smallest odd block first; entries of blocks since repaired are stale.
        while heap:
            _, _, block = heapq.heappop(heap)
            if block[_ALICE] != block[_BOB]:
                bisect_to_error(block)

    k1, rng = initial_block_size(config.qber_hint, n), Rng(config.shuffle_seed)
    for pass_no in range(config.passes):
        size = min(n, k1 << pass_no)
        base, blocks = next(serials), -(-n // size)
        serials = count(base + blocks)
        disclosed += blocks
        errors = alice ^ np.frombuffer(bob, np.uint8)
        if not errors.any():
            continue
        order = pos_of = range(n)
        alice_seq, along = alice, errors
        if pass_no:
            order = rng.derive(pass_no + 1).np.permutation(n)
            pos_of = np.empty(n, dtype=np.intp)
            pos_of[order] = np.arange(n)
            alice_seq, along = alice[order], errors[order]
        prefix = bytes(1) + np.bitwise_xor.accumulate(alice_seq).tobytes()
        bob_seq = bytearray(alice_seq ^ along)
        passes.append((order, pos_of, size, {}, prefix, bob_seq, base))
        odd = np.flatnonzero(np.bitwise_xor.reduceat(along, np.arange(0, n, size)))
        if pass_no:
            for block in [top(pass_no, t, 1)[0] for t in odd.tolist()]:
                heapq.heappush(heap, (block[_LENGTH], next(seq), block))
        else:
            settle_first_pass(odd, errors)
        settle()

    return CascadeResult(np.frombuffer(bob, np.uint8), disclosed, bob == alice_bits)
