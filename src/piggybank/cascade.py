"""Cascade parity reconciliation over a public channel.

Alice and Bob hold nearly equal bit strings; Bob repairs his copy using
block parities that Alice announces. A mismatched block is bisected down
to the single wrong bit (announcing one half's parity per level; the
other half's parity comes free). Later passes reshuffle the bits with a
doubled block size, and every block whose parity was ever announced or
inferred stays registered: when a flip lands inside an earlier block,
that block's parity flips too, re-exposing any second error it was
masking. Work always proceeds smallest-block-first, so one repair can
cascade back and forth across passes until no registered block is odd.

Every block is an interval of its pass's order (a bisection half, of its
parent), so a flip finds the blocks holding its bit from the bit's position
in each pass: the bookkeeping costs per block and per flip, never per bit.

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
from operator import attrgetter
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


@dataclass(slots=True, eq=False)
class _Block:
    """Positions [start, start + len(order)) of pass pass_no's order."""

    order: np.ndarray
    pass_no: int
    start: int
    alice_par: int
    bob_par: int
    serial: int


def cascade_reconcile(pair: "SiftedPair", config: CascadeConfig) -> CascadeResult:
    """Repair Bob's key against Alice's, counting disclosed parity bits."""
    alice, bob = np.asarray(pair.alice_key), np.asarray(pair.bob_key)
    if alice.shape != bob.shape or alice.ndim != 1:
        raise ValueError("keys must be equal-length 1-d bit arrays")
    n = int(alice.size)
    if n == 0:
        raise ValueError("nothing to reconcile")
    if not all(((key == 0) | (key == 1)).all() for key in (alice, bob)):
        raise ValueError("keys must hold only the bit values 0 and 1")
    alice, bob = alice.astype(np.uint8), bob.astype(np.uint8)

    disclosed = 0
    heap: list[tuple[int, int, _Block]] = []
    seq, serials = count(), count()
    # Per pass: bit -> position in the pass order, block size, the blocks
    # registered in each top-level block (top first), Alice's prefix parities.
    passes: list[tuple[np.ndarray, int, list[list[_Block]], bytes]] = []

    def register(into, order, pass_no, start, alice_par, bob_par) -> _Block:
        block = _Block(order, pass_no, start, alice_par, bob_par, next(serials))
        into.append(block)
        if alice_par != bob_par:
            heapq.heappush(heap, (len(order), next(seq), block))
        return block

    def flip(i: int) -> None:
        if bob[i] == alice[i]:
            raise CascadeAuditError(f"flip at index {i} would corrupt a correct bit")
        bob[i] ^= 1
        holders: list[_Block] = []
        for pos_of, size, tops, _ in passes:
            p = int(pos_of[i])
            holders += [b for b in tops[p // size] if 0 <= p - b.start < len(b.order)]
        # Registration order, the order the heap's tie-breaks are pinned to.
        for block in sorted(holders, key=attrgetter("serial")):
            block.bob_par ^= 1
            if block.alice_par != block.bob_par:
                heapq.heappush(heap, (len(block.order), next(seq), block))

    def bisect_to_error(block: _Block) -> None:
        nonlocal disclosed
        _, size, tops, prefix = passes[block.pass_no]
        into = tops[block.start // size]
        while len(block.order) > 1:
            order, start = block.order, block.start
            mid = (len(order) + 1) // 2
            disclosed += 1  # Alice announces the first half's parity
            a, b = prefix[start + mid] ^ prefix[start], int(bob[order[:mid]].sum() & 1)
            first = register(into, order[:mid], block.pass_no, start, a, b)
            a, b = block.alice_par ^ a, block.bob_par ^ b
            second = register(into, order[mid:], block.pass_no, start + mid, a, b)
            block = first if first.alice_par != first.bob_par else second
        flip(int(block.order[0]))

    def settle() -> None:
        # Smallest odd block first; entries of blocks since repaired are stale.
        while heap:
            _, _, block = heapq.heappop(heap)
            if block.alice_par != block.bob_par:
                bisect_to_error(block)

    k1, rng = initial_block_size(config.qber_hint, n), Rng(config.shuffle_seed)
    for pass_no in range(config.passes):
        size = min(n, k1 << pass_no)
        order = rng.derive(pass_no + 1).np.permutation(n) if pass_no else np.arange(n)
        pos_of = np.empty(n, dtype=np.intp)
        pos_of[order] = np.arange(n)
        alice_seq, starts = alice[order], np.arange(0, n, size)
        prefix = bytes(1) + np.bitwise_xor.accumulate(alice_seq).tobytes()
        alice_pars = np.bitwise_xor.reduceat(alice_seq, starts).tolist()
        bob_pars = np.bitwise_xor.reduceat(bob[order], starts).tolist()
        tops: list[list[_Block]] = [[] for _ in alice_pars]
        passes.append((pos_of, size, tops, prefix))
        for into, start, a, b in zip(tops, starts.tolist(), alice_pars, bob_pars):
            register(into, order[start : start + size], pass_no, start, a, b)
        disclosed += len(tops)
        settle()

    return CascadeResult(bob, disclosed, bool(np.array_equal(bob, alice)))
