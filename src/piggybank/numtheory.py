"""Arbitrary-precision modular arithmetic and parameter generation.

Every protocol value in this package is a plain Python int restricted to
nonnegative range (a natural); functions here validate that and keep all
results canonical. Randomness flows through an explicit, seedable Rng so
that any run can be reproduced bit for bit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from math import gcd, prod

import numpy as np

from .errors import NotInvertibleError

MASK64 = (1 << 64) - 1


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray(b"\x01") * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return tuple(i for i in range(limit) if flags[i])


_SMALL_PRIMES = _sieve(256)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
# Trial division before Miller-Rabin reaches the primes below this bound.
_SIEVE_BOUND = 16384
# Key candidates decoded per block at most; blocks grow 1, 2, 4, ... to it.
_CANDIDATE_BLOCK = 4096


@cache
def _wide_product() -> int:
    """Product of the primes from 257 to 16,383, built on first use so
    that importing the package does not pay for it."""
    return prod(_sieve(_SIEVE_BOUND)[len(_SMALL_PRIMES) :])


class Rng:
    """Deterministic PCG64 random source identified by its seed.

    The same seed always produces the same stream. The underlying numpy
    Generator is exposed via .np for bulk array sampling, and scalar
    helpers here stay exact for arbitrary-precision bounds.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"

    @property
    def np(self) -> np.random.Generator:
        return self._gen

    def derive(self, index: int) -> "Rng":
        """Child stream for trial `index`, derived as seed xor index."""
        if not 0 <= index <= MASK64:
            raise ValueError("derivation index must fit in 64 bits")
        return Rng(self.seed ^ index)

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("bit count must be nonnegative")
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self._gen.bytes(nbytes), "big")
        return value >> (8 * nbytes - k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias)."""
        if n < 1:
            raise ValueError("bound must be positive")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            x = self.getrandbits(k)
            if x < n:
                return x


def mod_exp(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus, for nonnegative operands."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if base < 0 or exp < 0:
        raise ValueError("operands must be nonnegative")
    return pow(base, exp, modulus)


def mod_inv(a: int, m: int) -> int:
    """x with (a*x) mod m = 1 and 0 < x < m, or NotInvertibleError carrying
    gcd(a, m) when no inverse exists."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if a < 0:
        raise ValueError("operand must be nonnegative")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(a, m, gcd(a, m)) from None


def _witness_rng(n: int) -> Rng:
    # Witnesses are a deterministic function of the candidate so that
    # repeated runs agree; blake2b spreads consecutive candidates apart.
    raw = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
    seed = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")
    return Rng(seed)


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin test with `rounds` witnesses.

    Exact for n below 257**2, where a number with no prime factor below
    256 is prime. Above that, False is always correct and True is wrong
    with probability at most 4**-rounds.
    """
    if rounds < 1:
        raise ValueError("at least one round required")
    if n < 256:
        return n in _SMALL_PRIMES
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < 257 * 257:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _witness_rng(n)
    for _ in range(rounds):
        a = 2 + witnesses.randbelow(n - 3)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(m: int) -> list[int]:
    """Distinct prime factors by trial division; for small m only."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append(m)
    return factors


def multiplicative_order(a: int, p: int) -> int:
    """Exact order of a in the group of units mod prime p.

    Factors p-1 by trial division, so intended for desk-scale p in tests
    and parameter checks, not for cryptographic sizes.
    """
    if p < 3 or not is_probable_prime(p, 16):
        raise ValueError("p must be an odd prime")
    if not 1 <= a <= p - 1:
        raise ValueError("a must lie in [1, p-1]")
    order = p - 1
    for f in _factorize(p - 1):
        while order % f == 0 and mod_exp(a, order // f, p) == 1:
            order //= f
    return order


@dataclass(frozen=True)
class RsaParams:
    """Public half of a trapdoor keypair: modulus and encryption exponent."""

    n: int
    e: int

    def __post_init__(self):
        if self.n < 15 or self.n % 2 == 0:
            raise ValueError("modulus must be an odd semiprime, at least 15")
        if self.e < 3 or self.e % 2 == 0:
            raise ValueError("encryption exponent must be odd and at least 3")


@dataclass(frozen=True)
class RsaSecret:
    """Private half: factorization, totient, and decryption exponent."""

    p: int
    q: int
    phi: int
    d: int

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("prime factors must be distinct")
        for f in (self.p, self.q):
            if f < 3 or not is_probable_prime(f, 16):
                raise ValueError("factors must be odd primes")
        if self.phi != (self.p - 1) * (self.q - 1):
            raise ValueError("phi is not (p-1)(q-1)")
        if not 0 < self.d < self.phi:
            raise ValueError("decryption exponent must lie in (0, phi)")


@dataclass(frozen=True)
class DhParams:
    """Prime modulus and a generator of the full multiplicative group."""

    p: int
    g: int

    def __post_init__(self):
        if self.p < 3 or not is_probable_prime(self.p, 16):
            raise ValueError("p must be prime")
        if not 2 <= self.g <= self.p - 1:
            raise ValueError("generator must lie in [2, p-1]")


def check_rsa_consistent(params: RsaParams, secret: RsaSecret) -> None:
    """Raise ValueError unless the two halves describe one keypair."""
    if secret.p * secret.q != params.n:
        raise ValueError("modulus does not match its factors")
    if params.e * secret.d % secret.phi != 1:
        raise ValueError("e*d is not 1 mod phi")


def rsa_open(x: int, secret: RsaSecret) -> int:
    """x**d mod pq from the factors, by the Chinese remainder theorem.

    Exact for every x when d is a multiple of neither p-1 nor q-1, which
    holds for every keypair that check_rsa_consistent accepts.
    """
    if x < 0:
        raise ValueError("operand must be nonnegative")
    p, q, d = secret.p, secret.q, secret.d
    xp = pow(x, d % (p - 1), p)
    xq = pow(x, d % (q - 1), q)
    return xq + q * ((xp - xq) * pow(q, -1, p) % p)


def _small_factor_free(n: int, least: int) -> bool:
    """Whether n, a product of candidates the least of which is `least`,
    has no prime factor below 256 (checked once least >= 256) and none
    below _SIEVE_BOUND (checked once least >= _SIEVE_BOUND), so that a
    candidate that is itself a small prime is never refused."""
    if least >= 256 and gcd(n, _SMALL_PRODUCT) != 1:
        return False
    return least < _SIEVE_BOUND or gcd(n, _wide_product()) == 1


def _first_candidate(bits: int, rng: Rng, accept: Callable[[int], bool]) -> int:
    """The first `rng.getrandbits(bits) | 2**(bits-1) | 1` that accept()
    passes; the stream is left just after its draw.

    Candidates are decoded in blocks of 1, 2, 4, ... up to
    _CANDIDATE_BLOCK, so a key that needs few draws does not overdraw.
    getrandbits(bits) is the first ceil(bits/8) bytes of a
    Generator.bytes call of `stride` bytes (whole 32-bit draws), and one
    bytes call draws the same 32-bit words as consecutive calls, a
    buffered half-word first. So each block is read with one bytes call;
    then the stream is put back and redrawn through the candidates it
    took.
    """
    nbytes = (bits + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    shift, forced = 8 * nbytes - bits, 1 << (bits - 1) | 1
    bit_gen = rng.np.bit_generator
    count = 1
    while True:
        mark = bit_gen.state
        data = rng.np.bytes(stride * count)
        for j in range(count):
            value = int.from_bytes(data[j * stride : j * stride + nbytes], "big")
            candidate = value >> shift | forced
            if found := accept(candidate):
                break
        bit_gen.state = mark
        rng.np.bytes(stride * (j + 1))  # as j + 1 getrandbits(bits) calls
        if found:
            return candidate
        count = min(2 * count, _CANDIDATE_BLOCK)


def _random_prime(bits: int, e: int, rng: Rng) -> int:
    # Top bit forced so a product of two such primes lands at full width.
    # A prime with gcd(e, p-1) > 1 can never be in a key for e, so it is
    # refused before the sieve and the 40-round test; the three checks
    # are pure, so their order leaves the output unchanged.
    return _first_candidate(
        bits,
        rng,
        lambda n: gcd(e, n - 1) == 1
        and _small_factor_free(n, n)
        and is_probable_prime(n, 40),
    )


def gen_rsa(bits: int, e: int, rng: Rng) -> tuple[RsaParams, RsaSecret]:
    """Fresh keypair with n of exactly `bits` bits and gcd(e, phi) = 1.

    Each prime is drawn with gcd(e, p-1) = 1, which makes gcd(e, phi) = 1;
    pairs are resampled until the primes differ and n has full width.
    Up to 32 bits the admissible primes of each half width are listed
    first, without drawing from rng: if the largest product of two
    distinct ones falls short of full width, no pair admits a key and
    ValueError is raised (bits 8 with e = 3 or 5: the only candidates are
    11 and 13, phi = 120). Wider moduli are not listed; the loop ends once
    some drawn pair passes.
    """
    if bits < 8:
        raise ValueError("modulus below 8 bits cannot hold two distinct primes")
    if e < 3 or e % 2 == 0:
        raise ValueError("encryption exponent must be odd and at least 3")
    half_hi = (bits + 1) // 2
    half_lo = bits // 2
    if bits <= 32:
        # The two largest admissible primes of each half width hold the
        # largest product of two distinct ones.
        fit = [p for p in _sieve(1 << half_hi) if gcd(e, p - 1) == 1]
        hi = [p for p in fit if p.bit_length() == half_hi][-2:]
        lo = [p for p in fit if p.bit_length() == half_lo][-2:]
        if max((p * q for p in hi for q in lo if p != q), default=0) < 1 << bits - 1:
            raise ValueError(f"no {bits}-bit modulus has gcd(e, phi) = 1 for e = {e}")
    while True:
        p = _random_prime(half_hi, e, rng)
        q = _random_prime(half_lo, e, rng)
        if p == q or (p * q).bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        return RsaParams(p * q, e), RsaSecret(p, q, phi, mod_inv(e, phi))


def gen_dh(bits: int, rng: Rng) -> DhParams:
    """Safe prime p = 2q+1 of `bits` bits plus a verified generator.

    Any unit's order divides 2q, so ruling out orders 1, 2 and q by two
    exponentiations proves g generates the whole group. q's candidates
    are drawn as _random_prime's. A joint sieve and a base-2 Fermat test
    on q and 2q+1 skip only pairs that the 40-round tests would reject,
    so they leave the output for every rng unchanged.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")

    def safe(q: int) -> bool:
        p = 2 * q + 1
        return (
            _small_factor_free(q * p, q)
            and pow(2, q - 1, q) == 1
            and pow(2, p - 1, p) == 1
            and is_probable_prime(q, 40)
            and is_probable_prime(p, 40)
        )

    q = _first_candidate(bits - 1, rng, safe)
    p = 2 * q + 1
    while True:
        g = 2 + rng.randbelow(p - 3)
        if mod_exp(g, 2, p) != 1 and mod_exp(g, q, p) != 1:
            return DhParams(p, g)


def rand_residue(n: int, require_unit: bool, rng: Rng) -> int:
    """Uniform residue in [1, n-1]; optionally restricted to units mod n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    while True:
        x = 1 + rng.randbelow(n - 1)
        if not require_unit or gcd(x, n) == 1:
            return x
