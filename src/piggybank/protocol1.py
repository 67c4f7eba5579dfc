"""Trapdoor piggy bank over a composite modulus (protocol 1).

Bob publishes a challenge built from a fresh random nonce, Alice locks
her secrets against it in two messages, and only Bob's trapdoor exponent
d opens the result. Anyone may deposit; only the keyholder extracts.

Five exchange shapes are implemented. With c the challenge Alice sees,
S her deposited secret and K her key value:

    variant          challenge     deposit             letter      recovers
    BASE             nonce^e       S*c + K             S^e         S, K
    UNIT_R           1 (nonce=1)   S + K               S^e         S, K
    MULTIPLICATIVE   nonce^e       c*S                 S^e         S only
    PLAIN_R          nonce         S^e*c + K           S^e         S, K
    PLAIN_R_KEYED    nonce         S*c + K             K^e         S, K

All arithmetic is mod n. MULTIPLICATIVE and PLAIN_R_KEYED divide by the
nonce (or its image) during recovery and therefore require it to be a
unit mod n; those variants also cross-check or carry K inside the letter
instead of the deposit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import gcd

from .errors import IntegrityError, PeerValueError
from .numtheory import (
    Rng,
    RsaParams,
    RsaSecret,
    check_rsa_consistent,
    mod_exp,
    mod_inv,
    rand_residue,
    rsa_open,
)


class Variant1(IntEnum):
    BASE = 0
    UNIT_R = 1
    MULTIPLICATIVE = 2
    PLAIN_R = 3
    PLAIN_R_KEYED = 4


# Variants whose recovery divides by the nonce need it invertible.
_UNIT_NONCE_VARIANTS = (Variant1.MULTIPLICATIVE, Variant1.PLAIN_R_KEYED)
# Variants that send the nonce through the one-way map reject challenge 0
# as degenerate (a zero challenge would short-circuit the deposit).
_EXP_CHALLENGE_VARIANTS = (Variant1.BASE, Variant1.MULTIPLICATIVE)


@dataclass(frozen=True)
class AliceSecrets1:
    """What Alice wants conveyed: the deposited secret and a key value.

    secret must lie in [1, n-1] (0 would zero out the letter); key may be
    any residue. MULTIPLICATIVE transmits only the secret and ignores key.
    """

    secret: int
    key: int


@dataclass(frozen=True)
class BobState1:
    params: RsaParams
    secret: RsaSecret
    variant: Variant1
    nonce: int
    challenge_sent: int


@dataclass(frozen=True)
class Response1:
    deposit: int
    letter: int


@dataclass(frozen=True)
class Recovered1:
    """Recovery result; key is None for the variant that never sends it."""

    secret: int
    key: int | None


def check_nonce1(n: int, variant: Variant1, nonce: int) -> None:
    """Raise ValueError unless a forced nonce suits the variant mod n."""
    if not 1 <= nonce <= n - 1:
        raise ValueError("nonce must lie in [1, n-1]")
    if variant is Variant1.UNIT_R and nonce != 1:
        raise ValueError("UNIT_R fixes the nonce at 1")
    if variant in _UNIT_NONCE_VARIANTS and gcd(nonce, n) != 1:
        raise ValueError("this variant needs a nonce coprime to n")


def check_secrets1(n: int, secret: int | None, key: int | None) -> None:
    """Raise ValueError unless Alice's secret and key lie in range mod n;
    None skips a value that is still to be drawn."""
    if secret is not None and not 1 <= secret <= n - 1:
        raise ValueError("secret must lie in [1, n-1]")
    if key is not None and not 0 <= key <= n - 1:
        raise ValueError("key must lie in [0, n-1]")


def p1_init(
    params: RsaParams,
    secret: RsaSecret,
    variant: Variant1,
    rng: Rng | None = None,
    *,
    nonce: int | None = None,
) -> BobState1:
    """Open an exchange: pick Bob's nonce and compute the challenge.

    The nonce is sampled from rng unless forced explicitly (tests and the
    CLI inject the worked examples this way). UNIT_R pins it to 1, and
    the dividing variants insist on a unit residue.
    """
    check_rsa_consistent(params, secret)
    n = params.n
    if nonce is None:
        if variant is Variant1.UNIT_R:
            nonce = 1
        else:
            if rng is None:
                raise ValueError("sampling a nonce requires an rng")
            nonce = rand_residue(n, variant in _UNIT_NONCE_VARIANTS, rng)
    else:
        check_nonce1(n, variant, nonce)
    if variant in (Variant1.BASE, Variant1.UNIT_R, Variant1.MULTIPLICATIVE):
        challenge = mod_exp(nonce, params.e, n)
    else:
        challenge = nonce
    return BobState1(params, secret, variant, nonce, challenge)


def p1_deposit(
    params: RsaParams,
    variant: Variant1,
    challenge: int,
    secrets: AliceSecrets1,
) -> Response1:
    """Alice's side: bind her secrets to the challenge.

    Produces the deposit (first message) and the letter (second message)
    per the variant table in the module docstring.
    """
    n, e = params.n, params.e
    if not 0 <= challenge <= n - 1:
        raise PeerValueError("challenge out of range")
    if challenge == 0 and variant in _EXP_CHALLENGE_VARIANTS:
        raise PeerValueError("challenge 0 is degenerate for this variant")
    if variant is Variant1.UNIT_R and challenge != 1:
        raise PeerValueError("UNIT_R exchanges carry challenge 1 only")
    s, k = secrets.secret, secrets.key
    check_secrets1(n, s, k)
    if variant is Variant1.BASE:
        return Response1((s * challenge + k) % n, mod_exp(s, e, n))
    if variant is Variant1.UNIT_R:
        return Response1((s + k) % n, mod_exp(s, e, n))
    if variant is Variant1.MULTIPLICATIVE:
        return Response1(challenge * s % n, mod_exp(s, e, n))
    if variant is Variant1.PLAIN_R:
        sealed = mod_exp(s, e, n)
        return Response1((sealed * challenge + k) % n, sealed)
    # PLAIN_R_KEYED: deposit as BASE with a plaintext challenge, K rides
    # the letter instead of S.
    return Response1((s * challenge + k) % n, mod_exp(k, e, n))


def p1_recover(state: BobState1, response: Response1) -> Recovered1:
    """Bob's side: open the deposit with the trapdoor exponent, by CRT.

    MULTIPLICATIVE recovers the secret by division and cross-checks it
    against the letter with the public exponent: for a consistent key,
    x -> x^e permutes Z_n with inverse x -> x^d, so s^e == letter exactly
    when the letter opens to s. A mismatch raises IntegrityError rather
    than returning a fabricated value.
    """
    n = state.params.n
    deposit, letter = response.deposit, response.letter
    if not (0 <= deposit <= n - 1 and 0 <= letter <= n - 1):
        raise PeerValueError("response out of range")
    variant = state.variant
    if variant is Variant1.MULTIPLICATIVE:
        s = deposit * mod_inv(state.challenge_sent, n) % n
        if mod_exp(s, state.params.e, n) != letter:
            raise IntegrityError("letter does not open to the deposited secret")
        return Recovered1(s, None)
    if variant is Variant1.PLAIN_R_KEYED:
        k = rsa_open(letter, state.secret)
        s = (deposit - k) * mod_inv(state.nonce, n) % n
        return Recovered1(s, k)
    s = rsa_open(letter, state.secret)
    if variant is Variant1.BASE:
        k = (deposit - s * state.challenge_sent) % n
    elif variant is Variant1.UNIT_R:
        k = (deposit - s) % n
    else:  # PLAIN_R: the letter itself multiplies the plaintext nonce
        k = (deposit - letter * state.nonce) % n
    return Recovered1(s, k)
