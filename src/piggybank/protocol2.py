"""Discrete-log piggy bank over a prime field (protocol 2).

Both parties hold exponents this time. Bob opens with g^nonce mod p,
Alice raises that to her own secret exponent to get a blinding value
t = g^(nonce*secret) and hides her key K under it. Her letter g^secret
lets Bob rebuild t with his nonce, so both sides also end up sharing t
as key material, Diffie-Hellman style.

    variant         deposit            recovery of K
    ADDITIVE        t + K mod p        deposit - t
    MULTIPLICATIVE  K * (t + 1) mod p  deposit * (t + 1)^-1

t + 1 can vanish mod p, in which case the multiplicative deposit would
erase K; that exchange aborts with DegenerateCaseError and the caller
retries with a fresh nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import DegenerateCaseError, PeerValueError
from .numtheory import DhParams, Rng, mod_exp, mod_inv


class Variant2(IntEnum):
    ADDITIVE = 0
    MULTIPLICATIVE = 1


@dataclass(frozen=True)
class AliceSecrets2:
    """Alice's exponent in [1, p-2] and the key value K she transports.

    K ranges over [0, p-1] additively but must be nonzero for the
    multiplicative variant (a zero K would be unrecoverable noise).
    """

    secret: int
    key: int


@dataclass(frozen=True)
class BobState2:
    params: DhParams
    nonce: int
    challenge_sent: int


@dataclass(frozen=True)
class Response2:
    deposit: int
    letter: int


@dataclass(frozen=True)
class Outcome2:
    """Recovered key plus the shared blinding value both sides now hold."""

    key: int
    shared: int


def check_nonce2(p: int, nonce: int) -> None:
    """Raise ValueError unless a forced nonce lies in [1, p-2]."""
    if not 1 <= nonce <= p - 2:
        raise ValueError("nonce must lie in [1, p-2]")


def check_secrets2(
    p: int, variant: Variant2, secret: int | None, key: int | None
) -> None:
    """Raise ValueError unless Alice's exponent and key suit the variant mod
    p; None skips a value that is still to be drawn."""
    if secret is not None and not 1 <= secret <= p - 2:
        raise ValueError("secret exponent must lie in [1, p-2]")
    if key is None:
        return
    if variant is Variant2.ADDITIVE:
        if not 0 <= key <= p - 1:
            raise ValueError("key must lie in [0, p-1]")
    elif not 1 <= key <= p - 1:
        raise ValueError("key must lie in [1, p-1] for the multiplicative form")


def p2_init(
    params: DhParams,
    rng: Rng | None = None,
    *,
    nonce: int | None = None,
) -> BobState2:
    """Pick Bob's exponent and publish the challenge g^nonce mod p."""
    p = params.p
    if nonce is None:
        if rng is None:
            raise ValueError("sampling a nonce requires an rng")
        nonce = 1 + rng.randbelow(p - 2)
    else:
        check_nonce2(p, nonce)
    return BobState2(params, nonce, mod_exp(params.g, nonce, p))


def p2_deposit(
    params: DhParams,
    variant: Variant2,
    challenge: int,
    secrets: AliceSecrets2,
) -> Response2:
    """Alice's side: blind K with t = challenge^secret and seal the letter."""
    p = params.p
    if not 1 <= challenge <= p - 1:
        raise PeerValueError("challenge must lie in [1, p-1]")
    s, k = secrets.secret, secrets.key
    check_secrets2(p, variant, s, k)
    t = mod_exp(challenge, s, p)
    letter = mod_exp(params.g, s, p)
    if variant is Variant2.ADDITIVE:
        return Response2((t + k) % p, letter)
    if (t + 1) % p == 0:
        raise DegenerateCaseError("blinding factor t+1 vanished mod p")
    return Response2(k * (t + 1) % p, letter)


def p2_recover(
    state: BobState2,
    variant: Variant2,
    response: Response2,
) -> Outcome2:
    """Bob's side: rebuild t from the letter and strip it off the deposit."""
    p = state.params.p
    deposit, letter = response.deposit, response.letter
    if not (0 <= deposit <= p - 1 and 0 <= letter <= p - 1):
        raise PeerValueError("response out of range")
    t = mod_exp(letter, state.nonce, p)
    if variant is Variant2.ADDITIVE:
        key = (deposit - t) % p
    else:
        if (t + 1) % p == 0:
            raise DegenerateCaseError("blinding factor t+1 vanished mod p")
        key = deposit * mod_inv((t + 1) % p, p) % p
    return Outcome2(key, t)
