"""Composite-modulus protocol against hand-worked values at n = 51.

Every frozen number below was recomputed with the builtin pow before
being written down; the reference functions repeat that arithmetic so
the table stays auditable.
"""

import random
from math import gcd

import pytest

from piggybank import (
    AliceSecrets1,
    IntegrityError,
    PeerValueError,
    Recovered1,
    Response1,
    Rng,
    RsaParams,
    RsaSecret,
    Variant1,
    gen_rsa,
    mod_inv,
    p1_deposit,
    p1_init,
    p1_recover,
    rsa_open,
)

N, E, D = 51, 3, 11


def run_cycle(params, secret, variant, nonce, s, k):
    state = p1_init(params, secret, variant, nonce=nonce)
    response = p1_deposit(params, variant, state.challenge_sent, AliceSecrets1(s, k))
    return state, response, p1_recover(state, response)


class TestWorkedExample:
    """R=13, S=5, K=29 through every variant."""

    def test_base(self, desk_rsa):
        state, resp, rec = run_cycle(*desk_rsa, Variant1.BASE, 13, 5, 29)
        assert state.challenge_sent == pow(13, 3, 51) == 4
        assert resp.deposit == (5 * 4 + 29) % 51 == 49
        assert resp.letter == pow(5, 3, 51) == 23
        assert rec == Recovered1(5, 29)

    def test_unit_r(self, desk_rsa):
        state, resp, rec = run_cycle(*desk_rsa, Variant1.UNIT_R, None, 5, 29)
        assert state.nonce == 1 and state.challenge_sent == 1
        assert resp.deposit == 34 and resp.letter == 23
        assert rec == Recovered1(5, 29)

    def test_multiplicative(self, desk_rsa):
        state, resp, rec = run_cycle(*desk_rsa, Variant1.MULTIPLICATIVE, 13, 5, 29)
        assert state.challenge_sent == 4
        assert resp.deposit == 4 * 5 % 51 == 20
        assert resp.letter == 23
        assert rec == Recovered1(5, None)  # K never travels

    def test_plain_r(self, desk_rsa):
        state, resp, rec = run_cycle(*desk_rsa, Variant1.PLAIN_R, 13, 5, 29)
        assert state.challenge_sent == 13  # nonce in the clear
        assert resp.deposit == (23 * 13 + 29) % 51 == 22
        assert resp.letter == 23
        assert rec == Recovered1(5, 29)

    def test_plain_r_keyed(self, desk_rsa):
        state, resp, rec = run_cycle(*desk_rsa, Variant1.PLAIN_R_KEYED, 13, 5, 29)
        assert state.challenge_sent == 13
        assert resp.deposit == (5 * 13 + 29) % 51 == 43
        assert resp.letter == pow(29, 3, 51) == 11  # the letter seals K here
        assert rec == Recovered1(5, 29)


class TestInit:
    def test_sampled_nonce_is_deterministic(self, desk_rsa):
        params, secret = desk_rsa
        states = [
            p1_init(params, secret, Variant1.BASE, Rng(5)).nonce for _ in range(2)
        ]
        assert states[0] == states[1]

    def test_sampling_respects_unit_constraint(self, desk_rsa):
        params, secret = desk_rsa
        rng = Rng(8)
        for _ in range(60):
            state = p1_init(params, secret, Variant1.MULTIPLICATIVE, rng)
            assert gcd(state.nonce, params.n) == 1

    def test_requires_rng_or_nonce(self, desk_rsa):
        with pytest.raises(ValueError):
            p1_init(*desk_rsa, Variant1.BASE)

    def test_nonce_validation(self, desk_rsa):
        params, secret = desk_rsa
        with pytest.raises(ValueError):
            p1_init(params, secret, Variant1.BASE, nonce=0)
        with pytest.raises(ValueError):
            p1_init(params, secret, Variant1.BASE, nonce=51)
        with pytest.raises(ValueError):
            p1_init(params, secret, Variant1.UNIT_R, nonce=13)
        with pytest.raises(ValueError):
            p1_init(params, secret, Variant1.MULTIPLICATIVE, nonce=17)

    def test_rejects_inconsistent_secret(self):
        with pytest.raises(ValueError):
            p1_init(RsaParams(51, 5), RsaSecret(3, 17, 32, 11), Variant1.BASE, Rng(1))


class TestDeposit:
    def test_rejects_degenerate_challenge(self, desk_rsa):
        params, _ = desk_rsa
        secrets = AliceSecrets1(5, 29)
        for variant in (Variant1.BASE, Variant1.MULTIPLICATIVE):
            with pytest.raises(PeerValueError):
                p1_deposit(params, variant, 0, secrets)
        # fine for the plaintext-challenge additive shapes
        assert p1_deposit(params, Variant1.PLAIN_R_KEYED, 0, secrets).deposit == 29

    def test_unit_r_rejects_other_challenges(self, desk_rsa):
        params, _ = desk_rsa
        with pytest.raises(PeerValueError):
            p1_deposit(params, Variant1.UNIT_R, 4, AliceSecrets1(5, 29))

    def test_range_validation(self, desk_rsa):
        params, _ = desk_rsa
        with pytest.raises(PeerValueError):
            p1_deposit(params, Variant1.BASE, 51, AliceSecrets1(5, 29))
        # Alice's own secrets are her caller's error, not the peer's.
        for secrets in (AliceSecrets1(0, 29), AliceSecrets1(5, 51)):
            with pytest.raises(ValueError) as refused:
                p1_deposit(params, Variant1.BASE, 4, secrets)
            assert not isinstance(refused.value, PeerValueError)


class TestRecover:
    def test_multiplicative_cross_check(self, desk_rsa):
        params, secret = desk_rsa
        state = p1_init(params, secret, Variant1.MULTIPLICATIVE, nonce=13)
        good = p1_deposit(
            params, Variant1.MULTIPLICATIVE, state.challenge_sent, AliceSecrets1(5, 0)
        )
        p1_recover(state, good)
        with pytest.raises(IntegrityError):
            p1_recover(state, Response1(good.deposit, (good.letter + 1) % 51))
        with pytest.raises(IntegrityError):
            p1_recover(state, Response1((good.deposit + 1) % 51, good.letter))

    def test_multiplicative_check_matches_trapdoor_opening(self, desk_rsa):
        # The public check s^e == letter refuses exactly the responses
        # whose letter does not open to s under the trapdoor exponent.
        params, secret = desk_rsa
        state = p1_init(params, secret, Variant1.MULTIPLICATIVE, nonce=13)
        for s in range(N):
            deposit = state.challenge_sent * s % N
            for letter in range(N):
                opens = rsa_open(letter, secret) == s
                try:
                    assert p1_recover(state, Response1(deposit, letter)).secret == s
                except IntegrityError:
                    assert not opens, (s, letter)
                else:
                    assert opens, (s, letter)

    def test_response_range_validation(self, desk_rsa):
        params, secret = desk_rsa
        state = p1_init(params, secret, Variant1.BASE, nonce=13)
        with pytest.raises(PeerValueError):
            p1_recover(state, Response1(51, 23))


class TestRoundTrips:
    @pytest.mark.parametrize("variant", list(Variant1))
    def test_random_desk_scale(self, desk_rsa, variant):
        params, secret = desk_rsa
        rnd = random.Random(int(variant) + 100)
        for _ in range(150):
            if variant is Variant1.UNIT_R:
                nonce = 1
            elif variant in (Variant1.MULTIPLICATIVE, Variant1.PLAIN_R_KEYED):
                while True:
                    nonce = rnd.randrange(1, 51)
                    if gcd(nonce, 51) == 1:
                        break
            else:
                nonce = rnd.randrange(1, 51)
            s = rnd.randrange(1, 51)
            k = rnd.randrange(0, 51)
            _, _, rec = run_cycle(params, secret, variant, nonce, s, k)
            assert rec.secret == s
            if variant is Variant1.MULTIPLICATIVE:
                assert rec.key is None
            else:
                assert rec.key == k

    def test_generated_key_roundtrip(self):
        params, secret = gen_rsa(40, 3, Rng(12))
        rnd = random.Random(13)
        for variant in Variant1:
            for _ in range(10):
                state = p1_init(params, secret, variant, Rng(rnd.getrandbits(32)))
                s = rnd.randrange(1, params.n)
                k = rnd.randrange(0, params.n)
                resp = p1_deposit(
                    params, variant, state.challenge_sent, AliceSecrets1(s, k)
                )
                rec = p1_recover(state, resp)
                assert rec.secret == s

    def test_recovery_normalizes_subtraction(self, desk_rsa):
        # K recovery wraps mod n when deposit < S * challenge
        params, secret = desk_rsa
        state = p1_init(params, secret, Variant1.BASE, nonce=13)
        resp = p1_deposit(params, Variant1.BASE, 4, AliceSecrets1(50, 1))
        rec = p1_recover(state, resp)
        assert rec == Recovered1(50, 1)


def test_mod_inv_agrees_with_recovery_algebra():
    # the division in PLAIN_R_KEYED is multiplication by the nonce inverse
    assert mod_inv(13, 51) == 4
    assert (43 - 29) * 4 % 51 == 5
