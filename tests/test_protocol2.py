"""Prime-field protocol worked example: p = 37, g = 2, R = 11, S = 3, K = 10."""

import random

import pytest

from piggybank import (
    AliceSecrets2,
    DegenerateCaseError,
    DhParams,
    Outcome2,
    PeerValueError,
    Response2,
    Rng,
    Variant2,
    gen_dh,
    mod_exp,
    p2_deposit,
    p2_init,
    p2_recover,
)


def run_cycle(params, variant, nonce, s, k):
    state = p2_init(params, nonce=nonce)
    response = p2_deposit(params, variant, state.challenge_sent, AliceSecrets2(s, k))
    return state, response, p2_recover(state, variant, response)


class TestWorkedExample:
    def test_additive(self, desk_dh):
        state, resp, out = run_cycle(desk_dh, Variant2.ADDITIVE, 11, 3, 10)
        assert state.challenge_sent == pow(2, 11, 37) == 13
        # t = 13^3 mod 37 = 14, deposit = t + K
        assert resp.deposit == (14 + 10) % 37 == 24
        assert resp.letter == pow(2, 3, 37) == 8
        assert out == Outcome2(10, 14)

    def test_multiplicative(self, desk_dh):
        state, resp, out = run_cycle(desk_dh, Variant2.MULTIPLICATIVE, 11, 3, 10)
        assert resp.deposit == 10 * (14 + 1) % 37 == 2
        assert resp.letter == 8
        assert out == Outcome2(10, 14)

    def test_shared_value_is_symmetric(self, desk_dh):
        # both sides hold g^(S*R): Alice from the challenge, Bob from the letter
        state, resp, out = run_cycle(desk_dh, Variant2.ADDITIVE, 11, 3, 10)
        alice_side = mod_exp(state.challenge_sent, 3, 37)
        bob_side = mod_exp(resp.letter, 11, 37)
        assert alice_side == bob_side == out.shared == pow(2, 33, 37)


class TestValidation:
    def test_init_nonce_range(self, desk_dh):
        with pytest.raises(ValueError):
            p2_init(desk_dh, nonce=0)
        with pytest.raises(ValueError):
            p2_init(desk_dh, nonce=36)
        assert p2_init(desk_dh, nonce=35).challenge_sent == pow(2, 35, 37)

    def test_init_requires_rng_or_nonce(self, desk_dh):
        with pytest.raises(ValueError):
            p2_init(desk_dh)

    def test_deposit_rejects_zero_challenge(self, desk_dh):
        with pytest.raises(PeerValueError):
            p2_deposit(desk_dh, Variant2.ADDITIVE, 0, AliceSecrets2(3, 10))

    def test_deposit_range_checks(self, desk_dh):
        with pytest.raises(ValueError):
            p2_deposit(desk_dh, Variant2.ADDITIVE, 13, AliceSecrets2(36, 10))
        with pytest.raises(ValueError):
            p2_deposit(desk_dh, Variant2.ADDITIVE, 13, AliceSecrets2(3, 37))
        # K = 0 is fine additively, rejected multiplicatively
        p2_deposit(desk_dh, Variant2.ADDITIVE, 13, AliceSecrets2(3, 0))
        with pytest.raises(ValueError):
            p2_deposit(desk_dh, Variant2.MULTIPLICATIVE, 13, AliceSecrets2(3, 0))

    def test_recover_range_checks(self, desk_dh):
        state = p2_init(desk_dh, nonce=11)
        with pytest.raises(PeerValueError):
            p2_recover(state, Variant2.ADDITIVE, Response2(37, 8))


class TestDegenerateBlinding:
    """t = p - 1 makes t + 1 vanish; the multiplicative form must refuse."""

    def test_deposit_side(self, desk_dh):
        # challenge 2, S = 18: t = 2^18 mod 37 = 36
        assert mod_exp(2, 18, 37) == 36
        with pytest.raises(DegenerateCaseError):
            p2_deposit(desk_dh, Variant2.MULTIPLICATIVE, 2, AliceSecrets2(18, 10))

    def test_recover_side(self, desk_dh):
        state = p2_init(desk_dh, nonce=1)
        with pytest.raises(DegenerateCaseError):
            p2_recover(state, Variant2.MULTIPLICATIVE, Response2(5, 36))

    def test_additive_shrugs(self, desk_dh):
        _, _, out = run_cycle(desk_dh, Variant2.ADDITIVE, 1, 18, 10)
        assert out.key == 10 and out.shared == 36


class TestRoundTrips:
    @pytest.mark.parametrize("variant", list(Variant2))
    def test_random_desk_scale(self, desk_dh, variant):
        rnd = random.Random(int(variant) + 50)
        done = 0
        while done < 200:
            nonce = rnd.randrange(1, 36)
            s = rnd.randrange(1, 36)
            k = rnd.randrange(0 if variant is Variant2.ADDITIVE else 1, 37)
            try:
                _, _, out = run_cycle(desk_dh, variant, nonce, s, k)
            except DegenerateCaseError:
                assert variant is Variant2.MULTIPLICATIVE
                continue
            assert out.key == k
            assert out.shared == pow(2, s * nonce, 37)
            done += 1

    def test_generated_group_roundtrip(self):
        params = gen_dh(20, Rng(21))
        rnd = random.Random(22)
        for variant in Variant2:
            for _ in range(15):
                state = p2_init(params, Rng(rnd.getrandbits(32)))
                s = rnd.randrange(1, params.p - 1)
                k = rnd.randrange(1, params.p)
                try:
                    resp = p2_deposit(
                        params, variant, state.challenge_sent, AliceSecrets2(s, k)
                    )
                except DegenerateCaseError:
                    continue
                assert p2_recover(state, variant, resp).key == k
