"""Number-theory layer checked against naive reference implementations.

The references here are deliberately dumb (repeated multiplication,
exhaustive inverse search, sieve) so that any disagreement points at the
fast implementation.
"""

import hashlib
import math
import random

import pytest

from piggybank import numtheory
from piggybank import (
    DhParams,
    NotInvertibleError,
    Rng,
    RsaParams,
    RsaSecret,
    check_rsa_consistent,
    gen_dh,
    gen_rsa,
    is_probable_prime,
    mod_exp,
    mod_inv,
    multiplicative_order,
    rand_residue,
    rsa_open,
)


def slow_mod_exp(base: int, exp: int, modulus: int) -> int:
    result = 1 % modulus
    for _ in range(exp):
        result = result * base % modulus
    return result


def slow_inverse(a: int, m: int) -> int | None:
    for x in range(m):
        if a * x % m == 1:
            return x
    return None


def sieve(limit: int) -> set[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return {i for i, f in enumerate(flags) if f}


def plain_gen_rsa(bits: int, e: int, rng: Rng) -> tuple[int, int]:
    """(n, d) from one getrandbits draw per prime candidate, no sieve."""

    def prime(width: int) -> int:
        while True:
            n = rng.getrandbits(width) | 1 << (width - 1) | 1
            if math.gcd(e, n - 1) == 1 and is_probable_prime(n, 40):
                return n

    while True:
        p, q = prime((bits + 1) // 2), prime(bits // 2)
        if p != q and (p * q).bit_length() == bits:
            return p * q, pow(e, -1, (p - 1) * (q - 1))


# chi-square critical values, alpha = 0.001 (frozen so scipy is not a
# dependency): df=49 -> 85.351, df=1 -> 10.828
CHI2_DF49 = 85.351
CHI2_DF1 = 10.828

# Exact key-generator outputs for seeds 0-4, recorded from the
# square-and-multiply implementation before the safe-prime sieve; a change
# to any random stream or any primality verdict shows up here.
GOLDEN_DH = {
    64: [
        (0x9461eee637db07af, 0x87849382583b0da3),
        (0xc0aba7d3212f0b73, 0x2dbfa69637b1e4a1),
        (0x81809d319a0d67af, 0x45184337872217a),
        (0xa0280ff85836769b, 0x1f7886956e2d0261),
        (0xd8343a56a01dcd3f, 0x93da52f76ccd63b6),
    ],
    128: [
        (0xa70fc4f75722581a811d07901a6155a7, 0x38b80f549a1e93c260637d16bde1038e),
        (0xb8cd730d4f5641509852b26f40d8e017, 0x24b6ddea1818aa78ea9035070e063bbf),
        (0x8bb2ce5392573a6e120e40bcf14621cb, 0x4b1cfc55bea55ce17a72979426aa905d),
        (0x8c36b59a7cbe68400b7825f416369cf3, 0x4726a8dd016806b3f7573e5ebd009919),
        (0xc99ce08b2a9685d9d2d4fe99f8db7287, 0x242058c5b1d652f47fd2a1e2e21a75a2),
    ],
}
# The RSA keys were re-pinned from plain_gen_rsa once each prime had to
# satisfy gcd(e, p-1) = 1 before its primality test.
GOLDEN_RSA = {
    128: [
        (
            0x92dbb8a4b68bf45cec1173219ab32eef,
            0x61e7d06dcf07f83cf008da7c4757632b,
        ),
        (
            0x994db68d7bc71b82d7f977ec45faada3,
            0x6633cf08fd2f67ab87c8a009bc5366ab,
        ),
        (
            0xd8b70b00311811f2cc338ccf9bc364cd,
            0x907a075576100bf5f7abfb4013aefb6b,
        ),
        (
            0x8ce730ffb98eab9aaf18d9a0c9d51f45,
            0x5def75ffd109c7bb772b7b5351d877f3,
        ),
        (
            0x8c62d0aeb1b673468e39e9b5e02f515f,
            0x5d9735c9cbcef783594f69c0cfa71cab,
        ),
    ],
    256: [
        (
            0xc0eb38fa28cc350250c3ffe64143dbb77ba995e223aa9d7411b6676ed2afc4e5,
            0x809cd0a6c5dd78ac35d7ffeed62d3d23d3eb0dc973f9b89c7aa34e3f45049deb,
        ),
        (
            0x83bbcff44ceb3b34f79bc1b805a1ffe69fe173704cfb75f823db3ffca6bb83d9,
            0x57d28aa2ddf22778a51281255916aa98c15de019431be3a6c671d0549469ea23,
        ),
        (
            0x83f15c7c98a58777550873f270c0dc5fb86e0473e79a1804468caeba8735771b,
            0x57f63da865c3afa4e35af7f6f5d5e83ed6055e9734763e2984a8fe1a4c8aaa3b,
        ),
        (
            0x82b89bbfef5bbf823cb68f9aaedc25a4c39b64d06bdd65cf5feea182176df5c7,
            0x5725bd2a9f927fac2879b511c9e819178e655899d457ef0dbfc2a412946cce3b,
        ),
        (
            0xaae0c0cfc2efbbaca24655aeebe7dfc9dd4df94dc3d800cc44a5bddce706f677,
            0x71eb2b352c9fd27316d98e749d453fdace36710e02a6a58c4aa43cb7fdf8f75b,
        ),
    ],
}

# Keys of the session benchmark (key seeds 0-4) and keygen from a stream
# with a buffered half-word, recorded before candidates were drawn in
# blocks; they pin every key and the stream position after keygen.
GOLDEN_DH_256 = [
    (
        0xb60cc0c0b2cbabd998ec8cac554e3a0069cec4c0a87e4aacb26e6a6852b84d5b,
        0x8df140a34274e011bdf6d072f4c841c39ac44667bb34d84dafbe3ea24e874776,
    ),
    (
        0xd5406d0213c2c4bd0d16d547c1a0dc0102b49eff2e06bc52af6afc44e22ca813,
        0x61367a992ea7b8c2374b04ae9fe2e7ff0b506eebfce3c1ddd15655be88b295cc,
    ),
    (
        0xbd6cd0aa474ccacc3c92d77c860724ff30d8ee8647902925ab2b9ddf82376cdf,
        0x5710b74e68e498ad2aa8456a5d2f2d269191a16c9579d6a8aeb6481b21eb22c1,
    ),
    (
        0xe015d0b8512658c45e6f547667d8fc5cf315e3eeb638d7035c7669c71aa62763,
        0x7b29c02c32f353243d2f4b67b4dc48c6aa96b37994674133391bb87bd642e7c3,
    ),
    (
        0x8f0e0cc97cbedcf2551c8d685707babfd102e06fc8c65b96807bc0001499b43f,
        0x63bff08298e8333f82461ae5255afae04dba8d6826e77bb30945c91f4579b257,
    ),
]
# sha256 of f"{n:x}:{d:x}" for gen_rsa(1024, 3).
GOLDEN_RSA_1024 = [
    "dcc3aba778316d025cc850d10f11ecdcc95389cdd4d47535898ef054758f5c59",
    "59297582f0c956deb0ee36476ab8927a3c0c9641c41b05c04c75cf1cc4fd4f66",
    "9440deda6c2eb7e7e1402f77d796798af63be8e9de05195457b798b765033c60",
    "7e476f47ef7dad984ca061c45c99bb7a477f1aab2401513f03d60fb5b7ca22b0",
    "8fdb82cce34e5e85a55375a65eb8c26c0907073335d079256b6f1b0c9d434b0b",
]
# Keygen from an Rng with a 32-bit half-word buffered (a 5-bit draw first):
# (kind, bits, seed) -> (n, d) or (p, g), the first 16 hex digits of the
# sha256 of the next 8 raw words (little-endian), then getrandbits(32).
# RSA bits 17, 33 and 129 draw halves of different byte widths; DH bits
# 8 and 12 give q below 2048, the others above.
GOLDEN_BUFFERED = {
    ("rsa", 17, 0): (0x15c97, 0xe6cb, "3553cbf3f7a81816", 212023911),
    ("rsa", 17, 1): (0x162c1, 0xeacb, "ce620f6c01a8171f", 1159313695),
    ("rsa", 17, 2): (0x16393, 0xeb6b, "7cc05be109a9eee7", 3113108046),
    ("rsa", 33, 0): (0x1619b91f5, 0xebbb7373, "0893e84bf8398376", 529917837),
    ("rsa", 33, 1): (0x1560f9961, 0xe408d463, "7ed85c238907e5d1", 2703073908),
    ("rsa", 33, 2): (0x164f6cf17, 0xedf83c6b, "7cc05be109a9eee7", 1676306764),
    ("rsa", 129, 0): (
        0x1161d56dd69af0645f5c93d3d7176b72d,
        0xb968e4939bca042d3333af3f677b86eb,
        "7c97b600714dab70",
        4178257048,
    ),
    ("rsa", 129, 1): (
        0x17bafe460859faf1aa9d67b0c5d7c3679,
        0xfd1fed95ae6a74bac53e297d882045ab,
        "351e0a3a52834064",
        1431093813,
    ),
    ("rsa", 129, 2): (
        0x16612038a4ff08efc664d73d02c80446f,
        0xeeb6ad06dff5b4a69bf09b8cff9e18bb,
        "96141a32e1a45d8a",
        3786713644,
    ),
    ("dh", 8, 0): (0xb3, 0x21, "bebb7c43363084f6", 1930467592),
    ("dh", 8, 1): (0xa7, 0x35, "192579444198c8a7", 772594207),
    ("dh", 8, 2): (0xe3, 0x20, "2aa4e08778f1f937", 521761232),
    ("dh", 12, 0): (0xbb7, 0x4e3, "9a5266a3b5c38c9d", 2035919593),
    ("dh", 12, 1): (0xf6b, 0xa99, "f2e6fd61c6ab84a0", 2687489103),
    ("dh", 12, 2): (0xc83, 0x1ed, "2aa4e08778f1f937", 521761232),
    ("dh", 14, 0): (0x3167, 0x2fe1, "cfa41864898335bb", 3875613579),
    ("dh", 14, 1): (0x3347, 0x2a5e, "f2e6fd61c6ab84a0", 2687489103),
    ("dh", 14, 2): (0x32f3, 0x2ca3, "c9ca078986b80552", 786977377),
    ("dh", 33, 0): (0x1a4f23bdf, 0x138400d12, "3a389790ae33d315", 4018826508),
    ("dh", 33, 1): (0x1bb6a40c7, 0x14ad264d0, "14e4d05e2af692b8", 2225345844),
    ("dh", 33, 2): (0x178349bd3, 0x1743e115e, "562644eaa22729cf", 1015900121),
    ("dh", 66, 0): (
        0x3a32573465fc76937,
        0x2c3ed801f0f9524e3,
        "5e19c5202a8806dc",
        2428890531,
    ),
    ("dh", 66, 1): (
        0x3c2155e81222b771f,
        0x30cc3c27d76826d40,
        "d13934e6b3df09a6",
        2866819464,
    ),
    ("dh", 66, 2): (
        0x342f09051c4f66b83,
        0x2a8b95c8a070e6e8d,
        "5126fd1363a302fd",
        2429571235,
    ),
}



class TestModExp:
    def test_matches_slow_reference(self):
        rnd = random.Random(1)
        for _ in range(300):
            m = rnd.randrange(2, 1000)
            b = rnd.randrange(0, 2 * m)
            e = rnd.randrange(0, 40)
            assert mod_exp(b, e, m) == slow_mod_exp(b, e, m)

    def test_worked_values(self):
        assert mod_exp(13, 3, 51) == 4
        assert mod_exp(5, 3, 51) == 23
        assert mod_exp(23, 11, 51) == 5
        assert mod_exp(2, 11, 37) == 13
        assert mod_exp(8, 11, 37) == 14

    def test_zero_exponent_and_tiny_modulus(self):
        assert mod_exp(7, 0, 13) == 1
        assert mod_exp(0, 0, 2) == 1
        assert mod_exp(5, 100, 2) == 1

    def test_big_operands_match_builtin(self):
        rnd = random.Random(2)
        for _ in range(20):
            m = rnd.getrandbits(256) | 1
            b = rnd.getrandbits(300)
            e = rnd.getrandbits(64)
            assert mod_exp(b, e, m) == pow(b, e, m)

    @pytest.mark.parametrize("args", [(2, 3, 1), (2, 3, 0), (-1, 3, 5), (2, -3, 5)])
    def test_rejects_bad_operands(self, args):
        with pytest.raises(ValueError):
            mod_exp(*args)


class TestModInv:
    def test_matches_exhaustive_search(self):
        for m in range(2, 80):
            for a in range(0, m):
                expected = slow_inverse(a, m)
                if expected is None:
                    with pytest.raises(NotInvertibleError):
                        mod_inv(a, m)
                else:
                    assert mod_inv(a, m) == expected

    def test_worked_values(self):
        assert mod_inv(4, 51) == 13
        assert mod_inv(13, 51) == 4
        assert mod_inv(3, 32) == 11
        assert mod_inv(15, 37) == 5

    def test_error_carries_gcd(self):
        with pytest.raises(NotInvertibleError) as info:
            mod_inv(6, 51)
        assert info.value.gcd == 3

    def test_reduces_large_operand(self):
        assert mod_inv(51 + 4, 51) == 13

    def test_rejects_bad_operands(self):
        with pytest.raises(ValueError):
            mod_inv(3, 1)
        with pytest.raises(ValueError):
            mod_inv(-2, 9)


class TestRsaOpen:
    @pytest.mark.parametrize("bits", [None, 512])
    def test_matches_full_exponentiation(self, desk_rsa, bits):
        params, secret = desk_rsa if bits is None else gen_rsa(bits, 3, Rng(12))
        n, p, q = params.n, secret.p, secret.q
        rnd = random.Random(13)
        edges = [0, 1, n - 1, p, q]
        edges += [rnd.randrange(1, q) * p for _ in range(5)]
        edges += [rnd.randrange(1, p) * q for _ in range(5)]
        for x in edges + [rnd.randrange(n) for _ in range(200)]:
            assert rsa_open(x, secret) == pow(x, secret.d, n), x

    def test_rejects_negative_operand(self, desk_rsa):
        with pytest.raises(ValueError):
            rsa_open(-1, desk_rsa[1])


class TestPrimality:
    def test_sweep_against_sieve(self):
        primes = sieve(30000)
        for n in range(30000):
            assert is_probable_prime(n) == (n in primes), n

    def test_sweep_across_exact_bound(self):
        # exact by one gcd below 257**2 = 66049, Miller-Rabin above it
        primes = sieve(70000)
        for n in range(30000, 70000):
            assert is_probable_prime(n) == (n in primes), n

    def test_large_known_values(self):
        # 2^127 - 1 is a Mersenne prime; its neighbors are composite.
        m127 = (1 << 127) - 1
        assert is_probable_prime(m127)
        assert not is_probable_prime(m127 - 1)
        assert not is_probable_prime(m127 + 1)
        # strong pseudoprime to several bases, still composite
        assert not is_probable_prime(3215031751)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_probable_prime(n)

    def test_deterministic(self):
        n = (1 << 89) - 1
        assert is_probable_prime(n) == is_probable_prime(n)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            is_probable_prime(97, rounds=0)


class TestMultiplicativeOrder:
    def test_worked_value(self):
        assert multiplicative_order(2, 37) == 36

    def test_matches_brute_force(self):
        for p in (5, 7, 11, 13, 37):
            for a in range(1, p):
                powers = 1
                value = a % p
                while value != 1:
                    value = value * a % p
                    powers += 1
                assert multiplicative_order(a, p) == powers

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            multiplicative_order(2, 51)


class TestRng:
    def test_determinism_and_derive(self):
        a, b = Rng(99), Rng(99)
        assert [a.getrandbits(32) for _ in range(5)] == [
            b.getrandbits(32) for _ in range(5)
        ]
        assert Rng(99).derive(7).seed == 99 ^ 7
        assert Rng(99).derive(7).getrandbits(64) == Rng(99 ^ 7).getrandbits(64)

    def test_getrandbits_bounds(self):
        rng = Rng(3)
        assert rng.getrandbits(0) == 0
        for k in (1, 7, 64, 257):
            for _ in range(50):
                assert 0 <= rng.getrandbits(k) < (1 << k)

    def test_randbelow_range_and_uniformity(self):
        rng = Rng(17)
        counts = [0] * 50
        draws = 50000
        for _ in range(draws):
            counts[rng.randbelow(50)] += 1
        expected = draws / 50
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_DF49

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 31, 32, 33, 255, 511, 512])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_getrandbits_many_matches_calls(self, k, buffered):
        # _first_candidate decodes its candidates from raw words in blocks
        # of 1, 2, 4, 8, ...; taking the j-th for j = 0..14 ends the search
        # in each of the first four blocks, at and before a block's end.
        def fresh():
            rng = Rng(1000 + k)
            if buffered:
                rng.getrandbits(5)  # buffers the high half of a raw word
            return rng

        def next_draws(rng):
            raw = rng.np.bit_generator.random_raw(2).tolist()
            return raw, rng.getrandbits(32), rng.getrandbits(9)

        forced = 1 << (k - 1) | 1
        for j in range(15):
            loop = fresh()
            expected = [loop.getrandbits(k) | forced for _ in range(j + 1)]
            seen = []

            def accept(candidate):
                seen.append(candidate)
                return len(seen) == j + 1

            rng = fresh()
            assert numtheory._first_candidate(k, rng, accept) == expected[-1]
            assert seen == expected, j
            assert next_draws(rng) == next_draws(loop), j

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1 << 64)


class TestParamTypes:
    def test_rsa_params_validation(self):
        RsaParams(51, 3)
        with pytest.raises(ValueError):
            RsaParams(50, 3)  # even modulus
        with pytest.raises(ValueError):
            RsaParams(9, 3)  # too small
        with pytest.raises(ValueError):
            RsaParams(51, 2)  # even exponent

    def test_rsa_secret_validation(self):
        RsaSecret(3, 17, 32, 11)
        with pytest.raises(ValueError):
            RsaSecret(3, 3, 4, 3)  # p == q
        with pytest.raises(ValueError):
            RsaSecret(4, 17, 48, 11)  # p not prime
        with pytest.raises(ValueError):
            RsaSecret(3, 17, 31, 11)  # phi mismatch

    def test_dh_params_validation(self):
        DhParams(37, 2)
        with pytest.raises(ValueError):
            DhParams(36, 2)
        with pytest.raises(ValueError):
            DhParams(37, 1)
        with pytest.raises(ValueError):
            DhParams(37, 37)

    def test_check_rsa_consistent(self, desk_rsa):
        params, secret = desk_rsa
        check_rsa_consistent(params, secret)
        with pytest.raises(ValueError):
            check_rsa_consistent(RsaParams(51, 5), secret)
        with pytest.raises(ValueError):
            check_rsa_consistent(RsaParams(15, 3), secret)


class TestKeyGeneration:
    def test_gen_rsa_shape_and_consistency(self):
        for bits, seed in ((16, 1), (24, 2), (48, 3)):
            params, secret = gen_rsa(bits, 3, Rng(seed))
            assert params.n.bit_length() == bits
            assert params.n == secret.p * secret.q
            assert params.e * secret.d % secret.phi == 1
            assert is_probable_prime(secret.p) and is_probable_prime(secret.q)
            check_rsa_consistent(params, secret)

    def test_gen_rsa_deterministic(self):
        assert gen_rsa(16, 3, Rng(7)) == gen_rsa(16, 3, Rng(7))

    def test_gen_rsa_rejects(self):
        with pytest.raises(ValueError):
            gen_rsa(4, 3, Rng(1))
        with pytest.raises(ValueError):
            gen_rsa(16, 4, Rng(1))

    @pytest.mark.parametrize("e", [3, 5])
    def test_gen_rsa_refuses_width_no_pair_admits(self, e):
        # 11 and 13 are the only 4-bit primes; phi = 120 shares 3 and 5
        rng = Rng(1)
        with pytest.raises(ValueError, match="no 8-bit modulus"):
            gen_rsa(8, e, rng)
        assert rng.getrandbits(64) == Rng(1).getrandbits(64)  # nothing drawn

    @pytest.mark.parametrize("e", [3, 5, 7, 17, 65537])
    def test_gen_rsa_small_widths_against_listing(self, e):
        primes = sieve(1 << 8)
        for bits in range(8, 17):
            admits = any(
                p != q
                and (p * q).bit_length() == bits
                and math.gcd(e, (p - 1) * (q - 1)) == 1
                for p in primes
                if p.bit_length() == (bits + 1) // 2
                for q in primes
                if q.bit_length() == bits // 2
            )
            if not admits:
                with pytest.raises(ValueError):
                    gen_rsa(bits, e, Rng(bits))
                continue
            params, secret = gen_rsa(bits, e, Rng(bits))
            assert params.n.bit_length() == bits
            check_rsa_consistent(params, secret)
        assert gen_rsa(8, 7, Rng(1))[0].n == 143

    @pytest.mark.parametrize("e", [3, 5, 17, 65537])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_gen_rsa_matches_plain_loop(self, e, buffered):
        for bits in (17, 18, 24, 33, 47, 64, 65, 96, 129, 256):
            for seed in range(3):
                rngs = Rng(seed), Rng(seed)
                if buffered:
                    for rng in rngs:
                        rng.getrandbits(5)  # buffers the high half of a word
                fast, plain = rngs
                params, secret = gen_rsa(bits, e, fast)
                case = bits, seed
                assert (params.n, secret.d) == plain_gen_rsa(bits, e, plain), case
                raw = [rng.np.bit_generator.random_raw(3).tolist() for rng in rngs]
                assert raw[0] == raw[1], case

    def test_gen_rsa_roundtrips_messages(self):
        params, secret = gen_rsa(32, 3, Rng(9))
        rnd = random.Random(10)
        for _ in range(20):
            m = rnd.randrange(1, params.n)
            c = mod_exp(m, params.e, params.n)
            assert mod_exp(c, secret.d, params.n) == m

    def test_gen_dh_safe_prime_and_generator(self):
        for bits, seed in ((8, 1), (16, 2), (24, 3)):
            params = gen_dh(bits, Rng(seed))
            assert params.p.bit_length() == bits
            assert is_probable_prime(params.p)
            assert is_probable_prime((params.p - 1) // 2)
            assert multiplicative_order(params.g, params.p) == params.p - 1

    def test_gen_dh_deterministic(self):
        assert gen_dh(16, Rng(4)) == gen_dh(16, Rng(4))

    def test_gen_dh_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_dh(3, Rng(1))

    @pytest.mark.parametrize("bits", sorted(GOLDEN_DH))
    def test_gen_dh_golden(self, bits):
        got = [gen_dh(bits, Rng(seed)) for seed in range(5)]
        assert [(k.p, k.g) for k in got] == GOLDEN_DH[bits]

    @pytest.mark.parametrize("bits", sorted(GOLDEN_RSA))
    def test_gen_rsa_golden(self, bits):
        got = [gen_rsa(bits, 3, Rng(seed)) for seed in range(5)]
        assert [(params.n, secret.d) for params, secret in got] == GOLDEN_RSA[bits]

    @pytest.mark.parametrize("seed", range(5))
    def test_session_keys_golden(self, seed):
        params, secret = gen_rsa(1024, 3, Rng(seed))
        text = f"{params.n:x}:{secret.d:x}"
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RSA_1024[seed]
        dh = gen_dh(256, Rng(seed))
        assert (dh.p, dh.g) == GOLDEN_DH_256[seed]

    @pytest.mark.parametrize("case", sorted(GOLDEN_BUFFERED))
    def test_keygen_after_buffered_half_word_golden(self, case):
        kind, bits, seed = case
        rng = Rng(seed)
        rng.getrandbits(5)
        assert rng.np.bit_generator.state["has_uint32"]
        if kind == "rsa":
            params, secret = gen_rsa(bits, 3, rng)
            key = (params.n, secret.d)
        else:
            dh = gen_dh(bits, rng)
            key = (dh.p, dh.g)
        raw = rng.np.bit_generator.random_raw(8).astype("<u8").tobytes()
        after = (hashlib.sha256(raw).hexdigest()[:16], rng.getrandbits(32))
        assert (*key, *after) == GOLDEN_BUFFERED[case]

    def test_sieve_refuses_only_composites(self):
        primes = sieve(40000)
        for n in range(3, 40000, 2):
            if not numtheory._small_factor_free(n, n):
                assert n not in primes
        for q in range(3, 20000, 2):
            if not numtheory._small_factor_free(q * (2 * q + 1), q):
                assert q not in primes or 2 * q + 1 not in primes
        # the sieve reaches 16,381, the largest prime it divides by
        assert not numtheory._small_factor_free(16381 * 16411, 16381 * 16411)


class TestRandResidue:
    def test_range_and_units(self):
        rng = Rng(6)
        for _ in range(200):
            assert 1 <= rand_residue(51, False, rng) <= 50
        for _ in range(200):
            assert math.gcd(rand_residue(51, True, rng), 51) == 1

    def test_deterministic(self):
        a, b = Rng(2), Rng(2)
        assert [rand_residue(51, True, a) for _ in range(5)] == [
            rand_residue(51, True, b) for _ in range(5)
        ]
