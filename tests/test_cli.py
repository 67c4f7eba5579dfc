"""CLI behaviour: golden outputs, exit codes, seeding, file handling.

Everything drives main(argv) in-process except the TCP check, which
exercises the installed console entry through subprocesses.
"""

import json
import math
import os
import socket
import subprocess
import sys
import time

import pytest

from piggybank import cli, is_probable_prime
from piggybank.cli import build_parser, main

EXAMPLE1 = (
    "exchange p1 --variant base --n 51 --e 3 --d 11 "
    "--R 13 --S 5 --K 29 --mode inproc"
).split()
EXAMPLE2 = "exchange p2 --p 37 --g 2 --R 11 --S 3 --K 10 --mode inproc".split()

EXAMPLE1_STDOUT = """\
S=5
K=29
tx 50424e4b010101000200000000000000010400000000
rx 50424e4b0101020001000000013100000000
rx 50424e4b0101030001000000011700000000
tx 50424e4b010106000000000000
"""
EXAMPLE2_STDOUT = """\
K=10
shared=14
tx 50424e4b010201000200000000000000010d00000000
rx 50424e4b0102020001000000011800000000
rx 50424e4b0102030001000000010800000000
tx 50424e4b010206000000000000
"""


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PIGGYBANK_SEED", raising=False)


class TestExchange:
    def test_example1_verbatim(self, capsys):
        assert main(EXAMPLE1) == 0
        captured = capsys.readouterr()
        assert captured.out == EXAMPLE1_STDOUT
        assert captured.err == ""  # fully forced run touches no entropy

    def test_example2_verbatim(self, capsys):
        assert main(EXAMPLE2) == 0
        captured = capsys.readouterr()
        assert captured.out == EXAMPLE2_STDOUT
        assert captured.err == ""

    def test_seed_determines_sampled_run(self, capsys):
        argv = "exchange p1 --n 51 --e 3 --d 11 --seed 5".split()
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.out.startswith("S=")
        assert first.err == ""

    def test_env_seed_fallback(self, capsys, monkeypatch):
        argv = "exchange p1 --n 51 --e 3 --d 11".split()
        monkeypatch.setenv("PIGGYBANK_SEED", "5")
        assert main(argv) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv("PIGGYBANK_SEED")
        assert main(argv + ["--seed", "5"]) == 0
        assert capsys.readouterr().out == via_env

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        argv = "exchange p1 --n 51 --e 3 --d 11 --seed 5".split()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("PIGGYBANK_SEED", "99")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_entropy_note_when_unseeded(self, capsys):
        assert main("exchange p1 --n 51 --e 3 --d 11".split()) == 0
        captured = capsys.readouterr()
        assert "entropy seed" in captured.err
        assert "--seed" in captured.err

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PIGGYBANK_SEED", "soon")
        assert main("exchange p1 --n 51 --e 3 --d 11".split()) == 2
        assert "PIGGYBANK_SEED" in capsys.readouterr().err

    def test_every_variant_runs(self, capsys):
        for variant in ("base", "unit-r", "multiplicative", "plain-r", "plain-r-keyed"):
            argv = (
                f"exchange p1 --variant {variant} --n 51 --e 3 --d 11 --seed 8"
            ).split()
            assert main(argv) == 0, variant
            assert capsys.readouterr().out.startswith("S=")
        argv = "exchange p2 --variant multiplicative --p 37 --g 2 --seed 8".split()
        assert main(argv) == 0
        assert "shared=" in capsys.readouterr().out

    def test_unknown_variant(self, capsys):
        argv = "exchange p1 --variant nope --n 51 --e 3 --d 11 --seed 1".split()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            "exchange p1 --variant nope --n 51 --e 3 --d 11",
            "exchange p2 --variant nope --p 37 --g 2",
        ],
    )
    def test_unknown_variant_draws_no_seed(self, capsys, monkeypatch, argv):
        # No --seed and no PIGGYBANK_SEED (see no_ambient_seed): the usage
        # error comes before any entropy is drawn or a seed note printed.
        monkeypatch.delenv("PIGGYBANK_SEED", raising=False)
        monkeypatch.setattr(os, "urandom", lambda n: pytest.fail("entropy drawn"))
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "entropy seed" not in err

    def test_listen_needs_port(self, capsys):
        argv = "exchange p1 --n 51 --e 3 --d 11 --mode listen --seed 1".split()
        assert main(argv) == 2
        assert "--port" in capsys.readouterr().err

    def test_p2_needs_group(self, capsys):
        assert main("exchange p2 --seed 1".split()) == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (EXAMPLE1[:-8] + "--R 13 --S 0 --K 29".split(), "secret must lie"),
            (EXAMPLE2[:-8] + "--R 11 --S 40 --K 10".split(), "secret exponent"),
        ],
    )
    def test_bad_secret_reported_not_peer_close(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "peer closed" not in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range(self, capsys, port):
        argv = EXAMPLE1[:-2] + ["--mode", "listen", "--port", port]
        assert main(argv) == 2
        assert "--port" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main("exchange p1 --wat 1".split()) == 2

    def test_unfactorable_modulus_demands_key_file(self, capsys):
        argv = f"exchange p1 --n {(1 << 43) + 1} --e 3 --d 11 --seed 1".split()
        assert main(argv) == 2
        assert "keygen" in capsys.readouterr().err

    def test_inconsistent_d_rejected(self, capsys):
        argv = "exchange p1 --n 51 --e 3 --d 10 --seed 1".split()
        assert main(argv) == 2
        assert "inverse" in capsys.readouterr().err


class TestKeygen:
    def test_rsa_deterministic(self, capsys):
        argv = "keygen rsa --bits 16 --e 3 --seed 7".split()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        data = json.loads(first)
        assert data == {"kind": "rsa", "bits": 16, "n": 33823, "e": 3}

    def test_rsa_too_small(self, capsys):
        assert main("keygen rsa --bits 4 --seed 1".split()) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("e", ["3", "5"])
    def test_rsa_width_no_pair_admits(self, capsys, e):
        assert main(f"keygen rsa --bits 8 --e {e} --seed 1".split()) == 2
        assert "no 8-bit modulus" in capsys.readouterr().err

    def test_rsa_width_over_16_bits_no_prime_admits(self, capsys):
        # Every 10-bit prime p has an odd prime below 512 dividing p - 1, since
        # 513 is not prime, so drawing candidates would never end.
        e = math.prod(p for p in range(3, 512, 2) if all(p % d for d in range(3, p, 2)))
        assert main(f"keygen rsa --bits 20 --e {e} --seed 1".split()) == 2
        assert "no 20-bit modulus" in capsys.readouterr().err

    def test_dh_prime_is_safe(self, capsys):
        assert main("keygen dh --bits 8 --seed 1".split()) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"kind": "dh", "bits": 8, "p": 167, "g": 53}
        assert is_probable_prime(data["p"])
        assert is_probable_prime((data["p"] - 1) // 2)

    def test_private_file_roundtrip(self, capsys, tmp_path):
        public_path = tmp_path / "box.pub"
        private_path = tmp_path / "box.key"
        argv = (
            f"keygen rsa --bits 24 --seed 11 --out {public_path} "
            f"--private-out {private_path}"
        ).split()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # public JSON went to the file
        assert str(private_path) in captured.err
        assert private_path.stat().st_mode & 0o777 == 0o600

        public = json.loads(public_path.read_text())
        private = json.loads(private_path.read_text())
        assert private["n"] == public["n"] == private["p"] * private["q"]
        assert private["e"] * private["d"] % private["phi"] == 1

        argv = f"exchange p1 --secret-file {private_path} --seed 3".split()
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("S=")

    def test_private_file_overwrite_gets_mode_0600(self, capsys, tmp_path):
        private_path = tmp_path / "box.key"
        private_path.write_text("old")
        private_path.chmod(0o644)
        argv = f"keygen rsa --bits 24 --seed 11 --private-out {private_path}"
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert private_path.stat().st_mode & 0o777 == 0o600
        assert json.loads(private_path.read_text())["n"] == 14411107

    def test_public_file_alone_cannot_open_box(self, capsys, tmp_path):
        public_path = tmp_path / "box.pub"
        assert main(f"keygen rsa --bits 16 --seed 7 --out {public_path}".split()) == 0
        capsys.readouterr()
        # inproc still needs the trapdoor; --public-file alone must fail
        argv = f"exchange p1 --public-file {public_path} --seed 3".split()
        assert main(argv) == 2

    def test_rsa_files_pinned(self, capsys, tmp_path):
        public_path = tmp_path / "box.pub"
        private_path = tmp_path / "box.key"
        argv = (
            f"keygen rsa --bits 24 --seed 11 --out {public_path} "
            f"--private-out {private_path}"
        ).split()
        assert main(argv) == 0
        capsys.readouterr()
        assert public_path.read_text() == (
            '{\n  "kind": "rsa",\n  "bits": 24,\n  "n": 14411107,\n  "e": 3\n}\n'
        )
        assert private_path.read_text() == (
            '{\n  "kind": "rsa",\n  "n": 14411107,\n  "e": 3,\n  "p": 3533,\n'
            '  "q": 4079,\n  "phi": 14403496,\n  "d": 9602331\n}\n'
        )


class TestKeyFiles:
    SECRET = {"n": 51, "e": 3, "p": 3, "q": 17, "phi": 32, "d": 11}

    @pytest.mark.parametrize(
        "field, value", [("e", None), ("d", None), ("n", "51"), ("p", 3.0), ("q", True)]
    )
    def test_bad_secret_field_is_usage_error(self, capsys, tmp_path, field, value):
        data = dict(self.SECRET)
        if value is None:
            del data[field]
        else:
            data[field] = value
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        argv = f"exchange p1 --secret-file {path} --seed 3".split()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(field) in err

    def test_deeply_nested_key_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[" * 100_000)
        assert main(f"trope --secret-file {path} --S 5 --seed 3".split()) == 2
        assert str(path) in capsys.readouterr().err

    def test_overlong_integer_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(self.SECRET).replace("51", "9" * 5000))
        assert main(f"exchange p1 --secret-file {path} --seed 3".split()) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'n'" in err and "5000 digits" in err

    def test_missing_public_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k.pub"
        path.write_text(json.dumps({"n": 51}))
        argv = f"exchange p1 --mode connect --port 9 --public-file {path} --seed 3"
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'e'" in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            ("trope --secret-file {bad} --S 5 --manifest hi", "{bad}"),
            ("trope --n 3233 --e 17 --d 2753 --manifest hi", "--S is required"),
            ("trope --mode connect --port 9 --public-file {bad} --S 5", "{bad}"),
            ("trope --mode connect --port 9 --n 3233 --e 17", "--S is required"),
            ("exchange p1 --secret-file {bad}", "{bad}"),
            ("exchange p1 --mode listen --port 9 --secret-file {bad}", "{bad}"),
            ("exchange p1 --mode connect --port 9 --public-file {bad}", "{bad}"),
            ("exchange p2 --p 37", "--p and --g"),
        ],
    )
    def test_usage_error_draws_no_seed(
        self, capsys, monkeypatch, tmp_path, argv, fragment
    ):
        # No --seed and no PIGGYBANK_SEED: the key files and flags are checked
        # before any entropy is drawn or a seed note printed.
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000)
        monkeypatch.setattr(os, "urandom", lambda n: pytest.fail("entropy drawn"))
        assert main(argv.format(bad=bad).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment.format(bad=bad) in err

    def test_complete_secret_file_opens_box(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(self.SECRET))
        argv = f"exchange p1 --secret-file {path} --R 13 --S 5 --K 29".split()
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("S=5\nK=29\n")


class TestUntrustedPrimes:
    """Primes from key files and flags are re-tested; generated keys skip
    that test, so these must still be refused."""

    # strong pseudoprimes; the second has no prime factor below 256
    @pytest.mark.parametrize("p", [3215031751, 3825123056546413051])
    def test_composite_factor_in_key_file_exits_2(self, capsys, tmp_path, p):
        q = 1000003
        phi = (p - 1) * (q - 1)
        e = next(e for e in range(3, 99, 2) if math.gcd(e, phi) == 1)
        secret = {"n": p * q, "e": e, "p": p, "q": q, "phi": phi}
        path = tmp_path / "k.json"
        path.write_text(json.dumps({**secret, "d": pow(e, -1, phi)}))
        assert main(f"exchange p1 --secret-file {path} --seed 3".split()) == 2
        assert "factors must be odd primes" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [3215031751, 3825123056546413051])
    def test_composite_group_flag_exits_2(self, capsys, p):
        assert main(f"exchange p2 --p {p} --g 2 --seed 3".split()) == 2
        assert "p must be prime" in capsys.readouterr().err


class TestForcedValues:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("exchange p1 --n 51 --e 3 --d 11 --R 999", "nonce must lie in [1, n-1]"),
            ("exchange p1 --n 51 --e 3 --d 11 --S 999", "secret must lie in [1, n-1]"),
            ("exchange p1 --n 51 --e 3 --d 11 --K 51", "key must lie in [0, n-1]"),
            ("exchange p1 --n 51 --e 3 --d 11 --variant unit-r --R 2", "fixes"),
            (
                "exchange p1 --n 51 --e 3 --d 11 --variant multiplicative --R 3",
                "coprime to n",
            ),
            ("exchange p1 --mode connect --port 9 --n 51 --e 3 --S 0", "secret must"),
            ("exchange p2 --p 37 --g 2 --R 99", "nonce must lie in [1, p-2]"),
            ("exchange p2 --p 37 --g 2 --S 36", "secret exponent must lie"),
            ("exchange p2 --p 37 --g 2 --K 37", "key must lie in [0, p-1]"),
            ("exchange p2 --p 37 --g 2 --variant multiplicative --K 0", "[1, p-1]"),
            ("trope --n 3233 --e 17 --d 2753 --S 99999 --manifest hi", "secret must"),
            ("trope --n 3233 --e 17 --d 2753 --S 5 --K 3233", "key must lie"),
            ("trope --n 3233 --e 17 --d 2753 --S 5 --R 0", "nonce must lie"),
        ],
    )
    def test_out_of_range_draws_no_seed(self, capsys, monkeypatch, argv, message):
        # No --seed and no PIGGYBANK_SEED: a forced value the session would
        # refuse is refused, with the session's message, before any entropy.
        monkeypatch.setattr(os, "urandom", lambda n: pytest.fail("entropy drawn"))
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_inconsistent_secret_file_draws_no_seed(
        self, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(dict(TestKeyFiles.SECRET, d=13)))
        monkeypatch.setattr(os, "urandom", lambda n: pytest.fail("entropy drawn"))
        assert main(f"exchange p1 --secret-file {path}".split()) == 2
        assert capsys.readouterr().err == "error: e*d is not 1 mod phi\n"


class TestTrope:
    ARGS = "trope --n 51 --e 3 --d 11 --R 13 --S 5 --K 29".split()

    def test_honest_inproc(self, capsys):
        assert main(self.ARGS + ["--manifest", "three gold coins"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:3] == ["S=5", "K=29", "manifest_ok=true"]
        assert len(lines) == 8  # five frames follow the three value lines
        assert captured.err == ""

    def test_empty_manifest_is_default(self, capsys):
        assert main(self.ARGS) == 0
        assert "manifest_ok=true" in capsys.readouterr().out

    def test_hash_without_fixed_digest(self, capsys):
        assert main(self.ARGS + ["--hash", "shake_128"]) == 2
        err = capsys.readouterr().err
        assert "shake_128" in err and "peer closed" not in err

    def test_missing_secret(self, capsys):
        assert main("trope --n 51 --e 3 --d 11 --R 13 --K 29".split()) == 2
        assert "--S" in capsys.readouterr().err

    # The sealed frame is a 13-byte header, a 4-byte length, the manifest
    # and a 32-byte sha256 digest, within the 1 MiB frame limit.
    LONGEST_MANIFEST = (1 << 20) - 13 - 4 - 32

    @pytest.mark.parametrize("mode", ["inproc", "connect"])
    def test_manifest_past_frame_limit_refused_before_any_frame(self, capsys, mode):
        # the connect run must fail before it connects to port 9
        argv = self.ARGS + ["--mode", mode, "--port", "9", "--manifest"]
        assert main(argv + ["x" * (self.LONGEST_MANIFEST + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "1048576-byte frame limit" in captured.err

    def test_longest_manifest_fits(self, capsys):
        assert main(self.ARGS + ["--manifest", "x" * self.LONGEST_MANIFEST]) == 0
        assert "manifest_ok=true" in capsys.readouterr().out


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _listen_connect(base: list[str]) -> tuple[str, str]:
    """Run `base` as a --mode listen process and a --mode connect process
    on one loopback port; return both stdouts."""
    port = _free_port()
    listener = subprocess.Popen(
        [sys.executable, "-m", "piggybank"]
        + base
        + ["--mode", "listen", "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # the note appears once the socket is bound; connect after it
        assert "listening" in listener.stderr.readline()
        connector = subprocess.run(
            [sys.executable, "-m", "piggybank"]
            + base
            + ["--mode", "connect", "--port", str(port)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        listen_out, listen_err = listener.communicate(timeout=30)
    finally:
        listener.kill()
    assert connector.returncode == 0, connector.stderr
    assert listener.returncode == 0, listen_err
    return listen_out, connector.stdout


def _as_peer(transcript: list[str]) -> list[str]:
    """The transcript lines as the other end prints them."""
    return [
        line.replace("tx ", "??").replace("rx ", "tx ").replace("??", "rx ")
        for line in transcript
    ]


class TestTcpSmoke:
    def test_listen_connect_matches_inproc(self, capsys):
        assert main(EXAMPLE1) == 0
        inproc_out = capsys.readouterr().out

        base = EXAMPLE1[:-2]  # drop "--mode inproc"
        listen_out, connect_out = _listen_connect(base)
        assert listen_out == inproc_out
        # the connect side holds no trapdoor, so it prints only its transcript
        assert connect_out.splitlines() == _as_peer(inproc_out.splitlines()[2:])

    def test_seeded_trope_matches_inproc(self, capsys):
        # R and K are drawn, so both ends must draw from the in-process
        # session's streams for the runs to agree
        base = "trope --n 51 --e 3 --d 11 --S 5 --seed 5".split()
        assert main(base) == 0
        inproc_out = capsys.readouterr().out

        listen_out, connect_out = _listen_connect(base)
        assert listen_out == inproc_out
        assert connect_out.splitlines() == _as_peer(inproc_out.splitlines()[3:])

    @pytest.mark.parametrize(
        "base",
        [
            "exchange p2 --p 37 --g 2 --variant additive --seed 5",
            "exchange p2 --p 37 --g 2 --variant multiplicative --seed 5",
            "exchange p1 --n 51 --e 3 --d 11 --variant unit-r --seed 5",
        ],
    )
    def test_seeded_exchange_matches_inproc(self, capsys, base):
        base = base.split()
        assert main(base + ["--mode", "inproc"]) == 0
        inproc_out = capsys.readouterr().out

        listen_out, connect_out = _listen_connect(base)
        assert listen_out == inproc_out
        lines = inproc_out.splitlines()
        transcript = [line for line in lines if line.startswith(("tx ", "rx "))]
        assert connect_out.splitlines() == _as_peer(transcript)

    def test_listen_on_a_held_port_exits_3(self, capsys):
        held = socket.create_server(("127.0.0.1", 0))
        port = held.getsockname()[1]
        try:
            argv = EXAMPLE1[:-2] + ["--mode", "listen", "--port", str(port)]
            assert main(argv) == 3
        finally:
            held.close()
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(port) in err


# Seeded runs pinned byte for byte: every value is drawn, so a change in
# which stream draws what, or in what order, changes these lines.
TROPE_GOLDEN = """\
S=5
K=34
manifest_ok=true
tx 50424e4b010301000200000000000000012c00000000
rx 50424e4b0103020001000000013200000000
rx 50424e4b0103030001000000011700000000
rx 50424e4b0103030000000000{}
tx 50424e4b010306000000000000
"""
SEEDED_GOLDENS = {
    "exchange p1 --variant base --n 51 --e 3 --d 11 --seed 8": """\
S=39
K=11
tx 50424e4b010101000200000000000000010f00000000
rx 50424e4b0101020001000000012300000000
rx 50424e4b0101030001000000010600000000
tx 50424e4b010106000000000000
""",
    "exchange p1 --variant unit-r --n 51 --e 3 --d 11 --seed 8": """\
S=39
K=11
tx 50424e4b01010100020000000101000000010100000000
rx 50424e4b0101020001000000013200000000
rx 50424e4b0101030001000000010600000000
tx 50424e4b010106000000000000
""",
    "exchange p1 --variant multiplicative --n 51 --e 3 --d 11 --seed 8": """\
S=39
tx 50424e4b01010100020000000102000000012600000000
rx 50424e4b0101020001000000010300000000
rx 50424e4b0101030001000000010600000000
tx 50424e4b010106000000000000
""",
    "exchange p1 --variant plain-r --n 51 --e 3 --d 11 --seed 8": """\
S=39
K=11
tx 50424e4b01010100020000000103000000010900000000
rx 50424e4b0101020001000000010e00000000
rx 50424e4b0101030001000000010600000000
tx 50424e4b010106000000000000
""",
    "exchange p1 --variant plain-r-keyed --n 51 --e 3 --d 11 --seed 8": """\
S=39
K=11
tx 50424e4b01010100020000000104000000012f00000000
rx 50424e4b0101020001000000010800000000
rx 50424e4b0101030001000000010500000000
tx 50424e4b010106000000000000
""",
    "exchange p2 --variant additive --p 37 --g 2 --seed 8": """\
K=16
shared=1
tx 50424e4b010201000200000000000000011f00000000
rx 50424e4b0102020001000000011100000000
rx 50424e4b0102030001000000011a00000000
tx 50424e4b010206000000000000
""",
    "exchange p2 --variant multiplicative --p 37 --g 2 --seed 8": """\
K=17
shared=1
tx 50424e4b01020100020000000101000000011f00000000
rx 50424e4b0102020001000000012200000000
rx 50424e4b0102030001000000011a00000000
tx 50424e4b010206000000000000
""",
    "trope --n 51 --e 3 --d 11 --S 5 --seed 5": TROPE_GOLDEN.format(
        "24fd7bf8759aa0be4310588d6ec2d84519ab4e0bc14f4852c83290880daff195ee1247fac7"
    ),
    "trope --n 51 --e 3 --d 11 --S 5 --seed 5 --hash sha512": TROPE_GOLDEN.format(
        "4499b658d8b74ec69f1c0df4c3d35190215b0e3b0f9e3ca15ba3abb0264f6a5dc6a29ab7"
        "042fb01eb25c2ba7a4752583d97e565f3eef9b846a10835215e100791c6367f8f6"
    ),
}


class TestSeededGoldens:
    @pytest.mark.parametrize("argv", list(SEEDED_GOLDENS))
    def test_seeded_stdout(self, capsys, argv):
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.out == SEEDED_GOLDENS[argv]
        assert captured.err == ""


def test_import_leaves_cli_unloaded():
    # The CLI's modules cost import time that library users should not pay.
    code = (
        "import sys, piggybank; "
        "print(sorted({'piggybank.cli', 'argparse', 'json'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


class TestQkd:
    SCENARIO = """\
pulses = 128
p_noise = 0.01
sample_frac = 0.125
trials = 4
seed = 5
truncate_bits = 64
max_rounds = 50
"""

    FLAGS = {
        "--pulses": ("pulses", "7", 7),
        "--p-noise": ("p_noise", "0.5", 0.5),
        "--eve-fraction": ("eve_fraction", "0.25", 0.25),
        "--passes": ("passes", "3", 3),
        "--sample-frac": ("sample_frac", "0.2", 0.2),
        "--trials": ("trials", "9", 9),
        "--seed": ("seed", "11", 11),
        "--hash": ("hash_id", "blake2s", "blake2s"),
        "--truncate-bits": ("truncate_bits", "40", 40),
        "--max-rounds": ("max_rounds", "6", 6),
    }

    def test_scenario_flags_and_dests(self):
        parser = build_parser()
        defaults = vars(parser.parse_args(["qkd"]))
        others = {"command", "handler", "scenario", "table_out", "csv_out"}
        dests = {dest for dest, _, _ in self.FLAGS.values()}
        assert set(defaults) == dests | others
        assert all(defaults[dest] is None for dest in dests)
        argv = ["qkd"]
        for flag, (_, text, _) in self.FLAGS.items():
            argv += [flag, text]
        parsed = vars(parser.parse_args(argv))
        for dest, _, value in self.FLAGS.values():
            assert parsed[dest] == value and type(parsed[dest]) is type(value)

    def _write_scenario(self, tmp_path, text=None):
        path = tmp_path / "run.scenario"
        path.write_text(text if text is not None else self.SCENARIO)
        return path

    def test_report_files(self, capsys, tmp_path):
        scenario = self._write_scenario(tmp_path)
        table = tmp_path / "report.txt"
        csv_path = tmp_path / "report.csv"
        argv = (
            f"qkd --scenario {scenario} --table-out {table} --csv-out {csv_path}"
        ).split()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(csv_path) in captured.err

        table_text = table.read_text()
        assert table_text.startswith("strategy")
        assert "cascade" in table_text and "digest" in table_text

        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("strategy,trial,rounds")
        assert len(rows) == 1 + 8 + 2

    def test_csv_reproducible(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        outputs = []
        for name in ("a.csv", "b.csv"):
            csv_path = tmp_path / name
            argv = (
                f"qkd --scenario {scenario} --table-out - --csv-out {csv_path}"
            ).split()
            assert main(argv) == 0
            capsys.readouterr()
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_noiseless_residuals_are_zero(self, tmp_path, capsys):
        scenario = self._write_scenario(
            tmp_path, "pulses = 64\ntrials = 3\nseed = 2\ntruncate_bits = 64\n"
        )
        csv_path = tmp_path / "quiet.csv"
        argv = f"qkd --scenario {scenario} --table-out - --csv-out {csv_path}".split()
        assert main(argv) == 0
        capsys.readouterr()
        for row in csv_path.read_text().splitlines()[1:]:
            assert row.split(",")[6] in ("0", "0.000000")

    def test_default_csv_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario = self._write_scenario(tmp_path)
        assert main(f"qkd --scenario {scenario} --table-out -".split()) == 0
        captured = capsys.readouterr()
        assert (tmp_path / "qkd_report.csv").exists()
        assert "qkd_report.csv" in captured.err
        assert captured.out.startswith("strategy")

    def test_flag_overrides_scenario(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = (
            f"qkd --scenario {scenario} --table-out - --csv-out {a} --trials 2"
        ).split()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(a.read_text().splitlines()) == 1 + 4 + 2
        # seed flag wins over the scenario's seed line
        argv = f"qkd --scenario {scenario} --table-out - --csv-out {b} --seed 5".split()
        assert main(argv) == 0
        capsys.readouterr()
        base = tmp_path / "c.csv"
        argv = f"qkd --scenario {scenario} --table-out - --csv-out {base}".split()
        assert main(argv) == 0
        capsys.readouterr()
        assert b.read_bytes() == base.read_bytes()

    def test_env_seed_overrides_scenario(self, tmp_path, capsys, monkeypatch):
        scenario = self._write_scenario(tmp_path)
        via_flag, via_env = tmp_path / "flag.csv", tmp_path / "env.csv"
        argv = (
            f"qkd --scenario {scenario} --table-out - --csv-out {via_flag} --seed 77"
        ).split()
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("PIGGYBANK_SEED", "77")
        argv = f"qkd --scenario {scenario} --table-out - --csv-out {via_env}".split()
        assert main(argv) == 0
        capsys.readouterr()
        assert via_env.read_bytes() == via_flag.read_bytes()

    def test_every_sample_bit_wrong(self, tmp_path, capsys):
        csv_path = tmp_path / "flipped.csv"
        argv = (
            "qkd --p-noise 1.0 --pulses 256 --trials 1 --max-rounds 2 "
            f"--seed 0 --table-out - --csv-out {csv_path}"
        ).split()
        assert main(argv) == 0
        assert "qber_hint" not in capsys.readouterr().err
        assert len(csv_path.read_text().splitlines()) == 1 + 2 + 2

    def test_huge_pass_count_finishes(self, tmp_path, capsys):
        # Passes after the first whose one block spans the key are charged
        # one parity each, not run; run one by one, these took hours.
        csv_path = tmp_path / "passes.csv"
        argv = "qkd --pulses 64 --trials 1 --passes 1000000000 --seed 3"
        argv += f" --table-out - --csv-out {csv_path}"
        start = time.perf_counter()
        assert main(argv.split()) == 0
        assert time.perf_counter() - start < 30
        capsys.readouterr()
        header, first = csv_path.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert row["strategy"] == "cascade" and int(row["disclosed_bits"]) > 10**9

    def test_missing_scenario_file(self, tmp_path, capsys):
        argv = f"qkd --scenario {tmp_path / 'absent'} --table-out -".split()
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_broken_scenario_file(self, tmp_path, capsys):
        scenario = self._write_scenario(tmp_path, "pulses = 128\nwat = 1\n")
        argv = f"qkd --scenario {scenario} --table-out -".split()
        assert main(argv) == 2
        assert "line 2" in capsys.readouterr().err

    def test_scenario_that_would_not_finish(self, tmp_path, capsys):
        # A round leaves a remainder only if all 1,000 bases match.
        csv_path = tmp_path / "never.csv"
        argv = "qkd --pulses 1000 --sample-frac 0.999 --trials 1 --seed 1"
        argv += f" --table-out - --csv-out {csv_path}"
        assert main(argv.split()) == 2
        assert "chance 2^-1000.0" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate")])
    def test_allocation_failure_is_a_usage_error(
        self, exc, tmp_path, capsys, monkeypatch
    ):
        # Stands in for --pulses 100000000000; a real allocation that large
        # can succeed under overcommit, so none is attempted here.
        def compare_strategies(scenario, rng):
            raise exc

        monkeypatch.setattr(cli, "compare_strategies", compare_strategies)
        csv_path = tmp_path / "huge.csv"
        argv = f"qkd --pulses 100000000000 --trials 1 --csv-out {csv_path}".split()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and str(exc) in err
        assert not csv_path.exists()
