"""Command-line driver: key generation, exchanges, trope sessions, QKD runs.

Exit codes are stable: 0 success, 1 protocol or integrity failure,
2 usage error, 3 I/O error. PIGGYBANK_SEED serves as a seed fallback
when --seed is absent; with neither, entropy is used and the chosen
seed is noted on stderr so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from enum import IntEnum
from pathlib import Path

from .errors import PiggyBankError
from .numtheory import DhParams, Rng, RsaParams, RsaSecret, gen_dh, gen_rsa
from .numtheory import check_rsa_consistent
from .numtheory import _factorize, rand_residue
from .protocol1 import AliceSecrets1, Recovered1, Variant1, check_nonce1, check_secrets1
from .protocol2 import AliceSecrets2, Outcome2, Variant2, check_nonce2, check_secrets2
from .qkd import Scenario, compare_strategies, parse_scenario, render_csv, render_table
from .qkd import _SCENARIO_KEYS
from .session import (
    AliceP1,
    AliceP2,
    AliceTrope,
    BobP1,
    BobP2,
    BobTrope,
    SessionOutcome,
    run_exchange,
    run_pair,
)
from .session import _require_manifest_fits
from .transport import Transport, tcp_accept, tcp_connect, tcp_listen


class ExitStatus(IntEnum):
    OK = 0
    PROTOCOL = 1
    USAGE = 2
    IO = 3


# --variant names per protocol; the first member of each enum is the default.
_VARIANTS = {
    protocol: {member.name.lower().replace("_", "-"): member for member in enum}
    for protocol, enum in (("p1", Variant1), ("p2", Variant2))
}

# Flag-supplied moduli are factored by trial division; beyond this bound
# the user must supply a key file generated by keygen instead.
_FACTOR_LIMIT = 1 << 21


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _resolve_seed(flag_seed: int | None, *, needed: bool = True) -> int | None:
    """Seed precedence: --seed, then PIGGYBANK_SEED, then entropy. When no
    seed is needed (every sampled value is forced, or the caller has its
    own default) entropy is never touched and the result is None."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("PIGGYBANK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PIGGYBANK_SEED is not an integer: {env!r}") from None
    if not needed:
        return None
    seed = int.from_bytes(os.urandom(8), "big")
    _note(f"note: using entropy seed {seed} (pass --seed to reproduce)")
    return seed


def _write_private(path: str, text: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w") as handle:
        os.fchmod(fd, 0o600)  # os.open's mode applies only to a new file
        handle.write(text)


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


class _LongInt(str):
    """The digits of a JSON integer longer than int() converts."""


def _parse_int(digits: str) -> int | _LongInt:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        return _LongInt(digits)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=_parse_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _key_fields(path: str, *records: type) -> tuple:
    """One instance of each key record, built from the integer fields of a
    key file; ValueError names a missing or bad field."""
    data = _load_json(path)
    for name in [field.name for record in records for field in fields(record)]:
        if isinstance(data.get(name), _LongInt):
            digits = len(data[name].lstrip("-"))
            raise ValueError(f"{path}: field {name!r} has {digits} digits, too many")
        if type(data.get(name)) is not int:
            raise ValueError(f"{path}: field {name!r} is missing or not an integer")
    return tuple(
        record(**{field.name: data[field.name] for field in fields(record)})
        for record in records
    )


def _port(text: str) -> int:
    """--port: an integer in [0, 65535]."""
    port = int(text)
    if not 0 <= port <= 0xFFFF:
        raise argparse.ArgumentTypeError(f"port {port} is not in [0, 65535]")
    return port


def _rsa_public(args: argparse.Namespace) -> RsaParams:
    if args.public_file:
        return _key_fields(args.public_file, RsaParams)[0]
    if args.n is None or args.e is None:
        raise ValueError("need --n and --e, or --public-file")
    return RsaParams(args.n, args.e)


def _rsa_private(args: argparse.Namespace) -> tuple[RsaParams, RsaSecret]:
    if args.secret_file:
        params, secret = _key_fields(args.secret_file, RsaParams, RsaSecret)
        check_rsa_consistent(params, secret)
        return params, secret
    if args.n is None or args.e is None or args.d is None:
        raise ValueError("need --n, --e and --d, or --secret-file")
    params = RsaParams(args.n, args.e)
    if math.isqrt(args.n) > _FACTOR_LIMIT:
        raise ValueError(
            "modulus too large to factor from flags; "
            "generate a key file with keygen and pass --secret-file"
        )
    factors = _factorize(args.n)
    if len(factors) != 2 or factors[0] * factors[1] != args.n:
        raise ValueError("modulus does not factor; need an odd composite n")
    p, q = factors
    phi = (p - 1) * (q - 1)
    if args.e * args.d % phi != 1:
        raise ValueError("--d is not the inverse of --e modulo phi(n)")
    return params, RsaSecret(p, q, phi, args.d)


def _print_outcome(outcome: SessionOutcome) -> None:
    recovered = outcome.recovered
    if isinstance(recovered, Recovered1):
        print(f"S={recovered.secret}")
        if recovered.key is not None:
            print(f"K={recovered.key}")
    elif isinstance(recovered, Outcome2):
        print(f"K={recovered.key}")
        print(f"shared={recovered.shared}")
    if outcome.manifest_ok is not None:
        print(f"manifest_ok={'true' if outcome.manifest_ok else 'false'}")
    for line in outcome.transcript.transcript_lines():
        print(line)


def _accept_one(args: argparse.Namespace) -> Transport:
    """Listen on --host/--port, take one connection, stop listening."""
    listener = tcp_listen(args.host, args.port)
    _note(f"note: listening on {args.host}:{args.port}")
    try:
        return tcp_accept(listener)
    finally:
        listener.close()


def cmd_keygen(args: argparse.Namespace) -> int:
    rng = Rng(_resolve_seed(args.seed))
    if args.kind == "rsa":
        params, secret = gen_rsa(args.bits, args.e, rng)
    else:
        params, secret = gen_dh(args.bits, rng), None
    public = {"kind": args.kind, "bits": args.bits, **asdict(params)}
    _emit(args.out, json.dumps(public, indent=2) + "\n")
    if args.private_out and secret is not None:
        private = {"kind": args.kind, **asdict(params), **asdict(secret)}
        _write_private(args.private_out, json.dumps(private, indent=2) + "\n")
        _note(f"note: private key written to {args.private_out}")
    return int(ExitStatus.OK)


def _session_keys(args: argparse.Namespace) -> DhParams | tuple:
    """The session's keys, read and checked before any seed is drawn: DH
    parameters for p2, RSA parameters and Bob's secret (None for connect)
    for p1 and trope."""
    if args.protocol == "p2":
        if args.p is None or args.g is None:
            raise ValueError("need --p and --g for p2")
        return DhParams(args.p, args.g)
    if args.mode == "connect":
        return _rsa_public(args), None
    return _rsa_private(args)


def _check_forced(
    args: argparse.Namespace, variant: Variant1 | Variant2, keys: DhParams | tuple
) -> None:
    """Refuse a forced --R, --S or --K that the session would refuse, with
    its message, before a seed is drawn."""
    bob, alice = args.mode != "connect", args.mode != "listen"
    if isinstance(keys, DhParams):
        if bob and args.R is not None:
            check_nonce2(keys.p, args.R)
        if alice:
            check_secrets2(keys.p, variant, args.S, args.K)
        return
    if bob and args.R is not None:
        check_nonce1(keys[0].n, variant, args.R)
    if alice:
        check_secrets1(keys[0].n, args.S, args.K)


def _session_roles(
    args: argparse.Namespace,
    variant: Variant1 | Variant2,
    keys: DhParams | tuple,
    rng: Rng,
) -> tuple:
    """Bob's role (unused in connect mode) and Alice's (None in listen
    mode); Alice draws her unforced S, then K, from rng."""
    trope = args.protocol == "trope"
    if isinstance(keys, DhParams):
        bob = BobP2(keys, variant, nonce=args.R)
    elif trope:
        bob = BobTrope(*keys, args.R, args.hash_id)
    else:
        bob = BobP1(*keys, variant, nonce=args.R)
    if args.mode == "listen":
        return bob, None
    if isinstance(keys, DhParams):
        p, low = keys.p, 0 if variant is Variant2.ADDITIVE else 1
        s = args.S if args.S is not None else 1 + rng.randbelow(p - 2)
        k = args.K if args.K is not None else low + rng.randbelow(p - low)
        return bob, AliceP2(keys, variant, AliceSecrets2(s, k))
    params = keys[0]
    s = args.S if args.S is not None else rand_residue(params.n, False, rng)
    k = args.K if args.K is not None else rng.randbelow(params.n)
    if trope:
        return bob, AliceTrope(params, s, args.manifest, k, args.hash_id)
    return bob, AliceP1(params, variant, AliceSecrets1(s, k))


def cmd_session(args: argparse.Namespace) -> int:
    """exchange and trope: check every input before a seed is drawn, then
    run the ends this process owns; Bob draws from the seed's derive(1)
    stream and Alice from its derive(2) stream, in process and over TCP."""
    if args.mode != "inproc" and args.port is None:
        raise ValueError(f"--port is required for --mode {args.mode}")
    bob_end, alice_end = args.mode != "connect", args.mode != "listen"
    trope = args.protocol == "trope"
    if trope:
        variant = Variant1.BASE
        if alice_end:
            _require_manifest_fits(args.manifest, args.hash_id)
    else:
        variants = _VARIANTS[args.protocol]
        variant = variants.get(args.variant or next(iter(variants)))
        if variant is None:
            raise ValueError(f"unknown {args.protocol} variant {args.variant!r}")
    keys = _session_keys(args)
    if trope and alice_end and args.S is None:
        raise ValueError("--S is required for a trope session")
    _check_forced(args, variant, keys)
    samples = (bob_end and args.R is None) or (
        alice_end and (args.S is None or args.K is None)
    )
    rng = Rng(_resolve_seed(args.seed, needed=samples) or 0)
    bob_rng, alice_rng = rng.derive(1), rng.derive(2)
    bob, alice = _session_roles(args, variant, keys, alice_rng)
    if args.mode == "inproc":
        outcome = run_pair(bob, alice, bob_rng)[0]
    elif args.mode == "listen":
        outcome = run_exchange(bob, _accept_one(args), bob_rng)
    else:
        outcome = run_exchange(alice, tcp_connect(args.host, args.port))
    _print_outcome(outcome)
    if outcome.manifest_ok is False:
        return int(ExitStatus.PROTOCOL)
    return int(ExitStatus.OK)


def cmd_qkd(args: argparse.Namespace) -> int:
    if args.scenario:
        scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    else:
        scenario = Scenario()
    flags = {field.name: getattr(args, field.name) for field in _SCENARIO_KEYS.values()}
    flags["seed"] = _resolve_seed(args.seed, needed=False)
    overrides = {name: value for name, value in flags.items() if value is not None}
    scenario = replace(scenario, **overrides)
    report = compare_strategies(scenario, Rng(scenario.seed))
    _emit(args.table_out, render_table(report))
    csv_path = args.csv_out or "qkd_report.csv"
    _emit(csv_path, render_csv(report))
    if csv_path != "-":
        _note(f"note: csv written to {csv_path}")
    return int(ExitStatus.OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piggybank",
        description=(
            "Piggy-bank key transport protocols and a BB84 reconciliation study."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser(
        "keygen", help="generate RSA-style or safe-prime parameters"
    )
    keygen.add_argument("kind", choices=("rsa", "dh"))
    keygen.add_argument("--bits", type=int, required=True)
    keygen.add_argument("--e", type=int, default=3, help="public exponent (rsa only)")
    keygen.add_argument("--seed", type=int)
    keygen.add_argument("--out", help="public parameters file (default stdout)")
    keygen.add_argument(
        "--private-out", help="private parameters file, written with mode 0600"
    )
    keygen.set_defaults(handler=cmd_keygen)

    def add_net_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode", choices=("inproc", "listen", "connect"), default="inproc"
        )
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=_port)
        p.add_argument("--seed", type=int)

    def add_rsa_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, help="modulus")
        p.add_argument("--e", type=int, help="public exponent")
        p.add_argument("--d", type=int, help="trapdoor exponent (box owner)")
        p.add_argument("--public-file", help="JSON public parameters from keygen")
        p.add_argument("--secret-file", help="JSON private parameters from keygen")

    exchange = sub.add_parser("exchange", help="run one two-party exchange")
    exchange.add_argument("protocol", choices=("p1", "p2"))
    exchange.add_argument(
        "--variant",
        help="; ".join(f"{p}: {'/'.join(names)}" for p, names in _VARIANTS.items()),
    )
    add_rsa_flags(exchange)
    exchange.add_argument("--p", type=int, help="prime modulus (p2)")
    exchange.add_argument("--g", type=int, help="generator (p2)")
    exchange.add_argument("--R", type=int, help="force Bob's nonce")
    exchange.add_argument("--S", type=int, help="force Alice's secret")
    exchange.add_argument("--K", type=int, help="force Alice's key value")
    add_net_flags(exchange)
    exchange.set_defaults(handler=cmd_session)

    trope = sub.add_parser("trope", help="exchange plus a sealed contents manifest")
    add_rsa_flags(trope)
    trope.add_argument("--S", type=int, help="the deposited secret")
    trope.add_argument("--K", type=int, help="force the letter key")
    trope.add_argument("--R", type=int, help="force Bob's nonce")
    trope.add_argument("--manifest", default="", help="contents description text")
    trope.add_argument("--hash", dest="hash_id", default="sha256")
    add_net_flags(trope)
    trope.set_defaults(handler=cmd_session, protocol="trope")

    qkd = sub.add_parser("qkd", help="compare cascade against digest-retry")
    qkd.add_argument("--scenario", help="key=value scenario file")
    for key, field in _SCENARIO_KEYS.items():
        flag = "--" + key.replace("_", "-")
        qkd.add_argument(flag, dest=field.name, type=type(field.default))
    qkd.add_argument("--table-out", help="table file (default stdout)")
    qkd.add_argument("--csv-out", help="per-trial CSV (default qkd_report.csv)")
    qkd.set_defaults(handler=cmd_qkd)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(ExitStatus.USAGE)
    try:
        return args.handler(args)
    except PiggyBankError as exc:
        _note(f"error: {exc}")
        return int(ExitStatus.PROTOCOL)
    except OSError as exc:
        _note(f"error: {exc}")
        return int(ExitStatus.IO)
    except ValueError as exc:
        _note(f"error: {exc}")
        return int(ExitStatus.USAGE)
    except MemoryError as exc:
        # A size too large to allocate, such as a huge --pulses, is bad usage.
        _note(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return int(ExitStatus.USAGE)


def entrypoint() -> None:
    sys.exit(main())
