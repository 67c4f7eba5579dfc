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
from .numtheory import DhParams, Rng, RsaParams, RsaSecret, gen_dh, gen_rsa, rand_residue
from .numtheory import _factorize
from .protocol1 import AliceSecrets1, Recovered1, Variant1
from .protocol2 import AliceSecrets2, Outcome2, Variant2
from .qkd import Scenario, compare_strategies, parse_scenario, render_csv, render_table
from .qkd import _SCENARIO_KEYS
from .session import (
    AliceP1,
    AliceP2,
    BobP1,
    BobP2,
    SessionOutcome,
    run_exchange,
    run_pair,
    run_trope_alice,
    run_trope_bob,
    run_trope_session,
)
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


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _key_fields(path: str, *records: type) -> tuple:
    """One instance of each key record, built from the integer fields of a
    key file; ValueError names a missing or bad field."""
    data = _load_json(path)
    for name in [field.name for record in records for field in fields(record)]:
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
        return _key_fields(args.secret_file, RsaParams, RsaSecret)
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


def _require_port(args: argparse.Namespace) -> None:
    if args.mode in ("listen", "connect") and args.port is None:
        raise ValueError(f"--port is required for --mode {args.mode}")


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


def _exchange_roles_p1(args: argparse.Namespace, variant: Variant1, rng: Rng):
    bob = alice = None
    if args.mode in ("inproc", "listen"):
        params, secret = _rsa_private(args)
        bob = BobP1(params, secret, variant, nonce=args.R)
    if args.mode in ("inproc", "connect"):
        params = bob.params if bob is not None else _rsa_public(args)
        s = args.S if args.S is not None else rand_residue(params.n, False, rng)
        k = args.K if args.K is not None else rng.randbelow(params.n)
        alice = AliceP1(params, variant, AliceSecrets1(s, k))
    return bob, alice


def _exchange_roles_p2(args: argparse.Namespace, variant: Variant2, rng: Rng):
    if args.p is None or args.g is None:
        raise ValueError("need --p and --g for p2")
    params = DhParams(args.p, args.g)
    bob = alice = None
    if args.mode in ("inproc", "listen"):
        bob = BobP2(params, variant, nonce=args.R)
    if args.mode in ("inproc", "connect"):
        s = args.S if args.S is not None else 1 + rng.randbelow(params.p - 2)
        if args.K is not None:
            k = args.K
        elif variant is Variant2.ADDITIVE:
            k = rng.randbelow(params.p)
        else:
            k = 1 + rng.randbelow(params.p - 1)
        alice = AliceP2(params, variant, AliceSecrets2(s, k))
    return bob, alice


def cmd_exchange(args: argparse.Namespace) -> int:
    _require_port(args)
    variants = _VARIANTS[args.protocol]
    variant = variants.get(args.variant or next(iter(variants)))
    if variant is None:
        raise ValueError(f"unknown {args.protocol} variant {args.variant!r}")
    samples = (args.mode != "connect" and args.R is None) or (
        args.mode != "listen" and (args.S is None or args.K is None)
    )
    base_rng = Rng(_resolve_seed(args.seed, needed=samples) or 0)
    build = _exchange_roles_p1 if args.protocol == "p1" else _exchange_roles_p2
    bob, alice = build(args, variant, base_rng.derive(2))
    if args.mode == "inproc":
        bob_outcome, _ = run_pair(bob, alice, base_rng.derive(1))
        _print_outcome(bob_outcome)
    elif args.mode == "listen":
        _print_outcome(run_exchange(bob, _accept_one(args), base_rng.derive(1)))
    else:
        transport = tcp_connect(args.host, args.port)
        _print_outcome(run_exchange(alice, transport))
    return int(ExitStatus.OK)


def cmd_trope(args: argparse.Namespace) -> int:
    _require_port(args)
    samples = (args.mode != "connect" and args.R is None) or (
        args.mode != "listen" and args.K is None
    )
    rng = Rng(_resolve_seed(args.seed, needed=samples) or 0)
    if args.mode == "inproc":
        params, secret = _rsa_private(args)
        if args.S is None:
            raise ValueError("--S is required for a trope session")
        outcome = run_trope_session(
            params,
            secret,
            args.S,
            args.manifest,
            rng=rng,
            hash_alg=args.hash_id,
            nonce=args.R,
            letter_key=args.K,
        )
    elif args.mode == "listen":
        params, secret = _rsa_private(args)
        outcome = run_trope_bob(
            params,
            secret,
            _accept_one(args),
            rng=rng.derive(1),
            nonce=args.R,
            hash_alg=args.hash_id,
        )
    else:
        params = _rsa_public(args)
        if args.S is None:
            raise ValueError("--S is required for a trope session")
        transport = tcp_connect(args.host, args.port)
        outcome = run_trope_alice(
            params,
            args.S,
            args.manifest,
            transport,
            rng=rng.derive(2),
            letter_key=args.K,
            hash_alg=args.hash_id,
        )
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
        description="Piggy-bank key transport protocols and a BB84 reconciliation study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate RSA-style or safe-prime parameters")
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
    exchange.set_defaults(handler=cmd_exchange)

    trope = sub.add_parser("trope", help="exchange plus a sealed contents manifest")
    add_rsa_flags(trope)
    trope.add_argument("--S", type=int, help="the deposited secret")
    trope.add_argument("--K", type=int, help="force the letter key")
    trope.add_argument("--R", type=int, help="force Bob's nonce")
    trope.add_argument("--manifest", default="", help="contents description text")
    trope.add_argument("--hash", dest="hash_id", default="sha256")
    add_net_flags(trope)
    trope.set_defaults(handler=cmd_trope)

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
