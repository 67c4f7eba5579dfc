"""What the traced run wraps in piggybank, and the per-layer metrics.

Each function is wrapped where its callers look it up: protocol1 and
protocol2 import mod_exp by name, session imports the protocol and codec
functions by name, qkd imports cascade_reconcile by name. All wrappers of
one function share one span name, so numtheory.mod_exp counts the calls
from every module. A metric whose function could not be found is left out
of the result and listed as missing, never reported as zero.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict

from piggybank import numtheory, protocol1, protocol2, qkd, session, transport

from tracing import Reduced, Tracer

ENDPOINT_RUNS = (
    "session.run_exchange",
    "session.run_trope_bob",
    "session.run_trope_alice",
)
CASCADE_ARM = (
    "qkd.generate_round",
    "qkd.channel_transmit",
    "qkd.sift",
    "qkd.estimate_qber",
    "cascade.cascade_reconcile",
)


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    for module in (numtheory, protocol1, protocol2):
        wrap(module, "mod_exp", "numtheory.mod_exp")
        wrap(module, "mod_inv", "numtheory.mod_inv")
    for name in ("is_probable_prime", "gen_rsa", "gen_dh"):
        wrap(numtheory, name, f"numtheory.{name}")
    wrap(numtheory.Rng, "__init__", "numtheory.Rng")
    for proto, prefix in (("protocol1", "p1"), ("protocol2", "p2")):
        for step in ("init", "deposit", "recover"):
            wrap(session, f"{prefix}_{step}", f"{proto}.{prefix}_{step}")
    wrap(session, "encode_msg", "wire.encode_msg")
    wrap(session, "decode_msg", "wire.decode_msg")
    wrap(transport, "decode_msg", "wire.decode_msg")  # the tap's decode
    tracer.wrap_read_frame(transport, "read_frame", "wire.read_frame")
    for cls in (transport.MemoryTransport, transport.TcpTransport):
        wrap(cls, "send", "transport.send", size=lambda args: len(args[1]))
        wrap(cls, "recv", "transport.recv")
    wrap(transport.TapLog, "record", "transport.tap_record")
    wrap(transport, "tcp_connect", "transport.tcp_connect")
    wrap(transport, "tcp_accept", "transport.tcp_accept")
    for name in ENDPOINT_RUNS + ("session.run_pair", "session.run_trope_session"):
        wrap(session, name.split(".")[1], name)
    wrap(threading.Thread, "start", "session.thread_start")
    for name in (
        "generate_round",
        "channel_transmit",
        "sift",
        "key_digest",
        "estimate_qber",
        "run_digest_protocol",
        "compare_strategies",
    ):
        wrap(qkd, name, f"qkd.{name}")
    wrap(qkd, "cascade_reconcile", "cascade.cascade_reconcile")


class Trace:
    """Reduced spans of a traced run, indexed for the metric formulas.

    Spans with op > 0 belong to timed ops; op -1-j to set-up number j.
    """

    def __init__(
        self, reduced: list[Reduced], n_ops: int, n_setups: int, records: list
    ) -> None:
        self.n_ops = max(n_ops, 1)
        self.setup_ids = range(-1, -1 - n_setups, -1)
        self.by_name: dict[str, list[Reduced]] = defaultdict(list)
        self.setup: dict[str, dict[int, list[Reduced]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.by_op_layer: dict[tuple[int, str], int] = defaultdict(int)
        for item in reduced:
            op = item.span.op
            if op > 0:
                self.by_name[item.span.name].append(item)
                layer = item.span.name.split(".")[0]
                self.by_op_layer[op, layer] += item.span.end - item.span.start
            elif op < 0:
                self.setup[item.span.name][op].append(item)
        self.cascade = [r for r in records if r.strategy == "cascade"]
        self.digest = [r for r in records if r.strategy == "digest"]

    def layer_ns(self, op: int, layer: str) -> int:
        """Time op spent in spans of one layer (top-level name part)."""
        return self.by_op_layer[op, layer]

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total_ns(self, name: str) -> int:
        return sum(item.span.end - item.span.start for item in self.by_name[name])

    def size(self, name: str) -> int:
        return sum(item.span.size for item in self.by_name[name])

    def p50_us(self, name: str) -> float:
        durations = [item.span.end - item.span.start for item in self.by_name[name]]
        return statistics.median(durations) / 1e3 if durations else 0.0

    def per_op(self, value: float) -> float:
        return value / self.n_ops

    def per_setup(self, name: str, of) -> float:
        """Median over set-ups of of(spans of name in that set-up)."""
        if not self.setup_ids:
            return 0.0
        return statistics.median(of(self.setup[name][op]) for op in self.setup_ids)

    def connect_ms(self) -> float:
        """Per session: from the connect call until connect and accept returned."""
        spans = defaultdict(list)
        for name in ("transport.tcp_connect", "transport.tcp_accept"):
            for item in self.by_name[name]:
                spans[item.span.op].append(item.span)
        windows = [
            max(s.end for s in group) - min(s.start for s in group)
            for group in spans.values()
        ]
        return statistics.median(windows) / 1e6 if windows else 0.0

    def share_of_compare(self, names: tuple[str, ...]) -> float:
        whole = self.total_ns("qkd.compare_strategies")
        part = sum(
            item.span.end - item.span.start
            for name in names
            for item in self.by_name[name]
            if item.parent == "qkd.compare_strategies"
        )
        return part / whole if whole else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ns_total(items: list[Reduced]) -> float:
    return sum(item.span.end - item.span.start for item in items)


# (name, unit, better, span names it needs, formula); the host.* and trace.*
# metrics are measured by the run loop, not from spans.
METRICS = [
    ("numtheory.mod_exp.calls_per_op", "count", "lower", ["numtheory.mod_exp"],
     lambda t: t.per_op(t.count("numtheory.mod_exp"))),
    ("numtheory.mod_exp.ms_per_op", "ms", "lower", ["numtheory.mod_exp"],
     lambda t: t.per_op(t.total_ns("numtheory.mod_exp") / 1e6)),
    ("numtheory.mod_inv.calls_per_op", "count", "lower", ["numtheory.mod_inv"],
     lambda t: t.per_op(t.count("numtheory.mod_inv"))),
    ("numtheory.gen_rsa.s", "s", "lower", ["numtheory.gen_rsa"],
     lambda t: t.per_setup("numtheory.gen_rsa", _ns_total) / 1e9),
    ("numtheory.gen_dh.s", "s", "lower", ["numtheory.gen_dh"],
     lambda t: t.per_setup("numtheory.gen_dh", _ns_total) / 1e9),
    ("numtheory.prime_tests.setup", "count", "lower", ["numtheory.is_probable_prime"],
     lambda t: t.per_setup("numtheory.is_probable_prime", len)),
    ("numtheory.prime_test.ms_total", "ms", "lower", ["numtheory.is_probable_prime"],
     lambda t: t.per_setup("numtheory.is_probable_prime", _ns_total) / 1e6),
    ("numtheory.rng_inits.setup", "count", "lower", ["numtheory.Rng"],
     lambda t: t.per_setup("numtheory.Rng", len)),
] + [
    (f"{proto}.{step}.us", "us", "lower", [f"{proto}.{prefix}_{step}"],
     lambda t, n=f"{proto}.{prefix}_{step}": t.p50_us(n))
    for proto, prefix in (("protocol1", "p1"), ("protocol2", "p2"))
    for step in ("init", "deposit", "recover")
] + [
    ("wire.encode.us", "us", "lower", ["wire.encode_msg"],
     lambda t: t.p50_us("wire.encode_msg")),
    ("wire.decode.us", "us", "lower", ["wire.decode_msg"],
     lambda t: t.p50_us("wire.decode_msg")),
    ("wire.decodes_per_frame", "ratio", "lower", ["wire.decode_msg", "transport.send"],
     lambda t: _ratio(t.count("wire.decode_msg"), t.count("transport.send"))),
    ("wire.bytes_per_session", "B", "lower", ["transport.send"],
     lambda t: t.per_op(t.size("transport.send"))),
    ("wire.read_frame.reads_per_frame", "count", "lower", ["wire.read_frame"],
     lambda t: _ratio(t.size("wire.read_frame"), t.count("wire.read_frame"))),
    ("transport.send.us", "us", "lower", ["transport.send"],
     lambda t: t.p50_us("transport.send")),
    ("transport.recv.wait_us", "us", "lower", ["transport.recv"],
     lambda t: t.p50_us("transport.recv")),
    ("transport.frames_per_session", "count", "lower", ["transport.send"],
     lambda t: t.per_op(t.count("transport.send"))),
    ("transport.tcp.connect_ms", "ms", "lower",
     ["transport.tcp_connect", "transport.tcp_accept"], lambda t: t.connect_ms()),
    ("session.self_us", "us", "lower", list(ENDPOINT_RUNS),
     lambda t: t.per_op(
         sum(item.self_ns for n in ENDPOINT_RUNS for item in t.by_name[n]) / 1e3
     )),
    ("session.threads_per_session", "count", "lower", ["session.thread_start"],
     lambda t: t.per_op(t.count("session.thread_start"))),
    ("session.tap.entries_per_session", "count", "lower", ["transport.tap_record"],
     lambda t: t.per_op(t.count("transport.tap_record"))),
    ("cascade.reconcile.ms", "ms", "lower", ["cascade.cascade_reconcile"],
     lambda t: t.p50_us("cascade.cascade_reconcile") / 1e3),
    ("cascade.us_per_bit", "us", "lower", ["cascade.cascade_reconcile"],
     lambda t: _ratio(t.total_ns("cascade.cascade_reconcile") / 1e3,
                      sum(r.accepted_bits for r in t.cascade))),
    ("cascade.parities_per_bit", "ratio", "lower", [],
     lambda t: _ratio(sum(r.disclosed_bits for r in t.cascade),
                      sum(r.accepted_bits for r in t.cascade))),
    ("cascade.success_rate", "ratio", "higher", [],
     lambda t: _ratio(sum(r.success for r in t.cascade), len(t.cascade))),
    ("qkd.digest.round_us", "us", "lower", ["qkd.run_digest_protocol"],
     lambda t: _ratio(t.total_ns("qkd.run_digest_protocol") / 1e3,
                      sum(r.rounds for r in t.digest))),
    ("qkd.digest.rounds_per_trial", "count", "lower", [],
     lambda t: _ratio(sum(r.rounds for r in t.digest), len(t.digest))),
] + [
    (f"qkd.{name}.us", "us", "lower", [f"qkd.{name}"],
     lambda t, n=f"qkd.{name}": t.p50_us(n))
    for name in ("generate_round", "channel_transmit", "sift", "key_digest",
                 "estimate_qber")
] + [
    ("qkd.digest_arm.share", "ratio", "lower",
     ["qkd.run_digest_protocol", "qkd.compare_strategies"],
     lambda t: t.share_of_compare(("qkd.run_digest_protocol",))),
    ("qkd.cascade_arm.share", "ratio", "lower",
     list(CASCADE_ARM) + ["qkd.compare_strategies"],
     lambda t: t.share_of_compare(CASCADE_ARM)),
]

HARNESS_METRICS = [
    ("host.calib_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(trace: Trace, missing: set[str]) -> tuple[dict, list[str]]:
    """Every per-layer metric whose wrapped functions all exist."""
    values, absent = {}, []
    for name, unit, _better, needs, formula in METRICS:
        if missing.intersection(needs):
            absent.append(name)
        else:
            values[name] = {"value": formula(trace), "unit": unit}
    return values, absent
