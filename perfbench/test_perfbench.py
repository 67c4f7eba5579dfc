"""Tests of the benchmark itself: the span reducer, the tracer, the checker.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, reduce_spans  # noqa: E402

BOB, ALICE = 1, 2


def _by_name(spans):
    return {r.span.name: r for r in reduce_spans(spans)}


def test_nested_spans_self_time_subtracts_direct_children_only():
    got = _by_name([
        Span("outer", 1, BOB, 0, 100, 0),
        Span("child", 1, BOB, 10, 40, 0),
        Span("grandchild", 1, BOB, 15, 25, 0),
        Span("sibling", 1, BOB, 40, 90, 0),  # starts as "child" ends
    ])
    assert got["outer"].self_ns == 100 - 30 - 50
    assert got["child"].self_ns == 30 - 10
    assert got["grandchild"].self_ns == 10
    assert got["sibling"].self_ns == 50
    assert got["outer"].parent is None
    assert got["child"].parent == "outer"
    assert got["grandchild"].parent == "child"
    assert got["sibling"].parent == "outer"


def test_overlapping_endpoint_threads_are_reduced_per_thread():
    # Bob's and Alice's endpoint spans overlap in time; each one's child lies
    # inside the other's interval too, but belongs to its own thread.
    got = {
        (r.span.tid, r.span.name): r
        for r in reduce_spans([
            Span("run_exchange", 7, BOB, 0, 100, 0),
            Span("recv", 7, BOB, 20, 60, 0),
            Span("run_exchange", 7, ALICE, 10, 110, 0),
            Span("recv", 7, ALICE, 30, 50, 0),
        ])
    }
    assert got[BOB, "run_exchange"].self_ns == 100 - 40
    assert got[ALICE, "run_exchange"].self_ns == 100 - 20
    assert got[BOB, "recv"].parent == "run_exchange"
    assert got[ALICE, "recv"].parent == "run_exchange"
    assert {r.span.op for r in got.values()} == {7}


def test_tracer_wraps_tags_and_restores():
    target = SimpleNamespace(double=lambda x: 2 * x)
    original = target.double
    tracer = Tracer()
    tracer.wrap(target, "double", "layer.double", size=lambda args: args[0])
    tracer.wrap(target, "absent", "layer.absent")
    tracer.op = 3
    assert target.double(5) == 10
    tracer.uninstall()
    assert target.double is original
    [span] = tracer.spans
    assert (span.name, span.op, span.size) == ("layer.double", 3, 5)
    assert tracer.missing == {"layer.absent"}


def test_missing_function_drops_its_metric_instead_of_reporting_zero():
    trace = layers.Trace([], n_ops=1, n_setups=0, records=[])
    values, absent = layers.layer_metrics(trace, {"wire.encode_msg"})
    assert "wire.encode.us" in absent
    assert "wire.encode.us" not in values
    assert "wire.decode.us" in values


def test_benchmark_json_lists_every_metric_the_runner_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    emitted = [tuple(m[:3]) for m in layers.METRICS + layers.HARNESS_METRICS]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == emitted


def test_checker_catches_a_flipped_deposit_bit_in_every_session_kind():
    assert run.self_test() == 0
