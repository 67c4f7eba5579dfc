"""piggybank benchmark: closed loop, one caller, every output checked.

    python3 perfbench/run.py --workload session-mem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20      # every workload
    python3 perfbench/run.py --self-test                      # tampered sessions

Run from the repository root (any directory works; paths are resolved from
this file). The package is imported from ../src, never from site-packages.
The last line of standard output is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s reports their median
WARMUP_SECONDS = 1.0
BLOCK_SECONDS = 0.5  # traced run: alternate untraced and traced blocks


# Times `import piggybank` (numpy included) in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import piggybank; print(time.perf_counter() - t)"
)


def _import_package():
    """Import piggybank from this checkout's src/, or exit with status 1.

    Returns the module and how long the import took.
    """
    if not (SRC / "piggybank" / "__init__.py").is_file():
        sys.exit(f"perfbench: no piggybank package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import piggybank

    seconds = time.perf_counter() - start
    if not Path(piggybank.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: piggybank imported from {piggybank.__file__}")
    return piggybank, seconds


def import_times(count: int) -> list[float]:
    """Import times of the package in `count` fresh interpreters, in turn."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return times


def calib_ms() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process (and its children) on one of its CPUs.

    The two endpoints of a session hand off on every frame. On a virtual
    machine, waking a thread on another, idle vCPU can take milliseconds when
    the host is busy, which made session latency swing by 2x between runs;
    on one CPU a handoff is a plain context switch. The interpreter lock
    already runs one thread at a time, and no op here uses two CPUs.
    Returns (CPUs the process was allowed, the CPU it now runs on).
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def run_header(np_version: str, nproc: int, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np_version,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_sha": git_sha(),
    }


def one_op(workload, op):
    """Run and check one op; returns (failure or None, records, seconds)."""
    start = time.perf_counter()
    try:
        outcome = workload.run(op)
        failure, records = outcome.failure, outcome.records
    except Exception as exc:  # a raising op is a failed op, not a crash
        failure, records = f"{type(exc).__name__}: {exc}", ()
    return failure, records, time.perf_counter() - start


class Counts:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.first_failure: str | None = None

    def add(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.first_failure = self.first_failure or failure


def set_up(workload, seed: int, tracer=None) -> list[float]:
    """All SETUPS set-ups, timed; the one for seed % SETUPS stays open.

    Key generation time depends heavily on the key seed, so every run times
    the same five key seeds and reports their median: set-up work is the
    same in every run, and the op inputs still vary with the seed.
    """
    chosen = seed % SETUPS
    times = []
    for key_seed in [k for k in range(SETUPS) if k != chosen] + [chosen]:
        if tracer is not None:
            tracer.op = -1 - key_seed
        start = time.perf_counter()
        workload.setup(key_seed)
        times.append(time.perf_counter() - start)
        if key_seed != chosen:
            workload.close()
    if tracer is not None:
        tracer.op = 0
    return times


def timed_loop(workload, stream, seconds: float, counts: Counts) -> tuple[list, float]:
    latencies = []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        failure, _, dt = one_op(workload, next(stream))
        counts.add(failure)
        latencies.append(dt)
    return latencies, time.perf_counter() - start


def traced_loop(workload, stream, seconds, counts, tracer, install):
    """Alternate untraced and traced blocks; the traced ones get op ids.

    Returns (op id or 0 when untraced, op label, seconds) per op, and the
    study records of the traced ops.
    """
    timed, records = [], []
    op_id = block = 0
    start = time.perf_counter()
    while op_id == 0 or time.perf_counter() - start < seconds:
        on = block % 2 == 1
        if on:
            install(tracer)
        block_end = time.perf_counter() + BLOCK_SECONDS
        first = True
        while first or time.perf_counter() < block_end:
            first = False
            op = next(stream)
            if on:
                op_id += 1
                tracer.op = op_id
            failure, op_records, dt = one_op(workload, op)
            tracer.op = 0
            counts.add(failure)
            timed.append((op_id if on else 0, op.label, dt))
            if on:
                records.extend(op_records)
        if on:
            tracer.uninstall()
        block += 1
    return timed, records


def by_kind(timed, trace) -> dict:
    """Per op label: median untraced op time, and median protocol time."""
    out = {}
    for label in sorted({item[1] for item in timed}):
        plain = [dt for op, lab, dt in timed if lab == label and op == 0]
        maths = [
            sum(trace.layer_ns(op, layer) for layer in ("protocol1", "protocol2"))
            for op, lab, _ in timed
            if lab == label and op > 0
        ]
        out[label] = {
            "op_ms": statistics.median(plain) * 1e3 if plain else None,
            "protocol_ms": statistics.median(maths) / 1e6 if maths else None,
        }
    return out


def measure(args) -> int:
    nproc, cpu = pin_to_one_cpu()
    piggybank, import_s = _import_package()
    import numpy

    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    setup_times = set_up(workload, args.seed, tracer)
    if tracer is not None:
        tracer.uninstall()
    # The import is timed SETUPS times: here, and in fresh interpreters
    # before and after the measured ops, so that one slow or fast stretch
    # of the host does not set every sample.
    imports = [import_s, *import_times(SETUPS // 2)]

    counts = Counts()
    try:
        header = run_header(numpy.__version__, nproc, cpu)
        header["fingerprint"] = workloads.fingerprint(workload, args.seed)
        stream = workload.ops(args.seed)
        warm_end = time.perf_counter() + WARMUP_SECONDS
        while counts.attempted == 0 or time.perf_counter() < warm_end:
            counts.add(one_op(workload, next(stream))[0])
        calib = [calib_ms()]
        if tracer is None:
            latencies, elapsed = timed_loop(workload, stream, args.seconds, counts)
        else:
            timed, records = traced_loop(
                workload, stream, args.seconds, counts, tracer, layers.install
            )
        calib.append(calib_ms())
        imports += import_times(SETUPS - len(imports))
    finally:
        workload.close()

    extra = {}
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    header["host.calib_ms"] = statistics.mean(calib)
    header["package"] = piggybank.__version__
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        ms = sorted(dt * 1e3 for dt in latencies)
        pct = statistics.quantiles(ms, n=100) if len(ms) > 1 else [ms[0]] * 99
        metrics = {
            "op_p90_ms": {"value": pct[89], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
        # Printed but not in the result. On a host that switches between a
        # fast and a slow speed every few seconds, the mix of the two in one
        # run moves the mean and the median; the 99th percentile follows how
        # often the host stalls the process. The 90th percentile sits in the
        # slow state, which nearly every run contains.
        extra["ops_per_s"] = {"value": len(ms) / elapsed, "unit": "1/s"}
        extra["op_p50_ms"] = {"value": pct[49], "unit": "ms"}
        extra["op_p99_ms"] = {"value": pct[98], "unit": "ms"}
        header["timed_ops"] = len(ms)
        header["beyond_p99"] = sum(1 for x in ms if x > pct[98])
    else:
        traced = [dt for op, _, dt in timed if op > 0]
        plain = [dt for op, _, dt in timed if op == 0]
        trace = layers.Trace(
            tracing.reduce_spans(tracer.spans), len(traced), SETUPS, records
        )
        metrics, absent = layers.layer_metrics(trace, tracer.missing)
        metrics["host.calib_ms"] = {"value": header["host.calib_ms"], "unit": "ms"}
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        header["traced_ops"] = len(traced)
        header["untraced_ops"] = len(plain)
        header["spans"] = len(tracer.spans)
        header["by_kind"] = by_kind(timed, trace)
        header["missing"] = absent
    extra["failed_frac"] = {
        "value": counts.failed / counts.attempted,
        "unit": f"ratio ({counts.failed}/{counts.attempted})",
    }
    if counts.first_failure:
        header["first_failure"] = counts.first_failure

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("run " + json.dumps(header, sort_keys=True))
    for name, metric in [*metrics.items(), *extra.items()]:
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def self_test() -> int:
    """Flip one deposit bit on Alice's side of every session kind.

    Plain protocol 1 and protocol 2 then return a wrong key without
    raising, so only the benchmark's output check can catch them; trope
    must report manifest_ok=false. Exits 0 only if every op is caught.
    """
    _import_package()
    from piggybank import transport

    import workloads

    workload = workloads.SessionWorkload(64, 64, tcp=True)
    workload.setup(0)
    # Alice's tap counts frames from 0: the challenge in, then the deposit
    # out. Byte 14 is the deposit's second magnitude byte, so the frame
    # stays canonical and the damage reaches the protocol maths.
    workload.tamper = (transport.TamperRule(frame_index=1, byte_index=14, bit=0),)
    total = 2 * len(workloads.KINDS)
    caught = 0
    try:
        stream = workload.ops(0)
        for _ in range(total):
            op = next(stream)
            failure = one_op(workload, op)[0]
            ok = failure is not None and (
                op.label != "trope" or failure == "trope manifest_ok is not true"
            )
            caught += ok
            print(f"  {op.label:22} {'caught' if ok else 'MISSED'}: {failure}")
    finally:
        workload.close()
    print(f"self-test: {caught}/{total} tampered sessions caught")
    return 0 if caught == total else 1


def run_all(args) -> int:
    """Every workload in a fresh process, so each has its own peak RSS."""
    _import_package()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]) if done.returncode == 0 else done.stderr)
        if done.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
