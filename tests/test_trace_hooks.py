"""Every function perfbench's traced run wraps still exists in the package.

A wrapped function that is deleted or renamed drops its per-layer metrics
from the benchmark result while the run still exits 0, so this test is
what notices it.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_finds_every_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.uninstall()
    assert tracer.missing == set()
