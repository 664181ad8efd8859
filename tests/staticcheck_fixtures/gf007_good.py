"""GF007 self-test fixture: timing routed through repro.obs (must pass)."""

from repro.obs.registry import metrics_registry


def raw_clock_via_registry():
    registry = metrics_registry()
    start = registry.clock()
    total = sum(range(1000))
    registry.timer_add("fixture.raw", registry.clock() - start)
    return total
