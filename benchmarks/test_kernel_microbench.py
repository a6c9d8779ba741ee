"""Kernel event-loop throughput, with and without tracing.

The kernel fast path is judged on events per second here, over the
patterns of :data:`repro.bench.perfbench.KERNEL_PATTERNS`.  Tracing is
a per-kernel decision made at construction, so a kernel built while
tracing is disabled must pay (almost) nothing for the observability
layer — the null-tracer run asserts that bound.
"""

from benchmarks.conftest import save_result
from repro.bench.perfbench import KERNEL_PATTERNS
from repro.bench.reporting import format_table
from repro.obs import enable_tracing, reset_tracing

N = 50_000
_sleep_chain_events_per_sec = KERNEL_PATTERNS["sleep"]


def test_kernel_sleep_chain(benchmark):
    rate = benchmark.pedantic(
        _sleep_chain_events_per_sec, args=(N,), rounds=3, iterations=1
    )
    # Even on slow shared CI hardware the sleep fast path clears this
    # floor by a wide margin (dev machine: ~2M events/s).
    assert rate > 100_000


def test_kernel_patterns_report(benchmark):
    def run_all():
        return {
            name: fn(N) for name, fn in sorted(KERNEL_PATTERNS.items())
        }

    rates = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["pattern", "events/s"],
        [(name, f"{rate:,.0f}") for name, rate in rates.items()],
        title="Kernel microbenchmarks",
    )
    save_result("kernel_microbench", table)
    assert all(rate > 50_000 for rate in rates.values())


def test_null_tracer_overhead_is_bounded(benchmark):
    # Tracing off (the default): kernels get the shared NULL_TRACER and
    # the run loop never consults it on the hot path.
    reset_tracing()
    off = max(_sleep_chain_events_per_sec(N) for _ in range(3))
    try:
        enable_tracing()
        on = max(_sleep_chain_events_per_sec(N) for _ in range(3))
    finally:
        reset_tracing()
    benchmark.pedantic(
        _sleep_chain_events_per_sec, args=(N,), rounds=1, iterations=1
    )
    # Plain processes are not traced individually, so enabling tracing
    # must not halve kernel throughput (observed: well under 10%).
    assert on > 0.5 * off, f"tracing on {on:,.0f} vs off {off:,.0f} ev/s"
