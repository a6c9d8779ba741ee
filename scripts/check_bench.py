#!/usr/bin/env python
"""CI bench gate: quick benchmark + regression check vs a baseline.

Runs the Figure 7 single-stage quick benchmark (2 functions x 2 input
sizes x 5 configurations), exports the headline latencies as a metrics
JSON through the :mod:`repro.obs` layer (uploaded as a CI artifact),
and fails when any headline latency regresses more than the tolerance
over the checked-in baseline (``scripts/bench_baseline.json``).

It also runs the ML inference microbenchmark and fails if the compiled
(code-generated) predict path is ever slower than the recursive tree
walk it replaced — wall-clock rates are too machine-dependent for an
absolute bar in CI, but the *relative* claim "compiled is the fast
path" must hold everywhere.  The measured rates ride along in the
metrics artifact for trend tracking.

The kernel fast path is gated the same relative way: each event-loop
pattern (sleep/chain/churn/event/immediate) is timed with the codegen
dispatch explicitly on and explicitly off (``fastpath.set_enabled``,
so the comparison is identical no matter what ``REPRO_SIM_FASTPATH``
the job exports), and the on/off ratio must clear a conservative
per-pattern floor.  The floors encode what the fast path *claims*:
sleep chains are the headline (≥2x everywhere), churn/event carry the
fused-delivery win (must not lose), and chain is flat by design
(Timeout construction dominates; the floor only catches a real loss).

Finally a small seeded chaos cell (fault injector + history
recorder) runs under both dispatchers; the two results must be
*identical* — the system-scale parity gate for fast vs generic
dispatch under faults — and its deterministic counters (ops/completed/
failed/violations) are exact-gated through the ``micro`` section so
the fault-injected workload itself cannot silently drift.

The baseline file is sectioned (``bench-baseline/v2``): ``headlines``
holds the Figure 7 latencies (tolerance-gated) and ``micro`` holds
seeded workload counters (exact-match gated, e.g. the tenants arrival
count).  *Every* baseline key must have a measured counterpart — a
benchmark that silently stops running fails the gate instead of
passing it.  A legacy flat baseline is read as headlines-only.

The simulation is fully seeded, so on an unchanged tree the measured
values match the baseline exactly; the 25% tolerance only absorbs
intentional small model/latency adjustments.  Regenerate the baseline
after a deliberate performance change with ``--write-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.bench.fig7 import run_fig7_single  # noqa: E402
from repro.bench.perfbench import bench_ml  # noqa: E402
from repro.obs import export_json, MetricsRegistry  # noqa: E402
from repro.sim.latency import KB  # noqa: E402
from repro.workloads.functions import FIGURE7_FUNCTIONS  # noqa: E402

TOLERANCE = 0.25
#: The compiled path must at minimum not lose to the recursive walk.
ML_MIN_SPEEDUP = 1.0
#: Fast-path on/off floors per kernel pattern.  Measured ratios on the
#: dev container: sleep ~3.8x, event ~1.2x, churn ~1.15x, immediate
#: ~1.07x, chain ~1.0x (flat by design: the chain pattern is bound by
#: Timeout construction, not dispatch).  Floors sit well under the
#: measurements because single-run wall clocks on shared CI swing
#: +-20%; they catch "the fast path stopped being fast", not noise.
KERNEL_MIN_RATIO = {
    "sleep": 2.0,
    "chain": 0.85,
    "churn": 0.9,
    "event": 0.9,
    "immediate": 0.85,
}
KERNEL_GATE_N = 100_000
KERNEL_GATE_REPEATS = 3
BASELINE_SCHEMA = "bench-baseline/v2"
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "bench_baseline.json"
)
DEFAULT_OUT = "results/bench_metrics.json"

BENCH_FUNCTIONS = 2
BENCH_SIZES = (16 * KB, 128 * KB)


def measure() -> dict:
    """Headline latencies keyed "workload/size/config" -> total seconds."""
    rows = run_fig7_single(
        FIGURE7_FUNCTIONS[:BENCH_FUNCTIONS], sizes=BENCH_SIZES
    )
    return {
        f"{row.workload}/{row.input_size}/{row.config}": row.total_s
        for row in rows
    }


def measure_micro() -> dict:
    """Seeded workload counters, keyed "family/name" -> exact value.

    Unlike the wall-clock rates these are deterministic by
    construction, so the gate requires an exact match: any drift means
    a seeded generator changed behaviour.
    """
    from repro.workloads.tenants import (  # noqa: E402
        MergedArrivalStream,
        TenantWorkloadConfig,
        synthesize_tenants,
    )

    config = TenantWorkloadConfig(n_tenants=200, mean_interval_s=60.0, seed=0)
    stream = MergedArrivalStream(synthesize_tenants(config), deadline=3600.0)
    return {"tenants/arrivals_200t_1h": sum(1 for _ in stream)}


def measure_kernel_ratios() -> dict:
    """Fast-path on/off events-per-second ratio for each kernel pattern.

    Both sides are pinned with ``set_enabled`` (best-of-N interleaved),
    so the measurement is self-relative and identical under any
    ``REPRO_SIM_FASTPATH`` the CI job exports.
    """
    from repro.bench.perfbench import KERNEL_PATTERNS  # noqa: E402
    from repro.sim import fastpath  # noqa: E402

    original = fastpath.enabled()
    ratios = {}
    try:
        for name in KERNEL_MIN_RATIO:
            fn = KERNEL_PATTERNS[name]
            best = {True: 0.0, False: 0.0}
            for _ in range(KERNEL_GATE_REPEATS):
                for enabled in (True, False):
                    fastpath.set_enabled(enabled)
                    best[enabled] = max(best[enabled], fn(KERNEL_GATE_N))
            ratios[name] = best[True] / best[False]
    finally:
        fastpath.set_enabled(original)
    return ratios


def measure_faulted_cell() -> dict:
    """Seeded chaos cell under both dispatchers: parity + counters.

    Returns the cell's deterministic counters for the ``micro`` section
    and raises if the fast and generic runs diverge in *any* field —
    the system-scale parity gate for fast vs generic under faults.
    """
    from dataclasses import asdict  # noqa: E402

    from repro.bench.chaos import ChaosCell, run_chaos_cell  # noqa: E402
    from repro.sim import fastpath  # noqa: E402

    cell = ChaosCell(
        backend="ofc",
        intensity="medium",
        quota_policy="none",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=20.0,
        seed=11,
        warmup_s=10.0,
    )
    original = fastpath.enabled()
    results = {}
    try:
        for enabled in (True, False):
            fastpath.set_enabled(enabled)
            results[enabled] = asdict(run_chaos_cell(cell))
    finally:
        fastpath.set_enabled(original)
    if results[True] != results[False]:
        diverged = sorted(
            key
            for key in results[True]
            if results[True][key] != results[False][key]
        )
        raise AssertionError(
            "faulted cell diverged between fast and generic dispatch "
            f"(fields: {', '.join(diverged)})"
        )
    fast = results[True]
    return {
        "faults/cell_ops": fast["ops"],
        "faults/cell_completed": fast["completed"],
        "faults/cell_failed": fast["failed"],
        "faults/cell_violations": fast["violations_total"],
    }


def load_baseline(path: str) -> dict:
    """Read the baseline, upgrading a legacy flat file to v2 sections."""
    with open(path, encoding="utf-8") as f:
        loaded = json.load(f)
    if loaded.get("schema") == BASELINE_SCHEMA:
        return loaded
    # Legacy flat format: every key is a headline, no micro section.
    print("note: legacy flat baseline (regenerate with --write-baseline)")
    return {"schema": BASELINE_SCHEMA, "headlines": loaded, "micro": {}}


def export_metrics(
    headlines: dict, ml: dict, micro: dict, kernel_ratios: dict, out: str
) -> None:
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "bench_total_s", help="Figure 7 single-stage headline latency (s)"
    )
    for key, total_s in headlines.items():
        workload, size, config = key.split("/")
        gauge.set(total_s, workload=workload, input_size=size, config=config)
    registry.register_collector("headlines", lambda: dict(headlines))
    ml_gauge = registry.gauge(
        "bench_ml", help="J48 train/predict microbenchmark rates"
    )
    for metric, value in ml.items():
        ml_gauge.set(float(value), metric=metric)
    registry.register_collector("ml", lambda: dict(ml))
    micro_gauge = registry.gauge(
        "bench_micro", help="seeded workload counters (exact-match gated)"
    )
    for key, value in micro.items():
        micro_gauge.set(float(value), key=key)
    registry.register_collector("micro", lambda: dict(micro))
    ratio_gauge = registry.gauge(
        "bench_fastpath_ratio",
        help="kernel fast-path on/off events-per-second ratio",
    )
    for pattern, ratio in kernel_ratios.items():
        ratio_gauge.set(float(ratio), pattern=pattern)
    registry.register_collector("fastpath", lambda: dict(kernel_ratios))
    export_json(
        out,
        registry=registry,
        meta={
            "benchmark": "fig7-single-quick",
            "tolerance": TOLERANCE,
            "baseline": os.path.relpath(BASELINE_PATH),
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=DEFAULT_OUT, help="metrics JSON artifact path"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current numbers as the new baseline and exit",
    )
    args = parser.parse_args(argv)

    headlines = measure()
    ml = bench_ml(n_rows=800)
    micro = measure_micro()
    # The faulted cell is a gate in itself: it raises on any fast/
    # generic divergence before its counters even reach the baseline.
    micro.update(measure_faulted_cell())
    kernel_ratios = measure_kernel_ratios()
    export_metrics(headlines, ml, micro, kernel_ratios, args.out)
    print(f"[bench metrics written to {args.out}]")

    if args.write_baseline:
        doc = {
            "schema": BASELINE_SCHEMA,
            "headlines": dict(sorted(headlines.items())),
            "micro": dict(sorted(micro.items())),
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"[baseline written to {BASELINE_PATH}]")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(
            f"baseline missing: {BASELINE_PATH} (run with --write-baseline)",
            file=sys.stderr,
        )
        return 1
    baseline = load_baseline(BASELINE_PATH)

    failures = []
    if ml["ml_predict_speedup"] < ML_MIN_SPEEDUP:
        failures.append(
            "ml_predict: compiled path slower than recursive walk "
            f"(speedup {ml['ml_predict_speedup']:.2f}x < "
            f"{ML_MIN_SPEEDUP:.1f}x; "
            f"{ml['ml_predict_rows_per_sec']:,.0f} vs "
            f"{ml['recursive_rows_per_sec']:,.0f} rows/s)"
        )
    else:
        print(
            f"ml gate OK: compiled predict {ml['ml_predict_speedup']:.2f}x "
            f"the recursive walk ({ml['ml_predict_rows_per_sec']:,.0f} rows/s)"
        )
    for pattern, floor in sorted(KERNEL_MIN_RATIO.items()):
        ratio = kernel_ratios[pattern]
        if ratio < floor:
            failures.append(
                f"fastpath/{pattern}: on/off ratio {ratio:.2f}x below the "
                f"{floor:.2f}x floor"
            )
    gated = ", ".join(
        f"{p} {kernel_ratios[p]:.2f}x" for p in sorted(KERNEL_MIN_RATIO)
    )
    print(f"fastpath gate ratios: {gated}")
    # Every baseline key must be measured: a benchmark that silently
    # stops running is a gate failure, not a pass.
    for key, base in sorted(baseline["headlines"].items()):
        measured = headlines.get(key)
        if measured is None:
            failures.append(f"{key}: baseline headline not measured this run")
            continue
        if measured > base * (1.0 + TOLERANCE):
            pct = 100.0 * (measured - base) / base
            failures.append(
                f"{key}: {measured:.6f}s vs baseline {base:.6f}s (+{pct:.1f}%)"
            )
    for key, base in sorted(baseline["micro"].items()):
        measured = micro.get(key)
        if measured is None:
            failures.append(f"{key}: baseline micro entry not measured")
        elif measured != base:
            failures.append(
                f"{key}: {measured} vs baseline {base} "
                "(seeded counter drifted)"
            )
    for key in sorted(set(headlines) - set(baseline["headlines"])):
        print(f"note: new headline not in baseline: {key}")
    for key in sorted(set(micro) - set(baseline["micro"])):
        print(f"note: new micro entry not in baseline: {key}")

    if failures:
        print(
            f"bench gate FAILED ({len(failures)} regression(s) "
            f">{TOLERANCE:.0%}):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"bench gate OK: {len(baseline['headlines'])} headlines within "
        f"{TOLERANCE:.0%} of baseline, "
        f"{len(baseline['micro'])} micro entries exact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
