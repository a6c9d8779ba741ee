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

A small seeded chaos cell (fault injector + history recorder) runs
under both dispatchers; the two results must be *identical* — the
system-scale parity gate for fast vs generic dispatch under faults —
and its deterministic counters (ops/completed/failed/violations) are
exact-gated through the ``micro`` section so the fault-injected
workload itself cannot silently drift.  The cell must actually inject
faults: a schedule with no crash and no episode fails the gate.

Finally a short macro cell runs cold (empty warm-model cache) and then
warm, best of a few pairs: warm must be at least
``WARM_MODEL_MIN_SPEEDUP`` times faster (pretraining is skipped), must
reproduce the cold hit ratio, and its cache-hit count is exact-gated
through ``micro``.

The baseline file is sectioned (``bench-baseline/v2``): ``headlines``
holds the Figure 7 latencies (tolerance-gated) and ``micro`` holds
seeded workload counters (exact-match gated, e.g. the tenants arrival
count).  *Every* baseline key must have a measured counterpart — a
benchmark that silently stops running fails the gate instead of
passing it.  A baseline with any other schema fails the gate.

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
#: A warm-model macro cell must start at least this much faster than a
#: cold one.  Measured 7.4-7.9x on a 2-CPU container; the floor only
#: catches "the warm-model cache stopped skipping pretraining".
WARM_MODEL_MIN_SPEEDUP = 2.0
WARM_MODEL_CELL_S = 30.0
WARM_MODEL_PAIRS = 3
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
        intensity="high",
        quota_policy="none",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=60.0,
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
    if fast["crashes"] + fast["episodes"] == 0:
        raise AssertionError(
            "faulted cell injected no faults (0 crashes, 0 episodes): "
            "its fast/generic parity would cover no fault path"
        )
    return {
        "faults/cell_ops": fast["ops"],
        "faults/cell_completed": fast["completed"],
        "faults/cell_failed": fast["failed"],
        "faults/cell_violations": fast["violations_total"],
    }


def measure_warm_model() -> tuple:
    """Cold vs warm-model macro cell, best of ``WARM_MODEL_PAIRS``.

    Returns ``(speedup, warm_hits)``: the best cold/warm wall-time
    ratio and the warm run's model-cache hit count.  Raises if a warm
    run's hit ratio differs from its cold run's (a hit must restore
    bit-identical trainer state).
    """
    from time import perf_counter  # noqa: E402

    from repro.bench import model_cache  # noqa: E402
    from repro.bench.macro import run_macro  # noqa: E402
    from repro.workloads.faasload import TenantProfile  # noqa: E402

    def timed():
        start = perf_counter()
        result = run_macro(
            "ofc", TenantProfile.NORMAL, duration_s=WARM_MODEL_CELL_S
        )
        return result, perf_counter() - start

    speedup = 0.0
    try:
        for _ in range(WARM_MODEL_PAIRS):
            model_cache.clear()
            cold, cold_s = timed()
            cold_hits = model_cache.stats()["hits"]
            warm, warm_s = timed()
            warm_hits = model_cache.stats()["hits"] - cold_hits
            if warm.hit_ratio != cold.hit_ratio:
                raise AssertionError(
                    f"warm-model cell diverged from cold: hit ratio "
                    f"{warm.hit_ratio} vs {cold.hit_ratio}"
                )
            speedup = max(speedup, cold_s / warm_s)
    finally:
        model_cache.clear()
    return speedup, warm_hits


def load_baseline(path: str) -> dict:
    """Read the baseline; any schema but ``BASELINE_SCHEMA`` is an error."""
    with open(path, encoding="utf-8") as f:
        loaded = json.load(f)
    if loaded.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {loaded.get('schema')!r} is not "
            f"{BASELINE_SCHEMA!r} (regenerate with --write-baseline)"
        )
    return loaded


def export_metrics(
    headlines: dict,
    ml: dict,
    micro: dict,
    kernel_ratios: dict,
    warm_speedup: float,
    out: str,
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
    registry.gauge(
        "bench_warm_model_speedup",
        help="macro cell wall time, cold over warm model cache",
    ).set(float(warm_speedup))
    registry.register_collector(
        "warm_model", lambda: {"speedup": warm_speedup}
    )
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
    warm_speedup, micro["model_cache/warm_cell_hits"] = measure_warm_model()
    kernel_ratios = measure_kernel_ratios()
    export_metrics(headlines, ml, micro, kernel_ratios, warm_speedup, args.out)
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
    try:
        baseline = load_baseline(BASELINE_PATH)
    except ValueError as error:
        print(f"bench gate FAILED: {error}", file=sys.stderr)
        return 1

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
    if warm_speedup < WARM_MODEL_MIN_SPEEDUP:
        failures.append(
            f"warm-model cell: {warm_speedup:.2f}x faster than cold, below "
            f"the {WARM_MODEL_MIN_SPEEDUP:.1f}x floor"
        )
    else:
        print(f"warm-model gate OK: warm cell {warm_speedup:.2f}x faster")
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
