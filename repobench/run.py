"""Run one benchmark workload and print its metrics.

    python3 repobench/run.py --workload macro --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  The run re-executes itself once so
that ``PYTHONHASHSEED`` equals the hash seed derived from ``--seed``,
then repeats the workload (set-up plus timed window, in this one
process) for about ``--seconds`` of wall time, at least
``MIN_REPEATS`` times, and reports medians of the host timings.  The simulated
outputs must be identical on every repeat.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same repeats, then one repeat under :class:`layertrace.LayerTrace` and
one untraced repeat in a child process under a second hash seed, and
prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPEATS = 4
MAX_REPEATS = 50
#: Upper bound on the hash-seed probe (one untraced repeat).
PROBE_TIMEOUT_S = 100


def hash_seed_for(seed: int) -> int:
    """The hash seed a run uses: the workload seed, in PYTHONHASHSEED's range."""
    return seed % 2**32


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe",
        type=int,
        metavar="HASH_SEED",
        default=None,
        help="run one untraced repeat under HASH_SEED, print its fingerprint",
    )
    return parser.parse_args(argv)


def _ensure_hash_seed(args, argv) -> int:
    """Re-exec under the run's hash seed (same process id, no child)."""
    wanted = hash_seed_for(args.seed if args.probe is None else args.probe)
    if os.environ.get("PYTHONHASHSEED") != str(wanted):
        env = dict(os.environ, PYTHONHASHSEED=str(wanted))
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *argv],
            env,
        )
    return wanted


def _import_program():
    """Import the simulator from this checkout's ``src``; fail loudly."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no simulator sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _repeat_until(workload: str, seed: int, seconds: float):
    from workloads import run_repeat

    outcomes = []
    start = perf_counter()
    while len(outcomes) < MIN_REPEATS or (
        len(outcomes) < MAX_REPEATS
        # Start another repeat only if it should end within the budget.
        and (perf_counter() - start) * (len(outcomes) + 1) / len(outcomes)
        <= seconds
    ):
        outcomes.append(run_repeat(workload, seed))
    return outcomes


def _mismatches(a: dict, b: dict):
    return sorted(k for k in a if a[k] != b.get(k))


def output_checks(outcomes, reference=None, label="repeat"):
    """Failed checks of ``outcomes``: each repeat's own checks and
    fingerprints that differ from ``reference`` (default: the first
    outcome's)."""
    if reference is None:
        reference = outcomes[0].fingerprint()
    failures = []
    for i, outcome in enumerate(outcomes):
        name = f"{label} {i}" if len(outcomes) > 1 else label
        failures.extend(f"{name}: {c}" for c in outcome.check_failures)
        differ = _mismatches(reference, outcome.fingerprint())
        if differ:
            failures.append(f"{name}: fingerprint differs in {differ}")
    return failures


def _probe(args, hash_seed: int) -> dict:
    """Fingerprint of one untraced repeat under ``hash_seed``."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--probe", str(hash_seed),
    ]
    out = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(outcomes) -> dict:
    first = outcomes[0]
    return {
        "sim_s_per_wall_s": _metric(
            statistics.median(o.sim_s / o.window_wall_s for o in outcomes),
            "sim_s/s",
        ),
        "setup_s": _metric(statistics.median(o.setup_s for o in outcomes), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_latency_p50_s": _metric(first.latency_quantile(0.50), "s"),
        "hit_ratio": _metric(first.hit_ratio, "ratio"),
    }


def per_layer_metrics(trace, traced, window_wall_s, setup_submitted, probe_fp):
    """The traced repeat's layer table (see NOTES.md for the mapping)."""
    stats = trace.span_stats
    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    sim_self = stats("sim.run").self_s + stats("sim.run_until").self_s
    put("sim.self_s", sim_self, "s")
    put("sim_latency_p99_s", traced.latency_quantile(0.99), "s")
    put("sim_latency_samples", len(traced.latencies), "count")
    put("workloads.prepare.self_s", stats("workloads.prepare").self_s, "s")
    put("workloads.submitted", setup_submitted, "count")
    for span, fields in (
        ("faas.invoke", ("calls", "self_s")),
        ("faas.execute", ("calls", "self_s", "failed")),
        ("faas.create_sandbox", ("calls", "self_s", "failed")),
        ("predictor.sizing", ("calls", "self_s")),
        ("trainer.on_completion", ("self_s",)),
        ("trainer.retrain", ("calls", "self_s")),
        ("ml.fit", ("calls", "self_s")),
        ("proxy.read", ("calls", "self_s")),
        ("proxy.write", ("calls", "self_s")),
        ("proxy.delete", ("calls",)),
        ("cache_agent.ensure_capacity", ("calls", "self_s", "sim_s", "failed")),
        ("kvcache.migrate_master", ("calls", "self_s")),
        ("kvcache.scale_down", ("calls", "self_s")),
        ("kvcache.put", ("calls", "self_s")),
        ("kvcache.get", ("calls", "self_s")),
        ("kvcache.recover", ("calls", "self_s")),
        ("kvcache.repair", ("self_s",)),
        ("storage.get", ("calls", "self_s", "failed")),
        ("storage.put", ("calls", "self_s", "failed")),
        ("persistor.schedule", ("calls",)),
    ):
        s = stats(span)
        for field in fields:
            unit = "count" if field in ("calls", "failed") else "s"
            put(f"{span}.{field}", getattr(s, field), unit)
    put("faas.execute.ok_ratio", stats("faas.execute").ok_ratio(), "ratio")
    put(
        "kvcache.migrate_master.ok_ratio",
        stats("kvcache.migrate_master").ok_ratio(none_is_failure=True),
        "ratio",
    )
    put("trainer.pretrain_s", stats("trainer.pretrain").total_s, "s")
    put("proxy.hit_ratio", traced.hit_ratio, "ratio")
    put("persistor.retries", traced.extra.get("persistor.retries", 0), "count")
    put("checks.ops", traced.ops, "count")
    put("checks.audit_s", traced.extra.get("checks.audit_s", 0.0), "s")
    put("checks.violations", traced.violations, "count")
    put("faults.crashes", traced.extra.get("faults.crashes", 0), "count")
    put("faults.episodes", traced.extra.get("faults.episodes", 0), "count")
    put("trace.overhead_ratio", traced.window_wall_s / window_wall_s, "ratio")
    put(
        "sim.hashseed_mismatches",
        len(_mismatches(traced.fingerprint(), probe_fp)),
        "count",
    )
    return metrics


def _print_table(title, metrics):
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    hash_seed = _ensure_hash_seed(args, argv)
    _import_program()
    from workloads import run_repeat, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.probe is not None:
        print(json.dumps(run_repeat(args.workload, args.seed).fingerprint()))
        return 0

    outcomes = _repeat_until(args.workload, args.seed, args.seconds)
    checks = output_checks(outcomes)
    reference = outcomes[0].fingerprint()

    print(
        f"workload={args.workload} seed={args.seed} hash_seed={hash_seed} "
        f"repeats={len(outcomes)}"
    )
    print("fingerprint " + json.dumps(reference, sort_keys=True))
    first = outcomes[0]
    print(
        f"window: submitted={first.submitted} completed={first.completed} "
        f"refused={first.refused} data_plane_errors={first.data_plane_errors} "
        f"latency samples={len(first.latencies)} "
        f"p99={first.latency_quantile(0.99):.6g} s"
    )

    if args.trace:
        from layertrace import LayerTrace

        untraced_wall_s = statistics.median(o.window_wall_s for o in outcomes)
        trace = LayerTrace().install()
        submitted_at_setup = []
        try:
            traced = run_repeat(
                args.workload,
                args.seed,
                on_setup_done=lambda: submitted_at_setup.append(
                    trace.span_stats("faas.invoke").calls
                ),
            )
        finally:
            trace.uninstall()
        checks.extend(output_checks([traced], reference, label="traced repeat"))
        probe_seed = hash_seed_for(hash_seed + 1)
        probe_fp = _probe(args, probe_seed)
        mismatched = _mismatches(traced.fingerprint(), probe_fp)
        print(f"hash seed {probe_seed} probe differs in: {mismatched or 'nothing'}")
        metrics = per_layer_metrics(
            trace, traced, untraced_wall_s, submitted_at_setup[0], probe_fp
        )
        _print_table("per-layer metrics (traced repeat)", metrics)
    else:
        metrics = end_to_end_metrics(outcomes)
        _print_table("end-to-end metrics", metrics)

    for line in checks:
        print("CHECK FAILED: " + line)
    unexpected = sum(o.unexpected for o in outcomes)
    if unexpected:
        print(
            f"CHECK FAILED: {unexpected} invocations failed for a reason "
            "the workload does not model"
        )
    result = {
        "correct": not checks and not unexpected,
        "attempted": sum(o.submitted for o in outcomes),
        "failed": unexpected + len(checks),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
