"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli fig3 table1 maturation
    python -m repro.cli all
    python -m repro.cli report --quick
    python -m repro.cli fig9 --trace results/fig9-trace.json
    python -m repro.cli fig8 --workers 8
    python -m repro.cli tenants --quick --workers 2
    python -m repro.cli cachewars --quick
    python -m repro.cli faults
    python -m repro.cli chaos --quick
    python -m repro.cli run --faults examples/faults/crash_restart.json

Each experiment prints the same rows the corresponding paper artifact
reports. Heavy experiments accept ``--quick`` to shrink sample counts.
Sweep experiments (fig7, fig8, fig9, fig10) fan independent cells
across processes; ``--workers N`` caps the fan-out (``--workers 1``
forces the serial path, the default is one worker per core).

``report`` runs the macro workload and dumps the unified observability
JSON (metrics + span summary) to ``--out``.
``tenants`` streams a synthesized multi-tenant population (Zipf app
popularity, diurnal/bursty arrivals) through OFC, sweeps tenant count
× skew × cache quota policy, and writes the per-tenant hit-ratio and
fairness grid to ``--grid-out``.
``cachewars`` replays one seeded multi-tenant workload against every
registered cache architecture (OFC harvested, Faa$T-style cachelets,
InfiniCache-style erasure-coded lambdas) and writes the
hit-ratio/latency/cost grid to ``--cachewars-out``.
``faults`` runs the availability experiment (baseline vs a mid-run
node crash and restart).  ``run`` drives one deployment under a JSON
fault schedule (``--faults PATH``, ``--duration S``) and prints the
availability timeline.
``chaos`` fuzzes every cache backend with seeded randomized fault
schedules while a history recorder audits consistency invariants
(acked-write durability, stale reads, read-your-writes, version
order); failing cells are ddmin-shrunk and the minimal schedule
exported as a runnable reproducer under ``examples/faults/``.  The
grid lands in ``--chaos-out``.
``--trace PATH`` enables span tracing for any experiment and writes
the trace summary to PATH.  A failing experiment prints its traceback
to stderr and exits 1; ``faults``, ``run`` and ``chaos`` also exit 1
(table still printed) when the consistency audit finds violations or
dirty final outputs.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Callable, Dict

from repro.bench.reporting import format_table


class ExperimentFailed(Exception):
    """An experiment completed but its consistency gate failed.

    Carries the rendered table so the output still prints before the
    process exits nonzero — CI logs show *what* failed, not just that
    something did.
    """

    def __init__(self, output: str, reason: str):
        super().__init__(reason)
        self.output = output
        self.reason = reason


def _fig2(quick: bool, workers=None) -> str:
    from repro.bench.fig2 import run_fig2

    result = run_fig2(n=150 if quick else 400)
    return format_table(
        ["metric", "value"],
        [
            ("spread at fixed byte size (MB)", result.spread_at_fixed_size_mb),
            ("spread at fixed sigma (MB)", result.spread_at_fixed_sigma_mb),
        ],
        title="Figure 2 — wand_blur memory variability",
    )


def _fig3(quick: bool, workers=None) -> str:
    from repro.bench.fig3 import run_fig3_pipeline, run_fig3_single

    rows = run_fig3_single() + run_fig3_pipeline()
    return format_table(
        ["workload", "size", "backend", "E (s)", "T (s)", "L (s)", "E+L %"],
        [
            (r.workload, r.input_size, r.backend, r.extract_s, r.transform_s,
             r.load_s, 100 * r.el_fraction)
            for r in rows
        ],
        title="Figure 3 — motivation: RSDS vs IMOC",
    )


def _table1(quick: bool, workers=None) -> str:
    from repro.bench.table1 import run_table1

    functions = (
        ["wand_blur", "wand_sepia", "sharp_resize", "video_transcode"]
        if quick
        else None
    )
    rows = run_table1(
        n_samples=200 if quick else 400,
        folds=3 if quick else 5,
        functions=functions,
    )
    return format_table(
        ["interval", "algorithm", "exact %", "exact-or-over %"],
        [
            (f"{r.interval_mb:.0f} MB", r.algorithm, r.exact_pct,
             r.exact_or_over_pct)
            for r in rows
        ],
        title="Table 1 — ML accuracy",
    )


def _benefit(quick: bool, workers=None) -> str:
    from repro.bench.table1 import run_benefit_model_eval

    result = run_benefit_model_eval(n_samples=200 if quick else 400)
    return format_table(
        ["metric", "%"],
        [(k, v) for k, v in result.items()],
        title="Cache-benefit model (§7.1.1)",
    )


def _fig5(quick: bool, workers=None) -> str:
    from repro.bench.fig5 import run_fig5

    result = run_fig5(n_samples=200 if quick else 400)
    return format_table(
        ["metric", "value"],
        [
            ("EO fraction", result.eo_fraction),
            ("overpredictions within 3 intervals", result.over_within_3_intervals),
            ("mean waste (MB)", result.mean_waste_mb),
        ],
        title="Figure 5 — error distribution",
    )


def _fig6(quick: bool, workers=None) -> str:
    from repro.bench.fig6 import run_fig6

    functions = ["wand_sepia", "sharp_resize"] if quick else None
    rows = run_fig6(n_samples=150 if quick else 300, functions=functions)
    return format_table(
        ["algorithm", "interval", "median (us)", "p99 (us)"],
        [
            (r.algorithm, f"{r.interval_mb:.0f} MB", r.median_us, r.p99_us)
            for r in rows
        ],
        title="Figure 6 — prediction speed",
    )


def _maturation(quick: bool, workers=None) -> str:
    from repro.bench.maturation import run_maturation

    result = run_maturation(max_invocations=300 if quick else 500)
    rows = [
        (name, count if count is not None else "(not matured)")
        for name, count in result.per_function.items()
    ]
    rows.append(("median", result.median))
    rows.append(("p75", result.p75))
    rows.append(("p95", result.p95))
    return format_table(
        ["function", "invocations"], rows, title="§7.1.3 — maturation"
    )


def _fig7(quick: bool, workers=None) -> str:
    from repro.bench.fig7 import run_fig7_single
    from repro.sim.latency import KB
    from repro.workloads.functions import FIGURE7_FUNCTIONS

    functions = FIGURE7_FUNCTIONS[:2] if quick else FIGURE7_FUNCTIONS
    rows = run_fig7_single(functions, sizes=(16 * KB, 128 * KB), workers=workers)
    return format_table(
        ["workload", "size", "config", "total (ms)"],
        [(r.workload, r.input_size, r.config, r.total_s * 1e3) for r in rows],
        title="Figure 7 — single-stage (subset)",
    )


def _fig8(quick: bool, workers=None) -> str:
    from repro.bench.fig8 import run_fig8
    from repro.sim.latency import KB

    sizes = (16 * KB, 1024 * KB) if quick else (1 * KB, 16 * KB, 1024 * KB, 3072 * KB)
    rows = run_fig8(sizes=sizes, workers=workers)
    return format_table(
        ["scenario", "size (kB)", "scaling (ms)", "exec (ms)"],
        [
            (r.scenario, r.input_size // 1024, r.scaling_time_s * 1e3,
             r.exec_time_s * 1e3)
            for r in rows
        ],
        title="Figure 8 — scaling impact",
    )


def _fig9(quick: bool, workers=None) -> str:
    from repro.bench.macro import MACRO_WORKLOADS, run_macro_comparison
    from repro.workloads.faasload import TenantProfile

    ofc, swift, improvements = run_macro_comparison(
        TenantProfile.NORMAL,
        duration_s=300.0 if quick else 1800.0,
        workers=workers,
    )
    return format_table(
        ["workload", "OWK-Swift (s)", "OFC (s)", "improvement %"],
        [
            (w, swift.total_exec_s.get(w, 0.0), ofc.total_exec_s.get(w, 0.0),
             improvements.get(w, 0.0))
            for w in MACRO_WORKLOADS
        ],
        title=(
            "Figure 9 — macro (normal profile); "
            f"hit ratio {ofc.hit_ratio:.3f}, failed {ofc.failed_invocations}"
        ),
    )


def _table2(quick: bool, workers=None) -> str:
    from repro.bench.macro import run_macro
    from repro.workloads.faasload import TenantProfile

    result = run_macro(
        "ofc", TenantProfile.NORMAL, duration_s=300.0 if quick else 1800.0
    )
    return format_table(
        ["metric", "value"],
        list(result.table2.items()),
        title="Table 2 — OFC internal metrics",
    )


def _fig10(quick: bool, workers=None) -> str:
    from repro.bench.fig10 import run_fig10

    series = run_fig10(
        duration_s=300.0 if quick else 900.0, workers=workers
    )
    rows = []
    for s in series:
        for minute, gb in s.per_minute():
            rows.append((s.profile, minute, gb))
    return format_table(
        ["profile", "minute", "cache size (GB)"],
        rows,
        title="Figure 10 — OFC cache size over time",
    )


def _fmt_ratio(value) -> str:
    return f"{value:.3f}" if value is not None else "n/a"


def _faults(quick: bool, workers=None) -> str:
    from repro.bench.faults import run_fault_availability

    baseline, faulted = run_fault_availability(
        duration_s=120.0 if quick else 240.0, workers=workers
    )
    rows = [
        (
            r.scenario,
            r.completed,
            r.failed,
            _fmt_ratio(r.final_hit_ratio),
            _fmt_ratio(r.min_windowed_hit_ratio),
            r.recovered_objects,
            r.repaired_keys,
            r.dirty_final_at_end,
        )
        for r in (baseline, faulted)
    ]
    table = format_table(
        [
            "scenario",
            "ok",
            "failed",
            "hit ratio",
            "min window",
            "recovered",
            "repaired",
            "dirty finals",
        ],
        rows,
        title="Availability — crash/restart vs baseline",
    )
    dirty = {
        r.scenario: r.dirty_final_at_end
        for r in (baseline, faulted)
        if r.dirty_final_at_end
    }
    if dirty:
        raise ExperimentFailed(
            table, f"dirty final outputs after drain: {dirty}"
        )
    return table


def _run_schedule(quick: bool, faults_path, duration_s: float) -> str:
    from repro.bench.faults import run_availability
    from repro.faults import FaultSchedule

    schedule = None
    scenario = "no-faults"
    if faults_path:
        schedule = FaultSchedule.load(faults_path)
        scenario = faults_path
    if quick:
        duration_s = min(duration_s, 120.0)
    result = run_availability(
        scenario=scenario, schedule=schedule, duration_s=duration_s
    )
    rows = [
        (
            f"{p.t:.0f}",
            _fmt_ratio(p.hit_ratio),
            p.live_servers,
            p.under_replicated,
        )
        for p in result.points
    ]
    rows.append(("--", "--", "--", "--"))
    rows.append(("completed", result.completed, "", ""))
    rows.append(("failed", result.failed, "", ""))
    rows.append(("lost objects", result.lost_objects, "", ""))
    rows.append(("recovered", result.recovered_objects, "", ""))
    rows.append(("repaired keys", result.repaired_keys, "", ""))
    rows.append(("dirty finals at end", result.dirty_final_at_end, "", ""))
    table = format_table(
        ["t (s)", "hit ratio", "live nodes", "under-replicated"],
        rows,
        title=f"Fault schedule run — {scenario}",
    )
    if result.dirty_final_at_end:
        raise ExperimentFailed(
            table,
            f"{result.dirty_final_at_end} dirty final outputs after drain",
        )
    return table


def _chaos(quick: bool, workers, grid_out: str) -> str:
    from repro.bench.chaos import format_results, run_chaos

    results = run_chaos(quick=quick, workers=workers, grid_out=grid_out)
    table = format_results(results) + f"\n[grid written to {grid_out}]"
    total = sum(r.violations_total for r in results)
    if total:
        failing = [r.cell_id for r in results if r.violations_total]
        raise ExperimentFailed(
            table,
            f"{total} invariant violations in cells {failing}; "
            "minimized reproducers under examples/faults/",
        )
    return table


def _tenants(quick: bool, workers, grid_out: str) -> str:
    from repro.bench.tenants import format_results, run_tenants

    results = run_tenants(quick=quick, workers=workers, grid_out=grid_out)
    return format_results(results) + f"\n[grid written to {grid_out}]"


def _cachewars(quick: bool, workers, grid_out: str) -> str:
    from repro.bench.cachewars import format_results, run_cachewars

    results = run_cachewars(quick=quick, workers=workers, grid_out=grid_out)
    return format_results(results) + f"\n[grid written to {grid_out}]"


def _report(quick: bool, out: str) -> str:
    from repro.bench.report import run_report

    return run_report(quick=quick, out=out)


EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "table1": _table1,
    "benefit": _benefit,
    "fig5": _fig5,
    "fig6": _fig6,
    "maturation": _maturation,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "table2": _table2,
    "fig10": _fig10,
    "faults": _faults,
}


def _export_trace(path: str) -> None:
    from repro.obs import active_tracers, export_json

    export_json(path, tracers=active_tracers(), meta={"source": "repro.cli"})
    print(f"[trace written to {path}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the OFC paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, 'all', 'list', 'report', 'tenants', "
        "'cachewars', 'chaos', or 'run'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sample counts"
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="process fan-out for sweep experiments (1 = serial; "
        "default: one worker per core)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable span tracing and write the trace summary JSON here",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="results/report.json",
        help="output path for the 'report' experiment's metrics JSON",
    )
    parser.add_argument(
        "--grid-out",
        metavar="PATH",
        default="results/tenants_grid.json",
        help="output path for the 'tenants' sweep's grid JSON",
    )
    parser.add_argument(
        "--cachewars-out",
        metavar="PATH",
        default="results/cachewars_grid.json",
        help="output path for the 'cachewars' head-to-head grid JSON",
    )
    parser.add_argument(
        "--chaos-out",
        metavar="PATH",
        default="results/chaos_grid.json",
        help="output path for the 'chaos' fuzzing grid JSON",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="JSON fault schedule for the 'run' command",
    )
    parser.add_argument(
        "--duration",
        type=float,
        metavar="S",
        default=240.0,
        help="simulated duration for the 'run' command (seconds)",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        print("report")
        print("tenants")
        print("cachewars")
        print("chaos")
        print("run")
        return 0
    names = (
        list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    )
    tracing = args.trace is not None
    if tracing:
        from repro.obs import enable_tracing, reset_tracing

        reset_tracing()
        enable_tracing()
    try:
        for name in names:
            runner = EXPERIMENTS.get(name)
            if runner is None and name not in (
                "report",
                "tenants",
                "cachewars",
                "chaos",
                "run",
            ):
                print(f"unknown experiment: {name}", file=sys.stderr)
                return 2
            try:
                if name == "report":
                    print(_report(args.quick, args.out))
                elif name == "tenants":
                    print(_tenants(args.quick, args.workers, args.grid_out))
                elif name == "cachewars":
                    print(
                        _cachewars(
                            args.quick, args.workers, args.cachewars_out
                        )
                    )
                elif name == "chaos":
                    print(_chaos(args.quick, args.workers, args.chaos_out))
                elif name == "run":
                    print(_run_schedule(args.quick, args.faults, args.duration))
                else:
                    print(runner(args.quick, workers=args.workers))
            except ExperimentFailed as failure:
                print(failure.output)
                print(
                    f"experiment failed: {name}: {failure.reason}",
                    file=sys.stderr,
                )
                return 1
            except Exception:
                # Surface the failure as an unambiguous exit status so
                # CI smoke steps can gate on this command.
                traceback.print_exc()
                print(f"experiment failed: {name}", file=sys.stderr)
                return 1
            print()
        if tracing:
            try:
                _export_trace(args.trace)
            except OSError:
                traceback.print_exc()
                print(f"could not write trace: {args.trace}", file=sys.stderr)
                return 1
    finally:
        if tracing:
            from repro.obs import reset_tracing

            reset_tracing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
