"""The benchmark's three cells, each split into set-up and a timed window.

A cell is built fresh for every repeat.  :func:`run_repeat` times the
set-up (deployment, inputs, pretraining, warmup) and the timed window
separately and returns the window's simulated outcome as a
:class:`Outcome`, whose :meth:`Outcome.fingerprint` must be identical
for every repeat at one (workload seed, hash seed) pair.

A workload's trace (tenants, arrivals, inputs, fault schedule) is
fixed; the run's seed seeds the deployment's random streams.  Nothing
here reads the clock except to time phases.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Seed of every workload's trace (tenant population, arrivals,
#: inputs, fault schedule).  The run's own seed drives the deployment.
TRACE_SEED = 0

#: Sizes of each workload's phases in simulated seconds.
MACRO_WARMUP_S = 600.0
MACRO_WINDOW_S = 7200.0
HARVEST_WARMUP_S = 60.0
HARVEST_WINDOW_S = 600.0
CHAOS_WARMUP_S = 30.0
CHAOS_LOAD_S = 120.0

#: Tenants of the multi-tenant cells (deployed as the chaos grid's cell).
TENANT_COUNT = 200
HARVEST_MEAN_INTERVAL_S = 16.0
CHAOS_MEAN_INTERVAL_S = 2.0

#: Failure reasons a workload's model is allowed to produce.  A
#: refused invocation (no node had room, even after the cache shrank)
#: carries no error text; a data-plane failure under an injected
#: outage names the store exception.  Anything else is a failed
#: operation of the benchmark.
REFUSED = ""
DATA_PLANE_ERRORS = ("StoreUnavailable", "NoSuchObject")


@dataclass
class Outcome:
    """Simulated results of one timed window (plus its host timings)."""

    setup_s: float = 0.0
    window_wall_s: float = 0.0
    sim_s: float = 0.0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    data_plane_errors: int = 0
    #: Terminal records whose failure the workload does not model.
    unexpected: int = 0
    latencies: List[float] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    #: chaos only: history size, audit verdict and digest.
    ops: int = 0
    violations: int = 0
    history_digest: str = ""
    #: Failed output checks of this repeat (one line each).
    check_failures: List[str] = field(default_factory=list)
    #: Context counters reported by the traced run.
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank quantile of the ok invocations' latency."""
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def fingerprint(self) -> Dict[str, object]:
        """Every simulated output the benchmark gates or reports.

        Floats keep all their digits, so two fingerprints are equal
        only if the simulations were bit-identical.
        """
        return {
            "sim_s": self.sim_s,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "refused": self.refused,
            "data_plane_errors": self.data_plane_errors,
            "samples": len(self.latencies),
            "latency_p50_s": self.latency_quantile(0.50),
            "latency_p99_s": self.latency_quantile(0.99),
            "latency_sum_s": math.fsum(self.latencies),
            "hits": self.hits,
            "misses": self.misses,
            "ops": self.ops,
            "violations": self.violations,
            "history_digest": self.history_digest,
        }


class _Collector:
    """Completion listener: per-invocation outcome of the timed window."""

    def __init__(self, outcome: Outcome, admitted_errors):
        self.outcome = outcome
        self.admitted_errors = admitted_errors

    def __call__(self, record) -> None:
        outcome = self.outcome
        if record.status == "ok":
            outcome.completed += 1
            outcome.latencies.append(record.duration)
            return
        outcome.failed += 1
        error = record.error
        if error == REFUSED and REFUSED in self.admitted_errors:
            outcome.refused += 1
        elif error.split(":", 1)[0] in self.admitted_errors:
            outcome.data_plane_errors += 1
        else:
            outcome.unexpected += 1


def _rclib_counts(ofc):
    stats = ofc.rclib_stats
    return stats.hits_local + stats.hits_remote, stats.misses


def _open_window(ofc, outcome: Outcome, admitted_errors) -> Callable[[], None]:
    """Start collecting the window's outcome; returns the closer."""
    collector = _Collector(outcome, admitted_errors)
    ofc.platform.completion_listeners.append(collector)
    hits0, misses0 = _rclib_counts(ofc)
    start = ofc.kernel.now

    def close() -> None:
        ofc.platform.completion_listeners.remove(collector)
        hits1, misses1 = _rclib_counts(ofc)
        outcome.hits = hits1 - hits0
        outcome.misses = misses1 - misses0
        outcome.sim_s = ofc.kernel.now - start

    return close


# ---------------------------------------------------------------------------
# macro: the Figure 9/10 FaaSLoad mix, 24 tenants, pretrained models.


def _macro_setup(seed: int):
    from repro.bench.envs import build_ofc_env, pretrain_function
    from repro.bench.macro import _tenant_specs
    from repro.workloads.faasload import FaaSLoad, TenantProfile

    ofc = build_ofc_env(nodes=4, node_mb=3 * 16384.0, seed=seed)
    injector = FaaSLoad(
        ofc.kernel,
        ofc.platform,
        ofc.store,
        rng=np.random.default_rng(seed),
        truth_seed=TRACE_SEED,
    )
    injector.prepare(_tenant_specs(TenantProfile.NORMAL, tenants_per_workload=3))
    for runtime in injector.tenants:
        if runtime.model is not None:
            pretrain_function(
                ofc,
                runtime.model,
                runtime.descriptors,
                tenant=runtime.spec.tenant_id,
                seed=seed,
            )
    injector.run(MACRO_WARMUP_S)
    return ofc, injector


def _macro_counts(injector):
    """(fired, terminal records, invocations) so far, singles plus
    pipelines (a pipeline fires once and invokes once per stage task)."""
    fired = records = stages = 0
    for runtime in injector.tenants:
        fired += runtime.invocations_fired
        if runtime.app is not None:
            records += len(runtime.pipeline_records)
            stages += sum(
                len(stage.records)
                for prec in runtime.pipeline_records
                for stage in prec.stage_records
            )
        else:
            records += len(runtime.records)
            stages += len(runtime.records)
    return fired, records, stages


def _macro_window(state, outcome: Outcome) -> None:
    ofc, injector = state
    fired0, records0, invocations0 = _macro_counts(injector)
    close = _open_window(ofc, outcome, admitted_errors=())
    injector.run(MACRO_WINDOW_S)
    close()
    fired, records, invocations = _macro_counts(injector)
    outcome.submitted = invocations - invocations0
    if fired - fired0 != records - records0:
        outcome.check_failures.append(
            f"drain: {fired - fired0} fired but {records - records0} "
            "terminal records"
        )


# ---------------------------------------------------------------------------
# harvest and chaos: the streaming multi-tenant engine on 4 x 4 GB.


def _tenant_setup(seed: int, mean_interval_s: float):
    from repro.bench.chaos import CELL_KEEPALIVE_S, CELL_NODE_MB, CELL_NODES
    from repro.bench.envs import build_ofc_env
    from repro.core.config import OFCConfig
    from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

    ofc = build_ofc_env(
        nodes=CELL_NODES,
        node_mb=CELL_NODE_MB,
        seed=seed,
        config=OFCConfig(cache_backend="ofc"),
        keepalive_s=CELL_KEEPALIVE_S,
    )
    engine = TenantLoadEngine(
        ofc.kernel,
        ofc.platform,
        ofc.store,
        TenantWorkloadConfig(
            n_tenants=TENANT_COUNT,
            mean_interval_s=mean_interval_s,
            seed=TRACE_SEED,
        ),
    )
    engine.prepare()
    return ofc, engine


def _engine_counts(engine):
    """(submitted, terminal) invocations of the engine so far."""
    stats = engine.stats
    return stats.submitted, stats.completed + stats.failed


def _drain_check(engine, before, outcome: Outcome) -> None:
    submitted, terminal = (
        now - then for now, then in zip(_engine_counts(engine), before)
    )
    outcome.submitted = submitted
    if terminal != submitted:
        outcome.check_failures.append(
            f"drain: {outcome.submitted} submitted but {terminal} terminal"
        )


def _harvest_setup(seed: int):
    ofc, engine = _tenant_setup(seed, HARVEST_MEAN_INTERVAL_S)
    engine.run(HARVEST_WARMUP_S)
    return ofc, engine


def _harvest_window(state, outcome: Outcome) -> None:
    ofc, engine = state
    before = _engine_counts(engine)
    close = _open_window(ofc, outcome, admitted_errors=(REFUSED,))
    engine.run(HARVEST_WINDOW_S)
    close()
    _drain_check(engine, before, outcome)


def _chaos_setup(seed: int):
    from repro.checks import HistoryRecorder

    ofc, engine = _tenant_setup(seed, CHAOS_MEAN_INTERVAL_S)
    recorder = HistoryRecorder(ofc)
    engine.run(CHAOS_WARMUP_S)
    return ofc, engine, recorder


def history_digest(ops) -> str:
    """Digest of the recorded op history (payload identity excluded:
    object ids differ between processes)."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(
            repr(
                (
                    op.seq, op.op, op.key, op.t_start, op.t_ack, op.status,
                    op.error, op.size, op.version, op.store_version,
                    op.payload_missing, op.tenant, op.request_id,
                    op.pipeline_id, op.final_stage, op.intermediate,
                )
            ).encode()
        )
    return digest.hexdigest()


def _chaos_window(state, outcome: Outcome) -> None:
    from repro.bench.chaos import SETTLE_SLACK_S
    from repro.checks import check_history
    from repro.faults import FaultInjector
    from repro.faults.chaos import chaos_schedule, chaos_targets

    ofc, engine, recorder = state
    before = _engine_counts(engine)
    close = _open_window(
        ofc, outcome, admitted_errors=(REFUSED,) + DATA_PLANE_ERRORS
    )
    schedule = chaos_schedule(
        TRACE_SEED,
        CHAOS_LOAD_S,
        ofc.backend.node_ids,
        intensity="medium",
        targets=chaos_targets(ofc.backend),
        start_at=ofc.kernel.now,
    )
    injector = FaultInjector(ofc, schedule)
    injector.start()
    engine.run(CHAOS_LOAD_S)
    settle_until = max(ofc.kernel.now, schedule.duration) + SETTLE_SLACK_S
    ofc.kernel.run(until=settle_until)
    ofc.kernel.run_until(ofc.kernel.process(ofc.backend.repair()))
    audit_start = perf_counter()
    violations = check_history(recorder.ops, ofc)
    outcome.extra["checks.audit_s"] = perf_counter() - audit_start
    close()
    _drain_check(engine, before, outcome)
    outcome.ops = len(recorder.ops)
    outcome.violations = len(violations)
    outcome.history_digest = history_digest(recorder.ops)
    outcome.extra["faults.crashes"] = sum(
        1 for e in schedule.events if e.kind == "crash"
    )
    outcome.extra["faults.episodes"] = sum(
        1 for e in schedule.events if e.duration > 0
    )
    if violations:
        outcome.check_failures.append(
            f"chaos: {len(violations)} invariant violations, first "
            f"{violations[0].to_dict()}"
        )


#: Workload name -> (set-up, timed window).  Why each was chosen is in
#: NOTES.md.
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "macro": (_macro_setup, _macro_window),
    "harvest": (_harvest_setup, _harvest_window),
    "chaos": (_chaos_setup, _chaos_window),
}


def reset_process_state() -> None:
    """Start a repeat as a fresh interpreter would: empty warm-model
    cache, restarted id counters, no garbage from the last repeat."""
    from repro.bench import model_cache
    from repro.faas import reset_id_counters

    model_cache.clear()
    reset_id_counters()
    gc.collect()


def run_repeat(
    name: str, seed: int, on_setup_done: Optional[Callable] = None
) -> Outcome:
    """Build the workload, time set-up and the window, check drain."""
    setup, window = WORKLOADS[name]
    reset_process_state()
    outcome = Outcome()
    start = perf_counter()
    state = setup(seed)
    opened = perf_counter()
    outcome.setup_s = opened - start
    if on_setup_done is not None:
        on_setup_done()
    window(state, outcome)
    outcome.window_wall_s = perf_counter() - opened
    terminal = outcome.completed + outcome.failed
    if terminal != outcome.submitted:
        outcome.check_failures.append(
            f"drain: {outcome.submitted} submitted but the completion "
            f"listener saw {terminal}"
        )
    outcome.extra["persistor.retries"] = state[0].persistor.stats.retries
    return outcome
