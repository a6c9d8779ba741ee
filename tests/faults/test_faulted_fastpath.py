"""Bit-identical fast vs generic dispatch under fault injection.

Fault-injected kernels keep the generated dispatch loop they were
built with.  These tests are the acceptance evidence: the checked-in
minimized chaos reproducers and a fixed-seed chaos cell must produce
*equal* results — every recorded data-plane op, every counter, zero
divergence — with the fast path on and off.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.chaos import ChaosCell, run_chaos_cell
from repro.sim import fastpath

FAULT_DIR = Path(__file__).resolve().parents[2] / "examples" / "faults"

REPRODUCERS = sorted(FAULT_DIR.glob("chaos_*.json"))


@pytest.fixture
def restore_fastpath():
    original = fastpath.enabled()
    yield
    fastpath.set_enabled(original)


def _cell_from_reproducer(path: Path) -> ChaosCell:
    doc = json.loads(path.read_text())
    meta = doc["chaos"]
    return ChaosCell(
        backend=meta["backend"],
        intensity=meta["intensity"],
        quota_policy=meta["quota_policy"],
        n_tenants=meta["n_tenants"],
        mean_interval_s=meta["mean_interval_s"],
        duration_s=meta["duration_s"],
        seed=meta["seed"],
        warmup_s=meta["warmup_s"],
        schedule={"events": doc["events"]},
        config_overrides=meta.get("config_overrides"),
    )


def _run_both(cell: ChaosCell):
    results = []
    for enabled in (True, False):
        fastpath.set_enabled(enabled)
        results.append(asdict(run_chaos_cell(cell)))
    return results


@pytest.mark.slow
@pytest.mark.parametrize(
    "reproducer", REPRODUCERS, ids=[p.stem for p in REPRODUCERS]
)
def test_reproducer_replay_parity(reproducer, restore_fastpath):
    """Replaying a minimized reproducer is bit-identical on/off."""
    assert REPRODUCERS, "no checked-in reproducers found"
    fast, generic = _run_both(_cell_from_reproducer(reproducer))
    assert fast == generic


@pytest.mark.slow
def test_fixed_seed_chaos_cell_history_parity(restore_fastpath):
    """A fixed-seed chaos cell (generated schedule, crashes + episodes)
    produces an identical per-op history under both dispatchers — not
    just equal summary counters."""
    from repro.bench import chaos as chaos_mod
    from repro.bench.envs import build_ofc_env
    from repro.checks import HistoryRecorder, check_history
    from repro.core.config import OFCConfig
    from repro.faas import reset_id_counters
    from repro.faults import FaultInjector
    from repro.faults.chaos import chaos_schedule, chaos_targets
    from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

    def run_once(enabled):
        fastpath.set_enabled(enabled)
        reset_id_counters()
        config = OFCConfig(cache_backend="ofc", tenant_quota_policy="none")
        ofc = build_ofc_env(
            nodes=chaos_mod.CELL_NODES,
            node_mb=chaos_mod.CELL_NODE_MB,
            seed=11,
            config=config,
            keepalive_s=chaos_mod.CELL_KEEPALIVE_S,
        )
        recorder = HistoryRecorder(ofc)
        workload = TenantWorkloadConfig(
            n_tenants=24, mean_interval_s=6.0, seed=11
        )
        engine = TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload)
        engine.run(10.0)  # warmup so chaos_targets sees placements
        schedule = chaos_schedule(
            11,
            30.0,
            ofc.backend.node_ids,
            intensity="medium",
            targets=chaos_targets(ofc.backend),
            start_at=ofc.kernel.now,
        )
        injector = FaultInjector(ofc, schedule)
        assert ofc.kernel.dispatch_variant == ("fast" if enabled else "generic")
        injector.start()
        stats = engine.run(30.0)
        settle = max(ofc.kernel.now, schedule.duration) + 20.0
        ofc.kernel.run(until=settle)
        ofc.kernel.run_until(ofc.kernel.process(ofc.backend.repair()))
        violations = check_history(recorder.ops, ofc)
        # Everything observable except payload object identity (payload
        # references are per-run Python objects).
        history = [
            (
                op.seq,
                op.op,
                op.key,
                op.t_start,
                op.t_ack,
                op.status,
                op.error,
                op.size,
                op.version,
                op.store_version,
                op.payload_missing,
                op.tenant,
                op.request_id,
                op.pipeline_id,
                op.final_stage,
                op.intermediate,
            )
            for op in recorder.ops
        ]
        return {
            "history": history,
            "snapshot": recorder.snapshot(),
            "violations": len(violations),
            "submitted": stats.submitted,
            "completed": stats.completed,
            "failed": stats.failed,
            "injector": injector.snapshot(),
            "final_now": ofc.kernel.now,
        }

    fast = run_once(True)
    generic = run_once(False)
    assert fast == generic
    assert fast["history"], "cell recorded no data-plane ops"
    assert fast["violations"] == 0
