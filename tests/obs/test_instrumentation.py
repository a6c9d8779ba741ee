"""Instrumentation smoke tests: spans and registry on a live system."""

import numpy as np
import pytest

from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.faas.records import InvocationRequest
from repro.obs import (
    enable_tracing,
    merged_summary,
    NULL_TRACER,
    reset_tracing,
)
from repro.sim.latency import KB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


@pytest.fixture(autouse=True)
def _clean_tracing():
    reset_tracing()
    yield
    reset_tracing()


def build_system():
    system = OFCPlatform(
        platform_config=PlatformConfig(node_memory_mb=4096), seed=3
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def run_some_invocations(system, n=6):
    model = get_function_model("wand_sepia")
    system.platform.register_function(
        model.spec(tenant="t0", booked_mb=512.0)
    )
    corpus = MediaCorpus(np.random.default_rng(11))
    refs = []

    def writer():
        for i in range(3):
            img = corpus.image(64 * KB)
            yield from system.store.put(
                "inputs", f"img{i}", img, size=img.size,
                user_meta=img.features(),
            )
            refs.append(f"inputs/img{i}")

    system.kernel.run_until(system.kernel.process(writer()))
    rng = np.random.default_rng(5)
    records = []
    for i in range(n):
        records.append(
            system.invoke(
                InvocationRequest(
                    function="wand_sepia",
                    tenant="t0",
                    args=model.sample_args(rng),
                    input_ref=refs[i % len(refs)],
                )
            )
        )
    return records


def test_kernel_tracer_is_null_by_default():
    system = build_system()
    assert system.kernel.tracer is NULL_TRACER
    run_some_invocations(system, n=2)
    assert system.kernel.tracer.spans == []


def test_enabled_tracing_captures_invocation_lifecycle():
    enable_tracing()
    system = build_system()
    assert system.kernel.tracer is not NULL_TRACER

    records = run_some_invocations(system, n=6)
    assert all(r.status == "ok" for r in records)

    summary = merged_summary()
    assert summary["faas.invoke"]["count"] == 6
    assert summary["faas.execute"]["count"] >= 6
    assert summary["faas.compute"]["count"] >= 6
    # Every input upload and shadow write goes through the RSDS.
    assert summary["rsds.put"]["count"] >= 3
    # Invocation spans cover at least the compute time they contain.
    assert summary["faas.invoke"]["total_s"] >= summary["faas.compute"]["total_s"]

    spans = system.kernel.tracer.spans
    invoke_spans = [s for s in spans if s.name == "faas.invoke"]
    assert all(s.finished and s.labels["status"] == "ok"
               for s in invoke_spans)


def test_platform_obs_registry_snapshot():
    system = build_system()
    run_some_invocations(system, n=4)
    snap = system.obs.snapshot()
    collected = snap["collected"]
    rclib = collected["rclib"]
    assert rclib["hits_local"] + rclib["hits_remote"] + rclib["misses"] > 0
    assert "hit_ratio" in rclib
    assert "cache_size_final_bytes" in collected["ofc"]
    assert "cache_size_peak_bytes" in collected["ofc"]
    assert collected["invokers"]["nodes"] == len(system.platform.invokers)
    assert collected["table2"]


def test_traced_chaos_cell_matches_untraced():
    """Tracing observes the schedule without changing it: a seeded
    fault-injected cell gives identical results traced and untraced,
    and the traced run records process spans."""
    from dataclasses import asdict

    from repro.bench.chaos import ChaosCell, run_chaos_cell
    from repro.obs import active_tracers

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
    untraced = asdict(run_chaos_cell(cell))
    enable_tracing()
    traced = asdict(run_chaos_cell(cell))
    assert traced == untraced
    assert traced["ops"] > 0
    assert traced["crashes"] > 0 and traced["episodes"] > 0
    (tracer,) = active_tracers()
    assert tracer.count("sim.process") > 0
