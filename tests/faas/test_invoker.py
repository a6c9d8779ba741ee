"""Unit tests for Invoker memory accounting and sandbox management."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.errors import ResourceExhausted
from repro.faas.invoker import Invoker
from repro.faas.registry import FunctionSpec
from repro.faas.sandbox import SandboxState
from repro.sim import Kernel
from repro.sim.latency import MB


def make_invoker(total_mb=2048.0, keepalive=600.0):
    return Invoker(Kernel(), "w0", total_mb, keepalive_s=keepalive)


def spec(name="fn", tenant="t"):
    def body(ctx):
        return
        yield  # pragma: no cover

    return FunctionSpec(name=name, tenant=tenant, body=body)


def run(invoker, gen):
    return invoker.kernel.run_until(invoker.kernel.process(gen))


def test_memory_accounting_starts_empty():
    invoker = make_invoker()
    assert invoker.committed_bytes == 0
    assert invoker.available_bytes == 2048 * MB


def test_create_sandbox_commits_memory():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 512.0))
    assert invoker.committed_bytes == 512 * MB
    assert invoker.available_bytes == 1536 * MB
    assert sandbox.state == SandboxState.IDLE
    assert invoker.stats.cold_starts == 1


def test_create_sandbox_without_room_raises():
    invoker = make_invoker(total_mb=256.0)
    with pytest.raises(ResourceExhausted):
        run(invoker, invoker.create_sandbox(spec(), 512.0))
    # The failed reservation was rolled back.
    assert invoker.committed_bytes == 0
    assert invoker.stats.capacity_rejections == 1


def test_cache_and_slack_reduce_availability():
    invoker = make_invoker()
    invoker.cache_reserved_bytes = 1024 * MB
    invoker.slack_bytes = 100 * MB
    assert invoker.available_bytes == 924 * MB


def test_ensure_capacity_hook_invoked_on_pressure():
    invoker = make_invoker(total_mb=1024.0)
    invoker.cache_reserved_bytes = 900 * MB
    calls = []

    def hook(inv):
        shortfall = -inv.available_bytes
        calls.append(shortfall)
        inv.cache_reserved_bytes -= shortfall
        return True
        yield  # pragma: no cover

    invoker.ensure_capacity = hook
    run(invoker, invoker.create_sandbox(spec(), 512.0))
    assert calls == [388 * MB]
    assert invoker.available_bytes == 0


def test_resize_sandbox_reverts_on_failure():
    invoker = make_invoker(total_mb=512.0)
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    with pytest.raises(ResourceExhausted):
        run(invoker, invoker.resize_sandbox(sandbox, 1024.0))
    assert sandbox.memory_limit_mb == 256.0
    assert invoker.committed_bytes == sandbox.memory_bytes == 256 * MB


def test_resize_sandbox_shrink_never_blocks():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 512.0))
    run(invoker, invoker.resize_sandbox(sandbox, 128.0))
    assert sandbox.memory_limit_mb == 128.0
    assert invoker.committed_bytes == 128 * MB


def test_listeners_receive_lifecycle_events():
    invoker = make_invoker()
    events = []
    invoker.listeners.append(lambda event, sb: events.append(event))
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    run(invoker, invoker.resize_sandbox(sandbox, 300.0))
    invoker.destroy_sandbox(sandbox)
    assert events == ["created", "resized", "destroyed"]


def test_find_sandbox_prefers_closest_memory():
    invoker = make_invoker(total_mb=8192.0)
    small = run(invoker, invoker.create_sandbox(spec(), 128.0))
    large = run(invoker, invoker.create_sandbox(spec(), 1024.0))
    assert invoker.find_sandbox("t/fn", preferred_mb=1000.0) is large
    assert invoker.find_sandbox("t/fn", preferred_mb=100.0) is small


def test_find_sandbox_without_preference_takes_most_recent():
    invoker = make_invoker(total_mb=8192.0)
    first = run(invoker, invoker.create_sandbox(spec(), 256.0))
    kernel = invoker.kernel
    kernel.run(until=kernel.now + 10.0)
    second = run(invoker, invoker.create_sandbox(spec(), 256.0))
    assert invoker.find_sandbox("t/fn") is second
    assert first.idle  # untouched


def test_find_sandbox_ignores_other_functions():
    invoker = make_invoker()
    run(invoker, invoker.create_sandbox(spec(name="a"), 256.0))
    assert invoker.find_sandbox("t/b") is None


def test_reap_timer_respects_reuse():
    """A sandbox re-used before the keep-alive deadline survives."""
    kernel = Kernel()
    invoker = Invoker(kernel, "w0", 2048.0, keepalive_s=100.0)
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    sandbox.reserve()
    sandbox.begin_invocation(kernel.now)
    sandbox.end_invocation(kernel.now)
    invoker._schedule_reap(sandbox)
    # Re-use at t+50: bumps the generation, the old timer is stale.
    kernel.run(until=kernel.now + 50.0)
    sandbox.reserve()
    sandbox.begin_invocation(kernel.now)
    sandbox.end_invocation(kernel.now)
    invoker._schedule_reap(sandbox)
    kernel.run(until=kernel.now + 60.0)  # old timer fires here: no-op
    assert sandbox.alive
    kernel.run(until=kernel.now + 200.0)  # new timer reaps eventually
    assert not sandbox.alive
    assert invoker.stats.sandboxes_reaped == 1


def test_destroy_is_idempotent():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    invoker.destroy_sandbox(sandbox)
    invoker.destroy_sandbox(sandbox)
    assert invoker.stats.sandboxes_destroyed == 1


def refuse(inv):
    """An ensure-capacity hook that never frees anything."""
    return False
    yield  # pragma: no cover


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "grow", "shrink", "destroy", "reap"]),
            st.integers(0, 7),
            # Fractional MB sizes: limits are charged as ceil'd bytes.
            st.floats(0.5, 600.0, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_ledger_matches_indexed_sandboxes(steps):
    """``committed_bytes`` equals the bytes of the indexed sandboxes,
    all of them alive, after any create / grow (refused when the node
    is full) / shrink / destroy / reap sequence."""
    invoker = make_invoker(total_mb=1024.0, keepalive=5.0)
    invoker.ensure_capacity = refuse
    kernel = invoker.kernel
    created = []
    for op, pick, mb in steps:
        sandbox = created[pick % len(created)] if created else None
        if op == "create":
            try:
                created.append(
                    run(invoker, invoker.create_sandbox(spec(f"f{pick % 3}"), mb))
                )
            except ResourceExhausted:
                pass
        elif op in ("grow", "shrink") and sandbox is not None and sandbox.alive:
            limit = sandbox.memory_limit_mb
            if op == "grow":  # by up to twice the node's free memory
                target = limit + (invoker.available_bytes / MB + 1.0) * mb / 300.0
            else:
                target = limit * mb / 600.0
            try:
                run(invoker, invoker.resize_sandbox(sandbox, target))
            except ResourceExhausted:
                assert sandbox.memory_limit_mb == limit
        elif op == "destroy" and sandbox is not None:
            invoker.destroy_sandbox(sandbox)
        elif op == "reap" and sandbox is not None and sandbox.idle:
            invoker._schedule_reap(sandbox)
            kernel.run(until=kernel.now + invoker.keepalive_s + 1.0)
            assert not sandbox.alive
        indexed = [s for peers in invoker.sandboxes.values() for s in peers]
        assert all(s.alive for s in indexed)
        assert invoker.committed_bytes == sum(s.memory_bytes for s in indexed)
