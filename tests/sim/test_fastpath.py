"""Dispatch-order parity for the generated kernel fast path.

Every test drives the same seeded scenario through a kernel with the
generated dispatch installed and one built with the fast path disabled
(the generic reference loop), and requires the observable traces —
(time, tag) logs, return values, final clocks, process spans — to be
*equal*, not approximately equal.  This is the acceptance bar the
bench-gate CI job enforces at system scale; here the coverage is the
kernel patterns themselves (sleep chains, same-instant ties, zero
delays, events, interrupts, run-until, limits, call_later, tracing).
"""

import pytest

from repro.sim import fastpath
from repro.sim.kernel import Interrupt, Kernel, SimulationError


@pytest.fixture
def both_kernels():
    """Yield a factory for (fast, generic) kernel pairs."""
    original = fastpath.enabled()

    def make():
        fastpath.set_enabled(True)
        fast = Kernel()
        fastpath.set_enabled(False)
        generic = Kernel()
        assert fast.dispatch_variant == "fast", "fast path not installed"
        assert generic.dispatch_variant == "generic"
        return fast, generic

    yield make
    fastpath.set_enabled(original)


def _run_scenario(kernel, scenario):
    log = []
    scenario(kernel, log)
    return log


def _assert_parity(make, scenario, runner=None):
    traces = []
    for kernel in make():
        log = []
        result = scenario(kernel, log)
        if runner is not None:
            result = runner(kernel, result, log)
        traces.append((log, result, kernel.now))
    assert traces[0] == traces[1]
    return traces[0]


# -- scenarios --------------------------------------------------------------


def test_sleep_chain_parity(both_kernels):
    def scenario(k, log):
        def sleeper(name, delay, reps):
            for i in range(reps):
                yield delay
                log.append((k.now, name, i))

        for i, delay in enumerate([0.5, 0.75, 1.0, 1.25]):
            k.process(sleeper(f"s{i}", delay, 10))
        k.run()

    _assert_parity(both_kernels, scenario)


def test_same_instant_tie_order_parity(both_kernels):
    def scenario(k, log):
        def worker(name):
            yield 1.0  # all wake at the same instant: seq order decides
            log.append((k.now, name))
            yield 0.0  # zero-delay: FIFO at the same instant
            log.append((k.now, name, "z"))

        for i in range(6):
            k.process(worker(f"w{i}"))
        k.run()

    log = _assert_parity(both_kernels, scenario)[0]
    names = [entry[1] for entry in log if len(entry) == 2]
    assert names == [f"w{i}" for i in range(6)]  # spawn order preserved


def test_event_blocking_and_values_parity(both_kernels):
    def scenario(k, log):
        gate = k.event()

        def waiter(name):
            value = yield gate
            log.append((k.now, name, value))
            got = yield k.timeout(0.5, value=name)
            log.append((k.now, name, got))

        def opener():
            yield 2.0
            gate.succeed("open")

        for i in range(3):
            k.process(waiter(f"w{i}"))
        k.process(opener())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_all_of_any_of_parity(both_kernels):
    def scenario(k, log):
        def combo():
            yield k.all_of([k.timeout(1.0), k.timeout(3.0)])
            log.append((k.now, "allof"))
            yield k.any_of([k.timeout(10.0), k.timeout(0.5)])
            log.append((k.now, "anyof"))

        def noise():
            for _ in range(20):
                yield 0.3
                log.append((k.now, "n"))

        k.process(combo())
        k.process(noise())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_failed_event_single_waiter_parity(both_kernels):
    """The fused single-callback arm must deliver failures by throw()."""

    def scenario(k, log):
        gate = k.event()

        def waiter():
            try:
                yield gate
                log.append((k.now, "unreachable"))
            except RuntimeError as exc:
                log.append((k.now, "caught", str(exc)))
                yield 0.5
                log.append((k.now, "after"))

        def failer():
            yield 1.0
            gate.fail(RuntimeError("boom"))

        k.process(waiter())
        k.process(failer())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_fan_in_with_failures_parity(both_kernels):
    """AllOf/AnyOf delivery (the list arm) with failing members."""

    def scenario(k, log):
        def fail_after(delay):
            yield delay
            raise ValueError(f"dead@{delay}")

        def combo():
            procs = [k.process(fail_after(2.0))]
            try:
                yield k.all_of([k.timeout(1.0), procs[0]])
            except ValueError as exc:
                log.append((k.now, "allof-failed", str(exc)))
            first = yield k.any_of([k.timeout(0.5), k.timeout(9.0)])
            log.append((k.now, "anyof", len(first)))

        def noise():
            for _ in range(12):
                yield 0.4
                log.append((k.now, "n"))

        k.process(combo())
        k.process(noise())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_late_wait_redelivery_parity(both_kernels):
    """Waiting on an event that already fired (redelivery scheduling)."""

    def scenario(k, log):
        gate = k.event()

        def early():
            value = yield gate
            log.append((k.now, "early", value))

        def late():
            yield 3.0  # gate fired at t=1; wait on it afterwards
            value = yield gate
            log.append((k.now, "late", value))

        def opener():
            yield 1.0
            gate.succeed("open")

        k.process(early())
        k.process(late())
        k.process(opener())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_run_until_awaited_event_delivery_parity(both_kernels):
    """run_until's target guard: delivery to the awaited event must
    stop the loop at the same instant with identical leftovers, even
    when its waiter then sleeps past an empty horizon (where direct
    resume would otherwise carry the clock on)."""

    def scenario(k, log):
        gate = k.event()

        def follower():
            value = yield gate
            log.append((k.now, "follower", value))
            yield 50.0
            log.append((k.now, "follower-late"))

        def noise():
            for _ in range(3):
                yield 0.7
                log.append((k.now, "n"))

        k.call_later(lambda: 2.5, lambda _e: gate.succeed("done"))
        k.process(follower())
        k.process(noise())
        value = k.run_until(gate)
        log.append((k.now, "until", value))
        k.run()  # drain leftovers identically

    _assert_parity(both_kernels, scenario)


def test_interrupt_mid_sleep_parity(both_kernels):
    def scenario(k, log):
        def sleeper():
            try:
                yield 100.0
                log.append((k.now, "overslept"))
            except Interrupt as exc:
                log.append((k.now, "interrupted", str(exc.cause)))
                yield 1.0
                log.append((k.now, "resumed"))

        target = k.process(sleeper())

        def interrupter():
            yield 2.0
            target.interrupt(cause="wake-up")

        k.process(interrupter())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_process_join_and_return_value_parity(both_kernels):
    def scenario(k, log):
        def child(n):
            yield 0.25 * n
            return n * n

        def parent():
            total = 0
            for n in range(1, 5):
                total += yield k.process(child(n))
            log.append((k.now, "total", total))
            return total

        result = k.run_process(parent())
        log.append(("result", result))

    _assert_parity(both_kernels, scenario)


def test_run_until_limit_boundary_parity(both_kernels):
    def scenario(k, log):
        def ticker():
            while True:
                yield 1.0
                log.append(k.now)

        k.process(ticker())
        k.run(until=5.0)  # boundary: wake at exactly 5.0 must fire
        log.append(("clock", k.now))
        k.run(until=7.5)  # resume drains leftovers, then advances
        log.append(("clock", k.now))

    _assert_parity(both_kernels, scenario)


def test_run_until_event_parity(both_kernels):
    def scenario(k, log):
        def late():
            yield 4.0
            log.append((k.now, "late"))
            return "done"

        def noise():
            for _ in range(30):
                yield 0.9
                log.append((k.now, "n"))

        proc = k.process(late())
        k.process(noise())
        value = k.run_until(proc)
        log.append((value, k.now))
        k.run()  # drain the leftover noise identically

    _assert_parity(both_kernels, scenario)


def test_mixed_scenario_parity(both_kernels):
    """Sleeps, shared-event fan-out, timeouts and process joins
    interleaved in one schedule."""

    def scenario(k, log):
        gate = k.event()

        def waiter(name):
            value = yield gate
            log.append((k.now, name, value))
            yield k.timeout(0.25)
            log.append((k.now, name, "done"))

        def sleeper():
            for i in range(8):
                yield 0.4
                log.append((k.now, "tick", i))

        def opener():
            yield 1.1
            gate.succeed("open")

        def child(n):
            yield 0.2 * n
            return n

        def parent():
            total = 0
            for n in range(1, 4):
                total += yield k.process(child(n))
            log.append((k.now, "total", total))

        for i in range(3):
            k.process(waiter(f"w{i}"))
        k.process(sleeper())
        k.process(opener())
        k.process(parent())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_traced_process_spans_parity(both_kernels):
    """Under tracing both loops must resume processes identically and
    close every ``sim.process`` span at the termination instant with
    the right status: a return, an unhandled interrupt and a raise."""
    from repro.obs import trace as trace_mod

    def scenario(k, log):
        def returner():
            yield 1.5
            log.append((k.now, "returned"))
            return "r"

        def victim():
            yield 100.0
            log.append((k.now, "overslept"))

        def raiser():
            yield 2.5
            raise ValueError("boom")

        def watcher(target, failing):
            yield 2.0
            target.interrupt(cause="stop")
            try:
                yield target
            except Interrupt as exc:
                log.append((k.now, "victim-interrupted", exc.cause))
            try:
                yield failing
            except ValueError as exc:
                log.append((k.now, "raiser-failed", str(exc)))

        value = k.run_until(k.process(returner(), name="returner"))
        log.append((k.now, "run_until", value))
        target = k.process(victim(), name="victim")
        failing = k.process(raiser(), name="raiser")
        k.process(watcher(target, failing), name="watcher")
        k.run()

    def process_spans(k, _result, _log):
        return sorted(
            (s.labels["process"], s.start, s.end, s.labels["status"])
            for s in k.tracer.spans
            if s.name == "sim.process"
        )

    was_enabled = trace_mod.tracing_enabled()
    trace_mod.enable_tracing()
    try:
        spans = _assert_parity(both_kernels, scenario, process_spans)[1]
    finally:
        if not was_enabled:
            trace_mod.disable_tracing()
    assert spans == [
        ("raiser", 1.5, 4.0, "failed"),
        ("returner", 0.0, 1.5, "ok"),
        ("victim", 1.5, 3.5, "interrupted"),
        ("watcher", 1.5, 4.0, "ok"),
    ]


def test_negative_delay_raises_on_both(both_kernels):
    for kernel in both_kernels():
        def bad():
            yield -1.0

        kernel.process(bad())
        with pytest.raises(SimulationError, match="negative sleep delay"):
            kernel.run()


def test_non_event_yield_raises_on_both(both_kernels):
    for kernel in both_kernels():
        def bad():
            yield "nonsense"

        kernel.process(bad(), name="bad")
        with pytest.raises(SimulationError, match="expected an Event"):
            kernel.run()


def test_deadlock_detection_parity(both_kernels):
    for kernel in both_kernels():
        def stuck():
            yield kernel.event()  # never succeeds

        with pytest.raises(SimulationError, match="deadlocked"):
            kernel.run_process(stuck())


def test_process_failure_propagates_on_both(both_kernels):
    for kernel in both_kernels():
        def boom():
            yield 1.0
            raise ValueError("kaboom")

        kernel.process(boom())
        with pytest.raises(ValueError, match="kaboom"):
            kernel.run()


def test_call_later_is_slot_identical_to_a_process(both_kernels):
    """call_later must reproduce the discarded-handle process schedule."""

    def scenario_process(k, log):
        def nap():
            yield 2.5
            log.append((k.now, "fired"))

        def tie():
            yield 2.5
            log.append((k.now, "tie"))

        k.process(nap())
        k.process(tie())
        k.run()

    def scenario_call_later(k, log):
        k.call_later(lambda: 2.5, lambda _e: log.append((k.now, "fired")))

        def tie():
            yield 2.5
            log.append((k.now, "tie"))

        k.process(tie())
        k.run()

    for make in (both_kernels,):
        fast, generic = make()
        a = _run_scenario(fast, scenario_call_later)
        b = _run_scenario(generic, scenario_process)
        assert a == b  # same instants, same tie order


def test_call_later_zero_delay_fires_this_instant(both_kernels):
    for kernel in both_kernels():
        log = []

        def spawner():
            yield 1.0
            kernel.call_later(lambda: 0.0, lambda _e: log.append(kernel.now))

        kernel.process(spawner())
        kernel.run()
        assert log == [1.0]


# -- variant selection ------------------------------------------------------


def test_knob_disables_install():
    original = fastpath.enabled()
    try:
        fastpath.set_enabled(False)
        k = Kernel()
        assert k._fast_run is None and k._fast_run_until is None
        fastpath.set_enabled(True)
        k = Kernel()
        assert k._fast_run is not None and k._fast_run_until is not None
    finally:
        fastpath.set_enabled(original)


def test_generic_oracle_kernel_runs():
    """A kernel built with the fast path disabled is the generic oracle:
    nothing generated is installed and the reference loop runs alone."""
    original = fastpath.enabled()
    try:
        fastpath.set_enabled(False)
        k = Kernel()
        assert k.dispatch_variant == "generic"
        assert k._fast_run is None and k._fast_run_until is None
        ticks = []

        def ticker():
            for _ in range(3):
                yield 1.0
                ticks.append(k.now)

        k.run_process(ticker())
        assert ticks == [1.0, 2.0, 3.0]
    finally:
        fastpath.set_enabled(original)


def test_traced_kernels_install_generated_loop():
    from repro.obs import trace as trace_mod

    original = fastpath.enabled()
    was_enabled = trace_mod.tracing_enabled()
    try:
        fastpath.set_enabled(True)
        trace_mod.enable_tracing()
        k = Kernel()
        assert k.tracer.enabled
        assert k.dispatch_variant == "fast"
        assert k._fast_run is not None and k._fast_run_until is not None
    finally:
        if not was_enabled:
            trace_mod.disable_tracing()
        fastpath.set_enabled(original)


def test_fault_injector_leaves_dispatch_variant_unchanged():
    """Fault-injected kernels keep the loop they were built with: the
    fault state lives on the components, not the kernel."""
    from repro.core.ofc import OFCPlatform
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    original = fastpath.enabled()
    try:
        fastpath.set_enabled(True)
        ofc = OFCPlatform(seed=1)
        assert ofc.kernel.dispatch_variant == "fast"
        run, run_until = ofc.kernel._fast_run, ofc.kernel._fast_run_until
        FaultInjector(ofc, FaultSchedule(events=[]))
        assert ofc.kernel.dispatch_variant == "fast"
        assert ofc.kernel._fast_run is run
        assert ofc.kernel._fast_run_until is run_until
    finally:
        fastpath.set_enabled(original)


def test_fault_injector_respects_global_opt_out():
    """With the fast path globally disabled (REPRO_SIM_FASTPATH=0 /
    set_enabled(False)), fault injection falls back to the generic loop."""
    from repro.core.ofc import OFCPlatform
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    original = fastpath.enabled()
    try:
        fastpath.set_enabled(False)
        ofc = OFCPlatform(seed=1)
        FaultInjector(ofc, FaultSchedule(events=[]))
        assert ofc.kernel.dispatch_variant == "generic"
        assert ofc.kernel._fast_run is None
    finally:
        fastpath.set_enabled(original)


def test_generated_source_compiles_cleanly():
    import ast

    src = fastpath.dispatch_source()
    tree = ast.parse(src)
    names = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert names == ["make_run", "make_run_until"]
