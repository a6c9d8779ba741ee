"""The span wrapper must be invisible to the simulation it times."""

import time

import pytest
from layertrace import LayerTrace

from repro.sim import Interrupt, Kernel


class Worker:
    """A generator-method layer: sleeps, survives one interrupt."""

    def __init__(self, kernel, log):
        self.kernel = kernel
        self.log = log

    def work(self, naps):
        for nap in naps:
            try:
                yield nap
                self.log.append(("woke", self.kernel.now))
            except Interrupt as interrupt:
                self.log.append(("interrupted", self.kernel.now, interrupt.cause))
        return "done"


def _interrupted_run(wrap):
    kernel = Kernel()
    log = []
    worker = Worker(kernel, log)
    trace = LayerTrace()
    trace.kernel = kernel
    work = trace.wrap("layer.work", Worker.work) if wrap else Worker.work
    proc = kernel.process(work(worker, [5.0, 5.0, 5.0]))

    def interrupter():
        yield 7.0
        proc.interrupt("poke")

    kernel.process(interrupter())
    kernel.run()
    return proc.value, log, kernel.now, trace.span_stats("layer.work")


def test_wrapper_is_transparent_under_interrupt():
    plain = _interrupted_run(wrap=False)
    traced = _interrupted_run(wrap=True)
    assert traced[:3] == plain[:3]
    assert ("interrupted", 7.0, "poke") in traced[1]
    stats = traced[3]
    assert stats.calls == 1 and stats.failed == 0
    assert stats.sim_s == plain[2]


def _catching():
    received = []
    try:
        yield "first"
    except ValueError as exc:
        received.append(exc)
    value = yield "second"
    received.append(value)
    return received


def test_thrown_exception_is_forwarded_and_handled_inside():
    trace = LayerTrace()
    gen = trace.wrap("layer.catch", _catching)()
    assert next(gen) == "first"
    error = ValueError("boom")
    assert gen.throw(error) == "second"
    with pytest.raises(StopIteration) as stop:
        gen.send(42)
    assert stop.value.value == [error, 42]
    stats = trace.span_stats("layer.catch")
    assert stats.calls == 1 and stats.failed == 0


def test_unhandled_thrown_exception_escapes_and_counts_as_failed():
    def body():
        yield 1
        yield 2

    trace = LayerTrace()
    gen = trace.wrap("layer.body", body)()
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("lost"))
    assert trace.span_stats("layer.body").failed == 1


def test_close_reaches_the_wrapped_generator():
    cleaned = []

    def body():
        try:
            yield 1
            yield 2
        finally:
            cleaned.append(True)

    trace = LayerTrace()
    gen = trace.wrap("layer.body", body)()
    next(gen)
    gen.close()
    assert cleaned == [True]
    assert trace.span_stats("layer.body").failed == 0
    assert not trace._stack


def test_self_time_is_never_negative_under_nesting():
    trace = LayerTrace()

    def leaf():
        time.sleep(0.002)

    leaf = trace.wrap("leaf", leaf)

    def inner():
        for _ in range(3):
            leaf()
            yield
        leaf()

    inner = trace.wrap("inner", inner)

    def outer():
        yield from inner()
        leaf()

    outer = trace.wrap("outer", outer)
    for _ in range(5):
        for _ in outer():
            pass
    for name in ("outer", "inner", "leaf"):
        stats = trace.span_stats(name)
        assert stats.self_ns >= 0
        assert stats.total_ns >= stats.self_ns
    outer_stats = trace.span_stats("outer")
    inner_stats = trace.span_stats("inner")
    leaf_stats = trace.span_stats("leaf")
    assert leaf_stats.calls == 25
    # Every leaf call sits inside inner or outer, so their self times
    # exclude it: the three self times add up to outer's total.
    assert (
        outer_stats.self_ns + inner_stats.self_ns + leaf_stats.self_ns
        == outer_stats.total_ns
    )


def test_nested_kernel_run_is_the_callers_own_work():
    trace = LayerTrace().install()
    try:
        kernel = Kernel()

        def nap():
            yield 1.0

        def caller():
            kernel.run_until(kernel.process(nap()))

        trace.wrap("caller", caller)()
        kernel.process(nap())
        kernel.run()
    finally:
        trace.uninstall()
    assert trace.span_stats("sim.run_until").calls == 0
    assert trace.span_stats("sim.run").calls == 1
    assert trace.span_stats("sim.run").sim_s == 1.0


def test_uninstall_restores_every_patched_function():
    from repro.faas.platform import FaaSPlatform

    original = FaaSPlatform.__dict__["invoke"]
    init = Kernel.__dict__["__init__"]
    trace = LayerTrace().install()
    assert FaaSPlatform.__dict__["invoke"] is not original
    trace.uninstall()
    assert FaaSPlatform.__dict__["invoke"] is original
    assert Kernel.__dict__["__init__"] is init
