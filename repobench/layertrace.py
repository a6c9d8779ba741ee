"""Outside-in per-layer tracing: spans around each layer's public calls.

:class:`LayerTrace` patches the named functions on their classes or
modules (nothing under ``src/`` changes) and times every call:

* ``calls`` — calls entered; ``failed`` — calls that raised (a closed
  generator is not a failure);
* ``self_s`` — host time inside the call minus the host time of the
  traced calls nested in it;
* ``total_s`` — host time inside the call, nested calls included;
* ``sim_s`` — simulated time from the call to its return;
* ``none_results`` — completed calls that returned ``None``.

A generator function is timed per resumption by a wrapper generator
that forwards ``send``, ``throw`` and ``close``, so the simulated
schedule is unchanged: the kernel sees the same yields in the same
order.  Resumptions nest like calls (an outer generator resumes an
inner one only from inside its own resumption), so one stack of open
segments gives exact self times.  Times are integer nanoseconds while
accumulating, so a parent's self time cannot go negative by rounding.

Patch before the deployment is built: some components capture bound
methods at construction (the platform's sizing policy, the trainer's
completion listener, the cache agent's capacity hook).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: Span name -> ``module:Class.method`` or ``module:function``.
LAYER_CALLS: Tuple[Tuple[str, str], ...] = (
    ("sim.run", "repro.sim.kernel:Kernel.run"),
    ("sim.run_until", "repro.sim.kernel:Kernel.run_until"),
    ("workloads.prepare", "repro.workloads.faasload:FaaSLoad.prepare"),
    ("workloads.prepare", "repro.workloads.tenants:TenantLoadEngine.prepare"),
    ("faas.invoke", "repro.faas.platform:FaaSPlatform.invoke"),
    ("faas.execute", "repro.faas.invoker:Invoker.execute"),
    ("faas.create_sandbox", "repro.faas.invoker:Invoker.create_sandbox"),
    ("predictor.sizing", "repro.core.predictor:Predictor.sizing_policy"),
    ("trainer.on_completion", "repro.core.trainer:ModelTrainer.on_completion"),
    ("trainer.retrain", "repro.core.trainer:ModelTrainer.retrain"),
    ("trainer.pretrain", "repro.bench.envs:pretrain_function"),
    ("ml.fit", "repro.ml.tree:J48Classifier.fit"),
    ("proxy.read", "repro.core.proxy:RcLibClient.read"),
    ("proxy.write", "repro.core.proxy:RcLibClient.write"),
    ("proxy.delete", "repro.core.proxy:RcLibClient.delete"),
    (
        "cache_agent.ensure_capacity",
        "repro.core.cache_agent:CacheAgent.ensure_capacity",
    ),
    ("kvcache.put", "repro.kvcache.cluster:CacheCluster.put"),
    ("kvcache.get", "repro.kvcache.cluster:CacheCluster.get"),
    (
        "kvcache.migrate_master",
        "repro.kvcache.cluster:CacheCluster.migrate_master",
    ),
    ("kvcache.scale_down", "repro.kvcache.cluster:CacheCluster.scale_down"),
    ("kvcache.recover", "repro.kvcache.cluster:CacheCluster.recover"),
    ("kvcache.repair", "repro.kvcache.cluster:CacheCluster.repair"),
    ("storage.get", "repro.storage.object_store:ObjectStore.get"),
    ("storage.put", "repro.storage.object_store:ObjectStore.put"),
    ("persistor.schedule", "repro.core.persistor:PersistorService.schedule"),
)


#: Spans opened only when no other span is open: a kernel run nested
#: in a traced call (e.g. the blocking run inside ``prepare``) is that
#: call's own work, so ``sim.self_s`` keeps to the top-level dispatch.
OUTERMOST = frozenset({"sim.run", "sim.run_until"})


class SpanStats:
    """Accumulated counters of one span name."""

    __slots__ = ("calls", "failed", "none_results", "self_ns", "total_ns", "sim_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.none_results = 0
        self.self_ns = 0
        self.total_ns = 0
        self.sim_s = 0.0

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    def ok_ratio(self, none_is_failure: bool = False) -> float:
        """Share of calls that returned (and, optionally, not ``None``)."""
        if not self.calls:
            return 0.0
        bad = self.failed + (self.none_results if none_is_failure else 0)
        return (self.calls - bad) / self.calls


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTrace:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        #: Open segments: ``[start_ns, nested_ns]`` per traced frame.
        self._stack: List[List[int]] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Most recently built kernel: the clock ``sim_s`` reads.
        self.kernel = None

    # -- recording ------------------------------------------------------

    def _now(self) -> float:
        kernel = self.kernel
        return kernel.now if kernel is not None else 0.0

    def _enter(self) -> None:
        self._stack.append([perf_counter_ns(), 0])

    def _leave(self, stats: SpanStats) -> None:
        start, nested = self._stack.pop()
        elapsed = perf_counter_ns() - start
        stats.self_ns += elapsed - nested
        stats.total_ns += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def span_stats(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def wrap(self, name: str, fn):
        """``fn`` timed under span ``name`` (generator functions per
        resumption)."""
        stats = self.span_stats(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return self._resume_loop(stats, fn(*args, **kwargs))

            return traced_generator

        outermost = name in OUTERMOST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self._stack:
                return fn(*args, **kwargs)
            stats.calls += 1
            sim0 = self._now()
            self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                self._leave(stats)
                stats.sim_s += self._now() - sim0
            if result is None:
                stats.none_results += 1
            return result

        return traced

    def _resume_loop(self, stats: SpanStats, gen):
        """Drive ``gen`` transparently, timing each resumption."""
        stats.calls += 1
        sim0 = self._now()
        value = None
        thrown = None
        while True:
            self._enter()
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    item, thrown = gen.throw(thrown), None
            except StopIteration as stop:
                self._leave(stats)
                stats.sim_s += self._now() - sim0
                if stop.value is None:
                    stats.none_results += 1
                return stop.value
            except GeneratorExit:
                self._leave(stats)
                raise
            except BaseException:
                self._leave(stats)
                stats.failed += 1
                stats.sim_s += self._now() - sim0
                raise
            self._leave(stats)
            try:
                value = yield item
            except GeneratorExit:
                self._enter()
                try:
                    gen.close()
                finally:
                    self._leave(stats)
                raise
            except BaseException as exc:  # forwarded, not swallowed
                value, thrown = None, exc

    # -- patching -------------------------------------------------------

    def install(self) -> "LayerTrace":
        from repro.sim.kernel import Kernel

        for name, target in LAYER_CALLS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        init = Kernel.__init__
        trace = self

        @functools.wraps(init)
        def kernel_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            trace.kernel = kernel

        self._patched.append((Kernel, "__init__", init))
        Kernel.__init__ = kernel_init
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
