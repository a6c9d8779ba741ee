"""Event loop and process machinery for the discrete-event simulator.

The design follows the classic process-interaction style: simulation
logic is written as Python generators that ``yield`` :class:`Event`
objects.  When a yielded event triggers, the process resumes with the
event's value; if the event failed, the exception is thrown into the
generator at the yield point.

Time is a float in **seconds**.  All ordering is deterministic: events
scheduled for the same instant fire in schedule order.

Hot-path notes
--------------
This module is the innermost loop of every experiment, so it trades a
little uniformity for speed:

* every event class uses ``__slots__`` and flattened constructors (no
  ``super().__init__`` chain on the per-occurrence path), and the
  constructors skip fields that are never read for that class (a
  :class:`Timeout` cannot fail, so ``defused`` is never consulted);
* ``callbacks`` stores ``None`` (no waiter), a single callable (the
  overwhelmingly common case: the one process blocked on the event) or
  a list (fan-in), avoiding a list allocation per event;
* occurrences scheduled for the *current* instant — process starts and
  terminations, ``succeed()``/``fail()``, zero timeouts — go to a FIFO
  deque (``_immediate``) instead of the heap: no entry tuple, no
  sequence number, O(1) at both ends.  Heap entries for a time ``T``
  are always older (pushed while the clock was still behind ``T``)
  than immediate entries created at ``T``, so draining heap-then-FIFO
  preserves the exact global schedule order;
* :meth:`Kernel.run` runs callbacks inline instead of dispatching
  through :meth:`Event._run_callbacks`, and every kernel installs the
  generated dispatch loop of :mod:`repro.sim.fastpath` (the generic
  ``run``/``run_until`` bodies below are the parity oracle, selected
  only when the fast path is globally disabled);
* tracing is decided once per kernel: :meth:`Kernel.process` builds a
  plain :class:`Process` (no span fields, no enabled-checks) unless the
  kernel was constructed with tracing on, in which case it builds
  :class:`_TracedProcess`, whose span closes from an ordinary
  termination callback — so traced kernels run the same loop;
* starting a process enqueues the process object itself instead of a
  bootstrap :class:`Event`, and waiting on an already-processed event
  reuses the event's own delivery slot (``_redeliver``) instead of
  allocating a proxy :class:`Event` where that preserves ordering.

All of this changes wall-clock behaviour only: the delivery order of
every occurrence is identical to the straightforward implementation,
so seeded simulations produce bit-identical results (CI enforces this
against ``scripts/bench_baseline.json``).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.obs.trace import tracer_for_clock

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules its callbacks to run at the current
    simulation time.

    ``callbacks`` is a compact union: ``None`` when nobody waits, a bare
    callable for a single waiter, or a list for several.  Register
    through :meth:`wait`; never append to it directly.
    """

    __slots__ = (
        "kernel",
        "callbacks",
        "_state",
        "_value",
        "_exception",
        "defused",
        "abandoned",
        "_redeliver",
    )

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.callbacks: Any = None
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: Set to True by a waiter (Process/AnyOf) that consumed the failure,
        #: suppressing the "unhandled failed event" error.
        self.defused = False
        #: Set to True when the last waiter was interrupted away while the
        #: event sat in a Resource/Store queue; the owning queue then drops
        #: the entry instead of triggering it (see sim/resources.py).
        self.abandoned = False
        # Late-wait delivery slot (see wait()).
        self._redeliver: Optional[List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event triggered successfully."""
        if self._state == _PENDING:
            raise SimulationError("event has not triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event has not triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.kernel._ipush(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        # (Re)initialize here so subclasses whose constructors skip the
        # field (Process) are safe to fail externally.
        self.defused = False
        self._state = _TRIGGERED
        self.kernel._ipush(self)
        return self

    def _run_callbacks(self) -> None:
        # NOTE: Kernel.run/run_until inline the _TRIGGERED arm of this
        # method; any change here must be mirrored there.
        if self._state == _PROCESSED:
            # Redelivery slot for a waiter that registered after this
            # event was processed (see wait()); the failure, if any, was
            # already surfaced or defused the first time around.  The
            # slot is read guarded: a stale queue entry for an already
            # terminated process (interrupted sleep) never had one.
            try:
                callbacks = self._redeliver
            except AttributeError:
                return
            self._redeliver = None
            if callbacks:
                for callback in callbacks:
                    callback(self)
            return
        self._state = _PROCESSED
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self._state != _PROCESSED:
            callbacks = self.callbacks
            if callbacks is None:
                self.callbacks = callback
            elif callbacks.__class__ is list:
                callbacks.append(callback)
            else:
                self.callbacks = [callbacks, callback]
            return
        # Already done: deliver on a fresh queue slot, preserving the
        # invariant that callbacks never run re-entrantly.  The slot is
        # read guarded because flattened constructors skip it.
        try:
            redeliver = self._redeliver
        except AttributeError:
            redeliver = None
        if redeliver is None:
            # The event carries its own redelivery slot: no proxy Event.
            self._redeliver = [callback]
            self.kernel._ipush(self)
        else:
            # A redelivery is already in flight; a second late waiter
            # needs its own, later queue slot to keep the historical
            # delivery order, so fall back to a proxy event.
            proxy = Event(self.kernel)
            proxy.callbacks = callback
            proxy._value = self._value
            proxy._exception = self._exception
            if self._exception is not None:
                proxy.defused = True  # the original already surfaced/defused
            proxy._state = _TRIGGERED
            self.kernel._ipush(proxy)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    A timeout is born triggered and can never fail, so the flattened
    constructor skips ``defused``/``abandoned``/``_redeliver`` (every
    read of those fields is either unreachable for timeouts or guarded).
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.kernel = kernel
        self.callbacks = None
        self._state = _TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        now = kernel._now
        when = now + delay
        if when == now:
            kernel._ipush(self)
        else:
            heappush(kernel._queue, (when, kernel._seqn(), self))


class Process(Event):
    """A running generator; also an event that triggers on termination.

    This is the no-trace fast path: it carries no span state and never
    consults the tracer.  Kernels with tracing enabled build
    :class:`_TracedProcess` instead (see :meth:`Kernel.process`).

    Besides events, a process may ``yield`` a bare ``float``/``int``
    delay — the fast sleep path.  The process itself is enqueued for
    the wake instant (no Timeout object, no callback registration),
    consuming exactly the sequence number the equivalent
    ``kernel.timeout(delay)`` would have, so the global schedule order
    is unchanged.  ``_wake`` carries the pending wake time (interrupt
    invalidates it so a stale heap entry is dropped on delivery).
    """

    __slots__ = (
        "generator",
        "name",
        "_target",
        "_started",
        "_wake",
        "_cb",
        "_send",
        "_throw",
    )

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        try:
            # Cached bound methods: saves an attribute lookup plus a
            # method-object allocation on every resume.
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError("Process requires a generator") from None
        self.kernel = kernel
        self.callbacks = None
        self._state = _PENDING
        self._value = None
        self._exception = None
        # defused is initialized by the failure-termination paths in
        # _resume — the only flows that ever read it for a process.
        self.generator = generator
        if name:
            self.name = name
        else:
            try:
                self.name = generator.__name__
            except AttributeError:
                self.name = "process"
        self._target: Optional[Event] = None
        self._started = False
        # The one bound resume callback this process ever registers;
        # binding it once avoids a method-object allocation per yield.
        self._cb = self._resume
        # Bootstrap: the process object itself takes the queue slot the
        # first resume fires from (no kick Event needed).
        kernel._ipush(self)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self._state != _PENDING:
            return
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            removed = False
            if callbacks is self._cb:
                target.callbacks = None
                removed = True
            elif callbacks.__class__ is list:
                try:
                    callbacks.remove(self._cb)
                    removed = True
                except ValueError:
                    pass
            if removed and not target.callbacks and target._state == _PENDING:
                # Nobody is listening any more: let owning queues
                # (Resource/Store) drop the entry instead of
                # granting/consuming on behalf of a dead waiter.
                target.abandoned = True
            self._target = None
        # Invalidate any pending sleep so its queue entry goes stale.
        self._wake = -1.0
        kick = Event(self.kernel)
        kick._exception = Interrupt(cause)
        kick.defused = True
        kick._state = _TRIGGERED
        kick.callbacks = self._cb
        self.kernel._ipush(kick)

    def _run_callbacks(self) -> None:
        if self._state == _PENDING:
            # A pending process on the queue is either its bootstrap
            # slot or a sleep wake (stale if the sleep was interrupted).
            if self._started:
                if self._wake == self.kernel._now:
                    self._wake = -1.0
                    self._resume(_BOOTSTRAP)
            else:
                self._started = True
                self._resume(_BOOTSTRAP)
            return
        Event._run_callbacks(self)

    def _resume(self, event: Event) -> None:
        """Advance the generator once."""
        kernel = self.kernel
        # Set on entry, cleared only on termination: between resumes the
        # field names the last process that ran (see Kernel.active_process).
        kernel._active_process = self
        try:
            exc = event._exception
            if exc is None:
                target = self._send(event._value)
            else:
                event.defused = True
                target = self._throw(exc)
        except StopIteration as stop:
            kernel._active_process = None
            self._target = None
            self._value = stop.value
            self._state = _TRIGGERED
            kernel._ipush(self)
            return
        except BaseException as failure:  # noqa: BLE001 - propagate via event
            # An unhandled Interrupt terminates the process as a failure.
            kernel._active_process = None
            self._target = None
            self._exception = failure
            self.defused = False
            self._state = _TRIGGERED
            kernel._ipush(self)
            return
        # Fast sleep path: a bare delay re-enqueues the process itself.
        cls = target.__class__
        if cls is float or cls is int:
            if target < 0:
                raise SimulationError(f"negative sleep delay: {target}")
            self._target = None
            now = kernel._now
            when = now + target
            self._wake = when
            if when == now:
                kernel._ipush(self)
            else:
                heappush(kernel._queue, (when, kernel._seqn(), self))
            return
        # Duck-typed Event check: every Event carries ``kernel``, so the
        # identity test doubles as the type test (saves an isinstance per
        # yield on the hot path).
        try:
            foreign = target.kernel is not kernel
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            ) from None
        if foreign:
            raise SimulationError("yielded an event from another kernel")
        self._target = target
        if target._state != _PROCESSED:
            callbacks = target.callbacks
            if callbacks is None:
                target.callbacks = self._cb
            elif callbacks.__class__ is list:
                callbacks.append(self._cb)
            else:
                target.callbacks = [callbacks, self._cb]
        else:
            target.wait(self._cb)


#: Shared sentinel delivered on a process's first resume: a bare Event
#: shell whose only readable fields are a None value and no exception.
_BOOTSTRAP = Event.__new__(Event)
_BOOTSTRAP._value = None
_BOOTSTRAP._exception = None


class _TracedProcess(Process):
    """Process variant that records a ``sim.process`` span.

    The span opens at construction and closes from a termination
    callback the process registers on itself (so it runs first, at the
    termination instant); resumes stay plain :meth:`Process._resume`,
    so the fused dispatch arms handle traced processes like any other.
    """

    __slots__ = ("_span",)

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        Process.__init__(self, kernel, generator, name)
        self._span = kernel.tracer.start("sim.process", process=self.name)
        self.callbacks = self._finish_span

    def _finish_span(self, _event: Event) -> None:
        exc = self._exception
        if exc is None:
            status = "ok"
        elif isinstance(exc, Interrupt):
            status = "interrupted"
        else:
            status = "failed"
        self._span.finish(status=status)


class _Condition(Event):
    """Base for AllOf/AnyOf combinators."""

    __slots__ = ("events", "_pending")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._pending = 0
        for event in self.events:
            if event.kernel is not self.kernel:
                raise SimulationError("mixing events of different kernels")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            self._pending += 1
            event.wait(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        # Only *processed* events count as fired: a Timeout is born in the
        # triggered state, but it has not occurred until its callbacks run.
        return {
            event: event._value
            for event in self.events
            if event._state == _PROCESSED and event._exception is None
        }


class AllOf(_Condition):
    """Triggers when all constituent events have triggered.

    Fails as soon as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if self._state != _PENDING:
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        elif self._pending == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Triggers when the first constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        self._pending -= 1
        if self._state != _PENDING:
            if event._exception is not None:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed(self._results())


class Kernel:
    """The event loop.

    Future occurrences live on a heap of ``(time, seq, event)``;
    occurrences for the current instant live on the ``_immediate`` FIFO.
    At any instant the heap's same-time entries are strictly older than
    every ``_immediate`` entry, so the drain order heap-then-FIFO equals
    the classic single-heap schedule order.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_immediate",
        "_ipush",
        "_seqn",
        "_active_process",
        "tracer",
        "_tracing",
        "_fast_run",
        "_fast_run_until",
    )

    def __init__(self):
        self._now = 0.0
        self._queue: List = []
        self._immediate: deque = deque()
        # Cached bound methods for the hot push paths: `kernel._ipush(e)`
        # appends to the FIFO, `kernel._seqn()` mints the next heap
        # sequence number (monotonic from 1, so schedule order ties break
        # identically to the classic counter).
        self._ipush = self._immediate.append
        self._seqn = count(1).__next__
        self._active_process: Optional[Process] = None
        #: Observability hook: the shared no-op tracer unless tracing was
        #: globally enabled (see :mod:`repro.obs.trace`) before this
        #: kernel was built.  Components reach it as ``kernel.tracer``.
        self.tracer = tracer_for_clock(lambda: self._now)
        # Cached once: picks the traced/untraced Process class below.
        self._tracing = self.tracer.enabled
        # Generated dispatch loop (see repro.sim.fastpath); None routes
        # run()/run_until() through the generic bodies below (knob off).
        self._fast_run, self._fast_run_until = _fastpath.make_dispatch(
            self
        ) or (None, None)

    @property
    def dispatch_variant(self) -> str:
        """``"fast"`` (generated loop) or ``"generic"`` (reference loop)."""
        return "generic" if self._fast_run is None else "fast"

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is executing (or just ran).

        Only meaningful when read from inside process code; between
        resumes the hot path leaves the last-resumed process in place
        rather than clearing it, and it resets to None when that process
        terminates.
        """
        return self._active_process

    def _enqueue(self, delay: float, event: Event) -> None:
        now = self._now
        when = now + delay
        if when == now:
            self._ipush(event)
        else:
            heappush(self._queue, (when, self._seqn(), event))

    # -- factories -------------------------------------------------------

    def event(self, _new=Event.__new__, _cls=Event) -> Event:
        # Flattened copy of Event.__init__ (same trick as timeout()).
        event = _new(_cls)
        event.kernel = self
        event.callbacks = None
        event._state = _PENDING
        event._value = None
        event._exception = None
        event.defused = False
        event.abandoned = False
        event._redeliver = None
        return event

    def timeout(
        self,
        delay: float,
        value: Any = None,
        _new=Timeout.__new__,
        _cls=Timeout,
        _push=heappush,
    ) -> Timeout:
        # Flattened copy of Timeout.__init__: timeouts dominate event
        # traffic, so the factory skips the extra constructor frame (and
        # binds its globals as defaults — the classic CPython trick).
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        timeout = _new(_cls)
        timeout.kernel = self
        timeout.callbacks = None
        timeout._state = _TRIGGERED
        timeout._value = value
        timeout._exception = None
        timeout.delay = delay
        now = self._now
        when = now + delay
        if when == now:
            self._ipush(timeout)
        else:
            _push(self._queue, (when, self._seqn(), timeout))
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        if self._tracing:
            return _TracedProcess(self, generator, name=name)
        return Process(self, generator, name=name)

    def call_later(
        self,
        delay_fn: Callable[[], float],
        callback: Optional[Callable[[Event], None]] = None,
        _new=Event.__new__,
        _cls=Event,
    ) -> None:
        """Run ``callback`` after ``delay_fn()`` sim-seconds, cheaply.

        Drop-in replacement for the fire-and-forget pattern

            def task():
                yield delay_fn()
                callback_body()
            kernel.process(task())  # handle discarded

        without the generator, Process, or two resume frames — while
        consuming *exactly* the queue slots of that process, so
        schedules stay bit-identical:

        * an arming event on the FIFO **now**, whose callback runs at
          the process's bootstrap-resume position and evaluates
          ``delay_fn`` there (RNG draws land at the same point in the
          stream as the generator body would draw them);
        * the fire event on the heap (or FIFO for a zero/underflowed
          delay), minting its sequence number at that same position —
          ``callback`` runs where the post-sleep body would.

        The generic process also ipushes a no-op termination event; with
        the handle discarded it has no callbacks and no observable
        effect, so it is elided.  Exceptions from ``callback`` surface
        out of ``run()`` at the wake instant, like a process failure.
        """
        kernel = self

        def _arm(_event: Event) -> None:
            fire = kernel.timeout(delay_fn())
            if callback is not None:
                fire.callbacks = callback

        arming = _new(_cls)
        arming.kernel = kernel
        arming.callbacks = _arm
        arming._state = _TRIGGERED
        arming._value = None
        arming._exception = None
        arming.defused = False
        self._ipush(arming)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the queue drains earlier.
        """
        fast = self._fast_run
        if fast is not None:
            return fast(until)
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        limit = _INF if until is None else until
        queue = self._queue
        immediate = self._immediate
        pop = heappop
        push = heappush
        popleft = immediate.popleft
        while True:
            # Pick the next instant.  Leftovers on the FIFO (only after
            # a partial run_until) happen now — and heap entries already
            # at the current instant (same provenance) are older still,
            # so the cold branch drains those first.
            if immediate:
                when = self._now
                while queue and queue[0][0] == when:
                    pop(queue)[2]._run_callbacks()
            elif queue:
                # Speculative pop: the heap top is the next instant
                # unless it lies beyond `limit` (rare — push it back).
                entry = pop(queue)
                when = entry[0]
                if when > limit:
                    push(queue, entry)
                    break
                self._now = when
                event = entry[2]
                # Drain the heap at `when`: all entries for this instant
                # are already on the heap (a push while the clock sits
                # at `when` goes to the FIFO).  The _TRIGGERED arm is
                # Event._run_callbacks inlined (one call per event
                # saved); a _PENDING entry can only be a process
                # bootstrap (pending events are never enqueued
                # otherwise), and _PROCESSED (late-wait redelivery)
                # dispatches through the method.
                while True:
                    state = event._state
                    if state == _TRIGGERED:
                        event._state = _PROCESSED
                        callbacks = event.callbacks
                        if callbacks is not None:
                            event.callbacks = None
                            if callbacks.__class__ is list:
                                for callback in callbacks:
                                    callback(event)
                            else:
                                callbacks(event)
                        exc = event._exception
                        if exc is not None and not event.defused:
                            raise exc
                    elif state == _PENDING:
                        if not event._started:
                            event._started = True
                            event._resume(_BOOTSTRAP)
                        elif event._wake == when:
                            event._wake = -1.0
                            event._resume(_BOOTSTRAP)
                        # else: stale wake of an interrupted sleep — drop
                    else:
                        event._run_callbacks()
                    if not queue or queue[0][0] != when:
                        break
                    event = pop(queue)[2]
            else:
                break
            # Then the FIFO, which may grow while draining (strictly
            # younger than every heap entry for this instant).
            while immediate:
                event = popleft()
                state = event._state
                if state == _TRIGGERED:
                    event._state = _PROCESSED
                    callbacks = event.callbacks
                    if callbacks is not None:
                        event.callbacks = None
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                elif state == _PENDING:
                    if not event._started:
                        event._started = True
                        event._resume(_BOOTSTRAP)
                    elif event._wake == when:
                        event._wake = -1.0
                        event._resume(_BOOTSTRAP)
                else:
                    event._run_callbacks()
        if until is not None:
            self._now = max(self._now, until)

    def run_until(self, event: Event) -> Any:
        """Step the loop only until ``event`` completes, then stop.

        Unlike :meth:`run_process`, pending future work (keep-alive
        timers, background persistors, …) is left on the queue, so the
        clock does not race ahead of the event being waited on.
        """
        fast = self._fast_run_until
        if fast is not None:
            return fast(event)
        queue = self._queue
        immediate = self._immediate
        while event._state != _PROCESSED:
            if queue and (not immediate or queue[0][0] == self._now):
                when, _seq, current = heappop(queue)
                self._now = when
            elif immediate:
                current = immediate.popleft()
            else:
                raise SimulationError(
                    "queue drained before the awaited event triggered"
                )
            state = current._state
            if state == _TRIGGERED:
                current._state = _PROCESSED
                callbacks = current.callbacks
                if callbacks is not None:
                    current.callbacks = None
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(current)
                    else:
                        callbacks(current)
                exc = current._exception
                if exc is not None and not current.defused:
                    raise exc
            elif state == _PENDING:
                if not current._started:
                    current._started = True
                    current._resume(_BOOTSTRAP)
                elif current._wake == self._now:
                    current._wake = -1.0
                    current._resume(_BOOTSTRAP)
            else:
                current._run_callbacks()
        return event.value

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if proc._state == _PENDING:
            raise SimulationError(
                f"process {proc.name!r} deadlocked (queue drained while waiting)"
            )
        return proc.value


# ---------------------------------------------------------------------------
# Generated dispatch (see repro.sim.fastpath).  Imported last so the
# fastpath module can be handed this module's internals without a
# circular import; the loops compile once per interpreter and install
# per kernel in Kernel.__init__.
from repro.sim import fastpath as _fastpath  # noqa: E402

_fastpath.compile_dispatch(
    {
        "heappop": heappop,
        "heappush": heappush,
        "_PENDING": _PENDING,
        "_TRIGGERED": _TRIGGERED,
        "_PROCESSED": _PROCESSED,
        "_INF": _INF,
        # The fused delivery arms recognize a process-resume callback
        # by identity: a bound method whose function is exactly
        # Process._resume; any other callable dispatches through a call.
        "_MethodType": type(_BOOTSTRAP._run_callbacks),
        "_PROC_RESUME": Process._resume,
        "SimulationError": SimulationError,
    }
)
