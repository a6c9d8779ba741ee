"""Code-generated dispatch loop for :class:`repro.sim.kernel.Kernel`.

This is the kernel-side counterpart of :mod:`repro.ml.compiled`: the
event-dispatch loop is emitted as Python source once at import time,
``exec``-compiled, and installed on every kernel at construction —
traced and fault-injected kernels included.  Two specializations over
the generic loop:

* **fused delivery**: the heap/FIFO drain, the ``_TRIGGERED`` arm and
  the process resume are one flat function.  A process wake (bootstrap
  or sleep) and a triggered event whose one waiter is a plain
  :meth:`Process._resume` bound method both run the same inline
  delivery chain (generator ``send``/``throw``), and list (fan-in)
  deliveries inline each process-resume element the same way; only
  foreign callables (condition checks, ``call_later`` arms, span
  finishers, user hooks) still dispatch through a call;
* **direct resume**: when a resumed process yields a positive delay and
  its wake instant is strictly earlier than everything on the heap
  (with the FIFO empty), the loop advances the clock and resumes the
  generator immediately — no heap push/pop, no sequence number.

Both are provably order-preserving, so schedules are bit-identical to
the generic loop (CI runs the bench gate with the fast path forced on
and off and diffs the exported metrics):

* the fused arms execute the exact statements of the generic loop, in
  the same order (the delivery chain mirrors ``Process._resume``
  statement for statement, including the ``defused`` handshake on the
  throw path, so a fused failure delivery can never leave an
  un-defused exception behind);
* direct resume fires only when the woken process would be the next
  occurrence regardless of its sequence number (strictly earliest wake
  time, empty FIFO), and nothing else can run between the skipped push
  and the skipped pop, so no observer exists for the elided state
  (``_wake`` bookkeeping, heap entry).  Skipping the sequence-number
  mint is safe because sequence numbers only break ties between
  co-resident heap entries and the skipped mint leaves every other
  mint in the same relative order.  In ``run_until`` the chain also
  refuses direct resume while delivering (or resuming) the awaited
  event itself — the generic loop returns control to the drain right
  there, and the fast path must stop at the same instant.

Opt out globally with ``REPRO_SIM_FASTPATH=0`` (or ``set_enabled``):
kernels built afterwards run the generic ``Kernel.run``/``run_until``
— the parity oracle — and the batched-RNG wiring keyed off
:func:`rng_batching_enabled` is disabled too, so "off" is the exact
pre-fast-path system.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "enabled",
    "set_enabled",
    "rng_batching_enabled",
    "compile_dispatch",
    "make_dispatch",
    "dispatch_source",
]


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_SIM_FASTPATH", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


_ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether new kernels install the generated dispatch loop."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Toggle the fast path for kernels built after this call."""
    global _ENABLED
    _ENABLED = bool(value)


def rng_batching_enabled() -> bool:
    """Whether single-distribution RNG streams are served batched.

    Rides the same knob as the dispatch loop so forcing
    ``REPRO_SIM_FASTPATH=0`` yields the exact generic system.
    """
    return _ENABLED


# ---------------------------------------------------------------------------
# Source templates.
# ---------------------------------------------------------------------------

#: Fused delivery chain: advance ``proc``'s generator inline until it
#: blocks, schedules a future wake that something else precedes, or
#: terminates.  Mirrors ``Process._resume`` statement for statement:
#: send ``value`` first (``None`` on the direct-resume continuations),
#: or throw ``exc`` after the ``defused`` handshake on ``event``.  The
#: arms set ``proc``/``value``/``exc`` before entering: a process wake
#: passes the process itself with ``None``/``None``, a single-waiter
#: delivery passes the waiter and the delivered event's outcome.
#: ``when`` is the current instant (updated in place so the enclosing
#: drain keeps using the advanced clock); ``{limit_guard}`` bounds
#: direct resume by ``run(until=...)``'s limit and ``{target_guard}``
#: keeps ``run_until`` from sailing past the awaited event.
_DELIVERY_CHAIN = """\
kernel._active_process = proc
send = proc._send
while True:
    try:
        if exc is None:
            target = send(value)
        else:
            event.defused = True
            target = proc._throw(exc)
            exc = None
    except StopIteration as stop:
        kernel._active_process = None
        proc._target = None
        proc._value = stop.value
        proc._state = _TRIGGERED
        ipush(proc)
        break
    except BaseException as failure:
        kernel._active_process = None
        proc._target = None
        proc._exception = failure
        proc.defused = False
        proc._state = _TRIGGERED
        ipush(proc)
        break
    cls = target.__class__
    if cls is float or cls is int:
        if target < 0:
            raise SimulationError(f"negative sleep delay: {{target}}")
        proc._target = None
        wake = when + target
        if wake == when:
            proc._wake = when
            ipush(proc)
            break
        if not immediate and (not queue or wake < queue[0][0]){limit_guard}{target_guard}:
            kernel._now = when = wake
            value = None
            continue
        proc._wake = wake
        heappush(queue, (wake, seqn(), proc))
        break
    try:
        foreign = target.kernel is not kernel
    except AttributeError:
        raise SimulationError(
            f"process {{proc.name!r}} yielded {{target!r}}, "
            "expected an Event"
        ) from None
    if foreign:
        raise SimulationError("yielded an event from another kernel")
    proc._target = target
    if target._state != _PROCESSED:
        waiters = target.callbacks
        if waiters is None:
            target.callbacks = proc._cb
        elif waiters.__class__ is list:
            waiters.append(proc._cb)
        else:
            target.callbacks = [waiters, proc._cb]
    else:
        target.wait(proc._cb)
    break"""

#: Fused fan-in delivery: each ``Process._resume`` element of a
#: callback list advances its generator inline — one advance, no
#: direct-resume continuation (the clock must not move while later
#: callbacks of the same event are still pending delivery, exactly as
#: in the generic loop).  Foreign callables dispatch through a call.
_LIST_DELIVERY = """\
for callback in callbacks:
    if callback.__class__ is not _MethodType or callback.__func__ is not _PROC_RESUME:
        callback(event)
        continue
    proc = callback.__self__
    kernel._active_process = proc
    exc = event._exception
    try:
        if exc is None:
            target = proc._send(event._value)
        else:
            event.defused = True
            target = proc._throw(exc)
    except StopIteration as stop:
        kernel._active_process = None
        proc._target = None
        proc._value = stop.value
        proc._state = _TRIGGERED
        ipush(proc)
        continue
    except BaseException as failure:
        kernel._active_process = None
        proc._target = None
        proc._exception = failure
        proc.defused = False
        proc._state = _TRIGGERED
        ipush(proc)
        continue
    cls = target.__class__
    if cls is float or cls is int:
        if target < 0:
            raise SimulationError(f"negative sleep delay: {{target}}")
        proc._target = None
        wake = when + target
        proc._wake = wake
        if wake == when:
            ipush(proc)
        else:
            heappush(queue, (wake, seqn(), proc))
        continue
    try:
        foreign = target.kernel is not kernel
    except AttributeError:
        raise SimulationError(
            f"process {{proc.name!r}} yielded {{target!r}}, "
            "expected an Event"
        ) from None
    if foreign:
        raise SimulationError("yielded an event from another kernel")
    proc._target = target
    if target._state != _PROCESSED:
        waiters = target.callbacks
        if waiters is None:
            target.callbacks = proc._cb
        elif waiters.__class__ is list:
            waiters.append(proc._cb)
        else:
            target.callbacks = [waiters, proc._cb]
    else:
        target.wait(proc._cb)"""

#: One occurrence: the inlined ``_TRIGGERED`` arm (Event._run_callbacks
#: without the method call, with process resumes fused through the
#: delivery chains), the ``_PENDING`` arm (process bootstrap or sleep
#: wake) through the same delivery chain, and the ``_PROCESSED``
#: redelivery arm via the method.  The fused single-resume branch skips
#: the unhandled-failure tail: a failed event delivered to a process is
#: defused on the throw path, so the tail can never raise there.
_DISPATCH_ARMS = """\
state = event._state
if state == _TRIGGERED:
    event._state = _PROCESSED
    callbacks = event.callbacks
    if callbacks is None:
        exc = event._exception
        if exc is not None and not event.defused:
            raise exc
    elif callbacks.__class__ is _MethodType and callbacks.__func__ is _PROC_RESUME:
        event.callbacks = None
        proc = callbacks.__self__
        value = event._value
        exc = event._exception
{delivery_chain}
    else:
        event.callbacks = None
        if callbacks.__class__ is list:
{list_delivery}
        else:
            callbacks(event)
        exc = event._exception
        if exc is not None and not event.defused:
            raise exc
elif state == _PENDING:
    if not event._started:
        event._started = True
        resumable = True
    elif event._wake == when:
        event._wake = -1.0
        resumable = True
    else:
        resumable = False
    if resumable:
        proc = event
        value = None
        exc = None
{delivery_chain}
else:
    event._run_callbacks()"""

_RUN_TEMPLATE = '''\
def make_run(kernel):
    """Specialized ``Kernel.run`` bound to ``kernel``."""

    def run(until=None):
        if until is not None and until < kernel._now:
            raise SimulationError(
                f"until={{until}} is in the past (now={{kernel._now}})"
            )
        limit = _INF if until is None else until
        queue = kernel._queue
        immediate = kernel._immediate
        ipush = kernel._ipush
        seqn = kernel._seqn
        popleft = immediate.popleft
        while True:
            if immediate:
                when = kernel._now
                while queue and queue[0][0] == when:
                    heappop(queue)[2]._run_callbacks()
            elif queue:
                entry = heappop(queue)
                when = entry[0]
                if when > limit:
                    heappush(queue, entry)
                    break
                kernel._now = when
                event = entry[2]
                while True:
{heap_arms}
                    if not queue or queue[0][0] != when:
                        break
                    event = heappop(queue)[2]
            else:
                break
            while immediate:
                event = popleft()
{fifo_arms}
        if until is not None:
            kernel._now = max(kernel._now, until)

    return run
'''

_RUN_UNTIL_TEMPLATE = '''\
def make_run_until(kernel):
    """Specialized ``Kernel.run_until`` bound to ``kernel``."""

    def run_until(target_event):
        queue = kernel._queue
        immediate = kernel._immediate
        ipush = kernel._ipush
        seqn = kernel._seqn
        popleft = immediate.popleft
        while target_event._state != _PROCESSED:
            if queue and (not immediate or queue[0][0] == kernel._now):
                entry = heappop(queue)
                when = entry[0]
                kernel._now = when
                event = entry[2]
            elif immediate:
                event = popleft()
                when = kernel._now
            else:
                raise SimulationError(
                    "queue drained before the awaited event triggered"
                )
{arms}
        return target_event.value

    return run_until
'''


def _indent(block: str, pad: str) -> str:
    return "\n".join(
        (pad + line) if line else line for line in block.split("\n")
    )


def _arms(limit_guard: str, target_guard: str) -> str:
    """The three-state dispatch arms with every chain specialized."""
    return _DISPATCH_ARMS.format(
        delivery_chain=_indent(
            _DELIVERY_CHAIN.format(
                limit_guard=limit_guard, target_guard=target_guard
            ),
            " " * 8,
        ),
        list_delivery=_indent(_LIST_DELIVERY, " " * 12),
    )


def dispatch_source() -> str:
    """The generated module source (exposed for tests/inspection)."""
    run_arms = _arms(limit_guard=" and wake <= limit", target_guard="")
    until_arms = _arms(
        limit_guard="", target_guard=" and event is not target_event"
    )
    run_src = _RUN_TEMPLATE.format(
        heap_arms=_indent(run_arms, " " * 20),
        fifo_arms=_indent(run_arms, " " * 16),
    )
    until_src = _RUN_UNTIL_TEMPLATE.format(
        arms=_indent(until_arms, " " * 12),
    )
    return run_src + "\n\n" + until_src


_FACTORIES: Optional[tuple] = None


def compile_dispatch(kernel_internals: dict) -> None:
    """Exec-compile the dispatch loop against the kernel's internals.

    Called once from the bottom of :mod:`repro.sim.kernel`;
    ``kernel_internals`` supplies ``heappush``/``heappop``, the event
    state constants, the ``Process._resume`` identity pair used by the
    fused delivery arms and ``SimulationError`` so this module never
    imports the kernel (no circular import).
    """
    global _FACTORIES
    namespace = dict(kernel_internals)
    exec(  # noqa: S102 - the source is generated above, not user input
        compile(dispatch_source(), "<sim-fastpath>", "exec"), namespace
    )
    _FACTORIES = (namespace["make_run"], namespace["make_run_until"])


def make_dispatch(kernel) -> Optional[tuple]:
    """Specialized ``(run, run_until)`` for ``kernel``, or ``None`` when
    the fast path is globally disabled (the kernel then runs the
    generic loop)."""
    if not _ENABLED or _FACTORIES is None:
        return None
    make_run, make_run_until = _FACTORIES
    return make_run(kernel), make_run_until(kernel)
