"""The discrete-event loop.

Time is a monotonically non-decreasing integer measured in CPU cycles.
Components schedule plain callbacks with :meth:`Engine.at` /
:meth:`Engine.after`, or spawn generator coroutines via
:meth:`Engine.spawn` (see :mod:`repro.sim.process`).

The dispatch loop is the single hottest path in the whole simulator
(every instruction issue, wakeup, and timer rides through it). Pending
events live in one binary heap of ``(time, seq, call)`` tuples, where
``seq`` is a monotone counter, so dispatch order is exactly
``(time, seq)``: ties in time go in insertion order. Cancellation
tombstones the entry; the heap is compacted in place once dead entries
outnumber live ones.

Separately from the main queue, the engine keeps a *step lane*
(:meth:`at_step`): a small heap reserved for CPU-core issue-loop
resumes. Step events dispatch merged with the main queue in global
``(time, seq)`` order -- they are invisible only to
:meth:`next_foreign_event_time`, which the core's busy-cycle
fast-forward uses as its batching horizon. A core mid-burst cannot
affect another core except through main-queue events or by firing the
other core's wake signal, so other cores' per-cycle steps must not cap
the batch (see :meth:`repro.hw.core.HWCore._plan_fast_forward`).

:meth:`Engine.step`, :meth:`Engine.run` and :meth:`Engine.run_until_idle`
all drive the same dispatch core, :meth:`Engine._dispatch`.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Queues smaller than this are never compacted (the scan costs more
#: than the dead entries do).
_COMPACT_MIN_QUEUE = 64

#: "No bound" for the dispatch core's time horizon and event budget (an
#: int, so the per-event comparison stays int-to-int).
_NEVER = sys.maxsize


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    Cancelling clears ``fn``: a handle is cancelled exactly when its
    ``fn`` is None, so the dispatch core needs one attribute load to
    skip a tombstone.
    """

    __slots__ = ("fn", "args", "_engine")

    #: True on step-lane handles (:class:`_StepCall`).
    step = False

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...],
                 engine: "Optional[Engine]" = None):
        self.fn = fn
        self.args = args
        self._engine = engine

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent. Once the call
        has been dispatched it only marks the handle cancelled: the
        dispatch core drops the engine backref, so a late cancel cannot
        skew the live count."""
        if self.fn is not None:
            self.fn = None
            if self._engine is not None:
                self._engine._note_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.fn is None:
            return f"<{type(self).__name__} cancelled>"
        return f"<{type(self).__name__} {getattr(self.fn, '__name__', self.fn)}>"


class _StepCall(ScheduledCall):
    """A step-lane handle (:meth:`Engine.at_step`)."""

    __slots__ = ()
    step = True


class Engine:
    """A minimal but complete discrete-event engine.

    Determinism: ties in time are broken by insertion order, so a given
    program produces the same event interleaving on every run.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq = itertools.count()
        self._events_processed: int = 0
        self._live: int = 0  # scheduled, not cancelled, not yet dispatched
        self._run_until: Optional[int] = None
        self._processes: "List[Any]" = []  # live Process objects (weak bookkeeping)
        self._queue: List[Tuple[int, int, ScheduledCall]] = []
        # The step lane: core issue-loop resumes, merged into dispatch
        # by (time, seq) but excluded from next_foreign_event_time().
        self._steps: List[Tuple[int, int, ScheduledCall]] = []

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks dispatched since construction."""
        return self._events_processed

    @property
    def run_until(self) -> Optional[int]:
        """The ``until`` horizon of the innermost active :meth:`run`.

        ``None`` outside a bounded run. Components that skip ahead in
        time (the core's busy-cycle fast-forward) must not jump past
        this, or their catch-up event would be left undispatched when
        the run stops at the horizon.
        """
        return self._run_until

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` to run at absolute ``time``."""
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        call = ScheduledCall(fn, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), call))
        self._live += 1
        return call

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        # at() inlined (minus the past-time check -- delay >= 0 makes it
        # unreachable): after() is the cluster layers' only scheduling
        # call, hot enough that the extra frame shows up in profiles
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + int(delay)
        call = ScheduledCall(fn, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), call))
        self._live += 1
        return call

    def at_step(self, time: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule a CPU-core issue-loop resume at absolute ``time``.

        Identical dispatch semantics to :meth:`at` (global
        ``(time, seq)`` order), but the event lives in the step lane and
        is ignored by :meth:`next_foreign_event_time` -- a stepping core
        is not an *external* deadline for another core's batch.
        """
        time = int(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        call = _StepCall(fn, args, self)
        heapq.heappush(self._steps, (time, next(self._seq), call))
        self._live += 1
        return call

    def after_step(self, delay: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Step-lane variant of :meth:`after`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at_step(self._now + int(delay), fn, *args)

    def spawn(self, generator: Any, name: Optional[str] = None) -> "Any":
        """Start a generator coroutine as a simulation process.

        Returns the :class:`~repro.sim.process.Process`. Imported lazily to
        break the module cycle.
        """
        from repro.sim.process import Process

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def _note_cancel(self, call: ScheduledCall) -> None:
        self._live -= 1
        if call.step:
            # step-lane tombstones are rare (an interrupted batch) and
            # few (one per core); dispatch pops them lazily
            return
        # lazily compact once cancelled entries outnumber live ones.
        # In place: _dispatch() holds a local alias to the list, so
        # rebinding self._queue mid-run would strand every event
        # scheduled after the compaction in a heap the dispatch loop
        # never looks at.
        queue = self._queue
        # dead-entry estimate: _live spans both lanes, and live step
        # events (at most one per core) make this a slight overcount
        dead = len(queue) + len(self._steps) - self._live
        if dead > len(queue) // 2 and len(queue) >= _COMPACT_MIN_QUEUE:
            queue[:] = [entry for entry in queue if entry[2].fn is not None]
            heapq.heapify(queue)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: int, limit: int) -> int:
        """The dispatch core: run live events in ``(time, seq)`` order
        until both lanes drain, the next live event lies past ``until``,
        or ``limit`` events have run. Returns the unused budget."""
        queue = self._queue
        steps = self._steps
        pop = heapq.heappop
        while limit > 0:
            # merge the two lanes by (time, seq); seq is shared, so the
            # tuple comparison reproduces the single-queue order exactly
            if steps:
                if queue and queue[0] < steps[0]:
                    src = queue
                else:
                    src = steps
            elif queue:
                src = queue
            else:
                break
            time, seq, call = pop(src)
            fn = call.fn
            if fn is None:
                continue
            if time > until:
                # past the horizon: put it back (heap position is
                # irrelevant; order is fixed by the (time, seq) key)
                heapq.heappush(src, (time, seq, call))
                break
            self._now = time
            self._events_processed += 1
            self._live -= 1
            limit -= 1
            call._engine = None
            fn(*call.args)
        return limit

    def step(self) -> bool:
        """Dispatch the next pending event. Returns False if none remain."""
        return self._dispatch(_NEVER, 1) == 0

    def run_until_idle(self) -> int:
        """Drain the queue completely; returns the time of the last event."""
        self._dispatch(_NEVER, _NEVER)
        return self._now

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at exit. When ``until`` is given the
        clock is advanced to exactly ``until`` even if the queue drained
        earlier, so rate computations stay meaningful.
        """
        if until is None and max_events is None:
            return self.run_until_idle()
        prior_until = self._run_until
        self._run_until = int(until) if until is not None else None
        try:
            self._dispatch(_NEVER if until is None else int(until),
                           _NEVER if max_events is None else max_events)
        finally:
            self._run_until = prior_until
        if until is not None and self._now < until:
            self._now = int(until)
        return self._now

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def next_foreign_event_time(self) -> Optional[int]:
        """Earliest pending live event *outside the step lane*, or None.

        This is the busy-cycle fast-forward horizon: a batching core
        must stop at the next event that could originate an effect on
        it. Other cores' issue-loop steps are excluded -- their effects
        arrive either as main-queue events (capped here) or by firing
        this core's wake signal (which interrupts the batch).
        """
        # In place, like _note_cancel: _dispatch() holds a local alias
        # to self._queue, so cancelled heads are heappop'ed out of the
        # shared list object -- never sliced into a rebound copy.
        queue = self._queue
        while queue and queue[0][2].fn is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _next_step_time(self) -> Optional[int]:
        """Earliest live step-lane event, or None (in place, like
        :meth:`next_foreign_event_time`)."""
        steps = self._steps
        while steps and steps[0][2].fn is None:
            heapq.heappop(steps)
        return steps[0][0] if steps else None

    def next_event_time(self) -> Optional[int]:
        """Time of the earliest pending live event, or None when idle.

        Covers both lanes. Safe to call from inside a dispatched
        callback mid-run: cancelled heads are discarded in place, never
        by rebinding a list the dispatch core holds an alias to.
        """
        t = self.next_foreign_event_time()
        s = self._next_step_time()
        if s is not None and (t is None or s < t):
            return s
        return t

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled callbacks (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} t={self._now} "
                f"pending={self.pending_events}>")
