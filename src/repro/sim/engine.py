"""Discrete-event simulation engine.

Every CrystalNet subsystem in this reproduction — the cloud substrate, the
virtual links, the routing firmwares, the orchestrator — runs on top of this
engine.  It is a small, dependency-free kernel in the style of SimPy:

* :class:`Environment` owns the clock and the event heap.
* :class:`Event` is a one-shot occurrence that callbacks and processes can
  wait on.
* :class:`Process` wraps a generator; the generator ``yield``\\ s events
  (timeouts, other events, composites) and is resumed when they fire.

The engine is fully deterministic: events scheduled for the same timestamp
fire in scheduling order (a monotonically increasing sequence number breaks
ties), so emulation runs are reproducible — important for debugging the same
way CrystalNet's FIB comparator has to deal with *protocol*-level
non-determinism rather than engine-level jitter.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from . import gcpolicy

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Timer",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (double-fire, past scheduling)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, can be :meth:`succeed`-ed or :meth:`fail`-ed
    exactly once, and then invokes its callbacks in registration order.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "name",
                 "cancelled")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self.name = name
        # Lazily-deleted events (see Timer.cancel): still on the heap but
        # skipped — never dispatched, never shown to the event hook.
        self.cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful; callbacks run at ``now + delay``."""
        if self._triggered:
            raise SimulationError(f"event {self.name or self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule_event(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see ``exception`` raised."""
        if self._triggered:
            raise SimulationError(f"event {self.name or self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule_event(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately so late listeners still fire.
            fn(self)
        else:
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._ok else "failed"
        return f"<Event {self.name!r} {state} @{self.env.now}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` sim-seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Flattened init (no Event.__init__/_schedule_event calls) and a
        # constant name: one Timeout per keepalive/flush/transfer tick
        # makes this one of the hottest allocation sites of a large
        # emulation.  The delay still shows in repr.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.name = "timeout"
        self.cancelled = False
        self.delay = delay
        env._seq += 1
        heapq.heappush(env._heap, (env.now + delay, env._seq, self))
        if env.critpath is not None:
            env.critpath.on_schedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay} @{self.env.now}>"


class Timer(Timeout):
    """A cancellable one-shot timer driving a callback.

    Protocol timers (BGP keepalive/hold, connect-retry) are rearmed or
    abandoned far more often than they fire; :meth:`cancel` marks the
    heap entry dead in O(1) instead of the O(n) removal a binary heap
    would need.  The engine skips dead entries as they surface and
    compacts the heap when they pile up, so abandoned timers no longer
    accumulate as heap corpses for the rest of the run.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, env: "Environment", delay: float,
                 fn: Callable[..., None], args: tuple = ()):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Flattened like Timeout.__init__: protocol timers and per-frame
        # link-latency events make this the single most-constructed type.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = True
        self.name = "timer"
        self.cancelled = False
        self.delay = delay
        self._fn = fn
        self._args = args
        env._seq += 1
        heapq.heappush(env._heap, (env.now + delay, env._seq, self))
        if env.critpath is not None:
            env.critpath.on_schedule()

    def _run_callbacks(self) -> None:
        super()._run_callbacks()
        self._fn(*self._args)

    def cancel(self) -> bool:
        """Disarm the timer; returns False if it already fired."""
        if self.cancelled:
            return True
        if self.processed:
            return False
        self.cancelled = True
        self.env._note_cancel()
        return True


class _Composite(Event):
    """Base for AllOf / AnyOf."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event], name: str):
        super().__init__(env, name=name)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Composite):
    """Fires when every child event has fired; fails fast on child failure."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, name="all_of")

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self.events})


class AnyOf(_Composite):
    """Fires when the first child event fires (success or failure)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, name="any_of")

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed({ev: ev.value})
        else:
            self.fail(ev.value)


class _Call:
    """Picklable callback adapter: invokes ``fn(*args)``, dropping the
    event argument.

    :meth:`Environment.call_later`/:meth:`~Environment.call_at` used to
    wrap ``fn`` in a lambda, which made any pending heap entry
    unpicklable — a problem for warm snapshots (:mod:`repro.snapshot`),
    where the entire converged event heap is serialized.  An instance
    holding (fn, args) pickles as long as ``fn`` does (bound methods and
    module functions do), and costs the same single call per fire.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple = ()):
        self.fn = fn
        self.args = args

    def __call__(self, _event: Event) -> None:
        self.fn(*self.args)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-based coroutine running on the simulation timeline.

    The wrapped generator yields :class:`Event` instances and is resumed with
    the event's value once it fires.  The :class:`Process` itself is an event
    that fires with the generator's return value, so processes can wait on
    each other.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time via an immediately-successful event.
        bootstrap = Event(env, name=f"init:{self.name}")
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        wake = Event(self.env, name=f"interrupt:{self.name}")
        wake.add_callback(self._resume_interrupt)
        wake.succeed(Interrupt(cause))

    def _detach(self) -> None:
        self._waiting_on = None

    def _resume_interrupt(self, ev: Event) -> None:
        if self._triggered:
            return  # finished before the interrupt was delivered
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._step(ev.value, throw=True)

    def _resume(self, ev: Event) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        if ev.ok:
            self._step(ev.value, throw=False)
        else:
            self._step(ev.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                exc = value if isinstance(value, BaseException) else SimulationError(value)
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            if self.env.strict:
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class Environment:
    """The simulation clock, event heap, and factory for events/processes."""

    def __init__(self, initial_time: float = 0.0, strict: bool = False):
        self.now: float = initial_time
        self.strict = strict
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        # Count of lazily-cancelled entries still sitting in the heap;
        # drives periodic compaction (see _note_cancel).
        self._cancelled = 0
        # Opt-in observability hook (see repro.obs.instrument_environment):
        # called with each event as it fires.  None (the default) keeps the
        # dispatch loop at a single identity check per event.
        self.event_hook: Optional[Callable[[Event], None]] = None
        # Opt-in causal critical-path recorder (repro.obs.critpath): notes
        # each schedule/dispatch so convergence time can be attributed to
        # a dependency chain.  None (the default) costs one identity check
        # at each of the three heap-push sites and one in step().
        self.critpath = None
        # Sim time the most recent run_window() actually traversed before
        # clamping to its horizon (see the window profiler).
        self.last_window_consumed: float = 0.0

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[..., None], *args) -> Event:
        """Run ``fn(*args)`` at absolute sim-time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        ev = self.timeout(when - self.now)
        ev.add_callback(_Call(fn, args))
        return ev

    def call_later(self, delay: float, fn: Callable[..., None], *args) -> Event:
        """Run ``fn(*args)`` after ``delay`` sim-seconds.

        Prefer passing ``args`` over a closure: the pending heap entry
        then stays picklable, which warm snapshots require.
        """
        ev = self.timeout(delay)
        ev.add_callback(_Call(fn, args))
        return ev

    def timer(self, delay: float, fn: Callable[..., None], *args) -> Timer:
        """Like :meth:`call_later`, but the returned handle is cancellable
        and extra ``args`` are passed to ``fn`` (avoiding a closure on hot
        per-frame paths)."""
        return Timer(self, delay, fn, args)

    # -- scheduling ------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        if self.critpath is not None:
            self.critpath.on_schedule()

    def _note_cancel(self) -> None:
        self._cancelled += 1
        # Compact when dead entries dominate: rebuilding preserves the
        # (time, seq) total order, so dispatch order is untouched.
        if self._cancelled > 64 and self._cancelled * 2 > len(self._heap):
            self._heap = [entry for entry in self._heap
                          if not entry[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def _prune(self) -> None:
        """Drop cancelled entries from the heap head."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        self._prune()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next (live) event."""
        heap = self._heap
        while heap:
            when, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = when
            if self.critpath is not None:
                self.critpath.on_dispatch(_seq, when, event)
            if self.event_hook is not None:
                self.event_hook(event)
            event._run_callbacks()
            return
        raise SimulationError("no scheduled events")

    def run_window(self, until: float) -> int:
        """Process every event *strictly before* ``until``; returns the count.

        This is the barrier primitive of the conservative parallel backend
        (:mod:`repro.sim.shard`): a shard granted the window ``[now, until)``
        may process exactly the events with ``time < until`` — events at or
        beyond the horizon could still be affected by not-yet-delivered
        cross-shard traffic (which arrives at ``>= until`` by the lookahead
        rule).  Afterwards the clock rests at ``until`` so cross-shard
        injections for the next window (all stamped ``>= until``) can be
        scheduled as ordinary future events.

        Chunking a run into windows never reorders anything: dispatch order
        is the heap's ``(time, seq)`` order either way, which is why a K=1
        windowed run is event-for-event identical to a monolithic ``run()``.
        """
        if until < self.now:
            raise SimulationError(
                f"window end {until} is in the past (now={self.now})")
        count = 0
        start = self.now
        heap = self._heap
        with gcpolicy.bulk_phase():
            while True:
                self._prune()
                if not heap or heap[0][0] >= until:
                    break
                self.step()
                count += 1
        # How far events actually advanced the clock into this window,
        # before the clamp to the horizon: the window profiler's
        # granted-vs-consumed signal.
        self.last_window_consumed = self.now - start
        self.now = until
        return count

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time, an :class:`Event` (whose value is
        returned; its failure re-raised), or ``None`` (drain everything).

        A run only grows the heap (routes, timers, telemetry), so full
        garbage collections wait until it returns
        (:func:`repro.sim.gcpolicy.bulk_phase`); so does
        :meth:`run_window`.
        """
        with gcpolicy.bulk_phase():
            if isinstance(until, Event):
                target = until
                while not target.processed:
                    self._prune()
                    if not self._heap:
                        raise SimulationError(
                            f"event {target.name!r} never fired; "
                            f"simulation starved")
                    self.step()
                if target.ok:
                    return target.value
                exc = target.value
                raise (exc if isinstance(exc, BaseException)
                       else SimulationError(exc))

            if until is None:
                while self.peek() != float("inf"):
                    self.step()
                return None

            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"deadline {deadline} is in the past (now={self.now})")
            while self.peek() <= deadline:
                self.step()
            self.now = deadline
            return None
