"""Core of the discrete-event engine: events, processes, the environment.

The design follows the classic process-interaction style:

* an :class:`Event` is a one-shot occurrence with a value and callbacks;
* a :class:`Process` wraps a generator that yields events and is resumed
  with the event's value (or has the event's exception thrown into it);
* the :class:`Environment` keeps a priority queue of scheduled events keyed
  by ``(time, priority, sequence)`` so ordering is total and deterministic.

Time is integer nanoseconds throughout; see :mod:`repro.units`.

Fast path
---------

Fleet-scale runs push hundreds of millions of events through this module,
so the event machinery is deliberately lean:

* every event class carries ``__slots__`` — no per-instance ``__dict__``;
* the callback list is allocated lazily on the first ``append`` (roughly
  half of all events — process-end events, pre-completed transfers, the
  scheduler's superseded wakeups — never register a waiter);
* :meth:`Environment.timeout` builds the dominant event kind (a plain
  delay) without the generic constructor/validation round trip.

The *semantics* are unchanged: ``event.callbacks`` still reads as a
mutable list (``None`` once processed), and event ordering is untouched.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import ProcessInterrupted, SimulationError

# Scheduling priorities.  URGENT is used for process resumption bookkeeping
# (e.g. interrupts) and the fluid scheduler's same-tick flush, which must
# beat same-timestamp ordinary events.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence inside an :class:`Environment`.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled with a value, waiting in the queue), and *processed* (its
    callbacks have run).  Succeeding or failing an already-triggered event
    is an error, which catches double-completion bugs early.
    """

    __slots__ = ("env", "_callbacks", "_processed", "_value", "_ok",
                 "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._processed = False
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """The callback list (lazily created), or None once processed."""
        if self._processed:
            return None
        callbacks = self._callbacks
        if callbacks is None:
            callbacks = self._callbacks = []
        return callbacks

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value read before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._ok is None:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- completion ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._ok is not None:
            raise SimulationError("event triggered twice")
        self._ok = True
        self._value = value
        self.env._schedule(self, PRIORITY_NORMAL, 0)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters get *exc* thrown into them."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._ok is not None:
            raise SimulationError("event triggered twice")
        self._ok = False
        self._value = exc
        self.env._schedule(self, PRIORITY_NORMAL, 0)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = int(delay)
        self._ok = True
        self._value = value
        env._schedule(self, PRIORITY_NORMAL, self.delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event that kicks a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, PRIORITY_URGENT, 0)


class _Interruption(Event):
    """Internal urgent event that delivers an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self.process = process
        self._callbacks = [self._deliver]
        self._ok = False
        self._value = ProcessInterrupted(cause)
        self._defused = True
        process.env._schedule(self, PRIORITY_URGENT, 0)

    def _deliver(self, event: "Event") -> None:
        process = self.process
        if process.triggered:
            return  # the process finished before the interrupt landed
        target = process._target
        if target is not None and not target._processed \
                and target._callbacks is not None:
            try:
                target._callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """A running generator coroutine.

    A process is itself an event that triggers when the generator returns
    (success, value = return value) or raises (failure).  Other processes
    can therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self, PRIORITY_NORMAL, 0)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self, PRIORITY_NORMAL, 0)
                break

            problem: Optional[SimulationError] = None
            if not isinstance(next_event, Event):
                problem = SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event")
            elif next_event.env is not self.env:
                problem = SimulationError(
                    f"process {self.name!r} yielded an event from a "
                    "different environment")
            if problem is not None:
                self._ok = False
                self._value = problem
                self.env._schedule(self, PRIORITY_NORMAL, 0)
                break

            if not next_event._processed:
                # Event still pending or queued: park until it fires.
                callbacks = next_event._callbacks
                if callbacks is None:
                    next_event._callbacks = [self._resume]
                else:
                    callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop and feed its value immediately.
            event = next_event

        self.env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Environment:
    """Holds the clock and the event queue; drives the simulation."""

    def __init__(self, initial_time: int = 0) -> None:
        self._now = int(initial_time)
        self._queue: List = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> int:
        """Current simulated time in integer nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction helpers -----------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* nanoseconds.

        This is the dominant event kind, so it is built inline instead of
        through the generic ``Event.__init__`` / ``_schedule`` pair.
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timer = Timeout.__new__(Timeout)
        timer.env = self
        timer._callbacks = None
        timer._processed = False
        timer._defused = False
        timer.delay = delay
        timer._ok = True
        timer._value = value
        self._seq += 1
        heappush(self._queue,
                 (self._now + delay, PRIORITY_NORMAL, self._seq, timer))
        return timer

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Start a new process from *generator*."""
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: int) -> None:
        self._seq += 1
        heappush(self._queue,
                 (self._now + delay, priority, self._seq, event))

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _priority, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event._callbacks
        event._callbacks = None
        event._processed = True
        if callbacks is not None:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[int] = None) -> Any:
        """Run until the queue drains or the clock reaches *until*.

        When *until* is given, the clock is advanced exactly to it even if
        no event fires at that instant, which makes back-to-back ``run``
        calls compose predictably.
        """
        if until is not None:
            until = int(until)
            if until < self._now:
                raise ValueError(
                    f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        step = self.step
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return None
            step()
        if until is not None:
            self._now = until
        return None

    def run_process(self, process: Process, until: Optional[int] = None) -> Any:
        """Run until *process* finishes and return its value.

        Raises the process's exception on failure, or
        :class:`SimulationDeadlock` if the queue drains first.
        """
        from repro.errors import SimulationDeadlock

        queue = self._queue
        step = self.step
        while process._ok is None:
            if not queue:
                raise SimulationDeadlock(
                    f"event queue drained before {process!r} finished")
            if until is not None and queue[0][0] > until:
                raise SimulationDeadlock(
                    f"clock reached {until} before {process!r} finished")
            step()
        if not process.ok:
            raise process.value
        return process.value

    def run_all(self, processes: Iterable[Process]) -> List[Any]:
        """Run until every process in *processes* finishes; return values."""
        return [self.run_process(p) for p in list(processes)]
