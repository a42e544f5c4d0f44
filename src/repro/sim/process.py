"""Wait helpers for processes: AllOf / AnyOf, and a Deadline.

``yield AllOf(env, events)`` resumes when every event has fired and returns
an ordered dict-like result; ``yield AnyOf(env, events)`` resumes as soon as
one fires.  A failed child event fails the condition (with the child's
exception) unless the condition already triggered.

``with Deadline(env, delay_ns) as deadline:`` bounds how long the process
that entered the block may stay in it (see :class:`Deadline`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.sim.core import Environment, Event, Process


class ConditionValue:
    """Ordered mapping of event -> value for events that fired."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> List[Any]:
        """Values in the order the events were passed to the condition."""
        return [event.value for event in self.events]

    def todict(self) -> Dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a quorum of *events* to trigger successfully."""

    __slots__ = ("_events", "_needed", "_fired")

    def __init__(self, env: Environment, events: Sequence[Event],
                 count: int) -> None:
        super().__init__(env)
        self._events = list(events)
        self._needed = min(count, len(self._events))
        self._fired = 0
        if any(event.env is not env for event in self._events):
            raise ValueError("all condition events must share one environment")
        if self._needed == 0:
            self.succeed(ConditionValue())
            return
        for event in self._events:
            if event._processed:
                self._on_child(event)
                if self.triggered:
                    break
            else:
                callbacks = event._callbacks
                if callbacks is None:
                    event._callbacks = [self._on_child]
                else:
                    callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._fired += 1
        if self._fired >= self._needed:
            result = ConditionValue()
            result.events = [e for e in self._events
                             if e.triggered and e.ok]
            self.succeed(result)


class AllOf(Condition):
    """Triggers when every event in *events* has triggered successfully."""

    __slots__ = ()

    def __init__(self, env: Environment, events: Sequence[Event]) -> None:
        super().__init__(env, events, count=len(list(events)))


class AnyOf(Condition):
    """Triggers when at least one event in *events* triggers successfully."""

    __slots__ = ()

    def __init__(self, env: Environment, events: Sequence[Event]) -> None:
        super().__init__(env, events, count=1)


class Deadline:
    """Interrupt the process that enters this block after *delay_ns*
    (:class:`~repro.errors.ProcessInterrupted`), unless the block has
    ended by then; ``fired`` tells this interrupt from any other.  A
    block that ends on the deadline's own tick is not interrupted: the
    expiry looks again after every event already due at that tick.
    With *delay_ns* None the deadline schedules nothing."""

    __slots__ = ("env", "delay_ns", "fired", "_process")

    def __init__(self, env: Environment, delay_ns: Optional[int]) -> None:
        self.env = env
        self.delay_ns = delay_ns
        #: True once the deadline interrupted the block.
        self.fired = False
        self._process: Optional[Process] = None

    def __enter__(self) -> "Deadline":
        if self.delay_ns is not None:
            self._process = self.env.active_process
            self.env.timeout(self.delay_ns).callbacks.append(self._expire)
        return self

    def __exit__(self, *exc_info) -> None:
        self._process = None

    def _expire(self, _timer: Event) -> None:
        if self._process is not None:
            self.env.timeout(0).callbacks.append(self._fire)

    def _fire(self, _event: Event) -> None:
        process = self._process
        if process is not None and process.is_alive:
            self.fired = True
            process.interrupt(f"deadline of {self.delay_ns} ns")
