"""Discrete-event simulation engine.

A from-scratch engine in the style of a process-based simulator: user code
is written as generator coroutines that yield :class:`Event` objects and are
resumed when those events fire.  Simulated time is integer nanoseconds.

Public surface::

    env = Environment()
    env.process(my_generator(env))
    env.run()

plus the resource primitives :class:`Resource`, :class:`Store` and the
fluid-flow :class:`SharedChannel` used by every bandwidth model in the
hardware layer.
"""

from repro.sim.core import Environment, Event, Process, Timeout
from repro.sim.process import AllOf, AnyOf, Condition, Deadline
from repro.sim.rand import RandomStreams
from repro.sim.resources import (Resource, SharedChannel, Store, Transfer,
                                 scheduler_stats, use_reference_scheduler)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Deadline",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SharedChannel",
    "Store",
    "Timeout",
    "Transfer",
    "scheduler_stats",
    "use_reference_scheduler",
]
