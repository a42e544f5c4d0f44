"""The Deadline helper: a bounded ``with`` block for a process."""

from repro.errors import ProcessInterrupted
from repro.sim import Deadline, Environment


def _bounded(env, delay_ns, work_ns, after_ns=100):
    """Process: wait *work_ns* under a *delay_ns* deadline, then
    *after_ns* outside it; returns (outcome, deadline, time)."""
    deadline = Deadline(env, delay_ns)
    try:
        with deadline:
            yield env.timeout(work_ns)
    except ProcessInterrupted:
        return "interrupted", deadline, env.now
    yield env.timeout(after_ns)
    return "done", deadline, env.now


def test_deadline_interrupts_the_process_that_entered_it():
    env = Environment()
    outcome, deadline, now = env.run_process(
        env.process(_bounded(env, delay_ns=10, work_ns=50)))
    assert (outcome, deadline.fired, now) == ("interrupted", True, 10)


def test_a_block_that_ends_first_is_not_interrupted():
    env = Environment()
    outcome, deadline, now = env.run_process(
        env.process(_bounded(env, delay_ns=10, work_ns=5)))
    # The expiry at 10 lands while the process waits outside the block.
    assert (outcome, deadline.fired, now) == ("done", False, 105)


def test_a_block_ending_on_the_deadlines_tick_is_not_interrupted():
    # The deadline's timer is older than the block's, so it fires first
    # on the shared tick; the block still ends before the interrupt.
    env = Environment()
    outcome, deadline, now = env.run_process(
        env.process(_bounded(env, delay_ns=10, work_ns=10)))
    assert (outcome, deadline.fired, now) == ("done", False, 110)


def test_another_interrupt_is_not_the_deadlines():
    env = Environment()
    target = env.process(_bounded(env, delay_ns=50, work_ns=100))

    def interrupter(env):
        yield env.timeout(20)
        target.interrupt("reaper")

    env.process(interrupter(env))
    outcome, deadline, now = env.run_process(target)
    assert (outcome, deadline.fired, now) == ("interrupted", False, 20)


def test_no_delay_schedules_nothing():
    env = Environment()
    outcome, deadline, now = env.run_process(
        env.process(_bounded(env, delay_ns=None, work_ns=5, after_ns=0)))
    assert (outcome, deadline.fired, now) == ("done", False, 5)
    env.run()  # a scheduled expiry would move the clock on
    assert env.now == 5
