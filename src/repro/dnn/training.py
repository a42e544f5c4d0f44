"""The training loop: forward / backward / update with checkpoint hooks.

One :class:`TrainingJob` drives one or many ranks (model shards on their
GPUs) in lockstep, which is how synchronous data/model-parallel training
behaves from the checkpointing system's point of view.  Parameters are
immutable during F and B and mutate at the start of U — the property
every asynchronous checkpointing scheme in the paper leans on — so the
loop exposes two hook points:

* ``after_backward``: the last moment a consistent snapshot of the
  *current* step can still be taken or awaited; anything still reading
  GPU tensors after this point will observe the update (and the RDMA
  layer will hand it torn content).
* ``after_update``: where checkpoint policies trigger new checkpoints.

The ranks run in lockstep, so the job keeps one GPU-busy record for all
of them; stalls inside hooks show up as idle — that is the Fig. 16
utilization signal.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.dnn.tensor import ModelInstance
from repro.sim import Environment


class CheckpointHook:
    """Base hook: every method is a no-op generator; override what you need."""

    def on_job_start(self, job: "TrainingJob") -> Generator:
        return
        yield  # pragma: no cover

    def after_backward(self, job: "TrainingJob",
                       iteration: int) -> Generator:
        return
        yield  # pragma: no cover

    def after_update(self, job: "TrainingJob", iteration: int) -> Generator:
        return
        yield  # pragma: no cover

    def on_job_end(self, job: "TrainingJob") -> Generator:
        return
        yield  # pragma: no cover


class TrainingJob:
    """Synchronous training of one or more ranks with one hook."""

    def __init__(self, env: Environment, models: Sequence[ModelInstance],
                 iteration_ns: int,
                 phase_fractions: Tuple[float, float, float] = (0.35, 0.45,
                                                                0.20),
                 hook: Optional[CheckpointHook] = None,
                 name: str = "job") -> None:
        if not models:
            raise ValueError("a training job needs at least one rank")
        if abs(sum(phase_fractions) - 1.0) > 1e-6:
            raise ValueError(f"phase fractions must sum to 1, "
                             f"got {phase_fractions}")
        if iteration_ns <= 0:
            raise ValueError(f"iteration time must be positive, "
                             f"got {iteration_ns}")
        self.env = env
        self.models: List[ModelInstance] = list(models)
        self.iteration_ns = iteration_ns
        forward, backward, update = phase_fractions
        self.forward_ns = int(iteration_ns * forward)
        self.backward_ns = int(iteration_ns * backward)
        self.update_ns = iteration_ns - self.forward_ns - self.backward_ns
        self.hook = hook or CheckpointHook()
        self.name = name
        self.iterations_done = 0
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        #: GPU-busy intervals, closed, then the open one's start (if any).
        self._busy_intervals: List[Tuple[int, int]] = []
        self._busy_since: Optional[int] = None

    def _busy(self, duration_ns: int) -> Generator:
        self._busy_since = self.env.now
        yield self.env.timeout(duration_ns)
        self._busy_intervals.append((self._busy_since, self.env.now))
        self._busy_since = None

    def run(self, iterations: int) -> Generator:
        """Process: train for *iterations* steps."""
        yield from self._train(lambda done: done < iterations)

    def run_for(self, duration_ns: int) -> Generator:
        """Process: train until the clock passes ``start + duration_ns``.

        Used by the utilization-trace experiment (Fig. 16), where the
        question is "how many iterations fit in 500 s", not "how long do
        N iterations take".
        """
        deadline = self.env.now + duration_ns
        yield from self._train(lambda _done: self.env.now < deadline)

    def _train(self, more: Callable[[int], bool]) -> Generator:
        """The loop both runs share: iterate while ``more(done)``."""
        self.started_at = self.env.now
        yield from self.hook.on_job_start(self)
        iteration = 0
        while more(iteration):
            iteration += 1
            # Forward + backward: parameters are stable.
            yield from self._busy(self.forward_ns + self.backward_ns)
            # Consistency barrier: snapshots of this step end here.
            yield from self.hook.after_backward(self, iteration)
            # Update: every parameter is rewritten at the start of U.
            for model in self.models:
                model.update_step(iteration)
            yield from self._busy(self.update_ns)
            self.iterations_done = iteration
            yield from self.hook.after_update(self, iteration)
        yield from self.hook.on_job_end(self)
        self.finished_at = self.env.now

    def utilization(self, start: int, end: int) -> float:
        """Fraction of ``[start, end)`` the GPUs spent busy (an open
        busy interval counts up to *end*)."""
        if end < start:
            raise ValueError("window end before start")
        if end == start:
            return 0.0
        intervals = list(self._busy_intervals)
        if self._busy_since is not None:
            intervals.append((self._busy_since, end))
        busy = sum(max(0, min(hi, end) - max(lo, start))
                   for lo, hi in intervals)
        return busy / (end - start)

    def trace(self, start: int, end: int,
              bin_ns: int) -> List[Tuple[int, float]]:
        """Per-bin ``(bin start, utilization)`` over ``[start, end)``."""
        if bin_ns <= 0:
            raise ValueError(f"bin must be positive, got {bin_ns}")
        return [(lo, self.utilization(lo, min(lo + bin_ns, end)))
                for lo in range(start, end, bin_ns)]

    @property
    def elapsed_ns(self) -> int:
        if self.started_at is None or self.finished_at is None:
            raise ValueError("job has not finished")
        return self.finished_at - self.started_at
