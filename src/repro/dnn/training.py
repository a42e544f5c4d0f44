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

GPU busy time is recorded per rank; stalls inside hooks show up as idle —
that is the Fig. 16 utilization signal.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.dnn.tensor import ModelInstance
from repro.metrics import IntervalRecorder
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


class TrainingRank:
    """One model shard on one GPU, with its utilization recorder."""

    def __init__(self, model: ModelInstance) -> None:
        self.model = model
        device = model.tensors[0].device if model.tensors else None
        self.device = device
        self.recorder = IntervalRecorder(name=model.name)


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
        self.ranks = [TrainingRank(model) for model in models]
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

    @property
    def models(self) -> List[ModelInstance]:
        return [rank.model for rank in self.ranks]

    @property
    def recorders(self) -> List[IntervalRecorder]:
        return [rank.recorder for rank in self.ranks]

    def _busy(self, duration_ns: int) -> Generator:
        for rank in self.ranks:
            rank.recorder.begin(self.env.now)
        yield self.env.timeout(duration_ns)
        for rank in self.ranks:
            rank.recorder.end(self.env.now)

    def run(self, iterations: int) -> Generator:
        """Process: train for *iterations* steps."""
        self.started_at = self.env.now
        yield from self.hook.on_job_start(self)
        for iteration in range(1, iterations + 1):
            # Forward + backward: parameters are stable.
            yield from self._busy(self.forward_ns + self.backward_ns)
            # Consistency barrier: snapshots of this step end here.
            yield from self.hook.after_backward(self, iteration)
            # Update: every parameter is rewritten at the start of U.
            for rank in self.ranks:
                rank.model.update_step(iteration)
            yield from self._busy(self.update_ns)
            self.iterations_done = iteration
            yield from self.hook.after_update(self, iteration)
        yield from self.hook.on_job_end(self)
        self.finished_at = self.env.now

    def run_for(self, duration_ns: int) -> Generator:
        """Process: train until the clock passes ``start + duration_ns``.

        Used by the utilization-trace experiment (Fig. 16), where the
        question is "how many iterations fit in 500 s", not "how long do
        N iterations take".
        """
        self.started_at = self.env.now
        deadline = self.env.now + duration_ns
        yield from self.hook.on_job_start(self)
        iteration = 0
        while self.env.now < deadline:
            iteration += 1
            yield from self._busy(self.forward_ns + self.backward_ns)
            yield from self.hook.after_backward(self, iteration)
            for rank in self.ranks:
                rank.model.update_step(iteration)
            yield from self._busy(self.update_ns)
            self.iterations_done = iteration
            yield from self.hook.after_update(self, iteration)
        yield from self.hook.on_job_end(self)
        self.finished_at = self.env.now

    @property
    def elapsed_ns(self) -> int:
        if self.started_at is None or self.finished_at is None:
            raise ValueError("job has not finished")
        return self.finished_at - self.started_at
