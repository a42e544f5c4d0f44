"""Tests for the training loop, its hooks, and utilization recording."""

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.dnn.training import CheckpointHook, TrainingJob
from repro.hw import GpuMemory
from repro.sim import Environment
from repro.units import SECOND, gib, msecs


def make_job(env, hook=None, ranks=1, iteration_ns=msecs(100)):
    models = []
    for i in range(ranks):
        gpu = GpuMemory(env, name=f"gpu{i}", capacity=gib(4))
        specs = [TensorSpec("w", (256, 256))]
        models.append(ModelInstance.materialize(f"m{i}", specs, gpu))
    return TrainingJob(env, models, iteration_ns=iteration_ns, hook=hook)


def test_iterations_advance_clock():
    env = Environment()
    job = make_job(env)
    env.run_process(env.process(job.run(10)))
    assert job.iterations_done == 10
    assert job.elapsed_ns == 10 * msecs(100)


def test_updates_change_model_step():
    env = Environment()
    job = make_job(env)
    env.run_process(env.process(job.run(3)))
    assert all(model.step == 3 for model in job.models)
    tensor = job.models[0].tensors[0]
    assert tensor.content().equals(tensor.expected_content(3))


def test_full_utilization_without_hook():
    env = Environment()
    job = make_job(env)
    env.run_process(env.process(job.run(5)))
    util = job.utilization(job.started_at, job.finished_at)
    assert util == pytest.approx(1.0, abs=1e-9)


def test_hook_stall_shows_as_idle():
    env = Environment()

    class Stall(CheckpointHook):
        def after_update(self, job, iteration):
            yield job.env.timeout(msecs(100))  # stall as long as an iter

    job = make_job(env, hook=Stall())
    env.run_process(env.process(job.run(5)))
    util = job.utilization(job.started_at, job.finished_at)
    assert util == pytest.approx(0.5, abs=0.01)


def test_hook_order_and_arguments():
    env = Environment()
    calls = []

    class Tracker(CheckpointHook):
        def on_job_start(self, job):
            calls.append("start")
            return
            yield

        def after_backward(self, job, iteration):
            calls.append(("ab", iteration, job.models[0].step))
            return
            yield

        def after_update(self, job, iteration):
            calls.append(("au", iteration, job.models[0].step))
            return
            yield

        def on_job_end(self, job):
            calls.append("end")
            return
            yield

    job = make_job(env, hook=Tracker())
    env.run_process(env.process(job.run(2)))
    # after_backward sees the PREVIOUS step's parameters (not yet updated).
    assert calls == ["start", ("ab", 1, 0), ("au", 1, 1),
                     ("ab", 2, 1), ("au", 2, 2), "end"]


def test_multi_rank_lockstep():
    env = Environment()
    job = make_job(env, ranks=4)
    env.run_process(env.process(job.run(3)))
    assert len(job.models) == 4
    assert all(model.step == 3 for model in job.models)
    assert job.utilization(job.started_at,
                           job.finished_at) == pytest.approx(1.0)


def test_run_for_duration():
    env = Environment()
    job = make_job(env, iteration_ns=msecs(100))
    env.run_process(env.process(job.run_for(1 * SECOND)))
    assert job.iterations_done == 10


def test_phase_fractions_validated():
    env = Environment()
    gpu = GpuMemory(env, capacity=gib(1))
    model = ModelInstance.materialize("m", [TensorSpec("w", (8,))], gpu)
    with pytest.raises(ValueError, match="sum to 1"):
        TrainingJob(env, [model], iteration_ns=1000,
                    phase_fractions=(0.5, 0.4, 0.4))
    with pytest.raises(ValueError, match="at least one rank"):
        TrainingJob(env, [], iteration_ns=1000)


# --- the job's GPU-busy record ----------------------------------------------


class StallAfterBackward(CheckpointHook):
    """Idle the GPUs for *ns* at every consistency barrier."""

    def __init__(self, ns):
        self.ns = ns

    def after_backward(self, job, iteration):
        yield job.env.timeout(self.ns)


def stalled_job(env):
    """One 100 ns iteration with a 20 ns barrier stall: the GPUs are
    busy over [0, 80) (forward + backward) and [100, 120) (update)."""
    job = make_job(env, hook=StallAfterBackward(20), iteration_ns=100)
    env.process(job.run(1))
    return job


def test_utilization_counts_busy_time_in_window():
    env = Environment()
    job = stalled_job(env)
    env.run()
    assert job.utilization(0, 120) == 100 / 120
    assert job.utilization(0, 100) == 0.8


def test_utilization_clips_intervals_to_the_window():
    env = Environment()
    job = stalled_job(env)
    env.run()
    assert job.utilization(50, 110) == 40 / 60
    assert job.utilization(80, 100) == 0.0
    assert job.utilization(200, 300) == 0.0


def test_utilization_counts_the_open_busy_interval():
    env = Environment()
    job = stalled_job(env)
    env.run(until=110)  # mid-update: busy since 100
    assert job.utilization(0, 120) == 100 / 120
    assert job.utilization(100, 110) == 1.0


def test_trace_bins_utilization():
    env = Environment()
    job = stalled_job(env)
    env.run()
    assert job.trace(0, 120, bin_ns=40) == [(0, 1.0), (40, 1.0), (80, 0.5)]
    # The last bin is clipped to the window.
    assert job.trace(0, 120, bin_ns=50) == [(0, 1.0), (50, 0.6),
                                            (100, 1.0)]


def test_trace_rejects_a_nonpositive_bin():
    env = Environment()
    job = stalled_job(env)
    with pytest.raises(ValueError):
        job.trace(0, 100, bin_ns=0)


def test_zero_length_window():
    env = Environment()
    job = stalled_job(env)
    env.run()
    assert job.utilization(10, 10) == 0.0
