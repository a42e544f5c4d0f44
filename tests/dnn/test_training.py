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
    util = job.recorders[0].utilization(job.started_at, job.finished_at)
    assert util == pytest.approx(1.0, abs=1e-9)


def test_hook_stall_shows_as_idle():
    env = Environment()

    class Stall(CheckpointHook):
        def after_update(self, job, iteration):
            yield job.env.timeout(msecs(100))  # stall as long as an iter

    job = make_job(env, hook=Stall())
    env.run_process(env.process(job.run(5)))
    util = job.recorders[0].utilization(job.started_at, job.finished_at)
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
    assert len(job.recorders) == 4
    for recorder in job.recorders:
        assert recorder.utilization(job.started_at,
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
