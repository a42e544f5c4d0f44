#!/usr/bin/env python3
"""Quickstart: checkpoint and restore one model with Portus.

Builds the paper's testbed (simulated), trains ResNet50 on one V100 with
asynchronous Portus checkpointing every iteration, then "crashes" the
training job and restores the latest checkpoint — verifying the restored
weights bit-for-bit.

Run:  python examples/quickstart.py
"""

from repro.core.async_ckpt import PortusAsyncPolicy
from repro.dnn.models import build_model
from repro.dnn.training import TrainingJob
from repro.harness.cluster import PaperCluster
from repro.units import fmt_bytes, fmt_time


def main() -> None:
    cluster = PaperCluster(seed=42)
    spec = build_model("resnet50")
    print(f"model: resnet50 — {spec.param_count:,} parameters in "
          f"{spec.tensor_count} tensors ({fmt_bytes(spec.total_bytes)})")

    state = {}

    def train_and_crash(env):
        # 1. Register: pins every tensor's GPU memory, ships the
        #    description packet, and builds the three-level index on PMem.
        session = yield from cluster.portus_register("resnet50")
        state["session"] = session

        # 2. Train with asynchronous checkpointing every iteration: the
        #    pull overlaps the next forward+backward pass.
        policy = PortusAsyncPolicy(env, [session], frequency=1)
        job = TrainingJob(env, [session.model],
                          iteration_ns=spec.iteration_ns, hook=policy)
        yield from job.run(25)
        state["job"] = job
        state["policy"] = policy

    cluster.run(train_and_crash)
    job = state["job"]
    policy = state["policy"]
    print(f"trained {job.iterations_done} iterations in "
          f"{fmt_time(job.elapsed_ns)} with {policy.checkpoints_taken} "
          f"checkpoints (total stall: {fmt_time(policy.stall_ns)})")
    util = job.utilization(job.started_at, job.finished_at)
    print(f"GPU utilization: {util * 100:.1f}%  — checkpointing is "
          "effectively free")

    # 3. The job dies.  Restore into the existing session (a real restart
    #    would re-register an empty model first; see distributed_gpt.py).
    def recover(env):
        session = state["session"]
        session.model.update_step(9999)  # trash the weights
        step = yield from session.restore()
        return step

    step = cluster.run(recover)
    session = state["session"]
    contents = {t.name: t.content() for t in session.model.tensors}
    mismatched = session.model.verify_against(contents, step=step)
    print(f"restored step {step}; "
          f"{'bit-exact' if not mismatched else 'MISMATCH: ' + str(mismatched)}")


if __name__ == "__main__":
    main()
