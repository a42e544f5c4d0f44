#!/usr/bin/env python3
"""Multi-tenant checkpointing: N training jobs share a checkpoint fleet.

The paper's three-level index exists to serve many concurrent tenants:
each model gets its own MIndex and TensorData regions, workers are
independent, and only the ModelTable is shared (updated lock-free).
This example runs N CV jobs with different iteration times and
checkpoint frequencies against a Portus deployment, then shows the
daemons' view and the fair sharing of the pull bandwidth.

The tenant table comes from :func:`repro.fleet.workload.generate_tenants`
— the same generator ``benchmarks/bench_fleet.py`` scales to ~100
tenants — and the default four rows reproduce the classic hard-coded
table (resnet50/vgg19_bn/swin_b/vit_l_32 at frequencies 1/2/2/4).

Run:  python examples/multi_tenant.py
      python examples/multi_tenant.py --tenants 8 --daemons 2
      python examples/multi_tenant.py --tenants 6 --seed 7 --iters 8
"""

import argparse

from repro.core.async_ckpt import PortusAsyncPolicy
from repro.core.portusctl import format_view, view
from repro.dnn.zoo import build_zoo_model
from repro.dnn.training import TrainingJob
from repro.fleet import FleetClient, generate_tenants
from repro.fleet.workload import place_on_cluster
from repro.harness.cluster import PaperCluster
from repro.sim import AllOf
from repro.units import fmt_bytes, fmt_time


def main() -> None:
    parser = argparse.ArgumentParser(
        description="N tenants checkpointing against a Portus fleet")
    parser.add_argument("--tenants", type=int, default=4,
                        help="number of tenant jobs (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload-table seed (default 0)")
    parser.add_argument("--daemons", type=int, default=1,
                        help="storage shards / daemons (default 1)")
    parser.add_argument("--iters", type=int, default=12,
                        help="training iterations per tenant (default 12)")
    args = parser.parse_args()

    cluster = PaperCluster(seed=99, storage_nodes=args.daemons)
    fleet = FleetClient(cluster)
    tenants = generate_tenants(args.tenants, seed=args.seed)
    jobs = {}

    def run_tenants(env):
        procs = []
        for spec in tenants:
            node, gpu = place_on_cluster(cluster, spec)
            session = yield from fleet.register_spec(spec)
            policy = PortusAsyncPolicy(env, [session],
                                       frequency=spec.frequency)
            model_spec = build_zoo_model(spec.model)
            job = TrainingJob(env, [session.model],
                              iteration_ns=model_spec.iteration_ns,
                              hook=policy, name=spec.name)
            jobs[spec.name] = (spec, job, policy)
            procs.append(env.process(job.run(args.iters),
                                     name=f"job-{spec.name}"))
        yield AllOf(env, procs)

    cluster.run(run_tenants)

    print("tenant results:")
    for name, (spec, job, policy) in jobs.items():
        util = job.utilization(job.started_at, job.finished_at)
        shard = fleet.shard_of(spec.name, spec.instance_name)
        print(f"  {name} {spec.model:14} {job.iterations_done} iters in "
              f"{fmt_time(job.elapsed_ns)}  ckpts={policy.checkpoints_taken}"
              f"  stall={fmt_time(policy.stall_ns)}  util={util * 100:.1f}%"
              f"  shard={shard.name}")

    metrics = cluster.obs.metrics
    for shard in cluster.shards:
        completed = metrics.value("daemon.checkpoints_completed",
                                  shard=shard.name)
        pulled = metrics.value("daemon.bytes_pulled", shard=shard.name)
        print(f"\ndaemon: {shard.name} {completed} checkpoints, "
              f"{fmt_bytes(pulled)} pulled")
        print(f"\nPMem contents ({shard.name}, portusctl view):")
        print(format_view(view(shard.pool)))

    print("DONE")


if __name__ == "__main__":
    main()
