"""One runner per table/figure of the paper's evaluation.

Each function builds a fresh :class:`~repro.harness.cluster.PaperCluster`,
runs the experiment, and returns a plain-dict result the benchmarks both
assert on (shape checks) and print (paper-style rows).  See DESIGN.md §4
for the experiment index and EXPERIMENTS.md for paper-vs-measured.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.baselines.checkfreq import CheckFreqPolicy
from repro.baselines.policies import SyncCheckpointPolicy
from repro.baselines.torch_save import TorchSaveCheckpointer
from repro.core.async_ckpt import PortusAsyncPolicy, PortusSyncPolicy
from repro.core.engine import ENGINE_CHUNK_BYTES
from repro.dnn.gpt import GPT_CONFIGS, GptConfig, shard_gpt
from repro.dnn.models import build_model
from repro.dnn.tensor import ModelInstance
from repro.dnn.training import TrainingJob
from repro.harness.cluster import PaperCluster
from repro.hw.content import PatternContent
from repro.hw.devices import PMEM_CONGESTION_THRESHOLD
from repro.rdma.verbs import connect
from repro.sim import AllOf
from repro.units import kib, mib, secs, to_seconds

SEVEN_MODELS = ["alexnet", "convnext_base", "resnet50", "swin_b",
                "vgg19_bn", "vit_l_32", "bert_large"]


# --- traced runs: the breakdowns' one timing record -------------------------------


def _traced_run(seed: int, scenario: Callable[..., Generator]):
    """Run ``scenario(env, cluster)`` untraced, then traced, on fresh
    clusters; return the traced cluster and the scenario's result.

    Both runs must agree on the result (a measured duration), the
    simulated end time and the metrics snapshot — the zero-cost contract
    (DESIGN.md §8): observability never perturbs what it measures.
    """
    observed = []
    for tracing in (False, True):
        cluster = PaperCluster(seed=seed, tracing=tracing)
        result = cluster.run(lambda env: scenario(env, cluster))
        observed.append((result, cluster.env.now,
                         cluster.obs.metrics.snapshot()))
    if observed[0] != observed[1]:
        raise AssertionError(
            f"tracing perturbed simulated time: untraced {observed[0]}, "
            f"traced {observed[1]}")
    return cluster, result


def _torch_save_checkpoint(fs_kind: str,
                           model_name: str = "bert_large"
                           ) -> Callable[..., Generator]:
    """Scenario: one *model_name* checkpoint via torch.save to *fs_kind*."""
    def scenario(env, cluster):
        if fs_kind == "beegfs":
            fs = yield from cluster.beegfs_mount()
        else:
            fs = cluster.volta_ext4
        checkpointer = TorchSaveCheckpointer(env, fs, cluster.volta.cpus)
        model = cluster.materialize(model_name)
        model.update_step(1)
        start = env.now
        yield from checkpointer.checkpoint(model)
        return env.now - start
    return scenario


# --- Table I: traditional checkpoint breakdown --------------------------------------


def table1_breakdown(model_name: str = "bert_large") -> Dict[str, float]:
    """BERT checkpoint via torch.save -> BeeGFS-PMem, phase shares."""
    cluster, _total = _traced_run(
        100, _torch_save_checkpoint("beegfs", model_name))
    tracer = cluster.obs.tracer
    dax = tracer.total_ns("fs.dax_write")
    phases = {
        "gpu_to_dram": tracer.total_ns("torch_save.gpu_to_dram"),
        "serialization": tracer.total_ns("torch_save.serialization"),
        "transmission": tracer.total_ns("torch_save.fs_write") - dax,
        "dax_write": dax,
    }
    total = sum(phases.values())
    return {phase: ns / total for phase, ns in phases.items()}


# --- Fig. 2: checkpoint share of training time ----------------------------------------


def fig2_overhead() -> Dict[str, float]:
    """Checkpoint stall share at CheckFreq-paper frequencies."""
    results = {}
    # ViT on a single V100, one checkpoint per 83 iterations.
    results["vit_l_32"] = _sync_overhead_single("vit_l_32", frequency=83,
                                                periods=2)
    # GPT-10B / GPT-22.4B on 16 A40s, one checkpoint per 100 iterations.
    for config_name in ("gpt-10.4b", "gpt-22.4b"):
        results[config_name] = _gpt_sync_overhead(config_name,
                                                  frequency=100)
    return results


def _sync_overhead_single(model_name: str, frequency: int,
                          periods: int) -> float:
    cluster = PaperCluster(seed=101)
    holder = {}

    def scenario(env):
        mount = yield from cluster.beegfs_mount()
        checkpointer = TorchSaveCheckpointer(env, mount,
                                             cluster.volta.cpus)
        model = cluster.materialize(model_name)
        policy = SyncCheckpointPolicy(env, checkpointer, frequency)
        spec = build_model(model_name)
        job = TrainingJob(env, [model], iteration_ns=spec.iteration_ns,
                          hook=policy)
        yield from job.run(frequency * periods)
        holder["fraction"] = policy.stall_ns / job.elapsed_ns

    cluster.run(scenario)
    return holder["fraction"]


def _gpt_sync_overhead(config_name: str, frequency: int) -> float:
    """One checkpoint period, analytically extended: stall/(stall+compute).

    Running 100 full Megatron iterations is pure waiting in simulated
    time, so we measure one checkpoint's wall time and one iteration's,
    then form the share the paper plots.
    """
    config = GPT_CONFIGS[config_name]
    dump_ns = fig14_gpt_dump(configs=[config_name])["torch_save"][0]
    compute_ns = frequency * config.iteration_ns()
    return dump_ns / (dump_ns + compute_ns)


# --- Fig. 10: datapath bandwidth / latency sweeps ---------------------------------------


FIG10_PATHS = ["dram->dram", "gpu->dram", "dram->pmem", "gpu->pmem"]
FIG10_WRITE_PATHS = ["dram->dram", "dram->gpu", "pmem->dram", "pmem->gpu"]


def fig10_datapath(sizes: Optional[List[int]] = None) -> Dict:
    """Raw one-sided READ/WRITE sweeps over the four device pairs.

    Reads: the server pulls from client DRAM or client GPU into server
    DRAM or PMem.  Writes: the server pushes outward.  Returns bandwidth
    (B/s) and latency (ns) per path per size.
    """
    if sizes is None:
        sizes = [kib(4), kib(64), kib(512), mib(4), mib(32), mib(256)]
    cluster = PaperCluster(seed=102)
    env = cluster.env
    gpu = cluster.volta.gpus[0]
    results = {"sizes": sizes,
               "read_bw": {path: [] for path in FIG10_PATHS},
               "read_latency": {path: [] for path in FIG10_PATHS},
               "write_bw": {path: [] for path in FIG10_WRITE_PATHS},
               "write_latency": {path: [] for path in FIG10_WRITE_PATHS}}

    def scenario(env):
        biggest = max(sizes)
        client_dram = cluster.volta.dram.alloc(biggest)
        client_gpu = gpu.alloc(biggest)
        server_dram = cluster.server.dram.alloc(biggest)
        server_pmem = cluster.server.pmem_devdax.alloc(biggest)
        client_dram.write(0, PatternContent(1, biggest))
        client_gpu.write(0, PatternContent(2, biggest))
        server_dram.write(0, PatternContent(3, biggest))
        server_pmem.write(0, PatternContent(4, biggest))
        client_nic, server_nic = cluster.volta.nic, cluster.server.nic
        mrs = {}
        for key, allocation, nic in (
                ("client_dram", client_dram, client_nic),
                ("client_gpu", client_gpu, client_nic),
                ("server_dram", server_dram, server_nic),
                ("server_pmem", server_pmem, server_nic)):
            mrs[key] = yield from nic.register_mr(allocation)
        server_qp, _client_qp = yield from connect(env, server_nic,
                                                   client_nic)
        read_pairs = {"dram->dram": ("client_dram", "server_dram"),
                      "gpu->dram": ("client_gpu", "server_dram"),
                      "dram->pmem": ("client_dram", "server_pmem"),
                      "gpu->pmem": ("client_gpu", "server_pmem")}
        for path, (src, dst) in read_pairs.items():
            for size in sizes:
                start = env.now
                yield server_qp.read(mrs[dst], 0, mrs[src].rkey,
                                     mrs[src].addr, size)
                elapsed = env.now - start
                results["read_bw"][path].append(size / to_seconds(elapsed))
                results["read_latency"][path].append(elapsed)
        write_pairs = {"dram->dram": ("server_dram", "client_dram"),
                       "dram->gpu": ("server_dram", "client_gpu"),
                       "pmem->dram": ("server_pmem", "client_dram"),
                       "pmem->gpu": ("server_pmem", "client_gpu")}
        for path, (src, dst) in write_pairs.items():
            for size in sizes:
                start = env.now
                yield server_qp.write(mrs[src], 0, mrs[dst].rkey,
                                      mrs[dst].addr, size)
                elapsed = env.now - start
                results["write_bw"][path].append(size / to_seconds(elapsed))
                results["write_latency"][path].append(elapsed)

    cluster.run(scenario)
    return results


# --- Fig. 11 / Fig. 12: per-model checkpoint and restore times ---------------------------


def fig11_fig12_times(models: Optional[List[str]] = None) -> Dict:
    """Checkpoint and restore times per model per storage option."""
    models = models or SEVEN_MODELS
    results = {"models": models,
               "checkpoint": {"portus": [], "beegfs_pmem": [],
                              "ext4_nvme": []},
               "restore": {"portus": [], "beegfs_pmem": [],
                           "ext4_nvme": []}}
    for model_name in models:
        portus_ckpt, portus_restore = _portus_times(model_name)
        results["checkpoint"]["portus"].append(portus_ckpt)
        results["restore"]["portus"].append(portus_restore)
        for option, make_fs in (("beegfs_pmem", "beegfs"),
                                ("ext4_nvme", "ext4")):
            ckpt, restore = _torch_save_times(model_name, make_fs)
            results["checkpoint"][option].append(ckpt)
            results["restore"][option].append(restore)
    return results


def _portus_times(model_name: str) -> Tuple[int, int]:
    cluster = PaperCluster(seed=103)
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register(model_name)
        session.model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        holder["ckpt"] = env.now - start
        start = env.now
        yield from session.restore()
        holder["restore"] = env.now - start

    cluster.run(scenario)
    return holder["ckpt"], holder["restore"]


def _torch_save_times(model_name: str, fs_kind: str) -> Tuple[int, int]:
    cluster = PaperCluster(seed=104)
    holder = {}

    def scenario(env):
        if fs_kind == "beegfs":
            fs = yield from cluster.beegfs_mount()
        else:
            fs = cluster.volta_ext4
        checkpointer = TorchSaveCheckpointer(env, fs, cluster.volta.cpus)
        model = cluster.materialize(model_name)
        model.update_step(1)
        start = env.now
        yield from checkpointer.checkpoint(model)
        holder["ckpt"] = env.now - start
        start = env.now
        yield from checkpointer.restore(model)
        holder["restore"] = env.now - start

    cluster.run(scenario)
    return holder["ckpt"], holder["restore"]


def speedups(times: Dict, kind: str) -> Dict[str, List[float]]:
    """Per-model Portus speedups vs both baselines."""
    portus = times[kind]["portus"]
    return {
        "vs_beegfs": [b / p for b, p in zip(times[kind]["beegfs_pmem"],
                                            portus)],
        "vs_ext4": [b / p for b, p in zip(times[kind]["ext4_nvme"],
                                          portus)],
    }


# --- Fig. 13: BERT checkpoint breakdown per storage option -------------------------------


def fig13_bert_breakdown() -> Dict:
    """Stacked phase shares for ext4-NVMe, BeeGFS-PMem, and Portus.

    Each storage option is one traced BERT checkpoint, asserted
    bit-identical to an untraced twin, and every phase is read from its
    spans.  Per option the result holds the shares, the total
    (``<option>_total_ns``), and its Chrome trace and metrics snapshot
    (under ``chrome_trace_json`` and ``metrics``).
    """
    results: Dict = {"chrome_trace_json": {}, "metrics": {}}

    def record(option: str, cluster: PaperCluster, phases_ns: Dict[str, int],
               total: int) -> None:
        results[option] = {k: v / total for k, v in phases_ns.items()}
        results[f"{option}_total_ns"] = total
        results["chrome_trace_json"][option] = (
            cluster.obs.tracer.chrome_trace_json())
        results["metrics"][option] = cluster.obs.metrics.snapshot()

    for option, fs_kind in (("ext4_nvme", "ext4"),
                            ("beegfs_pmem", "beegfs")):
        cluster, _elapsed = _traced_run(105, _torch_save_checkpoint(fs_kind))
        tracer = cluster.obs.tracer
        fs_write = tracer.total_ns("torch_save.fs_write")
        phases_ns = {"serialization+cuMemcpy": (
            tracer.total_ns("torch_save.serialization")
            + tracer.total_ns("torch_save.gpu_to_dram"))}
        if fs_kind == "ext4":
            io = (tracer.total_ns("fs.block_io")
                  + tracer.total_ns("fs.page_cache"))
            phases_ns.update(block_io_kernel=io, other=max(fs_write - io, 0))
        else:
            phases_ns["rdma_rpc"] = fs_write
        record(option, cluster, phases_ns, sum(phases_ns.values()))

    # Portus: the daemon's spans split the client's checkpoint request.
    def portus_checkpoint(env, cluster):
        session = yield from cluster.portus_register("bert_large")
        session.model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        return env.now - start

    cluster, total = _traced_run(106, portus_checkpoint)
    tracer = cluster.obs.tracer
    daemon = tracer.one("daemon.DO_CHECKPOINT").duration_ns
    begin = tracer.one("ckpt.begin").duration_ns
    pull = tracer.one("engine.read").duration_ns
    commit = tracer.one("ckpt.persist_commit").duration_ns
    record("portus", cluster, {
        "begin": begin,
        "rdma_pull": pull,
        "persist_commit": commit,
        "daemon_dispatch": daemon - begin - pull - commit,
        "control_plane": total - daemon,
    }, total)
    return results


# --- Fig. 14: GPT checkpoint dump, torch.save vs Portus -----------------------------------


GPT_SWEEP = ["gpt-1.5b", "gpt-4.2b", "gpt-8.3b", "gpt-12.9b", "gpt-22.4b"]


def _gpt_shards_on_cluster(cluster: PaperCluster,
                           config: GptConfig) -> List[ModelInstance]:
    """Materialize the 16 Megatron shards across the two Ampere nodes."""
    shards = shard_gpt(config, tensor_parallel=8, pipeline_parallel=2)
    instances = []
    for index, shard in enumerate(shards):
        node = cluster.amperes[index // 8]
        gpu = index % 8
        instances.append(ModelInstance.materialize(
            shard.name, shard.tensors, node.gpus[gpu],
            model_seed=1000 + index))
    return instances


def fig14_gpt_dump(configs: Optional[List[str]] = None) -> Dict:
    """One checkpoint dump of each GPT size: torch.save vs Portus."""
    configs = configs or GPT_SWEEP
    results = {"configs": configs, "params_b": [], "bytes": [],
               "torch_save": [], "portus": []}
    for name in configs:
        config = GPT_CONFIGS[name]
        results["params_b"].append(config.param_count() / 1e9)
        results["torch_save"].append(_gpt_torch_save_dump(config))
        portus_ns, total_bytes = _gpt_portus_dump(config)
        results["portus"].append(portus_ns)
        results["bytes"].append(total_bytes)
    return results


#: Stripe width and ingest cap of the tuned datapath: the cap is the
#: PMem congestion threshold (repro.harness.calibration derives it).
ENGINE_STRIPED_QPS = 4
ENGINE_STRIPED_OPTS = dict(max_pmem_streams=PMEM_CONGESTION_THRESHOLD)


def engine_datapath_ablation(config_name: str = "gpt-22.4b") -> Dict:
    """The Fig. 14 dump under the two datapaths (engine ablation).

    * ``sliding`` — the engine's default: one QP, 4 MiB segmentation,
      largest-first, credit-based sliding window;
    * ``striped`` — 4 QPs per model plus the daemon-wide PMem ingest
      limiter, which keeps the concurrent-checkpoint dump under the
      Optane congestion cliff (the entire recoverable headroom:
      8.4/6.0 = 1.40x; see DESIGN.md §7).
    """
    config = GPT_CONFIGS[config_name]
    sliding_ns, total_bytes = _gpt_portus_dump(config)
    striped_ns, _ = _gpt_portus_dump(
        config, daemon_kwargs=dict(ENGINE_STRIPED_OPTS),
        num_qps=ENGINE_STRIPED_QPS)
    return {"config": config_name, "bytes": total_bytes,
            "chunk_bytes": ENGINE_CHUNK_BYTES,
            "striped_qps": ENGINE_STRIPED_QPS,
            "sliding_ns": sliding_ns, "striped_ns": striped_ns}


def _gpt_torch_save_dump(config: GptConfig) -> int:
    """Megatron save_checkpoint: ranks write their shard files to the
    shared filesystem in rank order (serialized, as Megatron's
    checkpoint barrier enforces)."""
    cluster = PaperCluster(seed=107)
    holder = {}

    def scenario(env):
        instances = _gpt_shards_on_cluster(cluster, config)
        mounts = []
        for node in cluster.amperes:
            mount = yield from cluster.beegfs_mount(node)
            mounts.append(mount)
        checkpointers = [
            TorchSaveCheckpointer(env, mount, node.cpus)
            for mount, node in zip(mounts, cluster.amperes)
        ]
        for instance in instances:
            instance.update_step(1)
        start = env.now
        for index, instance in enumerate(instances):
            yield from checkpointers[index // 8].checkpoint(instance)
        holder["elapsed"] = env.now - start

    cluster.run(scenario)
    return holder["elapsed"]


def _gpt_portus_dump(config: GptConfig,
                     daemon_kwargs: Optional[Dict] = None,
                     num_qps: int = 1) -> Tuple[int, int]:
    """All 16 shards checkpoint concurrently through the daemon.

    *daemon_kwargs* / *num_qps* parameterize the datapath (engine policy
    and stripe width) for the engine-ablation benchmarks; the defaults
    are the paper-faithful configuration.
    """
    cluster = PaperCluster(seed=108, daemon_kwargs=daemon_kwargs,
                           client_num_qps=num_qps)
    holder = {}

    def scenario(env):
        instances = _gpt_shards_on_cluster(cluster, config)
        sessions = []
        for index, instance in enumerate(instances):
            node = cluster.amperes[index // 8]
            session = yield from cluster.portus_register(instance,
                                                         node=node)
            sessions.append(session)
        for instance in instances:
            instance.update_step(1)
        start = env.now
        pulls = [env.process(session.checkpoint(1))
                 for session in sessions]
        yield AllOf(env, pulls)
        holder["elapsed"] = env.now - start
        holder["bytes"] = sum(i.total_bytes for i in instances)

    cluster.run(scenario)
    return holder["elapsed"], holder["bytes"]


# --- Fig. 15 / Fig. 16: GPT-22.4B training throughput and GPU utilization ------------------


def fig15_fig16_training(config_name: str = "gpt-22.4b",
                         checkpoint_every: int = 20,
                         window_s: int = 500) -> Dict:
    """Train GPT under fine-grained checkpointing: CheckFreq vs Portus.

    Returns per-system iterations completed in the window, the mean GPU
    utilization, a binned utilization trace (Fig. 16), and the projected
    extra iterations over 24 h (the paper's 14,400 figure).
    """
    config = GPT_CONFIGS[config_name]
    results = {"config": config_name, "window_s": window_s,
               "checkpoint_every": checkpoint_every}
    for system in ("checkfreq", "portus"):
        cluster = PaperCluster(seed=109)
        holder = {}

        def scenario(env, system=system, cluster=cluster, holder=holder):
            instances = _gpt_shards_on_cluster(cluster, config)
            if system == "checkfreq":
                mount = yield from cluster.beegfs_mount(cluster.amperes[0])
                checkpointer = TorchSaveCheckpointer(
                    env, mount, cluster.amperes[0].cpus)
                policy = CheckFreqPolicy(env, checkpointer,
                                         frequency=checkpoint_every)
            else:
                sessions = []
                for index, instance in enumerate(instances):
                    node = cluster.amperes[index // 8]
                    session = yield from cluster.portus_register(
                        instance, node=node)
                    sessions.append(session)
                policy = PortusAsyncPolicy(env, sessions,
                                           frequency=checkpoint_every)
            job = TrainingJob(env, instances,
                              iteration_ns=config.iteration_ns(),
                              hook=policy)
            holder["job"] = job
            yield from job.run_for(secs(window_s))

        cluster.run(scenario)
        job = holder["job"]
        window_ns = job.finished_at - job.started_at
        window_end = job.started_at + secs(window_s)
        utilization = job.utilization(job.started_at, window_end)
        trace = job.trace(job.started_at, window_end, secs(10))
        iters_per_day = job.iterations_done * (24 * 3600) / to_seconds(
            window_ns)
        results[system] = {
            "iterations": job.iterations_done,
            "utilization": utilization,
            "trace": trace,
            "iters_per_day": iters_per_day,
        }
    results["throughput_ratio"] = (results["portus"]["iters_per_day"]
                                   / results["checkfreq"]["iters_per_day"])
    results["extra_iters_per_day"] = (results["portus"]["iters_per_day"]
                                      - results["checkfreq"]["iters_per_day"])
    return results


# --- Fig. 9: training timeline comparison ---------------------------------------------------


def fig9_timeline(model_name: str = "resnet50", iterations: int = 10) -> Dict:
    """Four policies on one model: total time and stall share each."""
    spec = build_model(model_name)
    results = {"model": model_name, "iterations": iterations,
               "compute_ns": iterations * spec.iteration_ns}

    def measure(policy_factory) -> Dict:
        cluster = PaperCluster(seed=110)
        holder = {}

        def scenario(env):
            model = cluster.materialize(model_name)
            policy = yield from policy_factory(env, cluster, model)
            job = TrainingJob(env, [model],
                              iteration_ns=spec.iteration_ns, hook=policy)
            holder["job"] = job
            holder["policy"] = policy
            yield from job.run(iterations)

        cluster.run(scenario)
        job = holder["job"]
        return {"total_ns": job.elapsed_ns,
                "stall_ns": getattr(holder["policy"], "stall_ns", 0)}

    def pytorch_sync(env, cluster, model):
        mount = yield from cluster.beegfs_mount()
        checkpointer = TorchSaveCheckpointer(env, mount,
                                             cluster.volta.cpus)
        return SyncCheckpointPolicy(env, checkpointer, frequency=1)

    def checkfreq(env, cluster, model):
        mount = yield from cluster.beegfs_mount()
        checkpointer = TorchSaveCheckpointer(env, mount,
                                             cluster.volta.cpus)
        return CheckFreqPolicy(env, checkpointer, frequency=1)

    def portus_sync(env, cluster, model):
        session = yield from cluster.portus_client().register(model)
        return PortusSyncPolicy(env, [session], frequency=1)

    def portus_async(env, cluster, model):
        session = yield from cluster.portus_client().register(model)
        return PortusAsyncPolicy(env, [session], frequency=1)

    results["pytorch_sync"] = measure(pytorch_sync)
    results["checkfreq"] = measure(checkfreq)
    results["portus_sync"] = measure(portus_sync)
    results["portus_async"] = measure(portus_async)
    return results


# --- Self-healing ops: adaptive interval vs fixed CheckFreq tuning ------------------


def ops_policy_lost_work(horizon_s: int = 1800, seed: int = 7,
                         iteration_ns: Optional[int] = None,
                         checkpoint_cost_ns: Optional[int] = None) -> Dict:
    """Expected lost work: adaptive Young/Daly interval vs CheckFreq.

    CheckFreq's tuner picks the checkpoint frequency once, from a
    profiling pass (stall cost vs an overhead budget) — it never looks
    at how often the deployment actually fails.  The operator's
    :class:`~repro.ops.policy.AdaptiveIntervalController` re-derives the
    Young/Daly optimum from the *measured* MTBF after every failure.

    Both policies replay the identical seeded failure trace — a calm
    phase, a crash storm (the interesting regime: a flaky NIC, a
    crash-looping daemon), and a second calm phase — and are charged
    the same two wastes: work lost to each failure (time since the last
    durable checkpoint) and checkpoint stall (count x cost).  Returns
    per-policy totals and the adaptive/fixed waste ratio (< 1.0 means
    the controller pays for itself).
    """
    import random as _random

    from repro.baselines.checkfreq import recommend_frequency
    from repro.ops.policy import AdaptiveIntervalController
    from repro.units import msecs

    iteration_ns = iteration_ns or msecs(500)
    # The blocking stall per checkpoint (CheckFreq's snapshot phase;
    # Portus' sync pull) — what both policies are charged per save.
    cost_ns = checkpoint_cost_ns or msecs(200)

    # Ground-truth failure process: calm / crash-storm / calm.  The
    # storm MTBF (20 s) is an order of magnitude below the calm one.
    phases = [(secs(horizon_s * 2 // 5), secs(300)),
              (secs(horizon_s // 5), secs(20)),
              (secs(horizon_s * 2 // 5), secs(300))]
    rng = _random.Random(seed)
    failures: List[int] = []
    phase_start = 0
    for duration_ns, mtbf_ns in phases:
        at = phase_start
        while True:
            at += max(1, int(rng.expovariate(1.0 / mtbf_ns)))
            if at >= phase_start + duration_ns:
                break
            failures.append(at)
        phase_start += duration_ns
    horizon_ns = phase_start

    def walk(interval_fn, on_failure=None, on_checkpoint=None) -> Dict:
        lost = overhead = checkpoints = 0
        now = last_durable = 0
        pending = list(failures)
        while now < horizon_ns:
            next_ckpt = now + max(1, interval_fn(now))
            if pending and pending[0] < min(next_ckpt, horizon_ns):
                failure_at = pending.pop(0)
                lost += failure_at - last_durable
                now = last_durable = failure_at
                if on_failure:
                    on_failure(failure_at)
            elif next_ckpt < horizon_ns:
                now = last_durable = next_ckpt
                overhead += cost_ns
                checkpoints += 1
                if on_checkpoint:
                    on_checkpoint(cost_ns)
            else:
                now = horizon_ns
        return {"lost_work_s": to_seconds(lost),
                "overhead_s": to_seconds(overhead),
                "waste_s": to_seconds(lost + overhead),
                "checkpoints": checkpoints,
                "failures": len(failures)}

    # CheckFreq: profile-derived, failure-blind, fixed for the run.
    k = recommend_frequency(iteration_ns, snapshot_ns=cost_ns,
                            persist_ns=4 * cost_ns,
                            overhead_budget=0.01)
    fixed_interval = k * iteration_ns
    fixed = walk(lambda now: fixed_interval)
    fixed["interval_s"] = to_seconds(fixed_interval)

    controller = AdaptiveIntervalController(prior_mtbf_ns=secs(300),
                                            prior_cost_ns=cost_ns,
                                            max_interval_ns=secs(120))
    controller.observe_start(0)
    adaptive = walk(controller.interval_ns,
                    on_failure=controller.observe_failure,
                    on_checkpoint=controller.observe_checkpoint_cost)
    adaptive["final_interval_s"] = to_seconds(controller.interval_ns(
        horizon_ns))

    return {"fixed": fixed, "adaptive": adaptive,
            "waste_ratio": adaptive["waste_s"] / fixed["waste_s"],
            "lost_work_ratio": (adaptive["lost_work_s"]
                                / max(fixed["lost_work_s"], 1e-9))}
