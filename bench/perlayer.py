"""Per-layer metrics, read from outside the program.

Three sources, none of which changes simulated time:

* the spans of a traced pass (``PaperCluster(tracing=True)``), split
  along the critical path of every dump step and of the restore;
* the cluster's metrics registry and the simulator's own counters;
* a ``cProfile`` of a traced pass, with self time summed per ``repro``
  package.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.sim.resources import scheduler_stats
from workloads import Pass, check

#: The dump split: every step's latency is the sum of these parts.
DUMP_PARTS = ("core.client.ctrl_ms", "fleet.admission.wait_ms",
              "core.daemon.begin_ms", "core.engine.pull_ms",
              "pmem.persist_commit_ms", "core.daemon.dispatch_ms",
              "core.group.commit_ms", "core.group.skew_ms")

#: Host-clock buckets as (module prefix, name): a ``repro`` module is
#: charged to the first prefix it falls under, anything else to
#: ``other``.  ``sim`` without the fluid solver is the event engine
#: (``sim/core.py``, ``sim/process.py``).
HOST_BUCKETS = (("sim.resources", "sim.resources"), ("sim", "sim.core"),
                ("hw.content", "hw.content"), ("core.dedup", "core.dedup"),
                ("core.protocol", "core.protocol"),
                ("core.index", "core.index"), ("core.engine", "core.engine"),
                ("core.daemon", "core.daemon"), ("core.client", "core.client"),
                ("pmem", "pmem"), ("rdma", "rdma"), ("net", "net"),
                ("obs", "obs"))

#: The parts of a split may miss the whole by this share at most.
SPLIT_TOLERANCE = 0.01
#: The named host buckets must hold at least this share of self time.
HOST_COVERAGE = 0.95


class _Spans:
    """The traced pass's spans, indexed for the step lookups."""

    def __init__(self, spans) -> None:
        self.by_track: Dict[Tuple[str, str], List] = defaultdict(list)
        self.by_trace: Dict[int, List] = defaultdict(list)
        for span in spans:
            if span.end_ns is None:
                continue
            self.by_track[(span.track, span.name)].append(span)
            if span.trace_id is not None:
                self.by_trace[span.trace_id].append(span)

    def on_track(self, model: str, name: str, start: int, end: int) -> List:
        return [span for span in self.by_track[(f"client/{model}", name)]
                if span.start_ns >= start and span.end_ns <= end]

    def in_trace(self, trace_id: int, name: str, start: int = 0,
                 end: float = float("inf")) -> List:
        return [span for span in self.by_trace[trace_id]
                if span.name == name and span.start_ns >= start
                and span.end_ns <= end]


def _duration(spans) -> int:
    return sum(span.duration_ns for span in spans)


def _critical(spans: _Spans, models, name: str, start: int, end: int):
    """The client span (of *name*, over *models*) that ends last."""
    candidates = [span for model in models
                  for span in spans.on_track(model, name, start, end)]
    check(bool(candidates), f"no {name} span in [{start}, {end}]")
    return max(candidates, key=lambda span: (span.end_ns, -span.span_id))


def _dump_step(spans: _Spans, step: Dict) -> Dict[str, int]:
    """One dump step's latency split along its critical member."""
    start, end = step["start"], step["end"]
    client = _critical(spans, step["models"], "client.DO_CHECKPOINT",
                       start, end)
    attempts = sorted(spans.in_trace(client.trace_id,
                                     "daemon.DO_CHECKPOINT"),
                      key=lambda span: span.start_ns)
    accepted = [span for span in attempts
                if not (span.args or {}).get("error")]
    check(bool(accepted), f"step at {start}: no accepted daemon span")
    daemon = accepted[-1]
    wait = daemon.start_ns - attempts[0].start_ns

    def inside_daemon(name: str) -> int:
        return _duration(spans.in_trace(client.trace_id, name,
                                        daemon.start_ns, daemon.end_ns))

    begin = inside_daemon("ckpt.begin")
    pull = inside_daemon("engine.read")
    persist = inside_daemon("ckpt.persist_commit")
    commit = 0
    if "lead" in step:
        commit = _duration(spans.on_track(step["lead"],
                                          "client.GROUP_COMMIT",
                                          client.end_ns, end))
    return {
        "core.client.ctrl_ms": client.duration_ns - daemon.duration_ns
        - wait,
        "fleet.admission.wait_ms": wait,
        "core.daemon.begin_ms": begin,
        "core.engine.pull_ms": pull,
        "pmem.persist_commit_ms": persist,
        "core.daemon.dispatch_ms": daemon.duration_ns - begin - pull
        - persist,
        "core.group.commit_ms": commit,
        "core.group.skew_ms": (end - start) - client.duration_ns - commit,
    }


def _check_split(parts: Dict[str, float], whole: float, label: str) -> None:
    slack = SPLIT_TOLERANCE * whole
    negative = {name: value for name, value in parts.items()
                if value < -slack}
    check(not negative, f"{label} split has negative parts: {negative}")
    total = sum(parts.values())
    check(abs(total - whole) <= slack,
          f"{label} split sums to {total:.6f} ms, the whole is "
          f"{whole:.6f} ms")


def sim_split(result_pass: Pass) -> Dict[str, float]:
    """Mean per-step dump split and the restore split, in ms."""
    spans = _Spans(result_pass.cluster.obs.tracer.spans)
    steps = [_dump_step(spans, step) for step in result_pass.steps]
    dump = {name: sum(step[name] for step in steps) / len(steps) / 1e6
            for name in DUMP_PARTS}
    mean_step = (sum(result_pass.samples_ns) / len(result_pass.samples_ns)
                 / 1e6)
    _check_split(dump, mean_step, "dump")

    window = result_pass.restore
    client = _critical(spans, window["models"], "client.DO_RESTORE",
                       window["called"], window["end"])
    push = _duration(spans.in_trace(client.trace_id, "engine.write"))
    whole = window["end"] - window["start"]
    reattach = window["called"] - window["start"]
    restore = {"core.client.reattach_ms": reattach / 1e6,
               "core.engine.push_ms": push / 1e6,
               "core.client.restore_ctrl_ms":
                   (whole - reattach - push) / 1e6}
    _check_split(restore, whole / 1e6, "restore")
    return {**dump, **restore}


def counts(result_pass: Pass) -> Dict[str, float]:
    """Exact counts from the registry and the simulator."""
    cluster = result_pass.cluster
    metrics = cluster.obs.metrics
    queue = metrics.get("limiter.queue_depth")
    new = metrics.value("daemon.chunks_new")
    shared = metrics.value("daemon.chunks_shared")
    fluid = scheduler_stats(cluster.env)
    return {
        "core.client.retries": metrics.value("client.retries"),
        "core.client.reattaches": metrics.value("client.reattaches"),
        "fleet.admission.rejects":
            metrics.sum_counters("fleet.admission.rejects."),
        "fleet.tenants.bandwidth_rejects":
            metrics.sum_counters("fleet.bandwidth.rejects."),
        "core.engine.credit_stalls": metrics.value("engine.credit_stalls"),
        "core.engine.limiter_waits": metrics.value("limiter.waits"),
        "core.engine.limiter_queue_max": queue.max if queue else 0,
        "core.daemon.bytes_pulled": metrics.value("daemon.bytes_pulled"),
        "core.daemon.bytes_pushed": metrics.value("daemon.bytes_pushed"),
        "core.dedup.chunk_hit_ratio":
            shared / (new + shared) if new + shared else 0.0,
        "core.dedup.chunk_refs": new + shared,
        # Every scheduled event takes one sequence number.
        "sim.core.events": cluster.env._seq,
        "sim.resources.solves": fluid["solves"],
        "sim.resources.flows_solved": fluid["flows_solved"],
        "sim.resources.channels_solved": fluid["channels_solved"],
    }


def _bucket(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/src/repro/")
    if len(parts) < 2 or not parts[-1].endswith(".py"):
        return "other"
    module = parts[-1][:-3].replace("/", ".")
    for prefix, name in HOST_BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "other"


def host_split(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per package, builtins charged to their callers."""
    table = stats.stats
    charged: Dict[str, float] = defaultdict(float)

    def owner(func, seen=()) -> str:
        # A builtin's time goes to whoever called it, through as many
        # builtin callers as it takes to reach Python code.
        if func[0] != "~":
            return _bucket(func[0])
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        if not callers or func in seen:
            return "other"
        heaviest = max(callers, key=lambda caller: callers[caller][2])
        return owner(heaviest, seen + (func,))

    for func, (_cc, _nc, self_s, _cum, callers) in table.items():
        if func[0] != "~" or not callers:
            charged[owner(func)] += self_s
            continue
        for caller, edge in callers.items():
            charged[owner(caller, (func,))] += edge[2]
    total = sum(charged.values())
    names = [name for _prefix, name in HOST_BUCKETS] + ["other"]
    out = {f"host.{name}_s": charged.get(name, 0.0) for name in names}
    out.update({f"host.{name}_share": charged.get(name, 0.0) / total
                for name in names})
    covered = 1.0 - out["host.other_share"]
    check(covered >= HOST_COVERAGE,
          f"named packages hold only {covered:.1%} of profiled self time "
          f"(need {HOST_COVERAGE:.0%})")
    return out
