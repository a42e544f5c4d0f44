"""The benchmark's one command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--scale full|smoke] [--out FILE]

With ``--workload`` it measures that workload in this process and prints
its metrics; the last line of its output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or
every per-layer metric (``--trace 1``).  Without ``--workload`` it runs
each workload in turn, each in a fresh subprocess, prints a table, and
with ``--out`` writes every result to one JSON file that
``bench/compare.py`` reads.  ``--trace`` alone adds the traced runs.

It exits non-zero if the repository's ``src/`` is missing or any check
on the program's output fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Passes per run at the least, so that host and set-up times are taken
#: over several samples.
MIN_PASSES = 3
#: Prefix of the output line that carries a run's full record.
RECORD = "record: "


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def nearest_rank(values, pct: float):
    """The smallest value with at least *pct* percent of the values at
    or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def _signature(result_pass) -> tuple:
    """Everything a pass computed on the simulated clock."""
    return (result_pass.sim_digest, tuple(result_pass.samples_ns),
            tuple(sorted(result_pass.restore.items(), key=str)),
            result_pass.cluster.env._seq)


def _same_simulation(first, other, what: str) -> None:
    """Check that pass *other* repeated pass *first* exactly."""
    from workloads import check

    expected, got = _signature(first), _signature(other)
    check(expected == got,
          f"{what} differs on the simulated clock: digest {expected[0]} "
          f"vs {got[0]}, events {expected[3]} vs {got[3]}")


def end_to_end(workload, seed: int, scale: str, seconds: float):
    """Passes until *seconds* have gone by (at least MIN_PASSES), each
    checked to repeat the first one's simulation; returns the metrics,
    the figures behind them, and the operation counts."""
    deadline = time.perf_counter() + seconds
    first = workload.run_pass(seed, scale)
    pulled = first.cluster.obs.metrics.value("daemon.bytes_pulled")
    # Read before later passes can raise the high-water mark, so that
    # it does not depend on how many passes fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = [first]
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        result_pass = workload.run_pass(seed, scale)
        _same_simulation(first, result_pass, f"pass {len(passes) + 1}")
        result_pass.cluster = None
        passes.append(result_pass)
        gc.collect()
    samples = first.samples_ns
    metrics = {
        "dump_p50_ms": nearest_rank(samples, 50) / 1e6,
        "dump_p90_ms": nearest_rank(samples, 90) / 1e6,
        "dump_gbps": first.logical_bytes / sum(samples),
        "restore_ms": (first.restore["end"] - first.restore["start"]) / 1e6,
        "wire_bytes_per_ckpt_byte": pulled / first.logical_bytes,
        # Interference from the rest of the machine only ever adds time,
        # so the fastest pass is the steadiest estimate of its cost.
        "host_s": min(p.host_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "samples": len(samples),
        "passes": len(passes),
        "host_s_all": [p.host_s for p in passes],
        "setup_s_all": [p.setup_s for p in passes],
        "ops_attempted": first.ops_attempted,
        "ops_failed": first.ops_failed,
        "failed_frac": first.ops_failed / first.ops_attempted,
        "ticks_scheduled": first.ticks_scheduled,
        "slo_miss_frac": (first.ticks_missed / first.ticks_scheduled
                          if first.ticks_scheduled else 0.0),
        "sim_digest": first.sim_digest,
    }
    ops = (sum(p.ops_attempted for p in passes),
           sum(p.ops_failed for p in passes))
    return metrics, extra, ops


def per_layer(workload, seed: int, scale: str, seconds: float):
    """Untraced and traced passes in pairs until *seconds* have gone by,
    then one profiled traced pass; returns the per-layer metrics, the
    figures behind them, and the operation counts."""
    import perlayer
    from workloads import check

    deadline = time.perf_counter() + seconds
    reference = workload.run_pass(seed, scale)
    sample = workload.run_pass(seed, scale, tracing=True)
    plain_host, traced_host = [reference.host_s], [sample.host_s]
    # The zero-cost contract: tracing moves nothing on the simulated
    # clock, and every pass repeats the first.
    _same_simulation(reference, sample, "the traced pass")
    while time.perf_counter() < deadline:
        for tracing, hosts in ((False, plain_host), (True, traced_host)):
            result_pass = workload.run_pass(seed, scale, tracing=tracing)
            _same_simulation(reference, result_pass,
                             f"a {'traced' if tracing else 'untraced'} pass")
            hosts.append(result_pass.host_s)
            result_pass = None
            gc.collect()
    metrics = {**perlayer.sim_split(sample), **perlayer.counts(sample)}
    untraced_counts = perlayer.counts(reference)
    moved = sorted(name for name, value in untraced_counts.items()
                   if metrics[name] != value)
    check(not moved, f"tracing changed the counts {moved}")
    reference = None
    gc.collect()

    profiler = cProfile.Profile()
    profiler.enable()
    profiled = workload.run_pass(seed, scale, tracing=True)
    profiler.disable()
    _same_simulation(sample, profiled, "the profiled pass")
    metrics.update(perlayer.host_split(pstats.Stats(profiler)))
    metrics["host.trace_overhead"] = min(traced_host) / min(plain_host)
    extra = {"pairs": len(traced_host), "plain_host_s_all": plain_host,
             "traced_host_s_all": traced_host,
             "profiled_host_s": profiled.host_s,
             "dump_step_mean_ms": (sum(sample.samples_ns)
                                   / len(sample.samples_ns) / 1e6),
             "restore_ms": (sample.restore["end"]
                            - sample.restore["start"]) / 1e6,
             "sim_digest": sample.sim_digest}
    return metrics, extra, (sample.ops_attempted, sample.ops_failed)


def _print_metrics(record: dict, units: dict) -> None:
    print(f"{record['workload']}  seed={record['seed']} "
          f"scale={record['scale']}  {record['mode']}")
    for name, unit in units.items():
        value = record["metrics"].get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit}")
    for name, value in sorted(record.get("extra", {}).items()):
        print(f"  {name:36s} {value}")


def run_one(args, spec: dict) -> int:
    from workloads import WORKLOADS, CorrectnessError

    chosen = WORKLOADS.get(args.workload)
    if chosen is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    mode = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[mode]}
    record = {"workload": chosen.name, "seed": args.seed,
              "scale": args.scale, "mode": mode, "metrics": {}}
    measure = per_layer if args.trace else end_to_end
    attempted = failed = 0
    try:
        metrics, extra, (attempted, failed) = measure(
            chosen, args.seed, args.scale, args.seconds)
        record.update(metrics=metrics, extra=extra)
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise CorrectnessError(f"metrics not computed: {missing}")
    except CorrectnessError as exc:
        record["error"] = str(exc)
    _print_metrics(record, units)
    print(RECORD + json.dumps(record, sort_keys=True))
    correct = "error" not in record
    if not correct:
        print(f"CHECK FAILED: {record['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                    if name in record["metrics"]}}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh subprocess, one at a time."""
    modes = [0, 1] if args.trace else [0]
    results = {}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        results[name] = {"why": entry["why"]}
        for trace in modes:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(trace), "--scale", args.scale]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines
                            if not line.startswith(RECORD)
                            and not line.startswith("{")), flush=True)
            records = [json.loads(line[len(RECORD):]) for line in lines
                       if line.startswith(RECORD)]
            if done.returncode != 0 or not records:
                status = 1
            if records:
                results[name][records[0]["mode"]] = records[0]
    report = {"seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "python": platform.python_version(), "workloads": results}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("FAILED" if status else "ok: every check passed")
    return status


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(
        description="Portus reproduction benchmark (see bench/README.md)")
    parser.add_argument("--workload",
                        help="measure one workload in this process")
    parser.add_argument("--seed", type=int, default=600)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="wall seconds to keep measuring for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", help="write every result to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
