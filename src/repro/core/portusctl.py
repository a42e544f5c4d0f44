"""Portusctl: inspect and export checkpoints stored on a PMem device.

Mirrors the paper's command-line tool (§IV-b): ``view`` lists every model
on a device with its versions and flags (and, on a pool with
deduplicated models, the chunk store's live chunks and spares);
``dump`` exports a model's
newest valid checkpoint out of the index into the generic torch.save-like
file format, so checkpoints taken through the zero-copy path remain
shareable with ordinary framework users; ``fsck`` / ``repair`` run the
structural verifier (:mod:`repro.pmem.fsck`) over the whole index and —
for ``repair`` — apply every safe fix until the device verifies clean;
``stats`` prints the observability snapshot (metrics JSON, optionally a
Chrome trace) of the demo deployment's checkpoint run; ``health``
heartbeats the daemon and prints the aggregated health classification
(:mod:`repro.ops.health`) from the reply's health block.

``fsck`` and ``repair`` take ``--json`` for machine-readable reports
with a distinct exit-code contract: 0 = clean (nothing found / nothing
to do), 1 = dirty (findings remain), 2 = repaired (repair fixed
findings and the device now verifies clean).

The library functions (:func:`view`, :func:`dump`, :func:`dump_to_file`)
operate on a :class:`~repro.pmem.pool.PmemPool`; the installed ``portusctl``
console script drives them against a small self-contained simulation (the
library has no access to physical Optane hardware) and can write the
dumped checkpoint to a real host file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Generator, List, Optional

from repro.core.index import ModelMeta, ModelTable
from repro.core.repack import repack
from repro.dnn.serialize import serialize_entries
from repro.errors import ReproError
from repro.hw.content import Content
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import EXIT_CLEAN, EXIT_DIRTY, fsck, repair
from repro.pmem.pool import PmemPool
from repro.units import fmt_bytes


def view(pool: PmemPool) -> List[Dict]:
    """One row per model: name, layers, bytes, per-version states."""
    table = ModelTable.open(pool)
    return [ModelMeta.open(pool, table.lookup(name)).inventory(name)
            for name in table.names()]


def chunk_inventory(pool: PmemPool) -> Optional[Dict]:
    """The pool's chunk store in numbers: live chunks, spares and their
    bytes (None: the pool has no chunk store)."""
    store = ChunkStore.attach(pool)
    return None if store is None else store.inventory()


def dump(pool: PmemPool, model_name: str) -> Content:
    """Export the newest valid checkpoint as a generic file image."""
    table = ModelTable.open(pool)
    meta = ModelMeta.open(pool, table.lookup(model_name))
    version, _step = meta.restorable()
    entries = [(descriptor.to_spec(),
                meta.read_tensor(descriptor, version))
               for descriptor in meta.mindex.descriptors]
    return serialize_entries(entries)


def dump_to_file(pool: PmemPool, model_name: str, fs,
                 path: str) -> Generator:
    """Process: dump straight onto a (simulated) filesystem."""
    image = dump(pool, model_name)
    yield from fs.write_file(path, image)
    return image.size


def format_view(rows: List[Dict], chunks: Optional[Dict] = None) -> str:
    """The ``portusctl view`` table as text, with a line for the chunk
    store's :func:`chunk_inventory` if given."""
    lines = [f"{'MODEL':40} {'LAYERS':>7} {'SIZE':>10}  VERSIONS"]
    for row in rows:
        versions = "  ".join(
            f"v{i}:{v['state']}@{v['step']}"
            for i, v in enumerate(row["versions"]))
        lines.append(f"{row['model']:40} {row['layers']:>7} "
                     f"{fmt_bytes(row['bytes']):>10}  {versions}")
    if chunks is not None:
        lines.append(f"chunk store: {chunks['chunks']} chunks "
                     f"({fmt_bytes(chunks['stored_bytes'])}), "
                     f"{chunks['spares']} spares "
                     f"({fmt_bytes(chunks['spare_bytes'])})")
    return "\n".join(lines)


# --- console entry point --------------------------------------------------------


#: Demo fleet: one model pinned per shard so every daemon serves bytes.
_DEMO_MODELS = ("resnet50", "alexnet", "swin_t", "resnet18",
                "convnext_tiny", "resnet34")


def _demo_pool(tracing: bool = False, daemons: int = 1):
    """A self-contained deployment with checkpointed models on it.

    ``daemons=1`` (the default) is the classic two-model single-pool
    demo; larger fleets get one pinned model per shard through the
    placement ring.
    """
    from repro.harness.cluster import PaperCluster

    cluster = PaperCluster(tracing=tracing, storage_nodes=daemons)
    pool = cluster.portus_pool

    if daemons == 1:
        def scenario(env):
            session_a = yield from cluster.portus_register("resnet50",
                                                           gpu=0)
            session_b = yield from cluster.portus_register("alexnet",
                                                           gpu=1)
            session_a.model.update_step(100)
            session_b.model.update_step(40)
            yield from session_a.checkpoint(100)
            yield from session_b.checkpoint(40)

        cluster.run(scenario)
        return cluster, pool

    from repro.fleet import FleetClient

    fleet = FleetClient(cluster)

    def scenario(env):
        for index, shard in enumerate(cluster.shards):
            model = _DEMO_MODELS[index % len(_DEMO_MODELS)]
            tenant = f"demo{index}"
            name = f"{tenant}.{model}"
            fleet.ring.assign(tenant, name, shard.name)
            instance = cluster.materialize(model, gpu=index % 4,
                                           seed=index + 1,
                                           instance_name=name)
            session = yield from fleet.register(tenant, instance)
            session.model.update_step(10 * (index + 1))
            yield from session.checkpoint(10 * (index + 1))

    cluster.run(scenario)
    return cluster, pool


def poll_health(cluster, shard: int = 0) -> Dict:
    """Heartbeat one shard's daemon through a live session and return
    the health block its ack carries (the same sample the remediation
    operator classifies).  A shard with no attached session is sampled
    directly (same block, no wire trip)."""
    result: Dict = {}

    daemon = cluster.shards[shard].daemon

    def scenario(env):
        for client in cluster._portus_clients.values():
            if client.daemon is not daemon:
                continue
            if client.sessions:
                reply = yield from client.sessions[0].heartbeat()
                result.update(reply.get("health") or {})
                return
        result.update(daemon.health_snapshot())

    cluster.run(scenario)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="portusctl",
        description="Inspect and export Portus checkpoints on a PMem "
                    "device (demo simulation).")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("view", help="list models stored on the device")
    dump_parser = sub.add_parser(
        "dump", help="export a checkpoint to a generic file")
    dump_parser.add_argument("model")
    dump_parser.add_argument("filename",
                             help="host path for the exported checkpoint")
    sub.add_parser("repack", help="reclaim stale checkpoint versions")
    fsck_parser = sub.add_parser(
        "fsck", help="verify the on-device index (read-only); exits "
                     "0 clean, 1 dirty")
    fsck_parser.add_argument("--json", action="store_true",
                             help="machine-readable report")
    fsck_parser.add_argument(
        "--daemons", type=int, default=1, metavar="N",
        help="size of the demo fleet: verify every shard's pool and "
             "print a per-shard + rollup report (default 1)")
    repair_parser = sub.add_parser(
        "repair", help="run fsck and apply every safe repair until the "
                       "device verifies clean; exits 0 nothing-to-do, "
                       "1 still dirty, 2 repaired")
    repair_parser.add_argument("--json", action="store_true",
                               help="machine-readable report")
    health_parser = sub.add_parser(
        "health", help="heartbeat the daemon(s) and print the "
                       "aggregated health classification; exits 0 "
                       "healthy")
    health_parser.add_argument("--json", action="store_true",
                               help="machine-readable snapshot")
    health_parser.add_argument(
        "--daemons", type=int, default=1, metavar="N",
        help="size of the demo fleet: heartbeat every shard and print "
             "per-shard states + the worst-state rollup (default 1)")
    stats_parser = sub.add_parser(
        "stats", help="print the demo deployment's metrics snapshot")
    stats_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write a Chrome trace_event JSON of the demo run")
    stats_parser.add_argument(
        "--daemons", type=int, default=1, metavar="N",
        help="size of the demo fleet: include a per-shard work "
             "summary alongside the fleet-wide metrics (default 1)")
    args = parser.parse_args(argv)

    daemons = max(1, getattr(args, "daemons", 1))
    try:
        kwargs = {"tracing": getattr(args, "trace_out", None) is not None}
        if daemons > 1:
            kwargs["daemons"] = daemons
        cluster, pool = _demo_pool(**kwargs)
        if args.command == "view":
            print(format_view(view(pool), chunk_inventory(pool)))
        elif args.command == "dump":
            image = dump(pool, args.model)
            with open(args.filename, "wb") as handle:
                for chunk in image.iter_chunks():
                    handle.write(chunk)
            print(f"dumped {args.model} ({fmt_bytes(image.size)}) "
                  f"to {args.filename}")
        elif args.command == "repack":
            report = repack(pool)
            print(f"reclaimed {fmt_bytes(report.bytes_reclaimed)} "
                  f"(compacted {len(report.models_compacted)}, "
                  f"dropped {len(report.models_dropped)})")
        elif args.command == "fsck":
            if daemons == 1:
                report = fsck(pool, obs=cluster.obs)
                print(json.dumps(report.to_dict(), indent=2)
                      if args.json else report.describe())
                return EXIT_CLEAN if report.clean else EXIT_DIRTY
            reports = {shard.name: fsck(shard.pool, obs=cluster.obs)
                       for shard in cluster.shards}
            all_clean = all(r.clean for r in reports.values())
            if args.json:
                dicts = {name: r.to_dict() for name, r in reports.items()}
                checked: Dict[str, int] = {}
                for entry in dicts.values():
                    for key, count in entry["checked"].items():
                        checked[key] = checked.get(key, 0) + count
                print(json.dumps({
                    "clean": all_clean,
                    "checked": checked,
                    "shards": dicts,
                }, indent=2))
            else:
                for name, report in reports.items():
                    print(f"== {name} ==")
                    print(report.describe())
                clean = sum(r.clean for r in reports.values())
                print(f"fleet: {'clean' if all_clean else 'DIRTY'} "
                      f"({clean}/{len(reports)} shards clean)")
            return EXIT_CLEAN if all_clean else EXIT_DIRTY
        elif args.command == "repair":
            result = repair(pool, obs=cluster.obs)
            print(json.dumps(result.to_dict(), indent=2) if args.json
                  else result.describe())
            return result.exit_code
        elif args.command == "health":
            from repro.ops.health import classify, format_health, worst

            if daemons == 1:
                sample = poll_health(cluster)
                state, reasons = classify(sample or None)
                if args.json:
                    print(json.dumps({"state": state, "reasons": reasons,
                                      "sample": sample}, indent=2))
                else:
                    print(format_health(state, reasons, sample))
                return 0 if state == "healthy" else 1
            shards = {}
            for index, shard in enumerate(cluster.shards):
                sample = poll_health(cluster, shard=index)
                state, reasons = classify(sample or None)
                shards[shard.name] = {"state": state, "reasons": reasons,
                                      "sample": sample}
            rollup = worst(entry["state"] for entry in shards.values())
            if args.json:
                print(json.dumps({"state": rollup, "shards": shards},
                                 indent=2))
            else:
                for name, entry in shards.items():
                    print(f"== {name} ==")
                    print(format_health(entry["state"], entry["reasons"],
                                        entry["sample"]))
                print(f"fleet: {rollup}")
            return 0 if rollup == "healthy" else 1
        elif args.command == "stats":
            if daemons == 1:
                print(cluster.obs.metrics.to_json())
            else:
                metrics = cluster.obs.metrics
                per_shard = {
                    shard.name: {
                        key: metrics.value(f"daemon.{key}",
                                           shard=shard.name)
                        for key in ("checkpoints_completed",
                                    "bytes_pulled")
                    }
                    for shard in cluster.shards
                }
                print(json.dumps({
                    "fleet": {"daemons": daemons, "per_shard": per_shard},
                    "metrics": json.loads(metrics.to_json()),
                }, indent=2))
            if args.trace_out is not None:
                cluster.obs.tracer.write(args.trace_out)
                print(f"trace written to {args.trace_out}", file=sys.stderr)
    except ReproError as exc:
        # Unknown model names, missing checkpoints, and every other
        # domain failure exit with a message, not a traceback.
        print(f"portusctl: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
