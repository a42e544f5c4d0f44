"""The repacking tool (paper §III-D2, Fig. 7).

Double mapping costs one extra checkpoint's worth of PMem per model.
When a job finishes (only the newest version will ever be restored) or
crashes mid-checkpoint (the ACTIVE slot holds incomplete data), the
repacking tool reclaims the slack:

* a model with at least one DONE version keeps exactly the slot a
  restore must still serve — its group's committed step for a group
  member, else its newest DONE version — and the other slot's
  TensorData is freed;
* a model with *no* DONE version has nothing restorable — the whole model
  is dropped (a job that crashed during its first checkpoint);
* allocator-level leakage from crash windows was already reclaimed at
  pool open; freeing extents coalesces holes in the device free list,
  which is the "aggregate valid checkpoints" effect of Fig. 7.

The tool runs offline against the pool (:func:`repack`, as Portusctl
does) or online over a live daemon's own entries
(:func:`repack_daemon`); the paper notes it is rarely needed because
PMem capacity dwarfs checkpoint sizes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generator, List, Optional

from repro.core.engine import RemoteRun, TransferEngine, plan_items
from repro.core.group import GroupStore
from repro.core.index import ModelMeta, ModelTable, overlaps
from repro.errors import ModelAlreadyRegistered, ModelNotFound, PortusError
from repro.obs import Observability
from repro.pmem.chunks import ChunkStore
from repro.pmem.pool import PmemPool
from repro.rdma.verbs import connect
from repro.sim import Environment, Transfer


class RepackReport:
    """What a repack pass did."""

    def __init__(self) -> None:
        self.models_compacted: List[str] = []
        self.models_dropped: List[str] = []
        #: Models whose surviving version was migrated to a fresh extent
        #: (the online :func:`repack_live` compaction pass only).
        self.models_migrated: List[str] = []
        self.bytes_reclaimed = 0
        self.bytes_moved = 0

    def __repr__(self) -> str:
        return f"<RepackReport compacted={len(self.models_compacted)} " \
               f"dropped={len(self.models_dropped)} " \
               f"migrated={len(self.models_migrated)} " \
               f"reclaimed={self.bytes_reclaimed}B>"


def repack(pool: PmemPool, table: Optional[ModelTable] = None,
           skip: Optional[List[str]] = None) -> RepackReport:
    """Reclaim stale checkpoint versions offline, straight on the pool;
    returns a report.

    *skip* names models to leave untouched.  No daemon may be serving
    the pool: it would keep handles to what this pass frees (a live
    daemon is repacked with :func:`repack_daemon`).
    """
    if table is None:
        table = ModelTable.open(pool)

    @contextmanager
    def hold(name):
        yield ModelMeta.open(pool, table.lookup(name))

    return _reclaim(table.names(), hold, table.drop, skip,
                    GroupStore.open_or_create(pool), ChunkStore.attach(pool))


def repack_daemon(daemon,
                  skip: Optional[List[str]] = None) -> RepackReport:
    """Reclaim stale checkpoint versions of a live daemon's models, over
    its own entries; returns a report.

    Each model is held through the daemon's CAS guard while it is
    reclaimed (:meth:`PortusDaemon.hold`: a model with an operation in
    flight raises :class:`CheckpointInProgress`); a model
    with no DONE version is dropped through
    :meth:`PortusDaemon.unregister_model`, which also releases its
    tenant's byte charge.  The daemon never holds a handle to freed
    memory: the next checkpoint re-creates a reclaimed slot, and a
    dropped model is gone from LIST.  *skip* names models to leave
    untouched (e.g. jobs still running).
    """
    @contextmanager
    def hold(name):
        with daemon.hold(daemon.model_map[name]) as entry:
            yield entry.meta

    return _reclaim(daemon.models(), hold,
                    lambda name, _meta: daemon.unregister_model(name), skip,
                    daemon.groups, ChunkStore.attach(daemon.pool))


def _reclaim(names: List[str], hold,
             drop: Callable[[str, ModelMeta], int],
             skip: Optional[List[str]], groups: GroupStore,
             store: Optional[ChunkStore]) -> RepackReport:
    """The reclamation pass: keep each model's protected version (the
    one at its group's committed step, else its newest DONE one, see
    :meth:`VersionFlags.protected`) and drop the other; drop a model
    that has none; then free the chunk *store*'s spares that no write
    has taken.  ``hold(name)`` holds a model for its step and yields its
    meta; ``drop(name, meta)`` deletes a model and returns the bytes
    freed; *groups* names each member's group."""
    skip_set = set(skip or ())
    report = RepackReport()
    for name in names:
        if name in skip_set:
            continue
        group = groups.group_of(name)
        with hold(name) as meta:
            kept = meta.read_flags().protected(
                0 if group is None else group.committed_step)
            # The other slot is older, uncommitted, incomplete (ACTIVE at
            # crash), or empty: reclaim it.
            reclaimed = 0 if kept is None else meta.layout.drop(1 - kept)
        if kept is None:
            reclaimed = drop(name, meta)
            report.models_dropped.append(name)
        elif reclaimed:
            report.models_compacted.append(name)
        report.bytes_reclaimed += reclaimed
    if store is not None:
        report.bytes_reclaimed += store.free_spares()
    return report


def repack_live(env: Environment, pool: PmemPool,
                table: Optional[ModelTable] = None,
                skip: Optional[List[str]] = None,
                obs: Optional[Observability] = None) -> Generator:
    """Process: repack with timed compaction, straight on the pool.

    Runs the same reclamation as :func:`repack`, then migrates each
    survivor's newest DONE private region (the slot layout's TensorData;
    a chunk model has none) into a freshly allocated extent.  First-fit
    allocation places the copy in the lowest hole — including the ones
    reclamation just opened — so the live data packs toward the front
    of the device and the free list coalesces into large holes (the
    Fig. 7 "aggregate valid checkpoints" effect, with the move timed as
    one transfer over the device's read and write channels).

    Crash-safe ordering per model: allocate the new extent, copy,
    persist, commit the MIndex record, then free the old extent.  A
    crash mid-move leaves the MIndex pointing at the intact old region;
    the orphaned new extent is allocator-level leakage, reclaimed at
    the next pool open like any crash-window allocation.  The simulated
    move and the content relocation are guarded together: an interrupt
    or a pool death inside the move window commits nothing — the
    content write, persist, and MIndex update only run once the move
    finished on a still-open pool.
    """
    if table is None:
        table = ModelTable.open(pool)
    obs = obs if obs is not None else Observability()
    report = repack(pool, table=table, skip=skip)
    obs.metrics.counter("repack.models_dropped").inc(
        len(report.models_dropped))
    obs.metrics.counter("repack.bytes_reclaimed").inc(
        report.bytes_reclaimed)
    channels = [pool.device.read_channel, pool.device.write_channel]
    skip_set = set(skip or ())
    pass_span = obs.tracer.span(env, "repack.compact", cat="repack",
                                track="repack")
    for name in table.names():
        if name in skip_set:
            continue
        meta = ModelMeta.open(pool, table.lookup(name))
        newest = meta.read_flags().newest_done()
        old = None if newest is None else meta.layout.private_region(newest)
        if old is None:
            continue
        fresh = pool.alloc(old.size, tag=old.tag)
        if fresh.addr > old.addr:
            # The region already sits below every usable hole; moving it
            # upward would fragment, not compact.
            pool.free(fresh)
            continue
        span = obs.tracer.span(env, "repack.migrate", cat="repack",
                               track="repack", model=name, bytes=old.size)
        move = Transfer(env, channels, old.size, label=f"repack:{name}")
        try:
            yield move
        except BaseException:
            move.defuse()
            # Interrupted mid-move (daemon crash, power loss, a kill):
            # nothing was committed, the MIndex still points at the
            # intact old region.  Hand the fresh extent back while the
            # pool is usable; on a closed pool it is crash-window
            # leakage the next open reclaims.
            if not pool.closed:
                pool.free(fresh)
            span.finish(aborted=True)
            pass_span.finish(aborted=True)
            obs.metrics.counter("repack.aborted").inc()
            raise
        if pool.closed:
            # The pool died under us without interrupting this process
            # (server power loss while repacking ran on another node's
            # clock): the copy never landed and the old region stays
            # committed — stop before touching dead media.
            span.finish(aborted=True)
            pass_span.finish(aborted=True)
            obs.metrics.counter("repack.aborted").inc()
            return report
        fresh.write(0, old.read(0, old.size))
        fresh.persist()
        meta.layout.repoint({newest: fresh})
        pool.free(old)
        report.models_migrated.append(name)
        report.bytes_moved += old.size
        span.finish(ok=True)
        obs.metrics.counter("repack.models_migrated").inc()
        obs.metrics.counter("repack.bytes_moved").inc(old.size)
    pass_span.finish(migrated=len(report.models_migrated))
    return report


def migrate_model(env: Environment, src_daemon, dst_daemon, name: str,
                  obs: Optional[Observability] = None) -> Generator:
    """Process: copy *name*'s newest DONE checkpoint between daemons.

    The live repacker generalized across pools, for every layout: the
    destination daemon builds a fresh index of the model's layout and
    pulls the source version into a new version of its own through the
    transfer engine (one-sided RDMA READ, server-to-server over the
    fabric), then commits it DONE at the same step.  The destination's
    write decides what moves — a slot model's whole region, or for a
    chunk model only the chunks the destination store lacks (the rest
    of its manifest is shared by reference).  Crash-safe commit ordering
    (DESIGN.md §13) — every window is leak-only:

    1. the source model is held through its daemon's CAS guard
       (:meth:`PortusDaemon.hold`), so no checkpoint can flip its slots
       mid-copy;
    2. the destination index is created and a version begun on it (a
       crash here leaks dst extents; the source is untouched);
    3. the copy lands, persists, and commits DONE through the layout's
       own ordering (a chunk model commits its reference delta before
       its manifest) — only now does the dst daemon adopt the name,
       ModelTable first (a full table frees the copy);
    4. the caller flips the placement-ring pin, then evicts the source
       copy (:func:`evict_model`, which drops only this model's chunk
       references) — a crash between 3 and 4 leaves two committed
       copies, never zero.

    Returns ``(step, bytes_moved)``.
    """
    from repro.core.daemon import FLUSH_BARRIER_NS, QP_DEPTH

    obs = obs if obs is not None else Observability()
    entry = src_daemon.model_map.get(name)
    if entry is None:
        raise ModelNotFound(name)
    if dst_daemon.model_map.get(name) is not None:
        raise ModelAlreadyRegistered(
            f"{name}: destination daemon already holds this model")
    with src_daemon.hold(entry), obs.tracer.span(
            env, "fleet.migrate", cat="fleet", track="fleet", model=name):
        version, step = entry.meta.restorable()
        source = entry.meta.layout.extents(version)
        meta_dst = entry.meta.replicate(dst_daemon.pool)
        write = None
        qps = []
        try:
            write = entry.meta.layout.replica_write(version, meta_dst)
            write.begin()
            # The source version as remote runs, one per tensor piece —
            # only of the extents the destination pulls from (no chunk
            # it already stores is pinned).
            needed = list(dict.fromkeys(
                extent for extent, _t, _lo, _hi in overlaps(source,
                                                             write.targets)))
            pieces = list(overlaps(needed, entry.meta.mindex.descriptors))
            mrs = yield from src_daemon.node.nic.pin_all(
                [extent.allocation for extent, _d, _lo, _hi in pieces], obs,
                track="fleet")
            runs = [RemoteRun(descriptor.name, lo, hi - lo,
                              mr.addr + lo - extent.offset, mr.rkey)
                    for (extent, descriptor, lo, hi), mr in zip(pieces, mrs)]
            items = yield from plan_items(write.targets, runs,
                                          dst_daemon.node.nic,
                                          dst_daemon.engine_chunk_bytes,
                                          obs, track="fleet")
            dst_qp, src_qp = yield from connect(
                env, dst_daemon.node.nic, src_daemon.node.nic)
            qps = [dst_qp, src_qp]
            engine = TransferEngine(
                env, [dst_qp], depth=QP_DEPTH,
                stream_limit=dst_daemon._pmem_streams,
                obs=obs)
            moved = yield from engine.pull(items, f"migrate:{name}")
            if dst_daemon.pool.closed or src_daemon.pool.closed:
                raise PortusError(
                    f"{name}: a pool died during migration")
            write.persist()
            yield env.timeout(FLUSH_BARRIER_NS)
            write.commit(step)
        except BaseException:
            # Nothing was published on the destination; unwind it all
            # (on a live pool) so the only cost of a failed migration
            # is the source staying where it was.
            if not dst_daemon.pool.closed:
                if write is not None:
                    write.abort(landed=True)
                meta_dst.free()
            raise
        finally:
            for qp in qps:
                if qp.error is None:
                    qp.transition_to_error("migration transport done")
        dst_daemon.adopt_model(name, meta_dst)
    labels = {"src": src_daemon.node.name, "dst": dst_daemon.node.name}
    obs.metrics.counter("fleet.migrations", **labels).inc()
    obs.metrics.counter("fleet.migrated_bytes", **labels).inc(moved)
    return step, moved


def evict_model(src_daemon, name: str) -> None:
    """Drop *name* from the source daemon after a migration committed.

    UNREGISTER's recovery ordering (:meth:`PortusDaemon.drop_model`):
    a crash mid-evict leaks GC-able extents instead of dangling a table
    entry at freed metadata, and a chunk-layout model drops only its own
    references — chunks shared with other models stay.  The tenant's
    byte charge is *not* released: the model still exists, just on
    another shard.
    """
    src_daemon.drop_model(name)
