"""Portus Daemon: the user-space storage-server process.

Listens on TCP/IPoIB, keeps the three-level index (persistent ModelTable +
DRAM ModelMap of :class:`ModelEntry`), and serves four operations:

* REGISTER — build (or re-attach to) a model's index in its storage
  layout, pin what the layout keeps pinned, record the client's
  per-tensor rkeys.
* DO_CHECKPOINT — stamp the target version ACTIVE, pull the client's
  tensors into it with one-sided RDMA READs through the transfer
  engine (sliding window, striped across the model's QPs), flush, stamp
  DONE.  Zero serialization, zero staging copies, zero kernel crossings
  on either side.  For a parallel-group member, the checkpoint that
  completes a step also commits it as the group's (DESIGN.md §14).
* DO_RESTORE — pick the newest DONE version (or the group's committed
  step) and push every tensor back with one-sided RDMA WRITEs.
* UNREGISTER — drop the model and free its extents.

Each connection is served by its own process and each request by its own
dispatch process, which runs the request's handler inline; a per-entry
compare-and-swap guard (:meth:`PortusDaemon.hold`) keeps concurrent
operations on the *same* model exclusive while different models proceed
fully in parallel — the paper's lock-free multi-tenant claim.  Replies
carry the request id of the request they answer, so a client with several
requests outstanding on one connection can match them (requests complete
in any order).

Fault tolerance:

* every reply send is guarded — a client that died mid-request costs the
  daemon nothing but a dropped-reply counter;
* an optional per-request timeout (``request_timeout_ns``) bounds how
  long a wedged datapath can hold an entry's CAS guard: a deadline
  interrupts the request's own process, whose cleanup aborts the pull,
  and the client is told to retry (``RequestTimeout``);
* an optional lease (``lease_ns`` + ``reaper_interval_ns``) detects
  vanished clients: any request or HEARTBEAT renews the lease, and the
  reaper detaches expired sessions — interrupting their in-flight
  request (which aborts the ACTIVE version and replies ``NotAttached``)
  and flushing their QP so late WR completions cannot deposit stale
  bytes;
* :meth:`crash` models the daemon process dying, the only way a daemon
  ends: the port unbinds, connections drop, QPs flush, in-flight
  handlers are killed, a request not yet dispatched starts no handler,
  and the pool closes un-synced — the successor re-opens the pool,
  re-runs recovery and re-pins its models (:meth:`start`).

The three knobs default to off.  Without ``request_timeout_ns`` a
request's deadline schedules nothing; the reaper runs only when both
``lease_ns`` and ``reaper_interval_ns`` are set, and it reaps a request
still in flight only on a daemon without a request timeout (otherwise
that is the deadline's job).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core import protocol
from repro.core.engine import (ENGINE_CHUNK_BYTES, IngestLimiter,
                               RemoteRun, TransferEngine, plan_items)
from repro.core.group import GroupStore
from repro.core.index import ModelMeta, ModelTable
from repro.core.modelmap import ModelMap
from repro.dnn.layout import ShardedLayout
from repro.dnn.tensor import TensorSpec
from repro.dnn.dtypes import DType
from repro.errors import (CheckpointInProgress, ConnectionClosed,
                          GroupCommitRefused, GroupError, MemoryRegionError,
                          ModelAlreadyRegistered, ModelNotFound,
                          NoValidGroupCheckpoint, NotAttached, PmemError,
                          PortusError, ProcessInterrupted, ProtocolError,
                          ReproError, RequestTimeout)
from repro.hw.node import CpuSet, StorageNode
from repro.obs import Observability
from repro.net.tcp import TcpStack
from repro.pmem.pool import PmemPool
from repro.sim import Deadline, Environment
from repro.units import usecs

DEFAULT_PORT = 9900
#: Request worker cores: every handler dispatch and WR post runs on them.
WORKERS = 16
#: Handler dispatch cost per request.
PER_REQUEST_CPU_NS = usecs(5)
#: Posting one RDMA work request (WQE build + doorbell amortized).
PER_WQE_CPU_NS = usecs(0.3)
#: Final persistence barrier after a pull (flushes ride along with the
#: incoming DMA; only the fence is serialized at the end).
FLUSH_BARRIER_NS = usecs(10)
#: QP send-queue depth: at most this many one-sided WRs in flight per
#: QP (real RC QPs bound outstanding reads the same way).  The transfer
#: engine reads this at posting time, so the QP-depth ablation can sweep
#: it per run.
QP_DEPTH = 32


class ModelEntry:
    """DRAM state for one registered model."""

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta
        #: The stripe set: every QP the client registered for this model
        #: (``num_qps`` is negotiated at REGISTER time).
        self.qps: List = []
        #: The attached client's tensors as remote runs of the region.
        self.client_runs: Optional[List[RemoteRun]] = None
        #: Owning tenant (fleet accounting); None for legacy sessions.
        #: Re-learned at attach time after a daemon restart.
        self.tenant: Optional[str] = None
        self.busy = False  # the compare-and-swap guard
        self.last_seen_ns = 0
        #: The process currently holding the CAS guard, if any — the
        #: interrupt target for lease expiry and daemon death.
        self.inflight = None
        #: When the CAS guard was taken — the health model's wedge
        #: detector reads the oldest in-flight age from it.
        self.inflight_since_ns: Optional[int] = None

    @property
    def attached(self) -> bool:
        return bool(self.qps) and self.client_runs is not None

    # The end of a ``with daemon.hold(entry):`` block releases the CAS
    # guard (not a contextlib generator: a profile charges it here).

    def __enter__(self) -> "ModelEntry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.busy = False
        self.inflight = None
        self.inflight_since_ns = None


class _Admitted:
    """A ``with`` block holding one admission slot of *kind*, if the
    daemon has a controller (the fleet's backpressure:
    :class:`AdmissionReject` when none is free)."""

    __slots__ = ("admission", "kind")

    def __init__(self, admission, kind: str) -> None:
        self.admission = admission
        self.kind = kind

    def __enter__(self) -> None:
        if self.admission is not None:
            self.admission.enter(self.kind)

    def __exit__(self, *exc_info) -> None:
        if self.admission is not None:
            self.admission.exit(self.kind)


class PortusDaemon:
    """The storage-server daemon over one devdax PMem pool."""

    def __init__(self, env: Environment, node: StorageNode, pool: PmemPool,
                 tcp: TcpStack, port: int = DEFAULT_PORT,
                 request_timeout_ns: Optional[int] = None,
                 lease_ns: Optional[int] = None,
                 reaper_interval_ns: Optional[int] = None,
                 engine_chunk_bytes: Optional[int] = ENGINE_CHUNK_BYTES,
                 max_pmem_streams: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 admission=None, tenants=None) -> None:
        if node.nic is None:
            raise PortusError(f"{node.name} has no RNIC")
        self.env = env
        self.node = node
        self.pool = pool
        self.tcp = tcp
        self.port = port
        self.workers = CpuSet(env, WORKERS, name=f"{node.name}.portus")
        self.request_timeout_ns = request_timeout_ns
        self.lease_ns = lease_ns
        self.reaper_interval_ns = reaper_interval_ns
        # Datapath engine policy (see repro.core.engine): 4 MiB WRs by
        # default (None: one WR per run); ``max_pmem_streams`` bounds
        # in-flight pull WRs under the Optane congestion cliff.
        self.engine_chunk_bytes = engine_chunk_bytes
        self.obs = obs if obs is not None else Observability()
        #: Per-daemon admission controller (fleet backpressure) — a
        #: :class:`repro.fleet.admission.AdmissionController`, or None
        #: for the unbounded legacy daemon.
        self.admission = admission
        #: Fleet-wide :class:`repro.fleet.tenants.TenantRegistry`
        #: (shared across shards and daemon restarts), or None.
        self.tenants = tenants
        self._pmem_streams = (
            IngestLimiter(env, capacity=max_pmem_streams,
                          metrics=self.obs.metrics)
            if max_pmem_streams is not None else None)
        self.model_map = ModelMap()
        self.table = self._open_or_create_table()
        #: Parallel-group registry (group-commit records on this pool).
        self.groups = GroupStore.open_or_create(self.pool)
        self.stopped = False
        self._started = False
        self._listener = None
        self._conns: List = []

    # -- bootstrap / recovery ----------------------------------------------------

    def _open_or_create_table(self) -> ModelTable:
        from repro.core.index import TABLE_TAG

        if self.pool.find_by_tag(TABLE_TAG):
            table = ModelTable.open(self.pool)
            self._recover(table)
            return table
        return ModelTable.create(self.pool)

    def _recover(self, table: ModelTable) -> None:
        """Rebuild the DRAM ModelMap from the persistent index (the MR
        half of recovery runs in :meth:`start`)."""
        for name in table.names():
            meta = ModelMeta.open(self.pool, table.lookup(name))
            self.model_map.insert(name, ModelEntry(meta))

    def start(self) -> None:
        """Bind the control port and start accepting (non-blocking).

        Also starts re-pinning every recovered model's pinned regions in
        the background, so a re-attaching REGISTER waits only for its
        own model's registrations, not for everyone's one at a time.
        """
        if self._started:
            return
        self._listener = self.tcp.listen(self.port)
        self.env.process(self._accept_loop(self._listener),
                         name="portus-accept")
        if self.lease_ns is not None and self.reaper_interval_ns is not None:
            self.env.process(self._reaper_loop(), name="portus-reaper")
        regions = [region for _name, entry in self.model_map.items()
                   for region in entry.meta.layout.pinned_regions()]
        if regions:
            self.env.process(self._repin(regions), name="portus-repin")
        self._started = True

    def _repin(self, regions) -> Generator:
        try:
            yield from self.node.nic.pin_all(regions, self.obs,
                                             track="daemon")
        except MemoryRegionError:
            pass  # this daemon died first: its crash cancelled them

    # -- lifecycle ----------------------------------------------------------------

    def crash(self) -> None:
        """The daemon process dies abruptly — the only way a daemon ends.

        The port unbinds and every connection drops (a successor daemon
        can bind the same port immediately), every attached QP is
        flushed to the error state (in-flight WR data is discarded —
        the DMA target mapping is gone), in-flight handlers are killed,
        every MR pinned over the pool dies with the process, and the
        pool closes un-synced.  PMem keeps whatever was persisted; the
        successor must :meth:`PmemPool.open` and recover.
        Callers simulating *power loss* should :meth:`PmemPool.crash`
        the pool before calling this.
        """
        if not self.stopped:
            self.stopped = True
            if self._listener is not None:
                self._listener.close()
            for conn in list(self._conns):
                conn.drop()
            self._conns.clear()
        if not self.pool.closed:
            self.pool.close()
        for _name, entry in self.model_map.items():
            for qp in entry.qps:
                if qp.error is None:
                    qp.transition_to_error("daemon crashed")
            if entry.inflight is not None and entry.inflight.is_alive:
                entry.inflight.interrupt("daemon crashed")
        self.node.nic.unpin_device(self.pool.device)

    # -- serving -------------------------------------------------------------------

    def _accept_loop(self, listener) -> Generator:
        while True:
            try:
                conn = yield from listener.accept()
            except ConnectionClosed:
                return
            self._conns.append(conn)
            self.env.process(self._serve(conn), name="portus-conn")

    def _serve(self, conn) -> Generator:
        try:
            while True:
                try:
                    message = yield from conn.recv()
                except ConnectionClosed:
                    return
                self.env.process(self._dispatch(conn, message),
                                 name=f"portus-{message.get('op')}")
        finally:
            if conn in self._conns:
                self._conns.remove(conn)

    def _count(self, suffix: str, n: int = 1) -> None:
        """Bump ``daemon.<suffix>`` in this shard's series.

        N daemons share one metrics registry, and a restarted daemon
        keeps its node's series: ``value(name)`` is the fleet total,
        ``value(name, shard=...)`` one shard's count across restarts —
        what :meth:`health_snapshot` reads, so one shard's fault burst
        never degrades another shard's health classification.
        """
        self.obs.metrics.counter(f"daemon.{suffix}",
                                 shard=self.node.name).inc(n)

    def _dispatch(self, conn, message: Dict) -> Generator:
        op = message.get("op")
        rid = message.get("rid")
        handlers = {
            protocol.OP_REGISTER: self._handle_register,
            protocol.OP_DO_CHECKPOINT: self._handle_checkpoint,
            protocol.OP_DO_RESTORE: self._handle_restore,
            protocol.OP_UNREGISTER: self._handle_unregister,
            protocol.OP_LIST: self._handle_list,
            protocol.OP_HEARTBEAT: self._handle_heartbeat,
            protocol.OP_GROUP_REGISTER: self._handle_group_register,
            protocol.OP_GROUP_QUERY: self._handle_group_query,
        }
        handler = handlers.get(op)
        trace_id = protocol.trace_of(message)
        span = self.obs.tracer.span(self.env, f"daemon.{op}", cat="rpc",
                                    trace_id=trace_id, track="daemon",
                                    model=message.get("model"))
        self._count(f"requests.{op}")
        deadline = Deadline(self.env, self.request_timeout_ns)
        failed = False
        try:
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            self._touch_lease(message)
            yield from self.workers.execute(PER_REQUEST_CPU_NS)
            if self.stopped:
                # A dead process starts no handler: nothing it would do
                # (a pin, a PMem write) may outlive it.
                raise ConnectionClosed(
                    f"{self.node.name}: the daemon stopped before {op} ran")
            with deadline:
                reply, size = yield from handler(message)
            # Stamp at completion too: a request that legitimately runs
            # longer than the lease must not leave a stale stamp for the
            # reaper to trip over before the client's next request.
            self._touch_lease(message)
        except ReproError as exc:
            if isinstance(exc, ProcessInterrupted):
                # The deadline, the reaper or a crash interrupted the
                # handler (its cleanup aborted its work): the client sees
                # a retryable timeout or "your attach is gone".
                exc = (RequestTimeout(f"{op}: request exceeded "
                                      f"{self.request_timeout_ns} ns")
                       if deadline.fired else NotAttached(str(exc)))
            failed = True
            self._count(f"errors.{op}")
            reply, size = protocol.error_reply(exc)
        span.finish(error=failed)
        protocol.stamp_trace(reply, trace_id)
        if rid is not None:
            reply["rid"] = rid
        try:
            yield from conn.send(reply, wire_size=size)
        except ReproError:
            # The client died or the connection dropped mid-reply; the
            # work is done (or aborted) either way — drop the reply.
            self._count("dropped_replies")

    # -- lease bookkeeping -------------------------------------------------------

    def _touch_lease(self, message: Dict) -> None:
        """Any request from a session renews its model's lease."""
        if self.lease_ns is None:
            return
        name = message.get("model")
        entry = self.model_map.get(name) if name else None
        if entry is not None:
            entry.last_seen_ns = self.env.now

    def _reaper_loop(self) -> Generator:
        while not self.stopped:
            yield self.env.timeout(self.reaper_interval_ns)
            if self.stopped:
                return
            self._reap_expired()

    def _reap_expired(self) -> None:
        """Detach every session whose lease ran out.

        An in-flight pull for a vanished client is interrupted (its
        cleanup aborts the ACTIVE version and releases the CAS guard) and
        the session QP is flushed so late completions cannot deposit
        stale bytes into a slot a future checkpoint may claim.  The
        persistent index is untouched — the model's committed versions
        survive for the client's successor to re-attach to.
        """
        deadline = self.env.now - self.lease_ns
        for name, entry in list(self.model_map.items()):
            if not entry.attached or entry.last_seen_ns > deadline:
                continue
            if (self.request_timeout_ns is not None
                    and entry.inflight is not None
                    and entry.inflight.is_alive):
                # A live request is proof of liveness: a healthy pull can
                # legitimately outlast a short lease, and a wedged one is
                # the request timeout's job to kill.  Only a daemon with
                # no request timeout reaps in-flight work (last resort).
                continue
            self._count("reaped_sessions")
            qps = entry.qps
            entry.qps = []
            entry.client_runs = None
            if entry.inflight is not None and entry.inflight.is_alive:
                entry.inflight.interrupt(f"{name}: session lease expired")
            for qp in qps:
                if qp.error is None:
                    qp.transition_to_error(
                        f"{name}: session lease expired")

    # -- entry helpers ----------------------------------------------------------------

    def _entry(self, model_name: str) -> ModelEntry:
        entry = self.model_map.get(model_name)
        if entry is None:
            raise ModelNotFound(model_name)
        return entry

    def hold(self, entry: ModelEntry) -> ModelEntry:
        """The CAS guard: exclusive use of *entry* for the ``with`` block
        this opens, or :class:`CheckpointInProgress`; until the block
        ends, the holding process is the entry's interrupt target (the
        reaper, a crash)."""
        if entry.busy:
            raise CheckpointInProgress(
                f"{entry.meta.mindex.model_name}: operation already "
                "in flight")
        entry.busy = True
        entry.inflight = self.env.active_process
        entry.inflight_since_ns = self.env.now
        return entry

    # -- REGISTER ------------------------------------------------------------------------

    def _handle_register(self, message: Dict) -> Generator:
        name = message["model"]
        tensors = message["tensors"]
        dedup = message.get("dedup")
        chunk_bytes = None if dedup is None else int(dedup["chunk_bytes"])
        tenant = message.get("tenant")
        # Multi-QP REGISTER: the client brings its whole stripe set.
        qps = message["qps"]
        specs = [
            TensorSpec(t["name"], tuple(t["shape"]),
                       DType.by_name(t["dtype"])) for t in tensors
        ]
        with _Admitted(self.admission, "register"):
            entry = self.model_map.get(name)
            if entry is None:
                if tenant is not None and self.tenants is not None:
                    # Charge the persistent footprint (two version
                    # slots) against the tenant's byte quota BEFORE any
                    # pool allocation — a quota reject must leave no
                    # state.
                    self.tenants.charge_bytes(
                        tenant, name,
                        2 * sum(spec.size_bytes for spec in specs))
                try:
                    # The chunk store is pool-wide: the first dedup model
                    # formats it and later ones must agree on the chunk
                    # size.
                    entry = self.adopt_model(name, ModelMeta.create(
                        self.pool, name, specs, chunk_bytes=chunk_bytes))
                except ReproError:
                    if tenant is not None and self.tenants is not None:
                        self.tenants.release_bytes(tenant, name)
                    raise
            else:
                if (tenant is not None and entry.tenant is not None
                        and tenant != entry.tenant):
                    raise ModelAlreadyRegistered(
                        f"{name}: held by tenant {entry.tenant!r}, not "
                        f"{tenant!r}")
                self._validate_attach(entry, specs, chunk_bytes)
            # A re-attach to a live daemon finds these in the pin table,
            # and one to a restarted daemon joins the re-pin its start()
            # began.
            yield from self.node.nic.pin_all(
                entry.meta.layout.pinned_regions(), self.obs,
                protocol.trace_of(message), "daemon")
            entry.qps = list(qps)
            entry.client_runs = [
                RemoteRun(d.name, d.offset, d.size, t["addr"], t["rkey"])
                for d, t in zip(entry.meta.mindex.descriptors, tensors)]
            if tenant is not None:
                entry.tenant = tenant
            entry.last_seen_ns = self.env.now
        return protocol.reply(protocol.OP_REGISTERED, model=name,
                              layers=len(tensors), num_qps=len(entry.qps))

    def adopt_model(self, name: str, meta: ModelMeta) -> ModelEntry:
        """Make the new model *meta* known to this daemon (REGISTER, a
        migration's destination): its ModelTable entry first, then its
        ModelMap entry, so no model lives only in DRAM.  When the table
        refuses it — full, or already holding *name* (a REGISTER that
        raced a migration's pull) — *meta* is freed on a live pool
        before the error propagates (REGISTER then releases the tenant's
        byte charge)."""
        try:
            if name in self.table:
                raise ModelAlreadyRegistered(
                    f"{name}: this daemon already holds a model of "
                    f"that name")
            self.table.insert(name, meta.meta.addr)
        except (PmemError, ModelAlreadyRegistered):
            if not self.pool.closed:
                meta.free()
            raise
        entry = ModelEntry(meta)
        self.model_map.insert(name, entry)
        return entry

    def _validate_attach(self, entry: ModelEntry, specs: List[TensorSpec],
                         chunk_bytes: Optional[int]) -> None:
        """The attach must name the persisted tensors and layout
        (*chunk_bytes* None: the contiguous one)."""
        index = entry.meta.mindex
        if len(specs) != index.layer_count:
            raise PortusError(
                f"{index.model_name}: attach with {len(specs)} tensors, "
                f"index has {index.layer_count}")
        for spec, descriptor in zip(specs, index.descriptors):
            if (spec.name != descriptor.name
                    or spec.size_bytes != descriptor.size):
                raise PortusError(
                    f"{index.model_name}: tensor {spec.name!r} does not "
                    f"match the persisted index entry {descriptor.name!r}")
        persisted = entry.meta.layout.chunk_bytes
        if chunk_bytes != persisted:
            raise PortusError(
                f"{index.model_name}: attach with chunk_bytes="
                f"{chunk_bytes}, the persisted model uses chunk_bytes="
                f"{persisted} (None: the contiguous layout)")

    # -- the datapath -------------------------------------------------------------

    def _engine(self, qps: List, ingest: bool,
                trace_id: Optional[int] = None) -> TransferEngine:
        """One transfer engine per operation over the pinned stripe set.

        ``QP_DEPTH`` is read here (not at daemon construction) so the
        QP-depth ablation's per-run sweep still bites.  The PMem ingest
        limiter only applies to pulls — restores read PMem, and Optane
        reads do not congest.
        """
        return TransferEngine(
            self.env, qps, depth=QP_DEPTH,
            stream_limit=self._pmem_streams if ingest else None,
            wqe_cost=lambda: self.workers.execute(PER_WQE_CPU_NS),
            obs=self.obs, trace_id=trace_id)

    # -- DO_CHECKPOINT --------------------------------------------------------------------

    def _handle_checkpoint(self, message: Dict) -> Generator:
        """Pull a new version into the free slot, whatever the layout:
        the layout's write reserves the target runs, the engine pulls
        every overlap of them with the client's tensors, and the write
        persists, commits — or, on any failure, aborts.

        A group member never overwrites the slot holding its group's
        committed step, refuses a step behind it before pulling
        anything, and once committed may complete the group's step
        (:meth:`_commit_group`); its reply names the group's committed
        step."""
        name = message["model"]
        step = message["step"]
        entry = self._entry(name)
        group = self.groups.group_of(name)
        committed = 0 if group is None else group.committed_step
        if step < committed:
            raise GroupCommitRefused(
                f"{name}: step {step} is behind its group's committed "
                f"step {committed}")
        with _Admitted(self.admission, "ingest"):
            write = entry.meta.layout.new_version(message.get("manifest"))
            if not entry.attached:
                raise NotAttached(f"{name}: no attached client to pull from")
            with self.hold(entry):
                if self.tenants is not None and entry.tenant is not None:
                    # Token-bucket bandwidth budget, debited only once the
                    # dump is admitted, attached and held: the logical
                    # size (the bytes this dump *represents*); over-budget
                    # tenants get a typed reject with an exact
                    # deterministic retry-after.
                    self.tenants.reserve_bandwidth(
                        entry.tenant, entry.meta.mindex.total_bytes,
                        self.env.now)
                # Pin the stripe set and the client's tensors: a
                # re-attach mid-pull must not redirect us.
                qps, runs = list(entry.qps), entry.client_runs
                trace_id = protocol.trace_of(message)
                started = self.env.now
                engine = None
                try:
                    with self.obs.tracer.span(self.env, "ckpt.begin",
                                              cat="ckpt", trace_id=trace_id,
                                              track="daemon", model=name):
                        target = write.begin(committed)
                    items = yield from plan_items(write.targets, runs,
                                                  self.node.nic,
                                                  self.engine_chunk_bytes,
                                                  self.obs, trace_id,
                                                  "daemon")
                    # The engine charges PER_WQE_CPU_NS per WR actually
                    # posted — a dedup pull pays for what it moves (and
                    # its segmentation), not the whole layer count.  On a
                    # WR error or an interrupt it flushes the whole
                    # stripe set before raising, so no in-flight read can
                    # land stale bytes in a slot the next checkpoint may
                    # claim.
                    engine = self._engine(qps, ingest=True,
                                          trace_id=trace_id)
                    pulled = yield from engine.pull(items, f"pull:{name}")
                    if self.pool.closed:
                        # The server lost power mid-pull: this daemon
                        # instance is gone; the target slot stays ACTIVE
                        # on the (recovered) pool and will never be
                        # trusted by a restore.
                        raise PortusError(
                            f"{name}: server crashed during checkpoint")
                    with self.obs.tracer.span(self.env,
                                              "ckpt.persist_commit",
                                              cat="ckpt", trace_id=trace_id,
                                              track="daemon", model=name):
                        write.persist()
                        yield self.env.timeout(FLUSH_BARRIER_NS)
                        write.commit(step)
                except ReproError:
                    self._count("checkpoints_aborted")
                    if not self.pool.closed:
                        # Once a pull WR completed, its bytes landed in
                        # the target and the slot is torn at its old
                        # step: the write invalidates it rather than roll
                        # back to DONE (the torn-slot bug).
                        landed = engine is not None and engine.bytes_landed > 0
                        if write.abort(landed):
                            self._count("checkpoints_aborted_dirty")
                    raise
        duration = self.env.now - started
        self._count("checkpoints_completed")
        self._count("bytes_pulled", pulled)
        report = write.report()
        for key, value in report.items():
            self._count(key, value)
        self.obs.metrics.histogram(
            "daemon.checkpoint_latency_ns").record(duration)
        if group is not None:
            report["group_step"] = self._commit_group(group, step)
        return protocol.reply(protocol.OP_CHECKPOINT_DONE, model=name,
                              step=step, version=target,
                              duration_ns=duration, bytes_pulled=pulled,
                              **report)

    def _commit_group(self, record, step: int) -> int:
        """Commit *step* as the group's if every member now holds DONE
        at it — the record must never name a step a pinned restore
        cannot serve — and return the group's committed step.

        The commit is one A/B record write, made by the member
        checkpoint that completed the step before it replies; the
        ``group.ack`` crash hook after it covers the
        persisted-but-unacked window in the crash sweep.
        """
        if step > record.committed_step and all(
                self._holds(member, step)
                for member in record.layout().members):
            record.commit(step)
            self._count("group_commits")
            hook = self.pool.device.crash_hook
            if hook is not None:
                # Crash point: the commit record persisted but the ack
                # never reached the client.
                hook("group.ack", record.allocation.tag)
        return record.committed_step

    def _holds(self, model: str, step: int) -> bool:
        """Whether *model* is indexed here with a DONE version at *step*."""
        entry = self.model_map.get(model)
        return (entry is not None
                and entry.meta.read_flags().done_at(step) is not None)

    # -- DO_RESTORE -----------------------------------------------------------------------

    def _handle_restore(self, message: Dict) -> Generator:
        """Push a version back, whatever the layout: the newest DONE
        one, the one at the message's pinned ``step``, or — when the
        message names the model's ``group`` — the one at the group's
        committed step.  The engine writes every overlap of the
        version's extents with the client's tensors, straight from PMem
        (bit-exact, one stripe set)."""
        name = message["model"]
        entry = self._entry(name)
        step = message.get("step")
        if message.get("group") is not None:
            step = self._group_step(name, message["group"])
        if not entry.attached:
            raise NotAttached(f"{name}: no attached client to push to")
        with self.hold(entry):
            qps = list(entry.qps)
            trace_id = protocol.trace_of(message)
            started = self.env.now
            version, step = entry.meta.restorable(step)
            items = yield from plan_items(entry.meta.layout.extents(version),
                                          entry.client_runs, self.node.nic,
                                          self.engine_chunk_bytes,
                                          self.obs, trace_id, "daemon")
            engine = self._engine(qps, ingest=False, trace_id=trace_id)
            try:
                pushed = yield from engine.push(items, f"push:{name}")
            except ReproError:
                # A restore mutates nothing on PMem; the engine already
                # retired the in-flight WRs on every QP of the stripe
                # set so they cannot write stale bytes into the client
                # after it re-attaches and retries.
                self._count("restores_aborted")
                raise
            if self.pool.closed:
                raise PortusError(f"{name}: server crashed during restore")
        duration = self.env.now - started
        self._count("restores_completed")
        self._count("bytes_pushed", pushed)
        self.obs.metrics.histogram(
            "daemon.restore_latency_ns").record(duration)
        return protocol.reply(protocol.OP_RESTORE_DONE, model=name,
                              step=step, version=version,
                              duration_ns=duration, bytes_pushed=pushed)

    def _group_step(self, model: str, group: str) -> int:
        """The committed step of *group*, which *model* must belong to."""
        record = self.groups.lookup(group)
        if self.groups.group_of(model) is not record:
            raise GroupError(f"{model}: not a member of group {group!r}")
        if record.committed_step <= 0:
            raise NoValidGroupCheckpoint(
                f"group {group!r} has no committed step")
        return record.committed_step

    # -- UNREGISTER ------------------------------------------------------------------------

    def _handle_unregister(self, message: Dict) -> Generator:
        name = message["model"]
        self.unregister_model(name)
        return protocol.reply(protocol.OP_UNREGISTERED, model=name)
        yield  # pragma: no cover - keeps this a generator

    def unregister_model(self, name: str) -> int:
        """Delete *name* for good (UNREGISTER, an online repack's drop):
        :meth:`drop_model`, then release its tenant's byte charge;
        returns the bytes freed."""
        entry = self._entry(name)
        freed = self.drop_model(name)
        if self.tenants is not None and entry.tenant is not None:
            self.tenants.release_bytes(entry.tenant, name)
        return freed

    def drop_model(self, name: str) -> int:
        """Delete *name* from this daemon under its CAS guard (a
        migration's source evict keeps the tenant's byte charge; see
        :meth:`unregister_model`); returns the bytes freed.

        :meth:`ModelTable.drop` unlinks before it frees, so a crash
        mid-drop only leaks GC-able extents.  A chunk-layout model drops
        only its own chunk references.  Each freed extent's MR retires
        with it.
        """
        with self.hold(self._entry(name)) as entry:
            freed = self.table.drop(name, entry.meta)
            self.model_map.delete(name)
        return freed

    # -- GROUPS ------------------------------------------------------------------------------

    def _handle_group_register(self, message: Dict) -> Generator:
        """Bind registered member models into one named group.

        The layout is validated (every member must already exist in the
        index, and belong to no other group) and persisted in the
        group's commit record at committed step 0; re-registering with
        the identical layout attaches (the restart path), a different
        layout is refused.
        """
        name = message["group"]
        blob = bytes(message["layout"])
        layout = ShardedLayout.unpack(blob)
        for member in layout.members:
            if self.model_map.get(member) is None:
                raise ModelNotFound(
                    f"group {name!r} member {member!r} is not registered")
        record = self.groups.register(name, blob)
        self._count("group_registers")
        return protocol.reply(protocol.OP_GROUP_REGISTERED, group=name,
                              step=record.committed_step,
                              members=len(layout.members))
        yield  # pragma: no cover - generator protocol

    def _handle_group_query(self, message: Dict) -> Generator:
        """The group's committed step + persisted layout blob (sized
        like the registration packet: the blob rides the reply)."""
        name = message["group"]
        record = self.groups.lookup(name)
        reply = {"op": protocol.OP_GROUP_INFO, "group": name,
                 "step": record.committed_step,
                 "layout": record.layout_blob}
        return reply, 64 + len(record.layout_blob)
        yield  # pragma: no cover - generator protocol

    # -- HEARTBEAT ---------------------------------------------------------------------------

    def _handle_heartbeat(self, message: Dict) -> Generator:
        """Lease renewal (the touch already happened in dispatch; this
        also validates that the model is still known).  The ack carries
        the daemon health block — pool utilization, inflight/lease
        counts, fault counters — so every heartbeating client (and the
        remediation operator) samples health for free."""
        name = message["model"]
        entry = self._entry(name)
        entry.last_seen_ns = self.env.now
        return protocol.heartbeat_ack(name, entry.attached,
                                      health=self.health_snapshot())
        yield  # pragma: no cover - generator protocol

    # -- health ------------------------------------------------------------------------

    def health_snapshot(self) -> Dict:
        """One machine-readable health sample (what heartbeat acks carry).

        Pure observation: reads DRAM state and monotonic counters, never
        touches the simulation clock, so sampling health is zero-cost in
        simulated time.  The :mod:`repro.ops.health` classifier turns a
        pair of these (current + previous) into a health state.
        """
        inflight_ages = [
            self.env.now - entry.inflight_since_ns
            for _name, entry in self.model_map.items()
            if entry.busy and entry.inflight_since_ns is not None
        ]
        attached = sum(1 for _name, entry in self.model_map.items()
                       if entry.attached)
        if self.pool.closed:
            used = capacity = 0
        else:
            used = self.pool.used_bytes
            capacity = used + self.pool.free_bytes
        metrics = self.obs.metrics
        shard = self.node.name
        sample = {
            "time_ns": self.env.now,
            "up": self._started and not self.stopped,
            "port": self.port,
            "shard": self.node.name,
            "models": len(self.model_map.keys()),
            "attached": attached,
            "inflight": len(inflight_ages),
            "oldest_inflight_age_ns": max(inflight_ages, default=0),
            "pool": {
                "closed": self.pool.closed,
                "used_bytes": used,
                "capacity_bytes": capacity,
                "utilization": used / capacity if capacity else 0.0,
            },
            # Monotonic *per-shard* counters (the shared obs registry
            # survives daemon restarts, so deltas stay meaningful across
            # a crash/restart boundary; the ``shard=`` label keeps
            # sibling shards' faults out of this shard's deltas).
            "counters": {
                "requests": metrics.sum_counters("daemon.requests.",
                                                 shard=shard),
                "errors": metrics.sum_counters("daemon.errors.",
                                               shard=shard),
                **{key: metrics.value(f"daemon.{key}", shard=shard)
                   for key in ("checkpoints_completed",
                               "checkpoints_aborted", "restores_completed",
                               "restores_aborted", "dropped_replies",
                               "reaped_sessions")},
            },
        }
        if self.admission is not None:
            sample["admission"] = self.admission.snapshot()
        return sample

    # -- LIST ------------------------------------------------------------------------------

    def _handle_list(self, message: Dict) -> Generator:
        """Network-facing inventory (what portusctl shows offline)."""
        rows = [entry.meta.inventory(name, attached=entry.attached)
                for name, entry in self.model_map.items()]
        return protocol.reply(protocol.OP_LIST_REPLY, models=rows)
        yield  # pragma: no cover - generator protocol

    # -- introspection ----------------------------------------------------------------------

    def models(self) -> List[str]:
        return self.model_map.keys()
