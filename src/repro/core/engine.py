"""The transfer engine: pipelined, multi-QP posting for the datapath.

The daemon's original datapath posted one-sided WRs in fixed windows of
``QP_DEPTH`` with a full barrier between windows, on a single QP per
model.  This module replaces that inner loop for checkpoint pulls,
restore pushes, and repacking's local moves:

* **Credit-based sliding window** — each QP ("lane") keeps up to *depth*
  WRs in flight; the moment a completion returns a credit the next WR is
  posted.  No barrier: a straggler tensor no longer idles the other
  slots of its window.
* **Multi-QP striping** — the work items are sharded across the QPs the
  client registered (``num_qps`` is negotiated at REGISTER time).  Items
  come from :func:`plan_items`, which intersects the local extents a
  layout names with the peer's runs; every item carries its own local
  MR, and runs larger than ``chunk_bytes`` are segmented so one huge
  GPT tensor parallelizes across lanes instead of serializing on one
  WR.
* **Largest-first scheduling** — items are posted in decreasing size
  (LPT order) and striped onto the least-loaded lane, so the long tail
  of a skewed tensor-size distribution cannot become the straggler.
* **Bounded PMem ingest** — Optane's aggregate write bandwidth degrades
  when more concurrent streams interleave on the 256 B XPLine than the
  buffer can absorb (see :class:`repro.hw.devices.PmemDimm`).  With
  ``stream_limit`` the engine holds a token per in-flight WR, capping
  the concurrent writers the media sees; the limiter is shared
  daemon-wide so sixteen GPT shards together stay under the cliff.

Abort semantics (the PR-1 fault-tolerance contract): the first WR error
aborts the whole stripe set — every lane stops posting and **every QP is
flushed**, so in-flight and hung WRs on sibling lanes retire instead of
depositing stale bytes later.  If the caller is interrupted mid-engine
(request timeout, lease reaping, daemon crash), the engine defuses its
gate, flushes all QPs, and re-raises — lanes are "safe" processes that
never fail the simulation, so a late completion cannot crash the run.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.core.index import overlaps
from repro.errors import ReproError
from repro.obs import NULL_SPAN, Observability
from repro.sim import AllOf, AnyOf, Environment, Event, Transfer
from repro.units import mib

#: Segmentation threshold/chunk size for striped transfers.  4 MiB keeps
#: per-WR overhead negligible (≥ 1000x the per-op latency at wire rate)
#: while giving the scheduler enough pieces to balance lanes; FastPersist
#: and ByteCheckpoint use the same order of magnitude for parallel
#: checkpoint I/O.  See repro.harness.calibration for provenance.
ENGINE_CHUNK_BYTES = mib(4)


class WorkItem:
    """One WR to post: a run of bytes between a local MR (at
    *local_offset*) and a remote address under *rkey*."""

    __slots__ = ("name", "local_offset", "remote_addr", "rkey", "size",
                 "mr")

    def __init__(self, name: str, local_offset: int, remote_addr: int,
                 rkey: int, size: int, mr) -> None:
        self.name = name
        self.local_offset = local_offset
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.size = size
        self.mr = mr

    def __repr__(self) -> str:
        return f"<WorkItem {self.name} +{self.local_offset} " \
               f"{self.size}B>"


class RemoteRun:
    """Region bytes ``[offset, offset + size)`` a peer exposes at *addr*
    under *rkey*: a client's tensor, or a piece of another server's
    version during a migration."""

    __slots__ = ("name", "offset", "size", "addr", "rkey")

    def __init__(self, name: str, offset: int, size: int, addr: int,
                 rkey: int) -> None:
        self.name = name
        self.offset = offset
        self.size = size
        self.addr = addr
        self.rkey = rkey


class MrCache:
    """The local MRs of one operation.

    *pinned* MRs (registered once per attach) are reused; any other
    allocation is registered on first use and deregistered again by
    :meth:`release`.
    """

    def __init__(self, nic, pinned: Sequence = ()) -> None:
        self.nic = nic
        self._mrs: Dict[int, object] = {
            mr.allocation.addr: mr for mr in pinned
            if mr is not None and mr.valid}
        self._owned: List = []

    def get(self, allocation) -> Generator:
        """Process: the MR covering *allocation*."""
        mr = self._mrs.get(allocation.addr)
        if mr is None or not mr.valid:
            mr = yield from self.nic.register_mr(allocation)
            self._mrs[allocation.addr] = mr
            self._owned.append(mr)
        return mr

    def release(self) -> None:
        for mr in self._owned:
            if mr.valid:
                self.nic.deregister_mr(mr)


def build_items(runs: List[WorkItem],
                chunk_bytes: Optional[int]) -> List[WorkItem]:
    """Segment whole-run work items into WR-sized ones.

    A run larger than *chunk_bytes* becomes ``name#0``, ``name#1``, ...
    tiling it contiguously on both sides; ``None`` disables segmentation
    (one WR per run, the seed behaviour).
    """
    items = []
    for run in runs:
        if chunk_bytes is None or run.size <= chunk_bytes:
            items.append(run)
            continue
        done = 0
        part = 0
        while done < run.size:
            length = min(chunk_bytes, run.size - done)
            items.append(WorkItem(f"{run.name}#{part}",
                                  run.local_offset + done,
                                  run.remote_addr + done, run.rkey,
                                  length, run.mr))
            done += length
            part += 1
    return items


def plan_items(targets, runs: List[RemoteRun], mrs: MrCache,
               chunk_bytes: Optional[int]) -> Generator:
    """Process: the work items moving every overlap of the local
    *targets* (:class:`~repro.core.index.Extent` runs) with the remote
    *runs*, target-major in region order.  Each target's MR comes from
    *mrs* on first use; an extent's label prefixes its items' names."""
    whole = []
    for extent, run, lo, hi in overlaps(targets, runs):
        mr = yield from mrs.get(extent.allocation)
        name = (run.name if extent.label is None
                else f"{extent.label}:{run.name}")
        whole.append(WorkItem(name, extent.base + lo - extent.offset,
                              run.addr + lo - run.offset, run.rkey,
                              hi - lo, mr))
    return build_items(whole, chunk_bytes)


def stripe_items(items: List[WorkItem], lanes: int,
                 largest_first: bool = True) -> List[List[WorkItem]]:
    """Assign items to *lanes* queues, byte-balanced.

    Largest-first greedy (LPT): sort by decreasing size, always give the
    next item to the least-loaded lane.  The sort is stable, so equal
    sizes keep registration order and runs stay deterministic.
    """
    ordered = sorted(items, key=lambda item: -item.size) \
        if largest_first else list(items)
    queues: List[List[WorkItem]] = [[] for _ in range(lanes)]
    loads = [0] * lanes
    for item in ordered:
        lane = loads.index(min(loads))
        queues[lane].append(item)
        loads[lane] += item.size
    return queues


class _StreamToken(Event):
    """A pending claim on an :class:`IngestLimiter` slot."""

    __slots__ = ("limiter", "owner")

    def __init__(self, limiter: "IngestLimiter", owner) -> None:
        super().__init__(limiter.env)
        self.limiter = limiter
        self.owner = owner

    def cancel(self) -> None:
        """Withdraw the claim (granted or still queued)."""
        self.limiter._cancel(self)


class IngestLimiter:
    """Counting limiter whose grants fair-share across owners.

    Bounds the concurrent PMem write streams daemon-wide (the Optane
    congestion cliff, see :class:`repro.hw.devices.PmemDimm`).  A plain
    FIFO resource would hand all slots to consecutive lanes of one
    stripe set — four streams on one GPU, bottlenecked by its BAR read
    rate instead of spreading over the PMem's full uncongested
    bandwidth.  This limiter grants a freed slot to the waiter whose
    *owner* (one TransferEngine, i.e. one operation) currently holds the
    fewest slots, FIFO among ties, so concurrent checkpoints interleave
    one stream each before any operation gets a second.
    """

    def __init__(self, env: Environment, capacity: int,
                 metrics=None) -> None:
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._holders: set = set()
        self._waiters: List[_StreamToken] = []
        self._held_by: Dict = {}
        self.metrics = metrics

    def _note_queue(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("limiter.queue_depth").set(len(self._waiters))

    @property
    def in_use(self) -> int:
        return len(self._holders)

    def request(self, owner=None) -> _StreamToken:
        token = _StreamToken(self, owner)
        if len(self._holders) < self.capacity:
            self._grant(token)
        else:
            self._waiters.append(token)
            if self.metrics is not None:
                self.metrics.counter("limiter.waits").inc()
            self._note_queue()
        return token

    def release(self, token: _StreamToken) -> None:
        if token not in self._holders:
            raise ReproError("release() of a token that is not held")
        self._holders.remove(token)
        self._held_by[token.owner] -= 1
        self._grant_next()

    def _grant(self, token: _StreamToken) -> None:
        self._holders.add(token)
        self._held_by[token.owner] = self._held_by.get(token.owner, 0) + 1
        token.succeed(token)

    def _grant_next(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            best = min(self._waiters,
                       key=lambda t: self._held_by.get(t.owner, 0))
            self._waiters.remove(best)
            self._grant(best)
        self._note_queue()

    def _cancel(self, token: _StreamToken) -> None:
        if token in self._holders:
            self.release(token)
        elif token in self._waiters:
            self._waiters.remove(token)
            self._note_queue()


class TransferEngine:
    """Drives one pull or push across a stripe set of QPs.

    One instance per operation: construct, call :meth:`pull` or
    :meth:`push` on prebuilt work items (each carrying its local MR),
    read the counters.  ``depth`` is the per-QP credit count;
    ``pipelined=False`` reproduces the seed's barrier-window posting
    (kept for the engine ablation benchmarks).
    ``stream_limit`` is a shared :class:`repro.sim.Resource` bounding
    total in-flight WRs across every concurrent operation (the PMem
    ingest cap); ``wqe_cost`` is charged once per posted WR (a generator
    function — the daemon passes its worker CpuSet).
    """

    def __init__(self, env: Environment, qps: Sequence, depth: int,
                 pipelined: bool = True, largest_first: bool = True,
                 stream_limit=None,
                 wqe_cost: Optional[Callable[[], Generator]] = None,
                 obs: Optional[Observability] = None,
                 trace_id: Optional[int] = None) -> None:
        if not qps:
            raise ReproError("transfer engine needs at least one QP")
        if depth < 1:
            raise ReproError(f"QP depth must be >= 1, got {depth}")
        self.env = env
        self.qps = list(qps)
        self.depth = depth
        self.pipelined = pipelined
        self.largest_first = largest_first
        self.stream_limit = stream_limit
        self.wqe_cost = wqe_cost
        self.obs = obs if obs is not None else Observability()
        self.trace_id = trace_id
        #: WRs actually posted (the per-WR CPU charge is exact).
        self.posted_wrs = 0
        #: Peak concurrently-in-flight WRs across all lanes.
        self.peak_inflight = 0
        self.bytes_moved = 0
        #: Bytes whose content actually landed in the target region —
        #: includes WRs that completed OK while the lane was already
        #: draining (the one-sided verbs deposit content at completion
        #: time), which ``bytes_moved`` never sees.  This is the
        #: "did the pull dirty the slot" signal for abort_checkpoint.
        self.bytes_landed = 0
        self._inflight_now = 0
        self._aborted = False
        self._first_error: Optional[BaseException] = None

    # -- public operations -------------------------------------------------------

    def pull(self, items: List[WorkItem], label_prefix: str) -> Generator:
        """Process: RDMA-READ every item into its local MR; returns the
        bytes pulled."""
        return (yield from self._run("read", items, label_prefix))

    def push(self, items: List[WorkItem], label_prefix: str) -> Generator:
        """Process: RDMA-WRITE every item from its local MR to the
        peer; returns the bytes pushed."""
        return (yield from self._run("write", items, label_prefix))

    def abort(self) -> None:
        """Stop posting and flush every QP of the stripe set.

        Idempotent; safe to call from outside (the daemon's abort paths)
        or from a lane observing the first WR error.
        """
        if self._aborted:
            return
        self._aborted = True
        for qp in self.qps:
            qp.flush()

    # -- core --------------------------------------------------------------------

    def _run(self, kind: str, items: List[WorkItem],
             label_prefix: str) -> Generator:
        if not items:
            return 0
        queues = stripe_items(items, len(self.qps), self.largest_first)
        lane_fn = self._lane if self.pipelined else self._lane_barrier
        span = self.obs.tracer.span(
            self.env, f"engine.{kind}", cat="engine",
            trace_id=self.trace_id, track="engine",
            items=len(items), lanes=sum(1 for q in queues if q),
            op=label_prefix)
        lanes = [
            self.env.process(lane_fn(kind, qp, deque(queue), label_prefix,
                                     index, span),
                             name=f"engine-{kind}-lane{index}")
            for index, (qp, queue) in enumerate(zip(self.qps, queues))
            if queue
        ]
        gate = AllOf(self.env, lanes)
        try:
            yield gate
        except BaseException:
            # Interrupted mid-transfer (request timeout, lease reap,
            # daemon crash): retire the WRs in flight on *every* lane so
            # late completions cannot land stale bytes, and mark the
            # gate handled — the safe lanes still referenced by it wind
            # down on their own.
            gate.defuse()
            self.abort()
            span.finish(aborted=True, bytes_moved=self.bytes_moved)
            raise
        span.finish(aborted=self._aborted, bytes_moved=self.bytes_moved)
        if self._first_error is not None:
            raise self._first_error
        return self.bytes_moved

    def _post(self, kind: str, qp, item: WorkItem, label_prefix: str):
        verb = qp.read if kind == "read" else qp.write
        self.posted_wrs += 1
        event = verb(item.mr, item.local_offset, item.rkey,
                     item.remote_addr, item.size,
                     label=f"{label_prefix}:{item.name}")
        # The lane may yield (stream token, per-WR CPU) between posting
        # and subscribing its wait condition, so a fast failure could
        # fire with no waiter attached; the lane accounts for every
        # outcome itself (_retire/_drain), so mark completions handled.
        event.defuse()
        return event

    def _lane(self, kind: str, qp, queue, label_prefix: str,
              index: int = 0, parent=None) -> Generator:
        """Safe process: sliding-window posting on one QP.

        Never fails — the first WR error is recorded, the stripe set
        aborted, and the lane drains; the engine re-raises the error
        after the gate so the daemon's abort path runs exactly once.

        A pending stream token must *race* the completion events, never
        be waited on alone: the lane's own in-flight WRs hold tokens it
        can only release by retiring completions, so blocking on the
        token while holding others would deadlock the shared limiter.
        """
        inflight: Dict = {}
        pending_token = None
        # Per-WR tracing is the hottest span site in a traced fleet run;
        # hoist the tracer check and the per-lane strings so a disabled
        # tracer allocates nothing per WR (no f-strings, no kwargs dict).
        tracer = self.obs.tracer
        if tracer.enabled:
            lane_track = f"engine/qp{index}"
            wr_name = f"wr.{kind}"
            lane_span = tracer.span(
                self.env, f"lane.{kind}", cat="engine",
                trace_id=self.trace_id, parent=parent,
                track=lane_track, qp=index)
        else:
            lane_span = NULL_SPAN
        posted = 0
        try:
            while (queue or inflight) and not self._aborted:
                while queue and len(inflight) < self.depth \
                        and not self._aborted:
                    token = None
                    if self.stream_limit is not None:
                        if pending_token is None:
                            pending_token = self.stream_limit.request(self)
                        if not pending_token.triggered:
                            break  # wait below, racing completions
                        token, pending_token = pending_token, None
                    if self.wqe_cost is not None:
                        yield from self.wqe_cost()
                    if self._aborted:
                        if token is not None:
                            self.stream_limit.release(token)
                        break
                    item = queue.popleft()
                    event = self._post(kind, qp, item, label_prefix)
                    wr_span = tracer.span(
                        self.env, wr_name, cat="wr",
                        trace_id=self.trace_id, parent=lane_span,
                        track=lane_track, item=item.name,
                        bytes=item.size) if tracer.enabled else NULL_SPAN
                    posted += 1
                    inflight[event] = (item, token, wr_span)
                    self._inflight_now += 1
                    self.peak_inflight = max(self.peak_inflight,
                                             self._inflight_now)
                if self._aborted:
                    break
                if queue and len(inflight) >= self.depth:
                    # Out of QP credits with work still queued: the
                    # stall the sliding window exists to minimise.
                    self.obs.metrics.counter("engine.credit_stalls").inc()
                waits = list(inflight)
                if pending_token is not None:
                    waits.append(pending_token)
                if not waits:
                    continue
                condition = AnyOf(self.env, waits)
                try:
                    yield condition
                except BaseException as exc:  # noqa: BLE001 - recorded
                    condition.defuse()
                    self._record_error(exc)
                self._retire(inflight)
        finally:
            if pending_token is not None:
                pending_token.cancel()
            self._drain(inflight)
            lane_span.finish(posted=posted, aborted=self._aborted)

    def _lane_barrier(self, kind: str, qp, queue, label_prefix: str,
                      index: int = 0, parent=None) -> Generator:
        """Safe process: the seed's barrier-window posting on one QP.

        Completions are retired mid-window only to recycle stream
        credits; no WR of window N+1 is posted before all of window N
        has completed (the barrier the engine ablation measures).
        """
        inflight: Dict = {}
        pending_token = None
        tracer = self.obs.tracer
        if tracer.enabled:
            lane_track = f"engine/qp{index}"
            wr_name = f"wr.{kind}"
            lane_span = tracer.span(
                self.env, f"lane.{kind}", cat="engine",
                trace_id=self.trace_id, parent=parent,
                track=lane_track, qp=index, barrier=True)
        else:
            lane_span = NULL_SPAN
        try:
            while queue and not self._aborted:
                window = deque()
                while queue and len(window) < self.depth:
                    window.append(queue.popleft())
                while window and not self._aborted:
                    token = None
                    if self.stream_limit is not None:
                        if pending_token is None:
                            pending_token = self.stream_limit.request(self)
                        if not pending_token.triggered:
                            condition = AnyOf(self.env,
                                              list(inflight)
                                              + [pending_token])
                            try:
                                yield condition
                            except BaseException as exc:  # noqa: BLE001
                                condition.defuse()
                                self._record_error(exc)
                            self._retire(inflight)
                            continue
                        token, pending_token = pending_token, None
                    if self.wqe_cost is not None:
                        yield from self.wqe_cost()
                    if self._aborted:
                        if token is not None:
                            self.stream_limit.release(token)
                        break
                    item = window.popleft()
                    event = self._post(kind, qp, item, label_prefix)
                    wr_span = tracer.span(
                        self.env, wr_name, cat="wr",
                        trace_id=self.trace_id, parent=lane_span,
                        track=lane_track, item=item.name,
                        bytes=item.size) if tracer.enabled else NULL_SPAN
                    inflight[event] = (item, token, wr_span)
                    self._inflight_now += 1
                    self.peak_inflight = max(self.peak_inflight,
                                             self._inflight_now)
                while inflight and not self._aborted:
                    pending = AllOf(self.env, list(inflight))
                    try:
                        yield pending
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        pending.defuse()
                        self._record_error(exc)
                    self._retire(inflight)
        finally:
            if pending_token is not None:
                pending_token.cancel()
            self._drain(inflight)
            lane_span.finish(aborted=self._aborted)

    # -- completion bookkeeping --------------------------------------------------

    def _record_error(self, exc: BaseException) -> None:
        if self._first_error is None:
            self._first_error = exc
        # First error aborts the whole stripe set: stop posting and
        # flush every QP so sibling lanes' in-flight WRs retire too.
        self.abort()

    def _retire(self, inflight: Dict) -> None:
        """Return credits (and stream tokens) for every settled WR."""
        for event in [event for event in inflight if event.triggered]:
            item, token, span = inflight.pop(event)
            self._inflight_now -= 1
            if token is not None:
                self.stream_limit.release(token)
            if event.ok:
                self.bytes_moved += item.size
                self.bytes_landed += item.size
                if span is not NULL_SPAN:
                    span.finish(ok=True)
            else:
                if span is not NULL_SPAN:
                    span.finish(ok=False)
                if self._first_error is None:
                    self._record_error(event.value)

    def _drain(self, inflight: Dict) -> None:
        """Abort path: release tokens and defuse still-pending WRs.

        The flushed WRs fail at their natural completion time; defusing
        here keeps those late failures from crashing the run (the lane
        is no longer waiting on them).  A WR that completed OK before
        the drain has already deposited its content (one-sided verbs
        land bytes at completion), so it still counts into
        ``bytes_landed`` even though the operation never retired it.
        """
        for event, (item, token, span) in inflight.items():
            self._inflight_now -= 1
            if token is not None:
                self.stream_limit.release(token)
            if event.triggered and event.ok:
                self.bytes_landed += item.size
                if span is not NULL_SPAN:
                    span.finish(ok=True, drained=True)
            else:
                event.defuse()
                if span is not NULL_SPAN:
                    span.finish(ok=False, drained=True)
        inflight.clear()


class LocalCopyEngine:
    """Chunked device-local moves (incremental fill, repacking).

    Times the byte movement through the device's own read/write channels
    with up to *streams* chunk flows in flight; the content relocation
    itself is applied by the caller after the move (exactly like the
    one-sided verbs, content follows the simulated transfer).  The
    default single stream is timing-identical to one large transfer, so
    the incremental datapath keeps the seed's behaviour while sharing
    the engine's chunking/pipelining machinery.
    """

    def __init__(self, env: Environment, device,
                 chunk_bytes: Optional[int] = ENGINE_CHUNK_BYTES,
                 streams: int = 1) -> None:
        if streams < 1:
            raise ReproError(f"need at least one stream, got {streams}")
        self.env = env
        self.device = device
        self.chunk_bytes = chunk_bytes
        self.streams = streams
        self.chunks_moved = 0

    def move(self, total_bytes: int, label: str = "local-copy") -> Generator:
        """Process: move *total_bytes* across the device channels."""
        if total_bytes <= 0:
            return
        chunk = self.chunk_bytes or total_bytes
        sizes = deque()
        done = 0
        while done < total_bytes:
            length = min(chunk, total_bytes - done)
            sizes.append(length)
            done += length
        channels = [self.device.read_channel, self.device.write_channel]
        inflight: List[Transfer] = []
        while sizes or inflight:
            while sizes and len(inflight) < self.streams:
                inflight.append(Transfer(self.env, channels,
                                         sizes.popleft(), label=label))
            condition = AnyOf(self.env, list(inflight))
            try:
                yield condition
            except BaseException:
                condition.defuse()
                for transfer in inflight:
                    if not transfer.triggered or not transfer.ok:
                        transfer.defuse()
                raise
            settled = [t for t in inflight if t.triggered]
            inflight = [t for t in inflight if not t.triggered]
            self.chunks_moved += len(settled)
