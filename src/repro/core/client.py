"""Portus Client: the framework-extension side (what the PyTorch plugin
does in the real system).

For each model (or model shard) the client:

1. registers every tensor's GPU memory as an RDMA MR through PeerMem
   (tensor addresses are fixed for the life of the job, §III-C);
2. connects a QP to the daemon and ships the model-description packet —
   per-layer name/dtype/shape/size plus rkey and GPU address — over TCP;
3. thereafter checkpoints by sending the word DO_CHECKPOINT and waiting
   for the daemon's completion notification, and restores by sending
   DO_RESTORE into a freshly constructed "empty" model.

The returned :class:`ModelSession` is the user-facing handle; one session
per shard, many sessions per client (multi-tenant / multi-GPU).

Fault tolerance: every request is stamped with a request id and the
reply matched against it (replies can arrive out of order — the daemon
dispatches each request on its own worker).  When the client carries a
:class:`~repro.core.retry.RetryPolicy`, transport faults (connection
drops, link flaps, QP/WR errors, reply timeouts, a restarting daemon)
tear the session transport down and transparently re-attach — new QP,
new TCP connection, re-sent REGISTER against the persisted index; the
GPU-side MRs are registered once per job and reused across re-attaches,
exactly as the fixed tensor addresses of §III-C allow.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core import protocol
from repro.core.daemon import PortusDaemon
from repro.core.retry import RETRYABLE_FAULTS, RetryPolicy
from repro.dnn.tensor import ModelInstance
from repro.errors import (PortusError, ProtocolError, ReproError,
                          RequestTimeout)
from repro.hw.node import Node
from repro.net.tcp import TcpStack
from repro.obs import NULL_SPAN, Observability
from repro.rdma.verbs import connect
from repro.sim import AnyOf, Environment

MessageFactory = Callable[[], Tuple[Dict[str, Any], int]]


class ModelSession:
    """A registered model's handle: checkpoint / restore / unregister."""

    def __init__(self, client: "PortusClient", model: ModelInstance,
                 conn, qp, mrs: List,
                 tensor_infos: Optional[List[Dict[str, Any]]] = None,
                 retry: Optional[RetryPolicy] = None,
                 num_qps: int = 1,
                 dedup_chunk_bytes: Optional[int] = None,
                 tenant: Optional[str] = None) -> None:
        if num_qps < 1:
            raise PortusError(f"num_qps must be >= 1, got {num_qps}")
        self.client = client
        self.model = model
        #: Owning tenant (fleet accounting), re-sent on every attach so
        #: a restarted daemon re-learns the model's owner.
        self.tenant = tenant
        self.conn = conn
        #: The stripe set: ``num_qps`` QPs are (re)connected per attach
        #: and the daemon stripes each checkpoint/restore across them.
        self.num_qps = num_qps
        self.qps: List = [qp] if qp is not None else []
        self.mrs = mrs
        self.tensor_infos = tensor_infos
        self.retry = retry
        #: Dedup mode: checkpoints carry a chunk manifest computed over
        #: this fixed chunk size; None = the classic contiguous layout.
        self.dedup_chunk_bytes = dedup_chunk_bytes
        self._chunk_spans = None
        self._manifest_cache: Optional[List[bytes]] = None
        self.checkpoints = 0
        self.last_checkpoint_ns: Optional[int] = None
        self.retries = 0
        self.reattaches = 0
        self._rid = 0
        self._pending: Dict[int, Dict] = {}
        # Reply-pump state: one process drains the connection at a time;
        # the others wait to be woken when their rid lands in _pending.
        self._pump_busy = False
        self._waiters: List = []
        self._reattach_gate = None

    @property
    def qp(self):
        """The primary QP (compatibility view of the stripe set)."""
        return self.qps[0] if self.qps else None

    # -- request/reply plumbing ---------------------------------------------------

    def _rpc(self, message: Dict, size: int) -> Generator:
        """Process: send one request and wait for its matching reply.

        Replies are matched by request id, so a stale reply (from an
        attempt whose timeout already fired) can never be mistaken for
        the current one.  With a retry policy, waiting is bounded by the
        policy's reply timeout.
        """
        self._rid += 1
        rid = self._rid
        message["rid"] = rid
        conn = self.conn
        yield from conn.send(message, wire_size=size)
        timeout_ns = self.retry.reply_timeout_ns if self.retry else None
        if timeout_ns is None:
            return (yield from self._recv_rid(conn, rid))
        env = self.client.env
        receiver = env.process(self._recv_outcome(conn, rid),
                               name=f"recv:{self.model.name}:{rid}")
        yield AnyOf(env, [receiver, env.timeout(timeout_ns)])
        if not receiver.triggered:
            receiver.interrupt("reply timeout")
            yield receiver  # let the interrupt land; outcome is ("err", ...)
            raise RequestTimeout(
                f"{self.model.name}: no reply to rid {rid} "
                f"within {timeout_ns} ns")
        kind, value = receiver.value
        if kind == "err":
            raise value
        return value

    def _recv_outcome(self, conn, rid: int) -> Generator:
        """Process: recv that never fails (outcome returned as a tag)."""
        try:
            reply = yield from self._recv_rid(conn, rid)
        except ReproError as exc:
            return ("err", exc)
        return ("ok", reply)

    def _recv_rid(self, conn, rid: int) -> Generator:
        """Process: wait for the reply carrying *rid*.

        Replies for other rids are stashed in ``_pending`` and their
        waiters woken — several requests (e.g. a checkpoint and a
        heartbeat) can be outstanding on one connection, and their
        replies arrive in completion order, not issue order.
        """
        env = self.client.env
        while True:
            if rid in self._pending:
                return self._pending.pop(rid)
            if self._pump_busy:
                # Someone else is draining the connection; wait for a
                # wake-up and re-check the stash.
                waiter = env.event()
                self._waiters.append(waiter)
                yield waiter
                continue
            self._pump_busy = True
            try:
                reply = yield from conn.recv()
            except BaseException:
                # Connection failure (or an interrupt): release the pump
                # so every waiter observes the failure for itself.
                self._pump_busy = False
                self._wake_waiters()
                raise
            self._pump_busy = False
            got = reply.get("rid")
            if got is None or got == rid:
                self._wake_waiters()
                return reply
            self._pending[got] = reply
            self._wake_waiters()

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed(None)

    def _call(self, make_message: MessageFactory,
              expected_op: str) -> Generator:
        """Process: one request with the session's retry policy applied.

        Every call gets a fresh trace id (the root of the request's span
        tree) stamped onto each attempt's message, so daemon and engine
        child spans across retries group under one trace.
        """
        env = self.client.env
        obs = self.client.obs
        trace_id = obs.tracer.new_trace()
        start = env.now
        track = f"client/{self.model.name}"
        probe, _ = make_message()
        op = probe.get("op")
        obs.metrics.counter(f"client.requests.{op}").inc()
        span = obs.tracer.span(env, f"client.{op}", cat="client",
                               trace_id=trace_id, track=track, attempts=1)

        def attempt() -> Generator:
            if self.retry is not None:  # else a dead transport surfaces
                yield from self._ensure_attached()
            message, size = make_message()
            protocol.stamp_trace(message, trace_id)
            reply = yield from self._rpc(message, size)
            self._check(reply, expected_op)
            return reply

        failed = True
        try:
            reply = yield from self._retrying(attempt, span)
            failed = False
            return reply
        finally:
            span.finish(error=failed)
            if not failed:
                obs.metrics.histogram(
                    f"client.e2e.{op}_ns").record(env.now - start)

    def _retrying(self, attempt: Callable[[], Generator],
                  span=NULL_SPAN) -> Generator:
        """Process: run *attempt* until it succeeds, fails for good, or
        the retry policy gives up; returns its result.  The session's
        one retry loop — requests and the first attach alike — so each
        absorbed fault counts once: session tally, registry, *span*."""
        policy = self.retry
        env = self.client.env
        metrics = self.client.obs.metrics
        start = env.now
        tries = 0
        while True:
            try:
                return (yield from attempt())
            except RETRYABLE_FAULTS as exc:
                if policy is None:
                    raise
                tries += 1
                self.retries += 1
                metrics.counter("client.retries").inc()
                metrics.counter(
                    f"client.faults_absorbed.{type(exc).__name__}").inc()
                span.annotate(attempts=tries + 1)
                if policy.is_transport_fault(exc):
                    self._teardown_transport()
                if policy.exhausted(tries, env.now - start):
                    raise
                # Admission rejects carry the daemon's deterministic
                # retry-after hint; honor it over our own backoff.
                retry_after = getattr(exc, "retry_after_ns", None)
                yield env.timeout(retry_after if retry_after
                                  else policy.backoff_ns(tries))

    # -- transport lifecycle ------------------------------------------------------

    def _teardown_transport(self) -> None:
        """Forget the (broken) QP + connection; next attempt re-attaches."""
        if self.conn is not None and not self.conn.closed:
            self.conn.close()
        self.conn = None
        for qp in self.qps:
            if qp.error is None:
                qp.transition_to_error("client tore the session down")
        self.qps = []
        self._pending.clear()
        self._wake_waiters()

    def _ensure_attached(self) -> Generator:
        """Process: re-attach if needed, once — concurrent callers (a
        checkpoint and a heartbeat both hitting the same dead transport)
        serialize on a gate instead of racing duplicate REGISTERs."""
        while self.conn is None or self.conn.closed:
            if self._reattach_gate is not None:
                yield self._reattach_gate
                continue
            self._reattach_gate = self.client.env.event()
            try:
                yield from self._reattach()
                self.reattaches += 1
                self.client.obs.metrics.counter("client.reattaches").inc()
            finally:
                gate, self._reattach_gate = self._reattach_gate, None
                gate.succeed(None)

    def _reattach(self) -> Generator:
        """Process: rebuild the transport and (re-)send REGISTER.

        The daemon side validates the attach against the persisted index
        and re-arms the entry with the new QP; the client-side tensor MRs
        (registered once per job) are reused as-is.
        """
        client = self.client
        obs = client.obs
        with obs.tracer.span(client.env, "client.reattach", cat="client",
                             track=f"client/{self.model.name}"):
            client_qps = []
            server_qps = []
            for _lane in range(self.num_qps):
                client_qp, server_qp = yield from connect(
                    client.env, client.node.nic, client.daemon.node.nic)
                client_qps.append(client_qp)
                server_qps.append(server_qp)
            conn = yield from client.tcp.connect(client.daemon.tcp.hostname,
                                                 client.daemon.port)
            self.conn = conn
            self.qps = client_qps
            self._pending.clear()
            dedup = None
            if self.dedup_chunk_bytes is not None:
                dedup = {"chunk_bytes": self.dedup_chunk_bytes}
            message, size = protocol.register(self.model.name,
                                              self.tensor_infos, server_qps,
                                              dedup=dedup,
                                              tenant=self.tenant)
            reply = yield from self._rpc(message, size)
            self._check(reply, protocol.OP_REGISTERED)

    # -- dedup manifest -----------------------------------------------------------

    def _spans(self):
        """Chunk spans over the model's laid-out region (computed once:
        tensor addresses and shapes are fixed for the life of the job)."""
        if self._chunk_spans is None:
            from repro.core.dedup import chunk_spans
            from repro.core.index import layout_tensors

            descriptors, region_size = layout_tensors(
                [tensor.spec for tensor in self.model.tensors])
            self._chunk_spans = chunk_spans(descriptors, region_size,
                                            self.dedup_chunk_bytes)
        return self._chunk_spans

    def compute_manifest(self) -> List[bytes]:
        """The chunk-digest manifest of the model's current bytes.

        Per-tensor dirty tracking bounds the hashing work: only chunks
        overlapping a tensor written since the last acked checkpoint are
        re-digested; the rest come from the cached previous manifest.
        """
        from repro.core.dedup import (chunk_content, chunk_digest,
                                      manifest_digests)

        spans = self._spans()
        contents = {tensor.name: tensor.content()
                    for tensor in self.model.tensors}
        if self._manifest_cache is None:
            return manifest_digests(spans, contents)
        manifest = list(self._manifest_cache)
        dirty = {tensor.name for tensor in self.model.tensors
                 if tensor.dirty}
        for span in spans:
            if any(piece.tensor in dirty for piece in span.pieces):
                manifest[span.index] = chunk_digest(
                    chunk_content(span, contents))
        return manifest

    # -- operations ---------------------------------------------------------------

    def checkpoint(self, step: Optional[int] = None,
                   dirty: Optional[List[str]] = None) -> Generator:
        """Process: one checkpoint; returns the daemon's reply.

        With *dirty* (a list of tensor names) only those tensors are
        pulled over RDMA; the daemon fills the rest of the new version by
        copying from the previous one locally on PMem — incremental
        checkpointing for fine-tuning-style workloads where most
        parameters are frozen.

        Dedup sessions instead ship a chunk manifest (digests over the
        whole region, recomputed only where the dirty flags say bytes
        changed); the daemon pulls just the chunks its store is missing.
        """
        if step is None:
            step = self.model.step
        manifest = None
        if self.dedup_chunk_bytes is not None:
            manifest = self.compute_manifest()
        reply = yield from self._call(
            lambda: protocol.do_checkpoint(self.model.name, step,
                                           dirty=dirty, manifest=manifest),
            protocol.OP_CHECKPOINT_DONE)
        self.checkpoints += 1
        self.last_checkpoint_ns = reply["duration_ns"]
        if manifest is not None:
            # Acked: the daemon holds these exact bytes, so the manifest
            # is now the valid delta baseline.
            self._manifest_cache = manifest
            self.model.clear_dirty()
        return reply

    def restore(self, step: Optional[int] = None) -> Generator:
        """Process: pull the newest valid checkpoint into the model.

        With *step* the restore is pinned to that exact committed step
        (group restores pin every member to the group's committed step,
        which is what keeps a torn dump from surfacing as a mixed-step
        model); ``None`` keeps the newest-DONE behaviour.

        Returns the restored step; the model's tensors now physically
        hold the checkpointed bytes (the daemon RDMA-wrote them).
        """
        reply = yield from self._call(
            lambda: protocol.do_restore(self.model.name, step=step),
            protocol.OP_RESTORE_DONE)
        step = reply["step"]
        self.model.step = step
        for tensor in self.model.tensors:
            tensor.step = step
        return step

    def heartbeat(self) -> Generator:
        """Process: renew the daemon-side lease for this session."""
        return (yield from self._call(
            lambda: protocol.heartbeat(self.model.name),
            protocol.OP_HEARTBEAT_ACK))

    def unregister(self) -> Generator:
        """Process: drop the model from the daemon and free its PMem.

        Also releases the client-side resources: the per-tensor MRs are
        deregistered and the session is removed from the client's session
        list, so register/unregister churn (multi-tenant jobs) does not
        leak MR table entries or handles.
        """
        yield from self._call(
            lambda: protocol.unregister(self.model.name),
            protocol.OP_UNREGISTERED)
        if self.conn is not None:
            self.conn.close()
        for mr in self.mrs:
            if mr.valid:
                self.client.node.nic.deregister_mr(mr)
        self.mrs = []
        if self in self.client.sessions:
            self.client.sessions.remove(self)

    @staticmethod
    def _check(reply: Dict, expected_op: str) -> None:
        if reply.get("op") == protocol.OP_ERROR:
            raise reply["error"]
        if reply.get("op") != expected_op:
            raise ProtocolError(
                f"expected {expected_op}, got {reply.get('op')!r}")


class PortusClient:
    """Per-node client; opens one session per registered model."""

    def __init__(self, env: Environment, node: Node, tcp: TcpStack,
                 daemon: PortusDaemon,
                 retry: Optional[RetryPolicy] = None,
                 num_qps: int = 1,
                 obs: Optional[Observability] = None) -> None:
        if node.nic is None:
            raise PortusError(f"{node.name} has no RNIC")
        self.env = env
        self.node = node
        self.tcp = tcp
        self.daemon = daemon
        self.retry = retry
        self.num_qps = num_qps
        # Share the daemon's bundle by default so one registry/trace
        # covers the whole deployment end to end.
        self.obs = obs if obs is not None else daemon.obs
        self.sessions: List[ModelSession] = []

    def register(self, model: ModelInstance, dedup: bool = False,
                 chunk_bytes: Optional[int] = None,
                 tenant: Optional[str] = None) -> Generator:
        """Process: register *model* (or attach to its persisted index).

        Registers one MR per tensor (PeerMem must be enabled for the GPU
        by the cluster setup), connects a dedicated QP, and sends the
        description packet.  With a retry policy the attach itself rides
        the same backoff loop as every other request (the daemon may be
        restarting at registration time).

        With ``dedup=True`` the model uses the deduplicated layout:
        checkpoints ship content-hash chunk manifests and the daemon
        stores bytes once in the pool-wide refcounted chunk store
        (*chunk_bytes* overrides the default chunk size).
        """
        dedup_chunk_bytes = None
        if dedup:
            if chunk_bytes is None:
                from repro.pmem.chunks import DEFAULT_CHUNK_BYTES
                chunk_bytes = DEFAULT_CHUNK_BYTES
            dedup_chunk_bytes = int(chunk_bytes)
        elif chunk_bytes is not None:
            raise PortusError("chunk_bytes requires dedup=True")
        mrs = []
        tensor_infos = []
        for tensor in model.tensors:
            mr = yield from self.node.nic.register_mr(tensor.allocation)
            mrs.append(mr)
            tensor_infos.append({
                "name": tensor.spec.name,
                "dtype": tensor.spec.dtype.name,
                "shape": list(tensor.spec.shape),
                "size": tensor.size_bytes,
                "rkey": mr.rkey,
                "addr": mr.addr,
            })
        session = ModelSession(self, model, None, None, mrs,
                               tensor_infos=tensor_infos, retry=self.retry,
                               num_qps=self.num_qps,
                               dedup_chunk_bytes=dedup_chunk_bytes,
                               tenant=tenant)

        def attach() -> Generator:
            try:
                yield from session._reattach()
            except RETRYABLE_FAULTS:
                # A transport whose REGISTER failed serves nothing: the
                # next attempt builds a fresh one.
                session._teardown_transport()
                raise

        yield from session._retrying(attach)
        self.sessions.append(session)
        return session

    def list_models(self) -> Generator:
        """Process: ask the daemon for its model inventory."""
        conn = yield from self.tcp.connect(self.daemon.tcp.hostname,
                                           self.daemon.port)
        message, size = protocol.list_models()
        yield from conn.send(message, wire_size=size)
        reply = yield from conn.recv()
        ModelSession._check(reply, protocol.OP_LIST_REPLY)
        conn.close()
        return reply["models"]
