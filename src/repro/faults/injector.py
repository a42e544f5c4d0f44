"""The fault injector: applies a :class:`FaultPlan` to a live cluster.

The injector is the only component that reaches into simulation objects
to break them.  Each primitive is also callable directly (targeted
tests); :meth:`FaultInjector.install` runs a whole plan on its own
process, logging every applied event with its simulation timestamp so
two runs of the same seed can be diffed line by line.

Injection primitives and what they model:

* ``set_link`` — a fabric link going down/up (cable pull, port flap);
  new paths through the endpoint raise ``LinkDown``.
* ``set_wr_fault_rate`` — a flaky HCA: every posted one-sided WR
  independently completes in error or never completes ("hang", a lost
  completion that only a QP flush retires).  Draws come from a named
  seeded stream, so the fault pattern is replayable.
* ``qp_error`` — firmware reset: every QP on a NIC transitions to the
  error state and flushes its outstanding WRs.
* ``tcp_drop`` — RST storm: established control-plane connections of a
  host are severed.
* ``kill_client`` — a training process dies mid-whatever: connections
  drop, its QPs error out, its tensors' pins die, its sessions vanish
  without UNREGISTER (the daemon-side lease reaper is what notices).
* ``crash_daemon`` / ``restart_daemon`` — the storage daemon dying
  (PMem intact) and its successor recovering the index on the same port.
* ``power_loss`` — the storage server loses power: unflushed PMem is
  lost or torn, the daemon dies with the machine.
* ``corrupt_pool`` — structural index damage (bit rot, buggy firmware,
  fat-fingered tooling): a stale ACTIVE slot, torn version flags, or a
  leaked extent appears.  Damage only ever lands on *non-newest* state,
  matching what fsck can safely repair — the newest DONE checkpoint is
  never touched, so the chaos contract (newest acked restorable) holds.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List, Optional, Union

from repro.errors import ReproError, WorkRequestError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs import Observability
from repro.rdma.nic import Rnic
from repro.sim import Environment


class FaultInjector:
    """Applies fault events to a :class:`~repro.harness.cluster.PaperCluster`."""

    def __init__(self, env: Environment, cluster=None, rand=None,
                 obs: Optional[Observability] = None) -> None:
        self.env = env
        self.cluster = cluster
        self.rand = rand if rand is not None else getattr(cluster, "rand",
                                                          None)
        if obs is None:
            cluster_obs = getattr(cluster, "obs", None)
            obs = cluster_obs if cluster_obs is not None else Observability()
        self.obs = obs
        #: Applied-event log: ``(sim_time_ns, description)`` tuples.
        self.log: List = []
        self._handlers: Dict[str, Callable[[FaultEvent], None]] = {
            FaultKind.LINK_DOWN: self._apply_link_down,
            FaultKind.LINK_UP: self._apply_link_up,
            FaultKind.WR_FAULT_RATE: self._apply_wr_fault_rate,
            FaultKind.QP_ERROR: self._apply_qp_error,
            FaultKind.TCP_DROP: self._apply_tcp_drop,
            FaultKind.CLIENT_KILL: self._apply_client_kill,
            FaultKind.DAEMON_CRASH: self._apply_daemon_crash,
            FaultKind.DAEMON_RESTART: self._apply_daemon_restart,
            FaultKind.POWER_LOSS: self._apply_power_loss,
            FaultKind.POOL_CORRUPT: self._apply_pool_corrupt,
        }
        self._leaks_injected = 0

    # -- plan execution ----------------------------------------------------------

    def install(self, plan: FaultPlan):
        """Start a process that applies *plan* on schedule; returns it."""
        return self.env.process(self._run_plan(plan), name="fault-injector")

    def _run_plan(self, plan: FaultPlan) -> Generator:
        for event in plan:
            delay = event.at_ns - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.apply(event)

    def apply(self, event: FaultEvent) -> None:
        """Apply one event now and log it."""
        self._handlers[event.kind](event)
        self.log.append((self.env.now, event.describe(with_time=False)))
        self.obs.metrics.counter("faults.injected", kind=event.kind).inc()

    def log_lines(self) -> List[str]:
        return [f"{now}ns {what}" for now, what in self.log]

    # -- primitives --------------------------------------------------------------

    def set_link(self, endpoint: str, up: bool) -> None:
        self.cluster.fabric.set_link(endpoint, up)

    def set_wr_fault_rate(self, nic: Union[str, Rnic], rate: float,
                          hang_rate: float = 0.0,
                          rng: Optional[random.Random] = None) -> None:
        """Make every WR posted on *nic* fail with probability *rate* or
        hang with probability *hang_rate* (clear with both at 0)."""
        nic = self._nic(nic)
        if rate <= 0 and hang_rate <= 0:
            nic.fault_hook = None
            return
        if rng is None:
            if self.rand is None:
                raise ValueError("set_wr_fault_rate needs an rng or a "
                                 "cluster with RandomStreams")
            rng = self.rand.stream(f"faults.wr.{nic.name}")

        def hook(kind: str, label: str, _length: int):
            draw = rng.random()
            if draw < hang_rate:
                return "hang"
            if draw < hang_rate + rate:
                return WorkRequestError(
                    f"{label}: injected {kind} completion error")
            return None

        nic.fault_hook = hook

    def qp_error(self, nic: Union[str, Rnic],
                 reason: str = "injected QP error") -> int:
        """Error out every live QP on *nic*; returns how many."""
        nic = self._nic(nic)
        hit = 0
        for qp in nic.qps:
            if qp.error is None:
                qp.transition_to_error(reason)
                hit += 1
        return hit

    def drop_tcp(self, hostname: str) -> int:
        """Sever established control-plane connections of *hostname*."""
        dropped = 0
        for shard in self.cluster.shards:
            if hostname == shard.daemon.tcp.hostname:
                for conn in list(shard.daemon._conns):
                    conn.drop()
                    dropped += 1
                return dropped
        for (node_name, _shard), client in \
                list(self.cluster._portus_clients.items()):
            if node_name != hostname:
                continue
            for session in client.sessions:
                if session.conn is not None and not session.conn.closed:
                    session.conn.drop()
                    dropped += 1
        return dropped

    def kill_client(self, node_name: str) -> int:
        """The client process on *node_name* dies; returns sessions lost.

        Everything client-side evaporates: connections drop, QPs go to
        error (flushing any WR the daemon still has in flight toward
        this client), the tensors' pins die (late one-sided access now
        raises RkeyViolation, like DMA into a freed process).  The daemon
        is *not* told — only its lease reaper can reclaim the entry.
        """
        keys = [key for key in self.cluster._portus_clients
                if key[0] == node_name]
        killed = 0
        for key in keys:
            client = self.cluster._portus_clients.pop(key)
            for session in list(client.sessions):
                if session.conn is not None and not session.conn.closed:
                    session.conn.drop()
                for qp in session.qps:
                    if qp.error is None:
                        qp.transition_to_error("client process died")
                client.node.nic.unpin(tensor.allocation
                                      for tensor in session.model.tensors)
                killed += 1
            client.sessions = []
        return killed

    def crash_daemon(self, shard: int = 0) -> None:
        self.cluster.kill_daemon(shard=shard)

    def restart_daemon(self, shard: int = 0) -> None:
        if not self.cluster.shards[shard].daemon.stopped:
            self.cluster.kill_daemon(shard=shard)
        self.cluster.restart_daemon(shard=shard)

    def power_loss(self, shard: int = 0) -> None:
        self.cluster.crash_server(shard=shard)

    def _target_shard(self, target) -> int:
        """Resolve a fault event's storage-shard target (None = shard 0,
        the legacy single-daemon case)."""
        if target is None:
            return 0
        for shard in self.cluster.shards:
            if shard.name == target:
                return shard.index
        raise ReproError(f"no storage shard named {target!r}")

    def corrupt_pool(self, mode: str, shard: int = 0) -> bool:
        """Plant structural damage of *mode* in the live pool; returns
        False (skipped) when the pool is closed or has nothing to hit.

        Modes and the fsck finding each produces:

        * ``"leak"`` — commit a Portus-tagged extent no model reaches
          (``leaked-extent``);
        * ``"torn-flags"`` — scribble garbage over the *stale* slot of a
          model's version-flags record (``flags-torn-slot``; the newest
          generation stays readable, exactly like a torn write);
        * ``"stale-active"`` — flip a model's non-newest version slot to
          ACTIVE (``stale-active``: looks like a pull that died
          mid-flight without cleanup).

        Damage is confined to non-newest state on purpose: these are the
        corruptions fsck repairs by demoting/reclaiming, so an operator
        that runs repair converges without losing the newest committed
        checkpoint.
        """
        from repro.core.index import (DATA_TAG, FLAG_ACTIVE, ModelMeta,
                                      ModelTable)
        from repro.errors import PmemError
        from repro.hw.content import ByteContent

        pool = self.cluster.shards[shard].pool
        if pool.closed:
            return False
        if mode == "leak":
            self._leaks_injected += 1
            pool.alloc(4096,
                       tag=f"{DATA_TAG}/chaos-leak-{self._leaks_injected}")
            return True
        try:
            table = ModelTable.open(pool)
        except PmemError:
            return False
        names = sorted(table.names())
        if not names:
            return False
        rng = self.rand.stream("faults.pool_corrupt")
        name = names[rng.randrange(len(names))]
        meta = ModelMeta.open(pool, table.lookup(name), lenient=True)
        record = meta._flags_record
        committed = record.read()
        if committed is None:
            return False
        if mode == "torn-flags":
            # The slot NOT holding the newest generation takes the hit.
            stale = 0
            for index in (0, 1):
                slot = record._read_slot(index)
                if slot is not None and slot[1] == committed[1]:
                    stale = 1 - index
            record.allocation.write(record._slot_offset(stale),
                                    ByteContent(b"\xde\xad\xbe\xef" * 12))
            return True
        if mode == "stale-active":
            flags = meta.read_flags()
            victim = flags.checkpoint_target()
            if flags.states[victim] == FLAG_ACTIVE:
                return False  # a pull is mid-flight there; leave it
            flags.states[victim] = FLAG_ACTIVE
            meta.write_flags(flags)
            return True
        raise ReproError(f"unknown pool corruption mode {mode!r}")

    def arm_crash_point(self, device, crash_at=None):
        """Install a :class:`~repro.faults.crashpoints.CrashPointRecorder`
        on *device*: every metadata write boundary is numbered, and with
        *crash_at* set the whole storage server power-fails at exactly
        that boundary (the in-progress operation raises
        :class:`~repro.errors.PowerFailure` and never completes).

        With ``crash_at=None`` the recorder only counts — the counting
        pass that enumerates a workload's boundary schedule for a sweep.
        Returns the recorder.
        """
        from repro.faults.crashpoints import CrashPointRecorder
        from repro.faults.plan import FaultEvent, FaultKind

        def power_fail():
            self.apply(FaultEvent(self.env.now, FaultKind.POWER_LOSS))

        return CrashPointRecorder(device, crash_at=crash_at,
                                  power_fail=power_fail)

    # -- handler shims -----------------------------------------------------------

    def _apply_link_down(self, event: FaultEvent) -> None:
        self.set_link(event.target, up=False)

    def _apply_link_up(self, event: FaultEvent) -> None:
        self.set_link(event.target, up=True)

    def _apply_wr_fault_rate(self, event: FaultEvent) -> None:
        self.set_wr_fault_rate(event.target,
                               rate=event.params.get("rate", 0.0),
                               hang_rate=event.params.get("hang_rate", 0.0))

    def _apply_qp_error(self, event: FaultEvent) -> None:
        self.qp_error(event.target)

    def _apply_tcp_drop(self, event: FaultEvent) -> None:
        self.drop_tcp(event.target or self.cluster.daemon.tcp.hostname)

    def _apply_client_kill(self, event: FaultEvent) -> None:
        self.kill_client(event.target)

    def _apply_daemon_crash(self, event: FaultEvent) -> None:
        self.crash_daemon(shard=self._target_shard(event.target))

    def _apply_daemon_restart(self, event: FaultEvent) -> None:
        self.restart_daemon(shard=self._target_shard(event.target))

    def _apply_power_loss(self, event: FaultEvent) -> None:
        self.power_loss(shard=self._target_shard(event.target))

    def _apply_pool_corrupt(self, event: FaultEvent) -> None:
        applied = self.corrupt_pool(event.params.get("mode", "leak"),
                                    shard=self._target_shard(event.target))
        if not applied:
            self.obs.metrics.counter("faults.pool_corrupt_skipped").inc()

    # -- lookup ------------------------------------------------------------------

    def _nic(self, nic: Union[str, Rnic]) -> Rnic:
        if isinstance(nic, Rnic):
            return nic
        cluster = self.cluster
        storage = [shard.node for shard in cluster.shards]
        for node in storage + [cluster.volta] + cluster.amperes:
            if node.nic is not None and node.nic.name == nic:
                return node.nic
        raise ReproError(f"no NIC named {nic!r} in the cluster")
