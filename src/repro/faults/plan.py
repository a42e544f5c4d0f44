"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is an ordered schedule of :class:`FaultEvent`\\ s.
Plans are plain data — they can be built by hand for a targeted test,
generated from a seeded RNG for chaos sweeps (:meth:`FaultPlan.random`),
logged as one line per event, and replayed bit-identically from the same
seed.  Nothing in this module touches a live simulation; that is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.units import msecs, usecs

#: What :meth:`FaultPlan.random` aims at: link faults at the client's
#: link, WR faults and QP errors at the server's or the client's NIC.
RANDOM_LINK_ENDPOINTS = ("volta",)
RANDOM_NICS = ("server", "volta")
#: Upper bound of a random WR fault rate.
RANDOM_MAX_WR_RATE = 0.3


class FaultKind:
    """The fault vocabulary (string constants, not an enum, so plans
    serialize trivially)."""

    #: Take a fabric endpoint's link down / bring it back.
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    #: Install (or clear, with rate 0) a WR completion-fault rate on a
    #: NIC: each posted one-sided WR independently fails or hangs.
    WR_FAULT_RATE = "wr_fault_rate"
    #: Transition every QP on a NIC to the error state (port flap /
    #: firmware reset: outstanding WRs flush).
    QP_ERROR = "qp_error"
    #: Sever established TCP connections of one host (RST storm).
    TCP_DROP = "tcp_drop"
    #: A client process dies: its connections drop, QPs error out, MRs
    #: deregister, sessions vanish without UNREGISTER.
    CLIENT_KILL = "client_kill"
    #: The daemon process dies (no power loss: PMem bytes survive).
    DAEMON_CRASH = "daemon_crash"
    #: A fresh daemon starts on the same port, re-opening the pool and
    #: re-running index recovery.
    DAEMON_RESTART = "daemon_restart"
    #: Power loss on the storage server: unflushed PMem is lost or torn
    #: and the daemon dies with the machine.
    POWER_LOSS = "power_loss"
    #: Structural damage to the PMem index (bit rot, a buggy firmware
    #: write, an operator fat-finger): a stale slot, torn flags, or a
    #: leaked extent appears in the pool.  Only ``pmem.fsck`` notices.
    POOL_CORRUPT = "pool_corrupt"

    ALL = (LINK_DOWN, LINK_UP, WR_FAULT_RATE, QP_ERROR, TCP_DROP,
           CLIENT_KILL, DAEMON_CRASH, DAEMON_RESTART, POWER_LOSS,
           POOL_CORRUPT)


class FaultEvent:
    """One scheduled fault: *kind* hits *target* at *at_ns*."""

    def __init__(self, at_ns: int, kind: str, target: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None) -> None:
        if at_ns < 0:
            raise ValueError(f"fault scheduled in the past: {at_ns}")
        if kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.at_ns = int(at_ns)
        self.kind = kind
        self.target = target
        self.params = dict(params or {})

    def describe(self, with_time: bool = True) -> str:
        """One deterministic log line (used by the determinism check)."""
        extra = ""
        if self.params:
            inner = ",".join(f"{k}={self.params[k]!r}"
                             for k in sorted(self.params))
            extra = f" [{inner}]"
        where = f" @{self.target}" if self.target else ""
        prefix = f"{self.at_ns}ns " if with_time else ""
        return f"{prefix}{self.kind}{where}{extra}"

    def to_dict(self) -> Dict[str, Any]:
        return {"at_ns": self.at_ns, "kind": self.kind,
                "target": self.target, "params": dict(self.params)}

    def __repr__(self) -> str:
        return f"<FaultEvent {self.describe()}>"


class FaultPlan:
    """An ordered fault schedule."""

    def __init__(self, events: Optional[Sequence[FaultEvent]] = None) -> None:
        self.events: List[FaultEvent] = sorted(events or [],
                                               key=lambda e: e.at_ns)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_ns)
        return self

    def at(self, at_ns: int, kind: str, target: Optional[str] = None,
           **params: Any) -> "FaultPlan":
        """Fluent shorthand: ``plan.at(t, FaultKind.LINK_DOWN, "volta")``."""
        return self.add(FaultEvent(at_ns, kind, target, params))

    def describe(self) -> str:
        return "\n".join(event.describe() for event in self.events)

    def shifted(self, delta_ns: int) -> "FaultPlan":
        """A copy with every event moved *delta_ns* later.

        Plans are usually authored with times relative to "the workload
        starts now"; injection works in absolute simulation time, so the
        caller anchors the plan with ``plan.shifted(env.now)``.
        """
        return FaultPlan([FaultEvent(e.at_ns + delta_ns, e.kind, e.target,
                                     e.params) for e in self.events])

    def horizon_ns(self) -> int:
        """Time of the last scheduled event (0 for an empty plan)."""
        return self.events[-1].at_ns if self.events else 0

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.events)} events>"

    # -- generators ---------------------------------------------------------------

    @classmethod
    def random(cls, rng: random.Random, horizon_ns: int,
               events: int = 4,
               auto_recover_daemon: bool = True,
               allow_pool_corrupt: bool = False,
               storage_shards: Sequence[str] = ("server",)) -> "FaultPlan":
        """A randomized but *well-formed* schedule.

        Well-formed means faults that need an undo get one: a link that
        goes down comes back up, a WR fault rate set non-zero is cleared,
        a crashed/power-lost daemon is restarted — all inside the
        horizon, so a retrying client can always eventually make
        progress.  Every draw comes from *rng*, so the same seed yields
        the same plan, byte for byte.

        With ``auto_recover_daemon=False`` crashed/power-lost daemons
        get **no** paired restart — the schedule leaves the deployment
        broken on purpose, and recovering it is somebody else's job (the
        remediation operator's, in the self-healing chaos sweeps).
        ``allow_pool_corrupt`` adds :data:`FaultKind.POOL_CORRUPT`
        events (stale-active / torn-flags / leaked-extent damage) to the
        draw, which likewise only fsck — and hence the operator — can
        undo.

        ``storage_shards`` lists the storage-node names of a sharded
        fleet; every daemon-side fault (TCP_DROP, DAEMON_CRASH and its
        paired restart, POWER_LOSS, POOL_CORRUPT) then targets one
        shard drawn from *rng*.  The default single-shard tuple draws
        **nothing** extra from the RNG, so every legacy seed still
        yields its historical plan byte for byte.
        """
        kinds = [FaultKind.LINK_DOWN, FaultKind.WR_FAULT_RATE,
                 FaultKind.QP_ERROR, FaultKind.TCP_DROP,
                 FaultKind.DAEMON_CRASH, FaultKind.POWER_LOSS]
        if allow_pool_corrupt:
            kinds.append(FaultKind.POOL_CORRUPT)
        shards = list(storage_shards)
        # Single-shard plans keep the legacy no-target events (and,
        # critically, the legacy RNG draw sequence).
        multi = len(shards) > 1

        def draw_shard() -> Optional[str]:
            return rng.choice(shards) if multi else None

        plan = cls()
        for _ in range(events):
            at_ns = rng.randrange(1, max(2, horizon_ns))
            kind = rng.choice(kinds)
            if kind == FaultKind.LINK_DOWN:
                target = rng.choice(RANDOM_LINK_ENDPOINTS)
                outage = rng.randrange(usecs(50), msecs(2))
                plan.at(at_ns, FaultKind.LINK_DOWN, target)
                plan.at(at_ns + outage, FaultKind.LINK_UP, target)
            elif kind == FaultKind.WR_FAULT_RATE:
                target = rng.choice(RANDOM_NICS)
                rate = rng.uniform(0.02, RANDOM_MAX_WR_RATE)
                hang = rng.uniform(0.0, 0.1)
                burst = rng.randrange(usecs(100), msecs(5))
                plan.at(at_ns, FaultKind.WR_FAULT_RATE, target,
                        rate=round(rate, 4), hang_rate=round(hang, 4))
                plan.at(at_ns + burst, FaultKind.WR_FAULT_RATE, target,
                        rate=0.0, hang_rate=0.0)
            elif kind == FaultKind.QP_ERROR:
                plan.at(at_ns, FaultKind.QP_ERROR, rng.choice(RANDOM_NICS))
            elif kind == FaultKind.TCP_DROP:
                target = draw_shard() if multi else "server"
                plan.at(at_ns, FaultKind.TCP_DROP, target)
            elif kind == FaultKind.DAEMON_CRASH:
                target = draw_shard()
                plan.at(at_ns, FaultKind.DAEMON_CRASH, target)
                if auto_recover_daemon:
                    downtime = rng.randrange(usecs(100), msecs(3))
                    plan.at(at_ns + downtime, FaultKind.DAEMON_RESTART,
                            target)
            elif kind == FaultKind.POWER_LOSS:
                target = draw_shard()
                plan.at(at_ns, FaultKind.POWER_LOSS, target)
                if auto_recover_daemon:
                    downtime = rng.randrange(usecs(200), msecs(3))
                    plan.at(at_ns + downtime, FaultKind.DAEMON_RESTART,
                            target)
            elif kind == FaultKind.POOL_CORRUPT:
                target = draw_shard()
                mode = rng.choice(("stale-active", "torn-flags", "leak"))
                plan.at(at_ns, FaultKind.POOL_CORRUPT, target, mode=mode)
        return plan
