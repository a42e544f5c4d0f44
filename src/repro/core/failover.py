"""Graceful degradation: fall back to the local DRAM path when Portus
is unreachable, resume when it heals.

The paper's §IV-a baseline snapshots GPU state to host DRAM over PCIe.
That path needs no network and no storage server, so it is the natural
degraded mode: after ``failure_threshold`` *consecutive* Portus failures
the :class:`FailoverCheckpointer` stops burning retry budget on every
step and snapshots locally instead, probing Portus again (by simply
attempting the real checkpoint) on a capped exponential backoff with
seeded jitter (a :class:`~repro.core.retry.RetryPolicy` schedule) — the
first probe after ``probe_interval_ns``, each failed probe doubling the
wait up to 16x that, smeared by ±10 %, so a fleet of degraded clients
does not hammer a daemon the moment it restarts.  The first success
flips back to the remote path.

The remediation operator (:mod:`repro.ops.operator`) can also drive the
switch directly: :meth:`force_degrade` parks the checkpointer on the
local path without burning any probes (the operator *knows* the daemon
is down), and :meth:`drain_back` releases the hold once the daemon
verifies healthy, scheduling an immediate probe.

Local snapshots are double-buffered in two DRAM slots — the same
two-version discipline as the PMem index, so a crash mid-snapshot never
destroys the previous good one.  They are *volatile*: a power loss on
the client loses them, which is exactly the durability gap the paper
builds Portus to close — the fallback trades durability for
availability and the caller can see which path every step took.

:meth:`restore` prefers Portus and falls back to the newest local
snapshot only when the remote path is unreachable or empty.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Optional

from repro.core.client import ModelSession
from repro.core.retry import RETRYABLE_FAULTS, RetryPolicy
from repro.errors import NoValidCheckpoint, PortusError
from repro.hw.node import Node
from repro.sim import Environment, Transfer
from repro.units import msecs


class FailoverCheckpointer:
    """Wraps a :class:`ModelSession` with a local-DRAM degraded mode."""

    def __init__(self, env: Environment, session: ModelSession, node: Node,
                 failure_threshold: int = 3,
                 probe_interval_ns: int = msecs(2),
                 rng: Optional[random.Random] = None) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        self.env = env
        self.session = session
        self.node = node
        self.failure_threshold = failure_threshold
        #: The probe schedule: failed probe number k waits
        #: ``backoff_ns(k)``.
        self.probe_policy = RetryPolicy(
            rng=rng, initial_backoff_ns=probe_interval_ns,
            max_backoff_ns=16 * probe_interval_ns, jitter=0.1)
        self.degraded = False
        self.consecutive_failures = 0
        self.last_failure: Optional[BaseException] = None
        self.portus_checkpoints = 0
        self.local_checkpoints = 0
        self.resumes = 0
        self.forced_degrades = 0
        self.drains = 0
        #: Operator hold: while True the checkpointer never probes — the
        #: operator knows the daemon is down and will :meth:`drain_back`.
        self.operator_hold = False
        self._probe_failures = 0
        self._next_probe_ns: Optional[int] = None
        # Two DRAM slots, allocated lazily on first degraded checkpoint.
        self._slots = [None, None]
        self._newest_slot: Optional[int] = None

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self, step: Optional[int] = None) -> Generator:
        """Process: checkpoint *step* via Portus or, degraded, locally.

        Returns ``{"path": "portus"|"local", "step": ...}`` so callers
        (and experiments) can account for which datapath served each
        step.
        """
        model = self.session.model
        if step is None:
            step = model.step
        now = self.env.now
        if self.degraded and (self.operator_hold
                              or not self._should_probe(now)):
            return (yield from self._local_checkpoint(step))
        try:
            reply = yield from self.session.checkpoint(step)
        except RETRYABLE_FAULTS as exc:
            self.consecutive_failures += 1
            self.last_failure = exc
            if self.consecutive_failures >= self.failure_threshold:
                self.degraded = True
            if self.degraded:
                # Each failed probe backs the next one off further, so
                # a recovering daemon faces a trickle, not a stampede.
                self._probe_failures += 1
                self._next_probe_ns = self.env.now + \
                    self.probe_policy.backoff_ns(self._probe_failures)
            return (yield from self._local_checkpoint(step))
        if self.degraded:
            self.degraded = False
            self.resumes += 1
        self.consecutive_failures = 0
        self._probe_failures = 0
        self._next_probe_ns = None
        self.portus_checkpoints += 1
        return {"path": "portus", "step": step, "reply": reply}

    def _should_probe(self, now: int) -> bool:
        return self._next_probe_ns is None or now >= self._next_probe_ns

    # -- operator hooks -----------------------------------------------------------

    def force_degrade(self, reason: str = "operator") -> None:
        """Operator-driven degradation: park on the local DRAM path and
        stop probing entirely until :meth:`drain_back` — the operator
        has authoritative knowledge that the daemon is down, so probes
        would only burn retry budget."""
        if not self.operator_hold:
            self.forced_degrades += 1
        self.degraded = True
        self.operator_hold = True
        self._hold_reason = reason

    def drain_back(self) -> None:
        """Operator-driven recovery: release the hold and schedule an
        immediate probe, so the next checkpoint returns to Portus (and
        thereby re-covers the local-only steps with a durable one)."""
        if not self.operator_hold:
            return
        self.operator_hold = False
        self._probe_failures = 0
        self._next_probe_ns = None
        self.drains += 1

    def _local_checkpoint(self, step: int) -> Generator:
        """Process: the §IV-a path — GPU → host DRAM over PCIe, into the
        slot *not* holding the newest good snapshot."""
        model = self.session.model
        gpu = model.tensors[0].device
        total = model.total_bytes
        yield Transfer(self.env,
                       [gpu.read_channel, gpu.pcie_read,
                        self.node.dram.write_channel],
                       total, label=f"fallback-snapshot:{model.name}")
        target = 0 if self._newest_slot != 0 else 1
        slot = self._slots[target]
        if slot is None:
            slot = {"allocation": self.node.dram.alloc(
                total, tag=f"fallback/{model.name}/{target}")}
            self._slots[target] = slot
        offset = 0
        contents = {}
        for tensor in model.tensors:
            content = tensor.content()
            slot["allocation"].write(offset, content)
            contents[tensor.name] = content
            offset += tensor.size_bytes
        slot["step"] = step
        slot["contents"] = contents
        self._newest_slot = target
        self.local_checkpoints += 1
        return {"path": "local", "step": step}

    # -- restore ------------------------------------------------------------------

    def restore(self) -> Generator:
        """Process: restore from Portus, else from the newest local
        snapshot.  Returns ``{"path": ..., "step": ...}``."""
        try:
            step = yield from self.session.restore()
            return {"path": "portus", "step": step}
        except RETRYABLE_FAULTS + (NoValidCheckpoint,) as exc:
            if self._newest_slot is None:
                raise
            self.last_failure = exc
        slot = self._slots[self._newest_slot]
        model = self.session.model
        gpu = model.tensors[0].device
        yield Transfer(self.env,
                       [self.node.dram.read_channel, gpu.pcie_write,
                        gpu.write_channel],
                       model.total_bytes,
                       label=f"fallback-restore:{model.name}")
        for tensor in model.tensors:
            content = slot["contents"].get(tensor.name)
            if content is None:
                raise PortusError(
                    f"{model.name}: local snapshot is missing tensor "
                    f"{tensor.name!r}")
            tensor.allocation.write(0, content)
            tensor.step = slot["step"]
        model.step = slot["step"]
        return {"path": "local", "step": slot["step"]}
