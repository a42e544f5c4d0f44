"""Parallel-group checkpointing: the cross-model atomicity domain.

A distributed training job registers each TP×PP shard as its own model
(its own MIndex, its own double-mapped versions) — which is exactly how
``examples/distributed_gpt.py`` tore itself: a power failure mid-dump
left some shards DONE at step 20 and others at step 10, and per-model
restore silently reassembled a model that never existed.

This module makes a *set* of shard models atomic as one named group
(DESIGN.md §14):

* **Registration** binds the member sessions to a group and persists a
  :class:`~repro.dnn.layout.ShardedLayout` (degrees + per-tensor
  partition specs) inside the group's commit record; the daemon learns
  each member's group from these records (a model belongs to at most
  one group).
* **Dumps** run every member checkpoint concurrently through the
  existing engine; the commit rides the member checkpoint that
  completes the step: once every member is DONE at *step*, that
  member's DO_CHECKPOINT persists *step* in the :class:`GroupRecord`
  (an A/B :class:`~repro.pmem.layout.CommittedRecord`) before it
  replies.  Leak-only: a crash anywhere leaves the record at the
  previous committed step, which every member still retains because
  the double-slot target rule never overwrites the slot holding it —
  the daemon, not the client, guards the committed step.
* **Restore** pins every member to the group's committed step on the
  daemon, so a torn dump can never surface as a mixed-step model; with
  a different target topology, :func:`restore_resharded` reassembles
  the global tensors from the persisted partition specs and re-slices
  them bit-exactly (ByteCheckpoint-style automatic resharding).
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional

from repro.core import protocol
from repro.core.index import ModelTable, _short
from repro.dnn.layout import ShardedLayout, reshard
from repro.dnn.tensor import ModelInstance
from repro.errors import (GroupCommitRefused, GroupError, GroupNotFound,
                          NoValidGroupCheckpoint, PmemError, PortusError,
                          ReproError)
from repro.hw.device import Allocation
from repro.pmem.layout import CommittedRecord, blob_capacity
from repro.pmem.pool import PmemPool
from repro.sim import AllOf

GROUP_TABLE_TAG = "portus-grouptable"
GROUP_TAG = "portus-group"

GROUP_MAGIC = 0x47525550  # "GRUP"
GROUP_RECORD_VERSION = 1

_GROUP_HEADER = struct.Struct("<IHHQ")  # magic, version, pad, committed step

#: Groups are rare (one per training job), so the table is small.
MAX_GROUPS = 64


def group_tag(name: str) -> str:
    """AllocTable tag of a group's commit-record region."""
    return f"{GROUP_TAG}/{_short(name)}"


class GroupTable(ModelTable):
    """Level-1 index for groups: persistent sorted name -> record addr.

    Same crash-atomic sorted-array machinery as the ModelTable, under
    its own AllocTable tag so both tables coexist on one pool.
    """

    TAG = GROUP_TABLE_TAG


class GroupRecord:
    """One group's persisted state: the layout blob + committed step.

    Stored as an A/B :class:`CommittedRecord`, so a commit is atomic
    with respect to power failure and the previous committed step
    survives any tear.  The layout blob is immutable for the life of
    the group; only the step changes, but the whole payload is
    rewritten each commit (the record is small next to the shards).
    """

    def __init__(self, allocation: Allocation, layout_blob: bytes,
                 committed_step: int) -> None:
        self.allocation = allocation
        self.record = CommittedRecord(allocation, 0, allocation.size // 2)
        self.layout_blob = layout_blob
        self.committed_step = committed_step
        self._layout: Optional[ShardedLayout] = None

    @staticmethod
    def slot_size(blob_len: int) -> int:
        return blob_capacity(_GROUP_HEADER.size + blob_len) + 32

    @classmethod
    def create(cls, pool: PmemPool, name: str,
               layout_blob: bytes) -> "GroupRecord":
        region = pool.alloc(2 * cls.slot_size(len(layout_blob)),
                            tag=group_tag(name))
        record = cls(region, layout_blob, 0)
        record._write(0)
        return record

    @classmethod
    def open(cls, allocation: Allocation) -> "GroupRecord":
        record = CommittedRecord(allocation, 0, allocation.size // 2)
        committed = record.read()
        if committed is None:
            raise PmemError(
                f"group record unreadable at {allocation.addr:#x}")
        payload = committed[0]
        magic, version, _pad, step = _GROUP_HEADER.unpack_from(payload)
        if magic != GROUP_MAGIC:
            raise PmemError(f"bad group record magic {magic:#x}")
        if version != GROUP_RECORD_VERSION:
            raise PmemError(f"unsupported group record version {version}")
        return cls(allocation, bytes(payload[_GROUP_HEADER.size:]), step)

    def _write(self, step: int) -> None:
        payload = _GROUP_HEADER.pack(GROUP_MAGIC, GROUP_RECORD_VERSION, 0,
                                     step) + self.layout_blob
        self.record.write(payload)

    def commit(self, step: int) -> None:
        """Persist *step* as the group's committed step (crash-atomic)."""
        self._write(step)
        self.committed_step = step

    def layout(self) -> ShardedLayout:
        """The layout blob, parsed on the first call (it never changes);
        callers share the one copy and must not modify it."""
        if self._layout is None:
            self._layout = ShardedLayout.unpack(self.layout_blob)
        return self._layout


class GroupStore:
    """Daemon-side group registry: the GroupTable plus open records,
    and each member model's record (rebuilt from the records).

    The table region is created lazily on the first group registration,
    so pools that never use groups keep their exact pre-group layout.
    Recovery is lenient about individual groups: a record that cannot
    be opened (torn creation the fsck has not repaired yet) is skipped
    — the daemon must come up, and fsck owns the repair.
    """

    def __init__(self, pool: PmemPool,
                 table: Optional[GroupTable]) -> None:
        self.pool = pool
        self.table = table
        self.records: Dict[str, GroupRecord] = {}
        self._member_of: Dict[str, GroupRecord] = {}

    @classmethod
    def open_or_create(cls, pool: PmemPool) -> "GroupStore":
        if not pool.find_by_tag(GROUP_TABLE_TAG):
            return cls(pool, None)
        table = GroupTable.open(pool)
        store = cls(pool, table)
        for name in table.names():
            try:
                allocation = pool.device.allocation_at(table.lookup(name))
                store._add(name, GroupRecord.open(allocation))
            except ReproError:
                continue  # dangling or torn — fsck's to repair
        return store

    def _add(self, name: str, record: GroupRecord) -> None:
        self.records[name] = record
        for member in record.layout().members:
            self._member_of[member] = record

    def group_of(self, model: str) -> Optional[GroupRecord]:
        """The record of the group *model* belongs to, or None."""
        return self._member_of.get(model)

    def register(self, name: str, layout_blob: bytes) -> GroupRecord:
        """Create the group (or attach to it, if the layout matches).

        A layout naming a model another group holds is refused
        (:class:`GroupError`): each member's group decides which of its
        versions a checkpoint must not overwrite.  Leak-only ordering:
        record region allocated and written first, table entry second —
        a crash in between leaks an unreferenced region that fsck
        reclaims, never a table entry pointing at garbage.
        Re-registering over a skipped (torn) record replaces it the same
        way, freeing the old region last.
        """
        layout = ShardedLayout.unpack(layout_blob)  # validate first
        existing = self.records.get(name)
        if existing is not None:
            if existing.layout_blob != layout_blob:
                raise PortusError(
                    f"group {name!r} already exists with a different "
                    f"layout")
            return existing
        for member in layout.members:
            if member in self._member_of:
                raise GroupError(
                    f"group {name!r}: member {member!r} already belongs "
                    f"to another group")
        if self.table is None:
            self.table = GroupTable.create(self.pool,
                                           max_models=MAX_GROUPS)
        old_addr = None
        if name in self.table:
            old_addr = self.table.lookup(name)
        record = GroupRecord.create(self.pool, name, layout_blob)
        record._layout = layout  # the blob's one parse
        self.table.insert(name, record.allocation.addr)
        if old_addr is not None:
            try:
                self.pool.free(self.pool.device.allocation_at(old_addr))
            except ReproError:
                pass  # already gone; nothing to reclaim
        self._add(name, record)
        return record

    def lookup(self, name: str) -> GroupRecord:
        try:
            return self.records[name]
        except KeyError:
            raise GroupNotFound(name) from None

    def remove(self, name: str) -> None:
        """Drop the group (unlink before free, like model unregister)."""
        record = self.lookup(name)
        self.table.remove(name)
        self.pool.free(record.allocation)
        del self.records[name]
        for member in record.layout().members:
            del self._member_of[member]

    def names(self) -> List[str]:
        return sorted(self.records)


# -- client side ----------------------------------------------------------


class GroupSession:
    """The user-facing group handle: dump / restore as one unit.

    Wraps the member :class:`~repro.core.client.ModelSession` handles;
    every RPC a group needs beyond the members' own checkpoints and
    restores rides the lead member's connection (and its retry policy).
    It holds no commit state: the daemon commits and pins the group's
    step, and :attr:`committed_step` is only the step its last reply
    named.
    """

    def __init__(self, client, name: str, layout: ShardedLayout,
                 sessions: Dict[str, "ModelSession"]) -> None:
        self.client = client
        self.name = name
        self.layout = layout
        self.sessions = sessions
        self.committed_step = 0

    @property
    def _lead(self):
        return self.sessions[self.layout.members[0]]

    @property
    def members(self) -> List[str]:
        return list(self.layout.members)

    # -- operations -------------------------------------------------------

    def dump(self, step: int) -> Generator:
        """Process: one parallel group dump; returns the committed step.

        Every member checkpoints concurrently (the engine stripes each
        over its own QPs); the member whose checkpoint completes the
        step commits the group record before it replies, and every reply
        names the group's committed step.  Any member failure raises —
        the record may still have moved, if the members that finished
        completed the step.
        """
        replies = yield from self._fan_out(
            lambda session: session.checkpoint(step),
            f"groupdump:{{}}:{step}")
        self.committed_step = max(reply.get("group_step", 0)
                                  for reply in replies)
        if self.committed_step != step:
            raise GroupCommitRefused(
                f"group {self.name!r}: every member acked step {step}, "
                f"the group record holds step {self.committed_step}")
        return step

    def _fan_out(self, operation, label: str) -> Generator:
        """Process: run *operation* on every member session at once (one
        process each, named by *label* formatted with the member); once
        all finish, raise the first failure in member order, or return
        their results in member order."""
        env = self.client.env

        def member_outcome(session) -> Generator:
            try:
                return (yield from operation(session)), None
            except ReproError as exc:
                return None, exc

        outcomes = [env.process(member_outcome(self.sessions[member]),
                                name=label.format(member))
                    for member in self.layout.members]
        yield AllOf(env, outcomes)
        for _result, failure in (process.value for process in outcomes):
            if failure is not None:
                raise failure
        return [process.value[0] for process in outcomes]

    def query(self) -> Generator:
        """Process: the daemon's view — committed step + layout blob."""
        reply = yield from self._lead._call(
            lambda: protocol.group_query(self.name),
            protocol.OP_GROUP_INFO)
        self.committed_step = reply["step"]
        return reply

    def restore(self) -> Generator:
        """Process: restore every member to the committed group step.

        Each member's restore names the group, and the daemon pins it to
        the group's committed step, so the result can never mix steps —
        the whole point of the group commit.  Replies naming different
        steps (the record moved mid-restore) raise :class:`GroupError`.
        """
        steps = yield from self._fan_out(
            lambda session: session.restore(group=self.name),
            "grouprestore:{}")
        if len(set(steps)) != 1:
            raise GroupError(
                f"group {self.name!r}: members restored steps "
                f"{sorted(set(steps))}")
        self.committed_step = steps[0]
        return steps[0]


def register_group(client, name: str, layout: ShardedLayout,
                   sessions) -> Generator:
    """Process: bind already-registered member *sessions* into a group.

    The session list must cover exactly the layout's members; the
    daemon validates every member against its index and persists the
    layout in the group's commit record.
    """
    by_name = {session.model.name: session for session in sessions}
    if set(by_name) != set(layout.members):
        missing = sorted(set(layout.members) - set(by_name))
        extra = sorted(set(by_name) - set(layout.members))
        raise PortusError(
            f"group {name!r}: sessions do not match layout members "
            f"(missing {missing[:4]}, extra {extra[:4]})")
    group = GroupSession(client, name, layout, by_name)
    blob = layout.pack()
    reply = yield from group._lead._call(
        lambda: protocol.group_register(name, blob),
        protocol.OP_GROUP_REGISTERED)
    group.committed_step = reply["step"]
    return group


def query_group(client, name: str) -> Generator:
    """Process: one-shot GROUP_QUERY without any member session.

    Used by resharding restores, which start from a bare client (the
    new topology's sessions do not exist yet).
    """
    return (yield from client.request(*protocol.group_query(name),
                                      protocol.OP_GROUP_INFO))


def restore_resharded(client, name: str, target_layout: ShardedLayout,
                      target_instances: Dict[str, ModelInstance],
                      stage_device=None) -> Generator:
    """Process: restore a group checkpoint into a *different* topology.

    Reads the committed step and source layout from the group record,
    stages every source member on *stage_device* (default: the device
    backing the first target instance), restores them pinned to the
    committed step, reassembles each global tensor from its partition
    specs, and re-slices for *target_layout* — bit-exact both ways.
    Writes the resulting bytes into *target_instances* and returns the
    restored step.

    The staging sessions attach to the persisted members, so the call
    expects a daemon that does not still hold the old topology's live
    attachments (the restart-after-crash case this exists for).
    """
    if set(target_instances) != set(target_layout.members):
        raise PortusError(
            f"group {name!r}: target instances do not match the target "
            f"layout's members")
    reply = yield from query_group(client, name)
    step = reply["step"]
    if step <= 0:
        raise NoValidGroupCheckpoint(
            f"group {name!r} has no committed step")
    source_layout = ShardedLayout.unpack(reply["layout"])
    if stage_device is None:
        first = target_instances[target_layout.members[0]]
        stage_device = first.tensors[0].allocation.device
    contents = {}
    for member in source_layout.members:
        staged = ModelInstance.materialize(
            member, source_layout.member_specs(member), stage_device,
            model_seed=0)
        session = yield from client.register(staged)
        restored = yield from session.restore(step=step)
        if restored != step:
            raise NoValidGroupCheckpoint(
                f"{member}: restored step {restored} != committed "
                f"{step}")
        contents[member] = {tensor.name: tensor.content()
                            for tensor in staged.tensors}
    resharded = reshard(source_layout, contents, target_layout)
    for member in target_layout.members:
        instance = target_instances[member]
        member_contents = resharded[member]
        for tensor in instance.tensors:
            tensor.allocation.write(0, member_contents[tensor.name])
            tensor.step = step
        instance.step = step
    return step
