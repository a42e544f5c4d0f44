"""The fleet router: place, register, fail over, and migrate models.

A :class:`FleetClient` sits between the training jobs and an N-shard
:class:`~repro.harness.cluster.PaperCluster`.  It owns the placement
ring, resolves every ``(tenant, model)`` to a shard, registers through
that shard's :class:`~repro.core.client.PortusClient` (passing the
tenant name so the daemon can enforce quotas), and can live-migrate a
model between shards through the transfer engine.

Migration commit ordering (DESIGN.md §13; every window leak-only):

1. :func:`~repro.core.repack.migrate_model` copies the newest DONE
   version into a fresh index on the destination daemon and commits it
   (the source's CAS guard held throughout — no concurrent dump can
   flip the slot mid-copy);
2. the ring entry is pinned to the destination — lookups now route new
   attaches to the shard that provably holds the bytes;
3. the source copy is evicted (:func:`~repro.core.repack.evict_model`);
4. the live session, if any, is re-bound: transport torn down and
   re-attached against the destination daemon.

A crash between any two steps leaves at least one committed copy and
at worst leaks the other — never loses the model.  Step 2 is the
commit point: once the ring routes to the destination, a failure in
steps 3–4 raises :class:`~repro.errors.MigrationIncomplete` naming
what leaked, and never unwinds the flip.

Parallel groups ride the same machinery with one twist: every member
of a group is placed through the *group's* ring key, so the whole
group lives on one shard and migrates as a unit
(:meth:`FleetClient.migrate_group`).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.group import register_group as bind_group
from repro.core.repack import evict_model, migrate_model
from repro.errors import GroupError, MigrationIncomplete, ReproError
from repro.fleet.ring import PlacementRing
from repro.fleet.workload import TenantSpec, place_on_cluster


class FleetClient:
    """Tenant-facing router over a sharded PaperCluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.ring = PlacementRing(shard.name for shard in cluster.shards)
        self.obs = cluster.obs
        #: (tenant, model name) -> live ModelSession.
        self._sessions: Dict[Tuple[str, str], object] = {}
        #: (tenant, group name) -> live GroupSession.
        self._groups: Dict[Tuple[str, str], object] = {}

    # -- placement --------------------------------------------------------

    def shard_of(self, tenant: str, model_name: str):
        """The StorageShard the ring places ``(tenant, model)`` on."""
        return self.cluster.shard_named(self.ring.lookup(tenant,
                                                         model_name))

    # -- registration -----------------------------------------------------

    def register(self, tenant: str, model, node=None, gpu: int = 0,
                 dedup: bool = False,
                 chunk_bytes: Optional[int] = None,
                 instance_name: Optional[str] = None,
                 model_seed: Optional[int] = None) -> Generator:
        """Process: place and register one model for *tenant*.

        *model* is a zoo name / ModelSpec / materialized ModelInstance
        (same contract as ``PaperCluster.portus_register``).  Placement
        keys on the registered instance name, so two tenants running
        the same architecture land independently.
        """
        from repro.dnn.tensor import ModelInstance

        if isinstance(model, ModelInstance):
            instance = model
        else:
            instance = self.cluster.materialize(
                model, node=node, gpu=gpu, seed=model_seed,
                instance_name=instance_name)
        name = instance.name
        shard = self.shard_of(tenant, name)
        client = self.cluster.portus_client(node, shard=shard.index)
        session = yield from client.register(instance, dedup=dedup,
                                             chunk_bytes=chunk_bytes,
                                             tenant=tenant)
        self._sessions[(tenant, name)] = session
        self.obs.metrics.counter("fleet.placements",
                                 shard=shard.name).inc()
        return session

    def register_spec(self, spec: TenantSpec, dedup: bool = False
                      ) -> Generator:
        """Process: register one generated-workload tenant row."""
        node, gpu = place_on_cluster(self.cluster, spec)
        instance = self.cluster.materialize(
            spec.model, node=node, gpu=gpu, seed=spec.model_seed,
            instance_name=spec.instance_name)
        return (yield from self.register(spec.name, instance, node=node,
                                         dedup=dedup))

    # -- migration --------------------------------------------------------

    def migrate(self, tenant: str, model_name: str,
                dst_shard_name: str) -> Generator:
        """Process: move a model to *dst_shard_name*, live.

        Returns ``(step, bytes_moved)`` of the migrated checkpoint.
        The model's session (if this router registered one) ends the
        call attached to the destination daemon.

        The ring flip is the commit point.  Failures before it unwind
        cleanly (the source keeps the model); failures after it are
        leak-only — the flip is never undone, the cleanup that still
        owes is finished as far as possible, and the call raises
        :class:`~repro.errors.MigrationIncomplete` naming what leaked.
        """
        src_shard = self.shard_of(tenant, model_name)
        dst_shard = self.cluster.shard_named(dst_shard_name)
        if dst_shard.name == src_shard.name:
            raise ReproError(
                f"{tenant}/{model_name} already lives on "
                f"{dst_shard.name}")
        step, moved = yield from migrate_model(
            self.cluster.env, src_shard.daemon, dst_shard.daemon,
            model_name, obs=self.obs)
        # The destination holds a committed copy: flip the ring pin
        # FIRST so every new lookup routes to bytes that exist, then
        # drop the source copy.
        self.ring.assign(tenant, model_name, dst_shard.name)
        leaked = yield from self._finish_migration(
            tenant, model_name, src_shard, dst_shard)
        if leaked:
            raise MigrationIncomplete(
                f"{tenant}/{model_name}: committed to {dst_shard.name} "
                f"(ring flipped, step {step}) but cleanup failed: "
                + "; ".join(detail for _, detail in leaked),
                leaked=[what for what, _ in leaked])
        return step, moved

    def _finish_migration(self, tenant: str, model_name: str,
                          src_shard, dst_shard) -> Generator:
        """Process: post-commit-point cleanup — evict the source copy
        and rebind the live session.  Never raises; returns a list of
        ``(what, detail)`` leaks for the caller's MigrationIncomplete.
        The session, if any, is bound to the destination even when the
        re-attach fails (its retry path attaches on next use) — binding
        it back to the source would route writes to evicted bytes."""
        leaked: List[Tuple[str, str]] = []
        try:
            evict_model(src_shard.daemon, model_name)
        except ReproError as exc:
            leaked.append((f"source-copy:{src_shard.name}/{model_name}",
                           f"evict: {exc}"))
        session = self._sessions.get((tenant, model_name))
        if session is not None:
            old_client = session.client
            new_client = self.cluster.portus_client(
                old_client.node, shard=dst_shard.index)
            if session in old_client.sessions:
                old_client.sessions.remove(session)
            session.client = new_client
            new_client.sessions.append(session)
            session._teardown_transport()
            try:
                yield from session._ensure_attached()
            except ReproError as exc:
                leaked.append((f"session:{tenant}/{model_name}",
                               f"re-attach: {exc}"))
        return leaked

    # -- groups -----------------------------------------------------------

    def register_group(self, tenant: str, group_name: str, layout,
                       instances, node=None) -> Generator:
        """Process: place and register a whole parallel group.

        Every member is pinned to the shard the ring picks for the
        *group* key — one key, one shard, so the group's commit record
        and all its member indexes share a pool and migrate together.
        *instances* maps member name -> materialized ModelInstance
        covering exactly ``layout.members``.
        """
        if set(instances) != set(layout.members):
            raise GroupError(
                f"group {group_name!r}: instances do not match the "
                f"layout's members")
        shard = self.cluster.shard_named(
            self.ring.lookup(tenant, group_name))
        for member in layout.members:
            self.ring.assign(tenant, member, shard.name)
        client = self.cluster.portus_client(node, shard=shard.index)
        sessions = []
        for member in layout.members:
            session = yield from client.register(instances[member],
                                                 tenant=tenant)
            self._sessions[(tenant, member)] = session
            sessions.append(session)
        group = yield from bind_group(client, group_name, layout,
                                      sessions)
        self._groups[(tenant, group_name)] = group
        self.obs.metrics.counter("fleet.group_placements",
                                 shard=shard.name).inc()
        return group

    def migrate_group(self, tenant: str, group_name: str,
                      dst_shard_name: str) -> Generator:
        """Process: move a whole group to *dst_shard_name*, live.

        Members of every layout move alike (a chunk-layout member copies
        its manifest plus the chunks the destination store lacks).  A
        torn group — any member whose newest DONE step is not the
        committed step (fsck has not repaired it yet) — is refused with
        :class:`~repro.errors.GroupError` before anything moves.

        Ordering: every member copies and commits on the destination,
        the group record is re-created and committed there at the same
        step, and only then does the ring flip (group key + every
        member pin) — the commit point.  A member copy that fails drops
        the members already copied from the destination and re-raises.
        Post-flip failures follow the single-model contract: leak-only,
        MigrationIncomplete.
        """
        src_shard = self.cluster.shard_named(
            self.ring.lookup(tenant, group_name))
        dst_shard = self.cluster.shard_named(dst_shard_name)
        if dst_shard.name == src_shard.name:
            raise ReproError(
                f"{tenant}/{group_name} already lives on "
                f"{dst_shard.name}")
        record = src_shard.daemon.groups.lookup(group_name)
        layout = record.layout()
        members = list(layout.members)
        for member in members:
            entry = src_shard.daemon.model_map.get(member)
            if entry is None:
                raise GroupError(
                    f"group {group_name!r}: member {member!r} is not on "
                    f"{src_shard.name}")
            if record.committed_step > 0:
                _, newest = entry.meta.restorable()
                if newest != record.committed_step:
                    raise GroupError(
                        f"group {group_name!r}: member {member!r} newest "
                        f"DONE step {newest} != committed "
                        f"{record.committed_step}; repair the pool "
                        f"before migrating")
        moved_total = 0
        copied: List[str] = []
        try:
            for member in members:
                _, moved = yield from migrate_model(
                    self.cluster.env, src_shard.daemon, dst_shard.daemon,
                    member, obs=self.obs)
                copied.append(member)
                moved_total += moved
        except BaseException:
            # Nothing routes to the destination before the flip: drop
            # its copies, as a failed single-model copy unwinds itself.
            if not dst_shard.daemon.pool.closed:
                for member in copied:
                    dst_shard.daemon.drop_model(member)
            raise
        dst_record = dst_shard.daemon.groups.register(
            group_name, record.layout_blob)
        if record.committed_step > dst_record.committed_step:
            dst_record.commit(record.committed_step)
        # Commit point: one flip for the group key, then every member
        # pin — lookups of any member now route to the shard that
        # provably holds the full group.
        self.ring.assign(tenant, group_name, dst_shard.name)
        for member in members:
            self.ring.assign(tenant, member, dst_shard.name)
        leaked: List[Tuple[str, str]] = []
        for member in members:
            leaked += yield from self._finish_migration(
                tenant, member, src_shard, dst_shard)
        try:
            src_shard.daemon.groups.remove(group_name)
        except ReproError as exc:
            leaked.append((f"group-record:{src_shard.name}/{group_name}",
                           f"remove: {exc}"))
        group = self._groups.get((tenant, group_name))
        if group is not None:
            group.client = self.cluster.portus_client(
                group.client.node, shard=dst_shard.index)
        self.obs.metrics.counter("fleet.group_migrations",
                                 src=src_shard.name,
                                 dst=dst_shard.name).inc()
        if leaked:
            raise MigrationIncomplete(
                f"{tenant}/{group_name}: group committed to "
                f"{dst_shard.name} (ring flipped, step "
                f"{record.committed_step}) but cleanup failed: "
                + "; ".join(detail for _, detail in leaked),
                leaked=[what for what, _ in leaked])
        return record.committed_step, moved_total

    # -- introspection ----------------------------------------------------

    def placements(self) -> Dict[str, List[str]]:
        """shard name -> sorted list of "tenant/model" keys it owns."""
        result: Dict[str, List[str]] = {
            shard.name: [] for shard in self.cluster.shards}
        for (tenant, model), _session in sorted(self._sessions.items()):
            result[self.ring.lookup(tenant, model)].append(
                f"{tenant}/{model}")
        return result

    def __repr__(self) -> str:
        return (f"<FleetClient shards={len(self.cluster.shards)} "
                f"sessions={len(self._sessions)}>")
