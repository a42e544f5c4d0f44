"""Structural verification of the on-PMem Portus index (``portusctl fsck``).

Walks the whole persistent structure — Superblock → AllocTable →
ModelTable → per-model metadata (geometry header, VersionFlags, MIndex)
→ TensorData extents — and reports everything that violates a recovery
invariant:

* **dangling meta addresses** — a ModelTable entry pointing at space no
  committed extent backs;
* **DONE slots that cannot restore** — version address 0, extent
  missing, extent shorter than the tensor layout needs, or an extent
  claimed twice;
* **torn records** — a double-slot record with one slot cut short by
  power loss (the other slot keeps the data readable);
* **stale ACTIVE slots** — a checkpoint that was mid-pull at crash time
  and whose TensorData can no longer be trusted;
* **leaked extents** — committed Portus-tagged extents no model walk
  reaches (crash windows in alloc/free orderings leak by design);
* **chunk refcounts** (dedup layout) — every ChunkTable reference count
  is recomputed from reachability (one reference per occurrence in a
  DONE version's manifest): a stored count *above* the recomputed one is
  a leak (crash between apply/commit and manifest GC — space only), a
  count *below* it is an over-free (a future unref would free bytes a
  restorable checkpoint still needs); manifests referencing chunks the
  store does not hold demote their slot.  A refcount-0 entry no manifest
  references is a *spare* — a displaced chunk kept allocated and pinned
  for the next write: its extent is claimed and its bytes, which no
  reader trusts, are not checked.

:func:`fsck` is read-only; :func:`repair` applies each finding's safe
repair action (demote untrustworthy slots, unlink missing extents, drop
dangling entries, rewrite torn slots, free leaks) and re-walks until the
pool verifies clean.  Repairs only ever *demote or reclaim* — a repair
never fabricates restorable state, so the newest genuinely-DONE
checkpoint always survives a repair pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import InvalidAddressError, PmemError, ReproError
from repro.pmem.layout import CommittedRecord
from repro.pmem.pool import PmemPool, _SUPER_SLOT
from repro.units import fmt_bytes

SEV_ERROR = "error"      # breaks recovery or restore correctness
SEV_WARN = "warning"     # loses redundancy or space, not correctness

#: ``portusctl fsck`` / ``repair`` exit codes (machine contract).
EXIT_CLEAN = 0     # fsck: no findings / repair: nothing to do
EXIT_DIRTY = 1     # findings exist (after repair: unfixable ones)
EXIT_REPAIRED = 2  # repair fixed findings and the pool verifies clean

#: Finding kinds (stable strings: they key metrics and test assertions).
K_SUPERBLOCK_TORN = "superblock-torn-slot"
K_ALLOCTABLE_TORN = "alloctable-torn-slot"
K_ALLOCTABLE_OVERLAP = "alloctable-overlap"
K_ALLOC_BACKING_MISSING = "alloc-backing-missing"
K_TABLE_MISSING = "modeltable-missing"
K_TABLE_UNREADABLE = "modeltable-unreadable"
K_TABLE_TORN = "modeltable-torn-slot"
K_DANGLING_META = "dangling-meta"
K_META_UNREADABLE = "meta-unreadable"
K_FLAGS_UNREADABLE = "flags-unreadable"
K_FLAGS_TORN = "flags-torn-slot"
K_MINDEX_TORN = "mindex-torn-slot"
K_STALE_ACTIVE = "stale-active"
K_DONE_ADDR_ZERO = "done-addr-zero"
K_VERSION_EXTENT_MISSING = "version-extent-missing"
K_DONE_EXTENT_SHORT = "done-extent-short"
K_EXTENT_SHARED = "extent-shared"
K_LEAKED_EXTENT = "leaked-extent"
K_CHUNKTABLE_UNREADABLE = "chunktable-unreadable"
K_CHUNKTABLE_TORN = "chunktable-torn-slot"
K_MANIFEST_TORN = "manifest-torn-slot"
K_MANIFEST_BAD = "manifest-bad"
K_MANIFEST_CHUNK_MISSING = "manifest-chunk-missing"
K_CHUNK_BACKING_MISSING = "chunk-backing-missing"
K_CHUNK_REF_LEAK = "chunk-ref-leak"
K_CHUNK_REF_OVERFREE = "chunk-ref-overfree"
K_GROUPTABLE_UNREADABLE = "grouptable-unreadable"
K_GROUPTABLE_TORN = "grouptable-torn-slot"
K_GROUP_DANGLING = "group-dangling-record"
K_GROUP_RECORD_UNREADABLE = "group-record-unreadable"
K_GROUP_RECORD_TORN = "group-record-torn-slot"
K_GROUP_MEMBER_MISSING = "group-member-missing"
K_GROUP_STEP_UNRESTORABLE = "group-step-unrestorable"


class Finding:
    """One invariant violation, with an optional safe repair action."""

    def __init__(self, kind: str, severity: str, detail: str,
                 model: Optional[str] = None,
                 repair: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self.severity = severity
        self.detail = detail
        self.model = model
        self.repair = repair

    def describe(self) -> str:
        where = f" [{self.model}]" if self.model else ""
        fix = "" if self.repair is not None else " (no auto-repair)"
        return f"{self.severity}: {self.kind}{where}: {self.detail}{fix}"

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "severity": self.severity,
                "model": self.model, "detail": self.detail,
                "repairable": self.repair is not None}

    def __repr__(self) -> str:
        return f"<Finding {self.describe()}>"


class FsckReport:
    """Everything one verification pass saw."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.checked: Dict[str, int] = {"models": 0, "extents": 0,
                                        "records": 0, "spares": 0,
                                        "spare_bytes": 0}

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    @property
    def clean(self) -> bool:
        return not self.findings

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_WARN]

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    def describe(self) -> str:
        lines = [f"checked {self.checked['models']} models, "
                 f"{self.checked['extents']} extents, "
                 f"{self.checked['records']} records, "
                 f"{self.checked['spares']} spare chunks "
                 f"({fmt_bytes(self.checked['spare_bytes'])})"]
        if self.clean:
            lines.append("clean: no findings")
        else:
            lines.append(f"{len(self.errors())} errors, "
                         f"{len(self.warnings())} warnings")
            lines.extend(f.describe() for f in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """The ``portusctl fsck --json`` payload."""
        return {"clean": self.clean,
                "checked": dict(self.checked),
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "findings": [f.to_dict() for f in self.findings]}

    def __repr__(self) -> str:
        state = "clean" if self.clean else f"{len(self.findings)} findings"
        return f"<FsckReport {state}>"


class RepairResult:
    """What :func:`repair` did, plus the final verification report."""

    def __init__(self, actions: List[str], passes: int,
                 report: FsckReport) -> None:
        self.actions = actions
        self.passes = passes
        self.report = report

    @property
    def clean(self) -> bool:
        return self.report.clean

    def describe(self) -> str:
        lines = [f"repair: {len(self.actions)} actions in "
                 f"{self.passes} passes"]
        lines.extend(f"  fixed {action}" for action in self.actions)
        lines.append("pool verifies clean" if self.clean
                     else "pool still has findings:\n" +
                     self.report.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """The ``portusctl repair --json`` payload."""
        return {"clean": self.clean, "passes": self.passes,
                "actions": list(self.actions),
                "report": self.report.to_dict()}

    @property
    def exit_code(self) -> int:
        """``portusctl repair``'s tri-state: clean-untouched /
        repaired-to-clean / still dirty."""
        if not self.clean:
            return EXIT_DIRTY
        return EXIT_REPAIRED if self.actions else EXIT_CLEAN


class Walk:
    """One verification pass: the report, the AllocTable, the chunk
    store, and what the walk has reached so far.  Each model's storage
    layout runs its per-version checks against it
    (``layout.verify(walk, name, flags)``)."""

    def __init__(self, report: FsckReport, allocator) -> None:
        self.report = report
        self.allocator = allocator
        #: The pool's chunk store, once attached (None: there is none).
        self.store = None
        #: Extent address -> who references it; every claimed extent is
        #: reachable, every other Portus extent a leak.
        self.claims: Dict[int, str] = {}
        #: digest -> references recomputed from reachability (one per
        #: occurrence in a resolvable DONE manifest).
        self.recomputed: Dict[bytes, int] = {}

    def add(self, kind: str, severity: str, detail: str,
            model: Optional[str] = None,
            repair: Optional[Callable[[], None]] = None) -> None:
        self.report.add(Finding(kind, severity, detail, model=model,
                                repair=repair))

    def claim(self, addr: int, who: str) -> bool:
        """Record *who* references extent *addr*; False on a collision."""
        if addr in self.claims and self.claims[addr] != who:
            return False
        self.claims[addr] = who
        return True

    def check_torn(self, record: CommittedRecord, kind: str, what: str,
                   model: Optional[str] = None) -> None:
        """Flag torn slots of a still-readable record; repair rewrites
        the committed payload (the write lands in the non-newest = torn
        slot)."""
        self.report.checked["records"] += 1
        committed = record.read()
        if committed is None:
            return  # unreadable records are the caller's (severer) finding
        payload = committed[0]
        for state in record.slot_states():
            if state == "torn":
                self.add(kind, SEV_WARN,
                         f"{what}: one slot torn, newest generation "
                         f"{committed[1]} intact", model,
                         lambda r=record, p=payload: r.write(p))


# -- the walk ------------------------------------------------------------------


def fsck(pool: PmemPool, obs=None) -> FsckReport:
    """Verify every recovery invariant of the index on *pool* (read-only).

    The pool must be open (i.e. already past
    :meth:`~repro.pmem.pool.PmemPool.open`'s superblock validation and
    AllocTable reconcile).
    """
    from repro.core.index import (DATA_TAG, META_TAG, TABLE_TAG,
                                  ModelMeta, ModelTable, VersionFlags)
    from repro.pmem.chunks import CHUNK_TAG, ChunkStore

    if pool.closed:
        raise PmemError("fsck needs an open pool")
    report = FsckReport()
    allocator = pool.allocator
    walk = Walk(report, allocator)

    # Level 0: superblock and AllocTable record health.
    walk.check_torn(CommittedRecord(pool.meta, 0, _SUPER_SLOT),
                    K_SUPERBLOCK_TORN, "superblock")
    alloc_payload = allocator._table.read()
    if alloc_payload is not None:
        walk.check_torn(allocator._table, K_ALLOCTABLE_TORN, "AllocTable")

    # AllocTable: every committed extent must be backed and disjoint.
    records = allocator.records()
    report.checked["extents"] = len(records)
    previous = None
    for record in records:
        try:
            backing = pool.device.allocation_at(record.addr)
        except InvalidAddressError:
            backing = None
        if backing is None or backing.addr != record.addr \
                or backing.size < record.size:
            report.add(Finding(
                K_ALLOC_BACKING_MISSING, SEV_ERROR,
                f"extent {record.tag!r}@{record.addr:#x}+{record.size} "
                f"has no matching device backing"))
        if previous is not None \
                and record.addr < previous.addr + previous.size:
            report.add(Finding(
                K_ALLOCTABLE_OVERLAP, SEV_ERROR,
                f"extents {previous.tag!r}@{previous.addr:#x}+"
                f"{previous.size} and {record.tag!r}@{record.addr:#x} "
                f"overlap"))
        previous = record

    # Level 1: the ModelTable.
    try:
        table = ModelTable.open(pool)
    except PmemError as exc:
        kind = (K_TABLE_MISSING if "no Portus ModelTable" in str(exc)
                else K_TABLE_UNREADABLE)
        report.add(Finding(kind, SEV_ERROR, str(exc)))
        _count_findings(report, obs)
        return report
    walk.check_torn(table._record, K_TABLE_TORN, "ModelTable")
    walk.claim(table._record.allocation.addr, "<ModelTable>")

    # The shared chunk store (dedup layout), if this pool has one.  An
    # unreadable table only happens when power failed before its very
    # first commit — no chunk was ever stored, so the extent is pure
    # leakage and freeing it is safe (the next dedup register recreates
    # the store).
    store = None
    try:
        store = ChunkStore.attach(pool)
    except PmemError as exc:
        report.add(Finding(
            K_CHUNKTABLE_UNREADABLE, SEV_WARN, str(exc),
            repair=lambda p=pool: _free_chunk_table(p)))
    if store is not None:
        walk.store = store
        walk.claim(store.table_alloc.addr, "<ChunkTable>")
        walk.check_torn(store.record, K_CHUNKTABLE_TORN, "ChunkTable")
        report.checked["spares"] = store.spare_count
        report.checked["spare_bytes"] = store.spare_bytes

    # Levels 2+3: per-model metadata, then each version's storage as
    # its layout verifies it.
    for name in table.names():
        report.checked["models"] += 1
        meta_addr = table.lookup(name)
        if allocator.lookup(meta_addr) is None:
            report.add(Finding(
                K_DANGLING_META, SEV_ERROR,
                f"table entry points at {meta_addr:#x}, which no "
                f"committed extent backs", model=name,
                repair=lambda t=table, n=name: t.remove(n)))
            continue
        try:
            meta = ModelMeta.open(pool, meta_addr, lenient=True)
        except (ReproError, InvalidAddressError) as exc:
            report.add(Finding(
                K_META_UNREADABLE, SEV_ERROR,
                f"metadata region at {meta_addr:#x} unreadable: {exc}",
                model=name,
                repair=lambda t=table, n=name: t.remove(n)))
            continue
        walk.claim(meta_addr, f"{name}:meta")

        # Record health: version flags + MIndex.
        if meta._flags_record.read() is None:
            report.add(Finding(
                K_FLAGS_UNREADABLE, SEV_WARN,
                "version-flags record unreadable; both checkpoint slots "
                "are lost", model=name,
                repair=lambda m=meta: m.write_flags(VersionFlags())))
        else:
            walk.check_torn(meta._flags_record, K_FLAGS_TORN,
                            "version flags", model=name)
        walk.check_torn(meta._mindex_record, K_MINDEX_TORN, "MIndex",
                        model=name)
        meta.layout.verify(walk, name, meta.read_flags())

    # Chunk refcounts: compare every stored count against the one
    # recomputed from reachability.  Stored > recomputed is a leak (a
    # crash window between apply/commit and manifest GC over-holds —
    # space only); stored < recomputed is an over-free (a future unref
    # would free bytes a restorable checkpoint still needs).  A spare
    # (0 stored, 0 reachable) is neither: its extent is claimed.
    if store is not None:
        for entry in store.entries():
            backing = allocator.lookup(entry.addr)
            if backing is None or backing.size < entry.size:
                report.add(Finding(
                    K_CHUNK_BACKING_MISSING, SEV_ERROR,
                    f"chunk {entry.digest.hex()[:12]} extent at "
                    f"{entry.addr:#x}+{entry.size} has no committed "
                    f"backing",
                    repair=lambda s=store, d=entry.digest: s.drop_entry(d)))
                continue
            walk.claim(entry.addr, f"<chunk:{entry.digest.hex()[:12]}>")
            want = walk.recomputed.get(entry.digest, 0)
            if entry.refcount > want:
                report.add(Finding(
                    K_CHUNK_REF_LEAK, SEV_WARN,
                    f"chunk {entry.digest.hex()[:12]} holds "
                    f"{entry.refcount} refs, reachability needs {want}",
                    repair=lambda s=store, d=entry.digest, n=want:
                        s.set_refcount(d, n)))
            elif entry.refcount < want:
                report.add(Finding(
                    K_CHUNK_REF_OVERFREE, SEV_ERROR,
                    f"chunk {entry.digest.hex()[:12]} holds "
                    f"{entry.refcount} refs but {want} manifest "
                    f"references reach it",
                    repair=lambda s=store, d=entry.digest, n=want:
                        s.set_refcount(d, n)))

    # Parallel groups: the GroupTable, each group's commit record, and
    # the cross-model invariant that every member can serve the group's
    # committed step.
    _fsck_groups(walk, pool, table)

    # Leaks: committed Portus-tagged extents no walk reached.  Foreign
    # tags (anything not ours) are left alone.  The ChunkTable and
    # GroupTable extents are excluded: readable tables were claimed
    # above, unreadable ones already carry their own (freeing) finding.
    from repro.core.group import GROUP_TAG
    for record in records:
        if record.addr in walk.claims:
            continue
        ours = (record.tag == TABLE_TAG
                or record.tag.startswith(META_TAG + "/")
                or record.tag.startswith(DATA_TAG + "/")
                or record.tag.startswith(CHUNK_TAG + "/")
                or record.tag.startswith(GROUP_TAG + "/"))
        if not ours:
            continue
        report.add(Finding(
            K_LEAKED_EXTENT, SEV_WARN,
            f"extent {record.tag!r}@{record.addr:#x}+{record.size} is "
            f"unreachable from any model",
            repair=lambda p=pool, r=record:
                p.free(p.allocator.allocation_for(r))))

    _count_findings(report, obs)
    return report


def _free_chunk_table(pool) -> None:
    """Reclaim an unreadable ChunkTable extent (pre-first-commit crash:
    no chunk was ever stored behind it)."""
    from repro.pmem.chunks import CHUNK_TABLE_TAG

    for allocation in pool.find_by_tag(CHUNK_TABLE_TAG):
        pool.free(allocation)
    pool.__dict__.pop("_chunk_store", None)


def _fsck_groups(walk: Walk, pool, table) -> None:
    """Verify the parallel-group layer, if this pool has one.

    Group invariants are *cross-model*: beyond the usual table/record
    structural health, the committed step must be servable — every
    member must still hold a DONE slot at it.  The repair for a
    violated step is demote-only: roll the record back to the newest
    step every member retains (possibly 0), never forward.
    """
    from repro.core.group import (GROUP_TABLE_TAG, GroupRecord, GroupTable)
    from repro.core.index import FLAG_DONE, ModelMeta

    if not pool.find_by_tag(GROUP_TABLE_TAG):
        return
    report, allocator = walk.report, walk.allocator
    try:
        gtable = GroupTable.open(pool)
    except PmemError as exc:
        # Only a crash before the table's very first commit gets here —
        # no group was ever inserted, so the extent is pure leakage.
        report.add(Finding(
            K_GROUPTABLE_UNREADABLE, SEV_WARN, str(exc),
            repair=lambda p=pool: _free_group_table(p)))
        return
    walk.claim(gtable._record.allocation.addr, "<GroupTable>")
    walk.check_torn(gtable._record, K_GROUPTABLE_TORN, "GroupTable")
    for name in gtable.names():
        addr = gtable.lookup(name)
        if allocator.lookup(addr) is None:
            report.add(Finding(
                K_GROUP_DANGLING, SEV_ERROR,
                f"group table entry points at {addr:#x}, which no "
                f"committed extent backs", model=name,
                repair=lambda t=gtable, n=name: t.remove(n)))
            continue
        try:
            record = GroupRecord.open(pool.device.allocation_at(addr))
        except (ReproError, InvalidAddressError) as exc:
            # Dropping the entry turns the region into a leak the next
            # pass frees; re-registration recreates the group at step 0.
            report.add(Finding(
                K_GROUP_RECORD_UNREADABLE, SEV_ERROR,
                f"group record at {addr:#x} unreadable: {exc}",
                model=name,
                repair=lambda t=gtable, n=name: t.remove(n)))
            continue
        walk.claim(addr, f"<group:{name}>")
        walk.check_torn(record.record, K_GROUP_RECORD_TORN,
                        "group commit record", model=name)
        try:
            layout = record.layout()
        except ReproError as exc:
            report.add(Finding(
                K_GROUP_RECORD_UNREADABLE, SEV_ERROR,
                f"group layout blob invalid: {exc}", model=name,
                repair=lambda t=gtable, n=name: t.remove(n)))
            continue
        missing = [m for m in layout.members if m not in table]
        if missing:
            report.add(Finding(
                K_GROUP_MEMBER_MISSING, SEV_ERROR,
                f"{len(missing)} of {len(layout.members)} members "
                f"missing from the ModelTable (e.g. {missing[0]!r})",
                model=name,
                repair=lambda t=gtable, n=name: t.remove(n)))
            continue
        if record.committed_step <= 0:
            continue
        # Cross-model invariant: every member holds DONE at the
        # committed step.  Unreadable member metadata is skipped here —
        # its own finding removes the member, and the member-missing
        # cascade then drops the group on a later pass.
        shared: Optional[set] = None
        readable = True
        for member in layout.members:
            try:
                meta = ModelMeta.open(pool, table.lookup(member),
                                      lenient=True)
                flags = meta.read_flags()
            except (ReproError, InvalidAddressError):
                readable = False
                break
            done = {flags.steps[v] for v in range(len(flags.states))
                    if flags.states[v] == FLAG_DONE}
            shared = done if shared is None else shared & done
        if not readable or shared is None:
            continue
        if record.committed_step not in shared:
            best = max((s for s in shared
                        if 0 < s < record.committed_step), default=0)
            report.add(Finding(
                K_GROUP_STEP_UNRESTORABLE, SEV_ERROR,
                f"committed step {record.committed_step} is not DONE on "
                f"every member; newest fully-held step is {best}",
                model=name,
                repair=lambda r=record, s=best: r.commit(s)))


def _free_group_table(pool) -> None:
    """Reclaim an unreadable GroupTable extent (pre-first-commit crash:
    no group was ever inserted behind it)."""
    from repro.core.group import GROUP_TABLE_TAG

    for allocation in pool.find_by_tag(GROUP_TABLE_TAG):
        pool.free(allocation)


def _count_findings(report: FsckReport, obs) -> None:
    if obs is None:
        return
    obs.metrics.counter("fsck.runs").inc()
    for kind, count in report.kinds().items():
        obs.metrics.counter(f"fsck.findings.{kind}").inc(count)


# -- repair --------------------------------------------------------------------

#: Repair passes before giving up on a pool that never verifies clean.
REPAIR_MAX_PASSES = 4


def repair(pool: PmemPool, obs=None) -> RepairResult:
    """Apply every finding's repair action until the pool verifies clean.

    Repairs cascade (dropping a dangling entry turns its extents into
    leaks the next pass frees), so the walk re-runs after every pass;
    :data:`REPAIR_MAX_PASSES` bounds pathological pools.  Returns the
    actions taken and the final report — ``result.clean`` is the
    contract the crash-point sweep asserts.
    """
    actions: List[str] = []
    passes = 0
    report = fsck(pool, obs=obs)
    while not report.clean and passes < REPAIR_MAX_PASSES:
        fixable = [f for f in report.findings if f.repair is not None]
        if not fixable:
            break
        for finding in fixable:
            finding.repair()
            actions.append(f"{finding.kind}"
                           + (f" [{finding.model}]" if finding.model
                              else ""))
            if obs is not None:
                obs.metrics.counter(
                    f"fsck.repairs.{finding.kind}").inc()
        passes += 1
        report = fsck(pool, obs=obs)
    if obs is not None:
        obs.metrics.counter("fsck.repair_passes").inc(passes)
    return RepairResult(actions, passes, report)
