"""Double-mapping crash consistency (paper §III-D2, Fig. 6).

Every model owns two identically-structured checkpoint versions.  A
checkpoint writes the slot that does *not* hold the newest DONE data:

1. ``begin_checkpoint`` stamps the target slot ACTIVE (persisted) —
   restores will never trust it from this point on;
2. the daemon pulls tensor data into the target TensorData region;
3. ``commit_checkpoint`` stamps it DONE with the step number (persisted).

A crash anywhere in between leaves the target ACTIVE and the other slot's
last DONE state intact, so ``valid_checkpoint`` always finds the newest
complete version (or reports none for a never-checkpointed model).  No
space is allocated and no RDMA connection is re-created per checkpoint —
the whole point of the scheme versus write-new-file-and-rename.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.index import FLAG_ACTIVE, FLAG_DONE, FLAG_EMPTY, ModelMeta
from repro.errors import CheckpointInProgress, NoValidCheckpoint


def begin_checkpoint(meta: ModelMeta) -> int:
    """Stamp the target slot ACTIVE; returns the target version index."""
    flags = meta.read_flags()
    target = flags.checkpoint_target()
    flags.states[target] = FLAG_ACTIVE
    meta.write_flags(flags)
    return target


def commit_checkpoint(meta: ModelMeta, version: int, step: int) -> None:
    """Stamp *version* DONE at *step*; the checkpoint becomes restorable."""
    flags = meta.read_flags()
    if flags.states[version] != FLAG_ACTIVE:
        raise CheckpointInProgress(
            f"commit of version {version} which is not ACTIVE "
            f"(flags: {flags!r})")
    flags.states[version] = FLAG_DONE
    flags.steps[version] = step
    meta.write_flags(flags)


def abort_checkpoint(meta: ModelMeta, version: int,
                     data_dirty: bool = False) -> None:
    """Roll the target slot back after a failed pull (client vanished).

    *data_dirty* says whether any bytes already landed in the slot's
    TensorData region (a completed pull WR).  A dirty slot can no
    longer be trusted at its old step — part of its bytes belong to the
    aborted checkpoint — so it is invalidated (EMPTY, step 0) rather
    than rolled back to DONE;
    the sibling slot's last DONE version keeps the model restorable.
    Only an untouched slot may return to DONE at its old step.
    """
    flags = meta.read_flags()
    if flags.states[version] == FLAG_ACTIVE:
        if data_dirty:
            flags.states[version] = FLAG_EMPTY
            flags.steps[version] = 0
        else:
            flags.states[version] = (FLAG_DONE if flags.steps[version] > 0
                                     else FLAG_EMPTY)
        meta.write_flags(flags)


def valid_checkpoint(meta: ModelMeta) -> Tuple[int, int]:
    """The newest restorable version as ``(version, step)``.

    Raises :class:`NoValidCheckpoint` when neither slot is DONE — e.g.
    after a crash during the very first checkpoint.
    """
    flags = meta.read_flags()
    newest = flags.newest_done()
    if newest is None:
        raise NoValidCheckpoint(
            f"{meta.mindex.model_name}: no completed checkpoint "
            f"(flags: {flags!r})")
    return newest, flags.steps[newest]


def checkpoint_at_step(meta: ModelMeta, step: int) -> int:
    """The version index holding a DONE checkpoint at exactly *step*.

    Group restores pin every member to the group's committed step; the
    double-slot target rule (never overwrite the newest DONE slot)
    guarantees each member still holds that step as long as no later
    group commit landed.  Raises :class:`NoValidCheckpoint` when neither
    slot is DONE at *step*.
    """
    flags = meta.read_flags()
    best = None
    for version in range(len(flags.states)):
        if (flags.states[version] == FLAG_DONE
                and flags.steps[version] == step):
            best = version
    if best is None:
        raise NoValidCheckpoint(
            f"{meta.mindex.model_name}: no completed checkpoint at step "
            f"{step} (flags: {flags!r})")
    return best
