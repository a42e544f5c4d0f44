"""Abort semantics for partially-pulled checkpoint slots.

The original abort always rolled an ACTIVE slot back to DONE at its old
step.  That is only safe while the slot's TensorData is untouched: once
any bytes of the aborted checkpoint landed (a completed pull WR), the
slot holds a mix of two steps and must be invalidated instead.
``ModelMeta.abort``'s ``landed`` carries that signal from the daemon's
abort path.
"""

import pytest

from repro.core.index import FLAG_ACTIVE, FLAG_DONE, FLAG_EMPTY, ModelMeta
from repro.dnn.tensor import TensorSpec
from repro.errors import NoValidCheckpoint
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib


@pytest.fixture
def pool():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(8))
    return PmemPool.format(device, max_extents=4096)


SPECS = [TensorSpec("w", (64, 64)), TensorSpec("b", (64,))]


def _meta_with_two_commits(pool):
    """Both slots DONE — the torn-slot window only opens once the
    checkpoint target is a slot that previously held real data."""
    meta = ModelMeta.create(pool, "m", SPECS)
    v1 = meta.begin()
    meta.commit(v1, step=7)
    v2 = meta.begin()
    meta.commit(v2, step=8)
    return meta


def test_dirty_abort_invalidates_the_torn_slot(pool):
    meta = _meta_with_two_commits(pool)
    target = meta.begin()  # overwrites the DONE@7 slot
    assert meta.read_flags().steps[target] == 7
    meta.abort(target, landed=True)
    flags = meta.read_flags()
    assert flags.states[target] == FLAG_EMPTY
    assert flags.steps[target] == 0
    # The sibling's DONE version keeps the model restorable.
    assert meta.restorable() == (1 - target, 8)


def test_clean_abort_still_rolls_back_to_done(pool):
    meta = _meta_with_two_commits(pool)
    target = meta.begin()
    meta.abort(target, landed=False)
    flags = meta.read_flags()
    assert flags.states[target] == FLAG_DONE
    assert flags.steps[target] == 7
    # With both slots DONE again, the newer step wins.
    assert meta.restorable() == (1 - target, 8)


def test_dirty_abort_of_first_checkpoint_stays_empty(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    target = meta.begin()
    meta.abort(target, landed=True)
    flags = meta.read_flags()
    assert flags.states[target] == FLAG_EMPTY
    assert flags.steps[target] == 0
    with pytest.raises(NoValidCheckpoint):
        meta.restorable()


def test_abort_ignores_non_active_slots(pool):
    meta = _meta_with_two_commits(pool)
    flags_before = meta.read_flags()
    meta.abort(0, landed=True)  # slot 0 is DONE, not ACTIVE
    flags_after = meta.read_flags()
    assert flags_after.states == flags_before.states
    assert flags_after.steps == flags_before.steps


def test_dirty_abort_then_next_checkpoint_reuses_the_slot(pool):
    meta = _meta_with_two_commits(pool)
    target = meta.begin()
    meta.abort(target, landed=True)
    # The invalidated slot is the natural next target (its sibling holds
    # the newest DONE), and a clean run through it restores normal life.
    retry = meta.begin()
    assert retry == target
    meta.commit(retry, step=9)
    assert meta.restorable() == (retry, 9)
    assert meta.read_flags().states[retry] == FLAG_DONE


def test_abort_after_crash_redo_window(pool):
    """ACTIVE slot found at recovery (daemon restarted mid-pull): the
    recovery path aborts it dirty — the pull progress is unknown."""
    meta = _meta_with_two_commits(pool)
    target = meta.begin()
    # Simulate recovery-time repair of the torn slot.
    assert meta.read_flags().states[target] == FLAG_ACTIVE
    meta.abort(target, landed=True)
    assert meta.restorable() == (1 - target, 8)
