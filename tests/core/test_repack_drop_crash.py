"""Crash-point sweep of the repacking tool dropping a whole model.

``repack`` drops a model that has no DONE version.  The drop follows
unregister's ordering — the ModelTable entry goes (committed) before any
extent is freed — so power loss at any of its metadata boundaries leaves
either the whole model or leaked extents fsck reclaims, never a table
entry over freed metadata that no daemon could open at recovery.
"""

import random

from repro.core.index import ModelMeta, ModelTable
from repro.core.repack import repack
from repro.dnn.tensor import TensorSpec
from repro.errors import PowerFailure
from repro.faults.crashpoints import (CrashPointRecorder,
                                     schedule_fingerprint)
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.pmem.fsck import (K_DANGLING_META, K_VERSION_EXTENT_MISSING,
                             fsck, repair)
from repro.sim import Environment
from repro.units import gib

SPECS = [TensorSpec("w", (1024, 512)), TensorSpec("b", (1024,))]


def _drop_scenario(crash_index):
    """One never-checkpointed model, repacked with a power fault armed
    at *crash_index* (None = counting pass)."""
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    pool = PmemPool.format(device, max_extents=4096)
    table = ModelTable.create(pool, max_models=8)
    meta = ModelMeta.create(pool, "crashed-job", SPECS)
    table.insert("crashed-job", meta.meta.addr)
    rng = random.Random(29)
    recorder = CrashPointRecorder(device, crash_at=crash_index,
                                  power_fail=lambda: device.crash(rng))
    try:
        report = repack(pool, table)
    except PowerFailure:
        report = None
    recorder.disarm()
    return device, recorder, report


def test_repack_drop_sweep_never_dangles_a_table_entry():
    _device, recorder, report = _drop_scenario(None)
    assert report.models_dropped == ["crashed-job"]
    for index in range(recorder.count):
        device, recorder, report = _drop_scenario(index)
        assert report is None, f"boundary {index} did not fire"
        context = f"crash at {recorder.fired}"
        recovered = PmemPool.open(device)
        # What a restarting daemon does first: open every table name.
        table = ModelTable.open(recovered)
        for name in table.names():
            ModelMeta.open(recovered, table.lookup(name))
        kinds = fsck(recovered).kinds()
        assert K_DANGLING_META not in kinds, context
        assert K_VERSION_EXTENT_MISSING not in kinds, context
        assert repair(recovered).clean, context


#: The counting pass's :func:`schedule_fingerprint`: the ModelTable
#: commit, then the frees of both data regions and the metadata region.
PINNED_REPACK_DROP_SCHEDULE = (
    11, "6de762e58cb3e9ea3c71bdf206c1fa07b8706801d18a0e7ed23928b5d9d59ee7")


def test_repack_drop_boundary_schedule_is_deterministic():
    first = _drop_scenario(None)[1].boundaries
    second = _drop_scenario(None)[1].boundaries
    assert first == second
    assert schedule_fingerprint(first) == PINNED_REPACK_DROP_SCHEDULE
