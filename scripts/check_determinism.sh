#!/usr/bin/env bash
# Determinism check for the chaos suite: run the same randomized fault
# schedules twice with the same seed and diff the per-schedule traces.
# Any divergence (different fault plan, different acked set, different
# restored step) means a hidden source of nondeterminism crept into the
# simulator or the fault injector.  The suite is the chaos, operator,
# fleet, group-crash, dedup-crash and torn-slot sweeps (the dedup crash
# sweep power-fails the chunk store's refcount and spare-recycling
# boundaries; the torn-slot sweep exercises the checkpoint abort's torn
# test and repack_live's compaction move).
#
# Usage: scripts/check_determinism.sh [examples] [seed]
set -euo pipefail

cd "$(dirname "$0")/.."

EXAMPLES="${1:-${PORTUS_CHAOS_EXAMPLES:-40}}"
SEED="${2:-${PORTUS_CHAOS_SEED:-0}}"
OPS_EXAMPLES="${PORTUS_OPS_EXAMPLES:-$EXAMPLES}"
# The fleet sweep runs 3-shard schedules end to end (~1.5s each), so
# its default is smaller than the single-daemon sweeps'.
FLEET_EXAMPLES="${PORTUS_FLEET_EXAMPLES:-8}"
# The group and dedup crash sweeps replay a full lifecycle per boundary;
# tier-1 covers every boundary, so the determinism pass subsamples.
CRASH_STRIDE="${PORTUS_CRASHPOINT_STRIDE:-7}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

run() {
    local trace="$1"
    PYTHONPATH=src \
    PORTUS_CHAOS_EXAMPLES="$EXAMPLES" \
    PORTUS_OPS_EXAMPLES="$OPS_EXAMPLES" \
    PORTUS_FLEET_EXAMPLES="$FLEET_EXAMPLES" \
    PORTUS_CRASHPOINT_STRIDE="$CRASH_STRIDE" \
    PORTUS_CHAOS_SEED="$SEED" \
    PORTUS_TORN_EXAMPLES="$EXAMPLES" \
    PORTUS_TORN_SEED="$SEED" \
    CHAOS_TRACE="$trace" \
        python -m pytest tests/faults/test_chaos_properties.py \
            tests/faults/test_operator_chaos.py \
            tests/faults/test_fleet_chaos.py \
            tests/faults/test_group_crash.py \
            tests/faults/test_dedup_crash_points.py \
            tests/faults/test_torn_slot.py -q -x \
            -p no:cacheprovider >"$trace.log" 2>&1 || {
        echo "chaos suite failed; last lines of $trace.log:" >&2
        tail -20 "$trace.log" >&2
        exit 1
    }
}

echo "chaos determinism: $EXAMPLES schedules, seed $SEED, two runs..."
run "$WORKDIR/trace-a"
run "$WORKDIR/trace-b"

if ! diff -u "$WORKDIR/trace-a" "$WORKDIR/trace-b"; then
    echo "FAIL: chaos traces diverged between identical runs" >&2
    exit 1
fi
echo "OK: $(wc -l <"$WORKDIR/trace-a") trace lines, bit-identical."
