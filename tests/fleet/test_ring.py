"""Placement-ring contracts: determinism, stability, and pins.

The ring is the fleet's source of truth for where a ``(tenant, model)``
lives, so its two load-bearing properties get direct tests:

* **determinism** — the mapping is a pure function of the node set and
  the key, independent of insertion order, process, and (critically)
  ``PYTHONHASHSEED``: ring points come from BLAKE2b, never the salted
  builtin ``hash``;
* **stability** — adding one node only moves the keys that land on
  that node: roughly ``1/n`` of them, never a full reshuffle.
"""

import os
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.fleet.ring import DEFAULT_VNODES, PlacementRing, ring_key

NODES = ("server", "server1", "server2", "server3")
KEYS = [(f"tenant{i:03d}", f"model{i % 7}") for i in range(400)]


def mapping(ring):
    return {ring_key(t, m): ring.lookup(t, m) for t, m in KEYS}


def test_lookup_is_insertion_order_independent():
    forward = PlacementRing(NODES)
    backward = PlacementRing(reversed(NODES))
    assert mapping(forward) == mapping(backward)


def test_every_node_owns_keys():
    ring = PlacementRing(NODES)
    owners = set(mapping(ring).values())
    assert owners == set(NODES), "a 128-vnode ring left a node empty"


def test_add_node_moves_only_its_keys():
    ring = PlacementRing(NODES)
    before = mapping(ring)
    ring.add_node("server4")
    after = mapping(ring)
    moved = {k for k in before if before[k] != after[k]}
    # Every moved key must have moved TO the new node (no collateral
    # reshuffling between surviving nodes)...
    assert all(after[k] == "server4" for k in moved)
    # ... and the new node takes roughly its fair 1/5 share.
    share = len(moved) / len(KEYS)
    assert 0.05 < share < 0.45, f"new node took {share:.0%} of the keys"


def test_pin_overrides_and_survives_until_unpin():
    ring = PlacementRing(NODES)
    natural = ring.lookup("tenantX", "resnet50")
    other = next(n for n in NODES if n != natural)
    ring.assign("tenantX", "resnet50", other)
    assert ring.lookup("tenantX", "resnet50") == other
    ring.unpin("tenantX", "resnet50")
    assert ring.lookup("tenantX", "resnet50") == natural


_SNAPSHOT_SCRIPT = r"""
import sys, zlib
sys.path.insert(0, {src!r})
from repro.fleet.ring import PlacementRing, ring_key
ring = PlacementRing({nodes!r})
keys = [(f"tenant{{i:03d}}", f"model{{i % 7}}") for i in range(400)]
lines = [f"{{ring_key(t, m)}}={{ring.lookup(t, m)}}" for t, m in keys]
print(zlib.crc32("\n".join(lines).encode()))
"""


def _mapping_crc(hash_seed):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    script = _SNAPSHOT_SCRIPT.format(src=os.path.abspath(src),
                                     nodes=NODES)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_mapping_identical_across_python_hash_seeds():
    """The whole point of BLAKE2b ring points: two interpreters with
    different hash salts agree on every placement."""
    crcs = {_mapping_crc(seed) for seed in (0, 1, 31337)}
    assert len(crcs) == 1, f"placement depends on PYTHONHASHSEED: {crcs}"


def test_vnode_collision_detection_exists():
    ring = PlacementRing(("server",), vnodes=DEFAULT_VNODES)
    with pytest.raises(ReproError):
        ring.add_node("server")  # duplicate node == guaranteed collision
