"""Consistent-hash placement ring: ``(tenant, model)`` -> shard.

The ring hashes every shard name onto ``vnodes`` points of a 64-bit
circle and assigns a key to the first point clockwise from the key's
own hash.  Two properties matter here and both are tested:

* **determinism** — points come from BLAKE2b digests, never the salted
  builtin ``hash``, so the mapping is bit-identical across runs *and*
  across ``PYTHONHASHSEED`` values;
* **stability** — adding one shard only moves the keys whose
  clockwise successor changed, roughly ``1/n`` of the keyspace.

Migration uses the **pin table**: :meth:`PlacementRing.assign` pins a
key to an explicit owner, overriding the hash mapping.  The fleet
client flips a model's pin *after* the destination daemon has committed
the copied checkpoint, so a lookup never points at a shard that cannot
serve the model (DESIGN.md §13).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.errors import ReproError

#: Virtual nodes per shard.  128 points keeps the max/min keyspace
#: imbalance under ~1.3x for small fleets while staying cheap to build.
DEFAULT_VNODES = 128


def _digest64(data: bytes) -> int:
    """A 64-bit point on the ring, independent of PYTHONHASHSEED."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


def ring_key(tenant: str, model: str) -> str:
    """The placement key for one model instance of one tenant."""
    return f"{tenant}/{model}"


class PlacementRing:
    """Deterministic consistent-hash ring with a migration pin table."""

    def __init__(self, nodes: Iterable[str] = (),
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._points: List[int] = []      # sorted hash points
        self._owners: List[str] = []      # owner per point (parallel)
        self._nodes: Dict[str, List[int]] = {}  # node -> its points
        self._pins: Dict[str, str] = {}   # key -> explicitly pinned node
        self.version = 0                  # bumped on every mutation
        for node in nodes:
            self.add_node(node)

    # -- membership -------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ReproError(f"ring already contains node {node!r}")
        points = []
        for replica in range(self.vnodes):
            point = _digest64(f"{node}#{replica}".encode("utf-8"))
            # A 64-bit collision across vnode labels is effectively
            # impossible; refuse loudly rather than silently overwrite.
            idx = bisect.bisect_left(self._points, point)
            if idx < len(self._points) and self._points[idx] == point:
                raise ReproError(f"ring point collision at {point:#x}")
            self._points.insert(idx, point)
            self._owners.insert(idx, node)
            points.append(point)
        self._nodes[node] = points
        self.version += 1

    # -- lookup -----------------------------------------------------------

    def lookup(self, tenant: str, model: str) -> str:
        """The shard owning ``(tenant, model)`` (pin wins over hash)."""
        key = ring_key(tenant, model)
        pinned = self._pins.get(key)
        if pinned is not None:
            return pinned
        return self._hash_owner(key)

    def _hash_owner(self, key: str) -> str:
        if not self._points:
            raise ReproError("placement ring has no nodes")
        point = _digest64(key.encode("utf-8"))
        idx = bisect.bisect_right(self._points, point)
        if idx == len(self._points):
            idx = 0  # wrap: first point clockwise from 2^64
        return self._owners[idx]

    # -- migration pins ---------------------------------------------------

    def assign(self, tenant: str, model: str, node: str) -> None:
        """Pin a key to *node*, overriding the hash placement."""
        if node not in self._nodes:
            raise ReproError(f"cannot pin to unknown node {node!r}")
        self._pins[ring_key(tenant, model)] = node
        self.version += 1

    def unpin(self, tenant: str, model: str) -> None:
        if self._pins.pop(ring_key(tenant, model), None) is not None:
            self.version += 1

    def pinned(self, tenant: str, model: str) -> bool:
        return ring_key(tenant, model) in self._pins

    # -- introspection ----------------------------------------------------

    def spread(self, keys: Iterable[Tuple[str, str]]) -> Dict[str, int]:
        """How many of *keys* land on each shard (pins included)."""
        counts = {node: 0 for node in self._nodes}
        for tenant, model in keys:
            counts[self.lookup(tenant, model)] += 1
        return counts

    def __repr__(self) -> str:
        return (f"<PlacementRing nodes={len(self._nodes)} "
                f"vnodes={self.vnodes} pins={len(self._pins)} "
                f"v{self.version}>")
