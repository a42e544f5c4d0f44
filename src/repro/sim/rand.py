"""Seeded, named random streams.

Every stochastic element of the simulation (failure injection, crash-point
selection, jitter) draws from a named stream derived from one master seed,
so adding a new consumer never perturbs the draws of existing ones and runs
are reproducible from a single integer.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RandomStreams:
    """A family of independent :class:`random.Random` instances."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        if name not in self._streams:
            # Derive a per-name seed that is stable across runs and Python
            # versions (hash() is salted; crc32 is not).
            derived = zlib.crc32(name.encode("utf-8")) ^ (self.master_seed * 0x9E3779B1)
            self._streams[name] = random.Random(derived & 0xFFFFFFFFFFFF)
        return self._streams[name]
