"""Generic cache array used for L1 and L2 (secondary) caches.

The R4400's primary and secondary caches are direct-mapped (§3.1.1), so
the array is a slot table: one line per set.  Lines carry real data words
— the simulator moves actual values through the coherence protocol, which
is how the test suite can assert that sequential consistency holds (stale
data is a test failure, not a silent inaccuracy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.states import CacheState


@dataclass(slots=True)
class CacheLine:
    addr: int
    state: CacheState
    data: List = field(default_factory=list)

    def __repr__(self) -> str:
        return f"CacheLine({self.addr:#x} {self.state.value})"


class CacheArray:
    """A direct-mapped write-back cache array.

    Slots materialize lazily: a 1 MB L2 has 16K sets, and a 64-processor
    machine builds 128 cache arrays, so eagerly allocating every slot
    dominates machine construction time for short runs and sweeps.
    """

    __slots__ = ("name", "line_bytes", "num_sets", "_slots")

    def __init__(self, name: str, size_bytes: int, line_bytes: int) -> None:
        if size_bytes % line_bytes:
            raise ValueError(f"{name}: size not a multiple of the line size")
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // line_bytes
        # set index -> resident CacheLine; an empty slot has no key
        self._slots: Dict[int, CacheLine] = {}

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        line = self._slots.get((line_addr // self.line_bytes) % self.num_sets)
        if line is not None and line.addr == line_addr:
            return line
        return None

    def install(
        self, line_addr: int, state: CacheState, data: Optional[List]
    ) -> Optional[CacheLine]:
        """Insert / replace a line; returns the evicted victim, if any.

        A returned victim in DIRTY state must be written back by the caller.
        """
        idx = (line_addr // self.line_bytes) % self.num_sets
        line = self._slots.get(idx)
        if line is not None and line.addr == line_addr:
            victim = None
            line.state = state
        else:
            victim = line
            line = self._slots[idx] = CacheLine(addr=line_addr, state=state)
        if data is not None:
            line.data = data
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (coherence invalidation); returns it if present."""
        idx = (line_addr // self.line_bytes) % self.num_sets
        line = self._slots.get(idx)
        if line is None or line.addr != line_addr:
            return None
        del self._slots[idx]
        return line

    def downgrade(self, line_addr: int) -> Optional[CacheLine]:
        """DIRTY -> SHARED (ownership surrendered, data kept)."""
        line = self.lookup(line_addr)
        if line is not None and line.state is CacheState.DIRTY:
            line.state = CacheState.SHARED
        return line

    def lines(self):
        # set-index order, matching the eager-list behaviour exactly
        slots = self._slots
        for idx in sorted(slots):
            yield slots[idx]
