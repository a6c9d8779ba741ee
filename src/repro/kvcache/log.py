"""Log-structured memory for master copies.

RAMCloud stores master data in an append-only log divided into
segments; deletions leave dead bytes that a cleaner later reclaims by
relocating live entries and freeing the segment.  This module models
that structure faithfully enough to expose its externally visible
behaviour: memory *footprint* (allocated segments) can exceed *live*
bytes until the cleaner runs, and the cleaner's work is proportional to
the live bytes it relocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.kvcache.errors import CacheError
from repro.sim.latency import MB

SEGMENT_SIZE = 8 * MB


@dataclass
class Segment:
    """One log segment: capacity plus live/dead byte accounting."""

    capacity: int = SEGMENT_SIZE
    live: Dict[str, int] = field(default_factory=dict)
    dead_bytes: int = 0
    #: Running sum of ``live.values()``, maintained by the owning log's
    #: append/delete (integer arithmetic, so it is exactly the sum).
    live_total: int = 0

    @property
    def live_bytes(self) -> int:
        return self.live_total

    @property
    def used_bytes(self) -> int:
        return self.live_bytes + self.dead_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of capacity occupied by live entries."""
        if self.capacity == 0:
            return 0.0
        return self.live_bytes / self.capacity


@dataclass
class LogStats:
    appends: int = 0
    deletes: int = 0
    cleanings: int = 0
    segments_freed: int = 0
    relocated_bytes: int = 0


class ObjectLog:
    """Append-only segmented log with a utilization-driven cleaner."""

    def __init__(self, segment_size: int = SEGMENT_SIZE):
        if segment_size <= 0:
            raise CacheError("segment size must be positive")
        self.segment_size = segment_size
        self._segments: List[Segment] = []
        self._head: Segment = self._new_segment()
        self._locations: Dict[str, Segment] = {}
        self.stats = LogStats()
        #: Running total of live bytes across segments (exact: ints).
        self._live_total = 0
        #: Running total of the capacities of segments holding any bytes
        #: (exact: ints): charged when a segment's first entry lands,
        #: released when a used segment is freed.
        self._footprint = 0

    def _new_segment(self, capacity: int = 0) -> Segment:
        segment = Segment(capacity=capacity or self.segment_size)
        self._segments.append(segment)
        return segment

    # -- accounting ---------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self._live_total

    @property
    def footprint_bytes(self) -> int:
        """Bytes of allocated segments (what the memory pool must hold).

        A never-written (fully empty) segment is only a reservation and
        is not charged against the pool, so an empty log has footprint 0.
        """
        return self._footprint

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def __contains__(self, key: str) -> bool:
        return key in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    def keys(self):
        return self._locations.keys()

    # -- mutation -----------------------------------------------------------

    def append(self, key: str, size: int) -> None:
        """Append an entry; an existing entry for ``key`` becomes dead."""
        if size < 0:
            raise CacheError("entry size must be non-negative")
        if key in self._locations:
            self.delete(key)
        if size > self.segment_size:
            # Jumbo entry: dedicated segment of exact size.
            segment = self._new_segment(capacity=size)
        elif size > self._head.free_bytes:
            self._head = self._new_segment()
            segment = self._head
        else:
            segment = self._head
        if size and not segment.used_bytes:
            self._footprint += segment.capacity
        segment.live[key] = size
        segment.live_total += size
        self._live_total += size
        self._locations[key] = segment
        self.stats.appends += 1

    def delete(self, key: str) -> int:
        """Mark the entry dead; returns its size."""
        segment = self._locations.pop(key, None)
        if segment is None:
            raise CacheError(f"key not in log: {key}")
        size = segment.live.pop(key)
        segment.live_total -= size
        segment.dead_bytes += size
        self._live_total -= size
        self.stats.deletes += 1
        # A fully dead, non-head segment is reclaimed immediately.
        if segment is not self._head and not segment.live:
            self._free(segment)
        return size

    def _free(self, segment: Segment) -> None:
        self._segments.remove(segment)
        if segment.used_bytes:
            self._footprint -= segment.capacity
        self.stats.segments_freed += 1

    def clean(self, max_utilization: float = 0.75) -> Tuple[int, int]:
        """Relocate live entries out of under-utilized closed segments.

        Returns (segments freed, live bytes relocated).  Relocation uses
        the normal append path, so the cleaner itself can open new head
        segments — exactly like RAMCloud's cleaner.
        """
        victims = [
            seg
            for seg in list(self._segments)
            if seg is not self._head and seg.utilization < max_utilization
        ]
        freed = 0
        relocated = 0
        for segment in victims:
            if segment not in self._segments:
                continue  # already freed by a delete during relocation
            entries = list(segment.live.items())
            for key, size in entries:
                self.delete(key)  # may auto-free the segment on last entry
                self.append(key, size)
                relocated += size
            if segment in self._segments:
                self._free(segment)
            freed += 1
        self.stats.cleanings += 1
        self.stats.relocated_bytes += relocated
        return freed, relocated
