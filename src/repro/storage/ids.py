"""Monotonically increasing ID allocation (paper Section 4).

Neo4j combines fixed-size records with a monotonically increasing ID
generator so offsets are computable in O(1) and records pack tightly.
Hermes keeps the monotonic generator (new records always get the next,
highest ID) but drops offset addressing, since migration moves records
between servers: an id->slot index (a hash table here) locates a record
whatever its id.

Each server allocates from its own *stripe* of the ID space —
``server_id + i * num_servers`` — so distributed allocation never
collides without coordination.
"""

from __future__ import annotations

from repro.exceptions import StorageError


class IdAllocator:
    """Monotonic allocator over an optionally striped ID space."""

    def __init__(self, stripe: int = 0, num_stripes: int = 1, start: int = 0):
        if num_stripes < 1:
            raise StorageError(f"num_stripes must be >= 1, got {num_stripes}")
        if not 0 <= stripe < num_stripes:
            raise StorageError(
                f"stripe {stripe} out of range [0, {num_stripes})"
            )
        self.stripe = stripe
        self.num_stripes = num_stripes
        self._counter = max(0, start)

    def allocate(self) -> int:
        """Return the next ID; strictly increasing across calls."""
        allocated = self._counter * self.num_stripes + self.stripe
        self._counter += 1
        return allocated

    def peek(self) -> int:
        """The ID the next :meth:`allocate` call would return."""
        return self._counter * self.num_stripes + self.stripe

    def observe(self, external_id: int) -> None:
        """Advance past an externally produced ID (e.g. a migrated record).

        Guarantees that future allocations never collide with IDs created
        by other servers and later migrated here.
        """
        if external_id < 0:
            raise StorageError(f"IDs are non-negative, got {external_id}")
        needed = external_id // self.num_stripes + 1
        if needed > self._counter:
            self._counter = needed

    @property
    def allocated_count(self) -> int:
        return self._counter
