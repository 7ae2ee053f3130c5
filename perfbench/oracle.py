"""Brute-force correctness oracle: a numpy shadow of the benchmark table.

The shadow mirrors every row the benchmark hands to the engine (the load,
and the inserts, updates and deletes of ``ingest-mixed``), addressed by the
row location the engine returned.  Locations are append-only slots in
``repro.storage.Table``, so the shadow is a set of growable column arrays
plus a liveness mask.  An answer is a full-column boolean mask per
predicate -- no engine structure is consulted -- so it is slow and
obviously right, and the benchmark only calls it outside the timed region.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.query import ConjunctiveQuery, QueryRequest, QueryResult


class Shadow:
    """Column arrays and a liveness mask indexed by row location."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        count = len(next(iter(columns.values())))
        capacity = max(64, 2 * count)
        self._columns = {}
        for name, values in columns.items():
            array = np.zeros(capacity, dtype=np.float64)
            array[:count] = values
            self._columns[name] = array
        self._live = np.zeros(capacity, dtype=bool)
        self._live[:count] = True
        self.num_slots = count

    def column(self, name: str) -> np.ndarray:
        """Values of ``name`` for every slot (dead ones included)."""
        return self._columns[name][:self.num_slots]

    def is_live(self, location: int) -> bool:
        return 0 <= location < self.num_slots and bool(self._live[location])

    def insert(self, locations: Sequence[int],
               columns: dict[str, np.ndarray]) -> None:
        """Record rows the engine stored at ``locations``."""
        locations = np.asarray(locations, dtype=np.int64)
        needed = int(locations.max()) + 1 if locations.size else 0
        if needed > self._live.size:
            capacity = max(needed, 2 * self._live.size)
            for name, array in self._columns.items():
                grown = np.zeros(capacity, dtype=np.float64)
                grown[:array.size] = array
                self._columns[name] = grown
            live = np.zeros(capacity, dtype=bool)
            live[:self._live.size] = self._live
            self._live = live
        for name, values in columns.items():
            self._columns[name][locations] = values
        self._live[locations] = True
        self.num_slots = max(self.num_slots, needed)

    def update(self, location: int, changes: dict[str, float]) -> None:
        for name, value in changes.items():
            self._columns[name][location] = value

    def delete(self, location: int) -> None:
        self._live[location] = False

    def answer(self, query: ConjunctiveQuery) -> np.ndarray:
        """Sorted locations of the live rows matching every predicate."""
        mask = self._live[:self.num_slots].copy()
        for predicate in query:
            values = self.column(predicate.column)
            mask &= values >= predicate.low
            mask &= values <= predicate.high
        return np.flatnonzero(mask)

    def count_wrong(self, requests: Sequence[QueryRequest],
                    results: Sequence[QueryResult]) -> int:
        """Number of results whose locations differ from the oracle's."""
        return sum(
            not matches(result, self.answer(request.query))
            for request, result in zip(requests, results)
        )


def matches(result: QueryResult, expected: np.ndarray) -> bool:
    """Whether a result holds exactly ``expected`` (order-insensitive)."""
    got = np.sort(np.asarray(result.locations, dtype=np.int64))
    return np.array_equal(got, expected)
