"""Outlier buffers of TRS-Tree leaf nodes.

A leaf's linear model does not have to cover every tuple in its range; tuples
whose host value falls outside the confidence band are *outliers* and are kept
in a per-leaf hash table mapping the target-column value to the tuple
identifiers (Section 4.1).  During a lookup the buffer is probed with the
query range and the matching identifiers are returned directly, bypassing the
host index.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import chain
from typing import Iterator

import numpy as np

from repro.index.base import KeyRange, tid_items
from repro.segments import BISECT_PROBE_COST, FlatView, offsets_from_counts
from repro.storage.identifiers import TupleId
from repro.storage.memory import DEFAULT_SIZE_MODEL, SizeModel


class OutlierBuffer:
    """Hash table from target-column value to tuple identifiers.

    Point probes (inserts/deletes and point queries) go straight through the
    hash map; range probes use a sorted view of the keys so a lookup costs
    ``O(log k + matches)`` instead of scanning the whole buffer — without
    this, a leaf holding the injected noise of a large table would be scanned
    in full by every range query, which is not how the paper's numbers behave
    (Hermit's throughput is stable up to 10% noise, Figures 16 and 27).
    """

    def __init__(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        self._size_model = size_model
        self._entries: dict[float, list[TupleId]] = defaultdict(list)
        self._sorted_keys: list[float] = []
        self._count = 0
        # Flat view for lookup_many, dropped on any write and built only
        # once a write-free window's batches pay for it — demoted leaves
        # can hold a large fraction of the table, so a flatten is not free.
        self._flat_view = FlatView()

    def add(self, target_value: float, tid: TupleId) -> None:
        """Record ``tid`` as an outlier with target value ``target_value``."""
        if target_value not in self._entries:
            bisect.insort(self._sorted_keys, target_value)
        self._entries[target_value].append(tid)
        self._count += 1
        self._flat_view.drop()

    def add_many(self, target_values, tids) -> None:
        """Batched :meth:`add`: group by value, extend each bucket once.

        The sorted key view is rebuilt with a single merge of two sorted
        runs instead of one ``insort`` (O(k) memmove) per new key, which is
        what keeps bulk inserts into noisy leaves linear.
        """
        values = np.asarray(target_values, dtype=np.float64)
        items = tid_items(tids)
        count = int(values.size)
        if count == 0:
            return
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        run_starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_values)) + 1]
        )
        run_stops = np.concatenate([run_starts[1:], [count]])
        positions = order.tolist()
        new_keys: list[float] = []
        # repro: ignore[REP004] -- iterates distinct-key runs, not elements;
        # bucket dicts have no array form to extend in one pass
        for start, stop in zip(run_starts.tolist(), run_stops.tolist()):
            value = float(sorted_values[start])
            if value not in self._entries:
                new_keys.append(value)
            self._entries[value].extend(
                items[positions[index]] for index in range(start, stop)
            )
        if new_keys:
            # Both runs are sorted, so Timsort merges them in one pass.
            self._sorted_keys = sorted(self._sorted_keys + new_keys)
        self._count += count
        self._flat_view.drop()

    def remove(self, target_value: float, tid: TupleId) -> bool:
        """Remove ``tid`` from the bucket of ``target_value``.

        Returns:
            True if the pair was present and removed, False otherwise.  The
            paper's delete path simply "removes the corresponding entry if
            exists", so a miss is not an error.
        """
        tids = self._entries.get(target_value)
        if not tids or tid not in tids:
            return False
        tids.remove(tid)
        if not tids:
            del self._entries[target_value]
            position = bisect.bisect_left(self._sorted_keys, target_value)
            if (position < len(self._sorted_keys)
                    and self._sorted_keys[position] == target_value):
                self._sorted_keys.pop(position)
        self._count -= 1
        self._flat_view.drop()
        return True

    def lookup(self, target_range: KeyRange) -> list[TupleId]:
        """Tuple identifiers whose target value lies in ``target_range``.

        The matching buckets are concatenated in a single C-level pass, so
        the result is one flat list that callers (the vectorized Hermit
        lookup) can hand to ``np.asarray`` without a second copy.
        """
        return self._range_tids(target_range.low, target_range.high)

    def lookup_many(self, lows: np.ndarray, highs: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`lookup`: one segmented result for many ranges.

        Returns ``(tids, offsets)`` in the ``repro.segments`` layout — query
        ``i`` owns ``tids[offsets[i]:offsets[i + 1]]``, in the same key-major
        bucket order as the scalar path.  :class:`~repro.segments.FlatView`
        serves the batch off the flat view once it pays off inside the
        current write-free window, and per range otherwise.
        """
        return self._flat_view.probe(lows, highs, BISECT_PROBE_COST,
                                     self._count, self._flattened,
                                     self._range_tids)

    def _range_tids(self, low: float, high: float) -> list[TupleId]:
        start = bisect.bisect_left(self._sorted_keys, low)
        stop = bisect.bisect_right(self._sorted_keys, high)
        if start == stop:
            return []
        entries = self._entries
        return list(chain.from_iterable(
            entries[key] for key in self._sorted_keys[start:stop]
        ))

    def _flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the flat view: sorted keys, per-key tid offsets, flat tids.

        Tids are concatenated bucket-by-bucket in key order — exactly the
        order :meth:`lookup` emits — so a batch of range probes reduces to
        two ``searchsorted`` calls and one gather.
        """
        keys = np.asarray(self._sorted_keys, dtype=np.float64)
        counts = np.fromiter(
            (len(self._entries[key]) for key in self._sorted_keys),
            dtype=np.int64, count=len(self._sorted_keys),
        )
        flat = list(chain.from_iterable(
            self._entries[key] for key in self._sorted_keys
        ))
        tids = np.asarray(flat) if flat else np.empty(0, dtype=np.int64)
        return keys, offsets_from_counts(counts), tids

    def lookup_point(self, target_value: float) -> list[TupleId]:
        """Tuple identifiers stored exactly under ``target_value``."""
        return list(self._entries.get(target_value, ()))

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (target value, tid) pairs."""
        for value, tids in self._entries.items():
            for tid in tids:
                yield value, tid

    def __len__(self) -> int:
        return self._count

    def __contains__(self, target_value: float) -> bool:
        return target_value in self._entries

    def clear(self) -> None:
        """Drop all outliers."""
        self._entries.clear()
        self._sorted_keys.clear()
        self._count = 0
        self._flat_view.drop()

    def memory_bytes(self) -> int:
        """Analytic size in bytes."""
        return self._size_model.hash_table_bytes(self._count)
