"""In-memory B+-tree.

This is the conventional secondary index the paper calls "Baseline", and it is
also used as the host index and as the primary index of the in-memory engine.
Keys are numeric; the tree is non-unique (several tuple identifiers may be
stored under the same key), which matches how a secondary index on a data
column behaves.

The implementation is a textbook B+-tree: sorted keys inside fixed-capacity
nodes, leaf-level sibling chaining for range scans, top-down descent with
bottom-up splits.  Leaves hold one ``(key, tid)`` entry per slot in two
parallel lists — a key stored under several tids repeats, and its run may
span leaves — so an entry costs two list slots instead of a per-key tid
list, and a range walk copies one ``tids`` slice per leaf.  Deletion
removes entries but does not rebalance (leaves may become under-full);
this keeps the structure simple and does not affect any of the reproduced
experiments, none of which depend on shrink-side rebalancing.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import KeyNotFoundError, StorageError
from repro.index.base import Index, KeyRange, tid_items
from repro.segments import BISECT_PROBE_COST, RANGE_WALK_COST, FlatView
from repro.storage.identifiers import TupleId
from repro.storage.memory import DEFAULT_SIZE_MODEL, SizeModel

DEFAULT_NODE_CAPACITY = 32


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[float] = []


class _LeafNode(_Node):
    __slots__ = ("tids", "next_leaf")

    def __init__(self) -> None:
        super().__init__()
        # tids[i] is stored under keys[i]; equal keys keep insertion order
        self.tids: list[TupleId] = []
        self.next_leaf: _LeafNode | None = None

    @property
    def is_leaf(self) -> bool:
        return True


class _InternalNode(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        # len(children) == len(keys) + 1
        self.children: list[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BPlusTree(Index):
    """A non-unique in-memory B+-tree mapping numeric keys to tuple ids.

    Args:
        node_capacity: Maximum number of keys per node before it splits.
        size_model: Analytic cost model for :meth:`memory_bytes`.
    """

    def __init__(self, node_capacity: int = DEFAULT_NODE_CAPACITY,
                 size_model: SizeModel = DEFAULT_SIZE_MODEL) -> None:
        super().__init__()
        if node_capacity < 4:
            raise ValueError("node_capacity must be at least 4")
        self.node_capacity = node_capacity
        self._size_model = size_model
        self._root: _Node = _LeafNode()
        self._num_entries = 0
        self._height = 1
        # Flattened view of the leaf level for the segmented batch probes,
        # built only once a write-free window's batches pay for it; every
        # write drops it (see repro.segments.FlatView).
        self._flat_view = FlatView()

    # ------------------------------------------------------------------ write

    def insert(self, key: float, tid: TupleId) -> None:
        """Insert ``key -> tid``; duplicates of the same pair are allowed."""
        self.stats.inserts += 1
        split = self._insert_into(self._root, float(key), tid)
        if split is not None:
            separator, right = split
            new_root = _InternalNode()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._num_entries += 1
        self._flat_view.drop()

    def delete(self, key: float, tid: TupleId) -> None:
        """Remove one occurrence of ``key -> tid``.

        Raises:
            KeyNotFoundError: If the pair is not present.
        """
        self.stats.deletes += 1
        key = float(key)
        leaf: _LeafNode | None = self._find_leaf(key)
        start = bisect.bisect_left(leaf.keys, key)
        found = False
        while leaf is not None:
            stop = bisect.bisect_right(leaf.keys, key, start)
            found = found or stop > start
            if tid in leaf.tids[start:stop]:
                position = leaf.tids.index(tid, start, stop)
                del leaf.keys[position]
                del leaf.tids[position]
                self._num_entries -= 1
                self._flat_view.drop()
                return
            if stop < len(leaf.keys):
                break
            leaf = leaf.next_leaf
            start = 0
        if found:
            raise KeyNotFoundError(
                f"tid {tid!r} is not stored under key {key!r}")
        raise KeyNotFoundError(f"key {key!r} is not in the index")

    def insert_many(self, keys: Sequence[float] | np.ndarray,
                    tids: Sequence[TupleId] | np.ndarray) -> None:
        """Batched insert: sort once, merge the run into the leaf level.

        The batch is sorted once and pushed down the tree recursively: each
        internal node partitions the sorted run among its children with one
        bisect per separator, and each touched leaf merges its sorted
        entries with the incoming run in one stable sort of the two runs.
        Overfull nodes split into however many nodes they need in one step
        (a batch can overflow a leaf by far more than one key), so the cost
        is one partition pass plus one merge per touched leaf instead of one
        root descent per key.
        """
        keys = np.asarray(keys, dtype=np.float64)
        items = tid_items(tids)
        if keys.size != len(items):
            raise StorageError("keys and tids must have equal length")
        if keys.size == 0:
            return
        self.stats.inserts += int(keys.size)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order].tolist()
        sorted_tids = [items[position] for position in order.tolist()]
        if self._num_entries == 0:
            # The tree is empty: packing fresh leaves is strictly better than
            # merging into the (single, empty) existing leaf.
            self.bulk_load(zip(sorted_keys, sorted_tids))
            return
        splits = self._merge_into(self._root, sorted_keys, sorted_tids)
        while splits:
            new_root = _InternalNode()
            new_root.keys = [separator for separator, _ in splits]
            new_root.children = [self._root] + [node for _, node in splits]
            self._root = new_root
            self._height += 1
            splits = (self._multi_split_internal(new_root)
                      if len(new_root.keys) > self.node_capacity else None)
        self._num_entries += int(keys.size)
        self._flat_view.drop()

    def bulk_load(self, pairs: Iterable[tuple[float, TupleId]]) -> None:
        """Build the tree from (key, tid) pairs.

        Pairs are sorted, packed into leaves at ~70% fill and the internal
        levels are built bottom-up, mirroring the single-thread bulk loading
        the paper uses for the baseline B+-tree.

        Raises:
            StorageError: If the tree already holds entries.  Bulk loading
                replaces the whole structure, so calling it on a non-empty
                tree would silently discard the existing entries (while
                ``num_entries`` kept counting them); incremental
                :meth:`insert` is the right tool there.
        """
        if self._num_entries:
            raise StorageError(
                f"bulk_load on a non-empty BPlusTree would discard "
                f"{self._num_entries} existing entries; use insert() instead"
            )
        ordered = sorted(((float(k), t) for k, t in pairs), key=lambda p: p[0])
        if not ordered:
            return
        fill = max(4, int(self.node_capacity * 0.7))
        first = _LeafNode()
        siblings = self._pack(first, [key for key, _ in ordered],
                              [tid for _, tid in ordered])
        self._num_entries = len(ordered)

        level: list[_Node] = [first] + [leaf for _, leaf in siblings]
        self._height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start:start + fill]
                if len(group) == 1:
                    parents.append(group[0])
                    continue
                parent = _InternalNode()
                parent.children = list(group)
                parent.keys = [self._smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
            self._height += 1
        self._root = level[0]
        self._flat_view.drop()

    # ------------------------------------------------------------------- read

    def search(self, key: float) -> list[TupleId]:
        """Return all tuple ids stored under ``key`` (empty list if absent)."""
        self.stats.lookups += 1
        return self._range_tids(float(key), float(key))

    def range_search(self, key_range: KeyRange) -> list[TupleId]:
        """Return all tuple ids whose key lies in the closed ``key_range``."""
        self.stats.range_lookups += 1
        return self._range_tids(key_range.low, key_range.high)

    def range_search_array(self, key_range: KeyRange) -> np.ndarray:
        """Array-native range scan: gather whole leaf runs, convert once.

        Instead of extending a Python list one key at a time, each visited
        leaf contributes its matching ``tids[start:stop]`` slice (located
        with two bisects per leaf), and the run is converted to one numpy
        array.  This is the hot path of the vectorized Hermit lookup.
        """
        self.stats.range_lookups += 1
        flat = self._range_tids(key_range.low, key_range.high)
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def search_many(self, keys: Sequence[float] | np.ndarray) -> np.ndarray:
        """Batched point probe: one descent per key, one final conversion.

        A B+-tree probe is inherently per-key, but the batch avoids the
        per-key ``search`` dispatch, list copy and stats bump of the base
        fallback — this is the primary-resolution hot path of the vectorized
        lookup under logical pointers.
        """
        keys = [float(key) for key in keys]
        self.stats.lookups += len(keys)
        flat: list[TupleId] = []
        # repro: ignore[REP004] -- per-key descent is the tree's point-probe
        # primitive; the flat-view batch path is search_many_segmented
        for key in keys:
            flat += self._range_tids(key, key)
        if not flat:
            return np.empty(0, dtype=np.int64)
        return np.asarray(flat)

    def range_search_segmented(
        self, ranges: "Sequence[KeyRange]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented multi-range probe, flat-view-backed once it pays off.

        Where the scalar probe pays a root-to-leaf descent plus a Python
        leaf walk per range, the batch resolves *all* ranges against the
        flattened leaf level (:meth:`_flattened`) — two ``searchsorted``
        passes and one gather.  :class:`~repro.segments.FlatView` decides
        per batch whether the O(n) flatten pays off inside the current
        write-free window; both paths emit identical segments.
        """
        self.stats.range_lookups += len(ranges)
        count = len(ranges)
        lows = np.fromiter((key_range.low for key_range in ranges),
                           dtype=np.float64, count=count)
        highs = np.fromiter((key_range.high for key_range in ranges),
                            dtype=np.float64, count=count)
        return self._flat_view.probe(lows, highs, RANGE_WALK_COST,
                                     self._num_entries, self._flattened,
                                     self._range_tids)

    def search_many_segmented(
        self, keys: np.ndarray, offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batched point probe off the flattened leaf level.

        This is where batching beats B per-query ``search_many`` calls
        *algorithmically*, not just on dispatch: once the flat view pays
        off (see :meth:`range_search_segmented`), the whole batch
        binary-searches it instead of one root-to-leaf descent per key —
        the primary-index resolution pass of the batched executor under
        logical pointers.  Probes are resolved in input order, so the
        output offsets are a plain fancy-index of the per-key ones.
        """
        keys = np.asarray(keys, dtype=np.float64)
        self.stats.lookups += int(keys.size)
        tids, per_key = self._flat_view.probe(
            keys, None, BISECT_PROBE_COST, self._num_entries,
            self._flattened, self._range_tids)
        return tids, per_key[offsets]

    def items(self) -> Iterator[tuple[float, TupleId]]:
        """Iterate all (key, tid) pairs in key order."""
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.tids)
            leaf = leaf.next_leaf

    # ------------------------------------------------------------- accounting

    @property
    def num_entries(self) -> int:
        """Number of (key, tid) entries stored."""
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels, including the leaf level."""
        return self._height

    def memory_bytes(self) -> int:
        """Analytic size in bytes (see :class:`SizeModel`)."""
        return self._size_model.btree_bytes(self._num_entries, self.node_capacity)

    # ---------------------------------------------------------------- private

    def _range_tids(self, low: float, high: float) -> list[TupleId]:
        """One leaf-chain range walk, as a flat tid list (no stats bump)."""
        found: list[TupleId] = []
        leaf: _LeafNode | None = self._find_leaf(low)
        start = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            stop = bisect.bisect_right(leaf.keys, high, start)
            found += leaf.tids[start:stop]
            if stop < len(leaf.keys):
                break
            leaf = leaf.next_leaf
            start = 0
        return found

    def _flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the flat view: distinct keys, per-key tid offsets, tids.

        One O(n) walk of the leaf chain concatenates the leaves' parallel
        lists — tids in exactly the order the scalar leaf walk emits — and
        one numpy pass finds where each key's run starts.  The view is a
        *copy* of the leaf contents, so it costs O(n) extra memory while
        live; :class:`~repro.segments.FlatView` caches it until the next
        write.
        """
        keys: list[float] = []
        tids: list[TupleId] = []
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            keys += leaf.keys
            tids += leaf.tids
            leaf = leaf.next_leaf
        entry_keys = np.asarray(keys, dtype=np.float64)
        first = np.ones(entry_keys.size, dtype=bool)
        first[1:] = entry_keys[1:] != entry_keys[:-1]
        starts = np.flatnonzero(first)
        return (entry_keys[starts], np.append(starts, entry_keys.size),
                np.asarray(tids) if tids else np.empty(0, dtype=np.int64))

    def _find_leaf(self, key: float) -> _LeafNode:
        """The leftmost leaf that can hold ``key``.

        Inserts route equal keys right (``bisect_right``), but a split can
        leave part of a key's run left of its separator, so reads route
        left and walk the leaf chain.
        """
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect.bisect_left(node.keys, key)]
        return node  # type: ignore[return-value]

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node  # type: ignore[return-value]

    def _smallest_key(self, node: _Node) -> float:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def _insert_into(self, node: _Node, key: float,
                     tid: TupleId) -> tuple[float, _Node] | None:
        if node.is_leaf:
            return self._insert_into_leaf(node, key, tid)  # type: ignore[arg-type]
        internal: _InternalNode = node  # type: ignore[assignment]
        index = bisect.bisect_right(internal.keys, key)
        split = self._insert_into(internal.children[index], key, tid)
        if split is None:
            return None
        separator, right = split
        internal.keys.insert(index, separator)
        internal.children.insert(index + 1, right)
        if len(internal.keys) <= self.node_capacity:
            return None
        return self._split_internal(internal)

    def _insert_into_leaf(self, leaf: _LeafNode, key: float,
                          tid: TupleId) -> tuple[float, _Node] | None:
        index = bisect.bisect_right(leaf.keys, key)
        leaf.keys.insert(index, key)
        leaf.tids.insert(index, tid)
        if len(leaf.keys) <= self.node_capacity:
            return None
        return self._split_leaf(leaf)

    def _merge_into(self, node: _Node, keys: list[float],
                    tids: list[TupleId]) -> list[tuple[float, _Node]] | None:
        """Merge a sorted (keys, tids) run into the subtree rooted at ``node``.

        Returns the (separator, new right sibling) pairs the caller must
        splice in, ascending — ``None`` when the node absorbed the run
        without splitting.  Unlike ``_insert_into`` this may return several
        siblings at once.
        """
        if node.is_leaf:
            return self._merge_into_leaf(node, keys, tids)  # type: ignore[arg-type]
        internal: _InternalNode = node  # type: ignore[assignment]
        # Child c receives keys k with separators[c-1] <= k < separators[c],
        # matching the bisect_right descent of the scalar insert.
        boundaries = [bisect.bisect_left(keys, separator)
                      for separator in internal.keys]
        starts = [0] + boundaries
        stops = boundaries + [len(keys)]
        # Walk children right-to-left so splice positions stay valid while
        # separators/children are inserted.
        for position in range(len(internal.children) - 1, -1, -1):
            start, stop = starts[position], stops[position]
            if start == stop:
                continue
            splits = self._merge_into(internal.children[position],
                                      keys[start:stop], tids[start:stop])
            if splits:
                internal.keys[position:position] = [s for s, _ in splits]
                internal.children[position + 1:position + 1] = [
                    n for _, n in splits
                ]
        if len(internal.keys) <= self.node_capacity:
            return None
        return self._multi_split_internal(internal)

    def _merge_into_leaf(self, leaf: _LeafNode, keys: list[float],
                         tids: list[TupleId]) -> list[tuple[float, _Node]] | None:
        """Merge a sorted run into one leaf, multi-splitting when overfull.

        Both runs are sorted, so one stable sort of their concatenation is a
        C-level merge that keeps the leaf's entries ahead of equal new keys.
        """
        all_keys = leaf.keys + keys
        all_tids = leaf.tids + tids
        order = sorted(range(len(all_keys)), key=all_keys.__getitem__)
        merged_keys = [all_keys[position] for position in order]
        merged_tids = [all_tids[position] for position in order]
        if len(merged_keys) <= self.node_capacity:
            leaf.keys, leaf.tids = merged_keys, merged_tids
            return None
        return self._pack(leaf, merged_keys, merged_tids)

    def _pack(self, leaf: _LeafNode, keys: list[float],
              tids: list[TupleId]) -> list[tuple[float, _Node]]:
        """Refill ``leaf`` with a sorted run at ~70 % fill, chaining fresh
        siblings for the rest; returns their (separator, leaf) pairs."""
        fill = max(4, int(self.node_capacity * 0.7))
        tail = leaf.next_leaf
        leaf.keys, leaf.tids = keys[:fill], tids[:fill]
        siblings: list[tuple[float, _Node]] = []
        previous = leaf
        for start in range(fill, len(keys), fill):
            sibling = _LeafNode()
            sibling.keys = keys[start:start + fill]
            sibling.tids = tids[start:start + fill]
            previous.next_leaf = sibling
            siblings.append((sibling.keys[0], sibling))
            previous = sibling
        previous.next_leaf = tail
        return siblings

    def _multi_split_internal(self, node: _InternalNode) -> list[tuple[float, _Node]]:
        """Split an overfull internal node into as many nodes as needed."""
        fill = max(4, int(self.node_capacity * 0.7))
        all_keys, all_children = node.keys, node.children
        step = fill + 1  # children per resulting node
        node.keys = all_keys[:fill]
        node.children = all_children[:step]
        siblings: list[tuple[float, _Node]] = []
        for start in range(step, len(all_children), step):
            stop = min(len(all_children), start + step)
            sibling = _InternalNode()
            sibling.children = all_children[start:stop]
            sibling.keys = all_keys[start:start + (stop - start) - 1]
            # all_keys[start - 1] separates the previous group's last child
            # from this group's first child; it is promoted to the parent.
            siblings.append((all_keys[start - 1], sibling))
        return siblings

    def _split_leaf(self, leaf: _LeafNode) -> tuple[float, _Node]:
        middle = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[middle:]
        right.tids = leaf.tids[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.tids = leaf.tids[:middle]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _InternalNode) -> tuple[float, _Node]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _InternalNode()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right
