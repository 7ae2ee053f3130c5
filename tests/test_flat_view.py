"""Flat-view amortisation of the segmented probes (``segments.FlatView``).

The B+-tree's segmented range/point probes and the outlier buffer's
``lookup_many`` serve a batch off an O(n) flat copy of their entries once
batch traffic pays for it.  The work that pays for it must be done inside
one write-free window: a view that lives for one batch between two writes
never repays its build.  Builds are counted with a spy on the owner's
``_flattened`` builder; every probe is compared with the scalar walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outliers import OutlierBuffer
from repro.index.base import KeyRange
from repro.index.bptree import BPlusTree

ENTRIES = 3000


def spy_builds(monkeypatch, owner) -> list[int]:
    """Count calls of ``owner._flattened`` (each call builds one view)."""
    calls: list[int] = []
    build = owner._flattened

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(owner, "_flattened", counting)
    return calls


def make_tree() -> BPlusTree:
    rng = np.random.default_rng(7)
    tree = BPlusTree(node_capacity=16)
    tree.insert_many(rng.integers(0, 1000, ENTRIES).astype(np.float64),
                     np.arange(ENTRIES))
    return tree


def make_buffer() -> OutlierBuffer:
    rng = np.random.default_rng(7)
    buffer = OutlierBuffer()
    buffer.add_many(rng.integers(0, 1000, ENTRIES).astype(np.float64),
                    np.arange(ENTRIES))
    return buffer


def batch(step: int, size: int = 8) -> tuple[np.ndarray, np.ndarray]:
    lows = (np.arange(size) * 113.0 + step * 7.0) % 990.0
    return lows, lows + 6.0


# Each probe kind: (owner factory, probe, scalar twin, writes).  A probe
# maps (owner, lows, highs) to (tids, offsets); the scalar twin gives the
# per-range answer of one range.

def range_probe(tree, lows, highs):
    return tree.range_search_segmented(
        [KeyRange(low, high) for low, high in zip(lows, highs)])


def range_scalar(tree, low, high):
    return tree.range_search_array(KeyRange(low, high))


def point_probe(tree, lows, _highs):
    keys = np.floor(lows)
    return tree.search_many_segmented(keys, np.arange(keys.size + 1))


def point_scalar(tree, low, _high):
    return np.asarray(tree.search(float(np.floor(low))), dtype=np.int64)


def buffer_probe(buffer, lows, highs):
    return buffer.lookup_many(lows, highs)


def buffer_scalar(buffer, low, high):
    return np.asarray(buffer.lookup(KeyRange(low, high)), dtype=np.int64)


def tree_writes(tree, step):
    tid = ENTRIES + step
    yield lambda: tree.insert(1000.5 + step, tid)
    yield lambda: tree.delete(1000.5 + step, tid)
    yield lambda: tree.insert_many([1001.5 + step], [tid])


def buffer_writes(buffer, step):
    tid = ENTRIES + step
    yield lambda: buffer.add(1000.5 + step, tid)
    yield lambda: buffer.remove(1000.5 + step, tid)
    yield lambda: buffer.add_many([1001.5 + step], [tid])


PROBES = {
    "btree-range": (make_tree, range_probe, range_scalar, tree_writes),
    "btree-point": (make_tree, point_probe, point_scalar, tree_writes),
    "outliers": (make_buffer, buffer_probe, buffer_scalar, buffer_writes),
}


def assert_matches_scalar(owner, probe, scalar, lows, highs):
    tids, offsets = probe(owner, lows, highs)
    assert offsets.size == lows.size + 1
    for i, (low, high) in enumerate(zip(lows, highs)):
        np.testing.assert_array_equal(tids[offsets[i]:offsets[i + 1]],
                                      scalar(owner, low, high))


def warm_until_built(owner, probe, builds, limit=200):
    """Run write-free batches until the view is built; return how many ran."""
    for step in range(limit):
        probe(owner, *batch(step))
        if builds:
            return step + 1
    raise AssertionError("the write-free window never built the view")


@pytest.mark.parametrize("kind", sorted(PROBES))
class TestWriteFreeWindow:
    def test_reads_after_writes_never_rebuild(self, kind, monkeypatch):
        factory, probe, scalar, writes = PROBES[kind]
        owner = factory()
        builds = spy_builds(monkeypatch, owner)
        warm_until_built(owner, probe, builds)
        assert len(builds) == 1
        for step in range(30):
            for write in writes(owner, step):
                write()
                lows, highs = batch(step)
                assert_matches_scalar(owner, probe, scalar, lows, highs)
        assert len(builds) == 1

    def test_write_free_batches_build_once(self, kind, monkeypatch):
        factory, probe, scalar, _ = PROBES[kind]
        owner = factory()
        builds = spy_builds(monkeypatch, owner)
        warmed = warm_until_built(owner, probe, builds)
        assert warmed > 1  # a cold 8-range batch alone never pays O(n)
        for step in range(warmed, warmed + 20):
            assert_matches_scalar(owner, probe, scalar, *batch(step))
        assert len(builds) == 1

    def test_every_write_restarts_the_window(self, kind, monkeypatch):
        factory, probe, _, writes = PROBES[kind]
        owner = factory()
        builds = spy_builds(monkeypatch, owner)
        warmed = warm_until_built(owner, probe, builds)
        for write in writes(owner, 0):
            write()
            for step in range(warmed - 1):
                probe(owner, *batch(step))
            assert len(builds) == 1
        probe(owner, *batch(0))
        assert len(builds) == 2


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(0, 60), min_size=1, max_size=150),
       ops=st.lists(st.tuples(st.sampled_from(["write", "probe"]),
                              st.integers(0, 60), st.integers(0, 12)),
                    max_size=30))
def test_probes_match_scalar_walk_under_writes(keys, ops):
    """Both paths of every probe equal the scalar walk, whatever the
    interleaving of writes and batches (small owners cross the threshold
    within a batch or two, so both paths are exercised)."""
    tree = BPlusTree(node_capacity=4)
    tree.insert_many(np.asarray(keys, dtype=np.float64), np.arange(len(keys)))
    buffer = OutlierBuffer()
    buffer.add_many(np.asarray(keys, dtype=np.float64), np.arange(len(keys)))
    next_tid = len(keys)
    for op, low, width in ops:
        if op == "write":
            tree.insert(float(low), next_tid)
            buffer.add(float(low), next_tid)
            next_tid += 1
            continue
        lows = np.arange(low, low + 4, dtype=np.float64)
        highs = lows + width
        assert_matches_scalar(tree, range_probe, range_scalar, lows, highs)
        assert_matches_scalar(tree, point_probe, point_scalar, lows, highs)
        assert_matches_scalar(buffer, buffer_probe, buffer_scalar, lows, highs)
