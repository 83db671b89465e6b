"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.lru import LruSet
from repro.caches.base import CacheGeometry
from repro.caches.setassoc import SetAssociativeCache
from repro.caches.vectorized import (
    compulsory_mask,
    lru_stack_distances,
    miss_mask_direct_mapped,
    miss_mask_fully_associative,
    miss_mask_set_associative,
)
from repro.core.metrics import warmup_cut
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs

lines_strategy = st.lists(
    st.integers(min_value=0, max_value=255), min_size=0, max_size=400
).map(lambda xs: np.array(xs, dtype=np.uint64))

addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300
).map(lambda xs: np.array(xs, dtype=np.uint64) * 4)


class TestLruSetProperties:
    @given(
        st.lists(st.integers(0, 20), max_size=200),
        st.integers(min_value=1, max_value=8),
    )
    def test_size_never_exceeds_capacity(self, keys, capacity):
        lru = LruSet(capacity)
        for key in keys:
            lru.touch(key)
            assert len(lru) <= capacity

    @given(st.lists(st.integers(0, 20), max_size=200))
    def test_most_recent_always_resident(self, keys):
        lru = LruSet(3)
        for key in keys:
            lru.touch(key)
            assert key in lru


class TestVectorizedCacheProperties:
    @given(lines_strategy, st.sampled_from([16, 32, 64, 128]))
    @settings(max_examples=40)
    def test_direct_mapped_matches_sequential(self, lines, n_sets):
        vec = miss_mask_direct_mapped(lines, n_sets)
        cache = SetAssociativeCache(CacheGeometry(n_sets * 32, 32, 1))
        seq = np.array([not cache.access_line(int(l)) for l in lines], bool)
        assert np.array_equal(vec, seq)

    @given(
        lines_strategy,
        st.sampled_from(
            [(n_sets, ways) for n_sets in (8, 16, 32) for ways in (2, 4, 8)]
            # The report's fully-associative shape: the 64-entry TLB.
            + [(64, 0)]
        ),
    )
    @settings(max_examples=60)
    def test_set_associative_matches_sequential(self, lines, shape):
        n_sets, ways = shape
        vec = miss_mask_set_associative(lines, n_sets, ways)
        capacity = n_sets * max(ways, 1)
        cache = SetAssociativeCache(CacheGeometry(capacity * 32, 32, ways))
        seq = np.array([not cache.access_line(int(l)) for l in lines], bool)
        assert np.array_equal(vec, seq)

    @given(lines_strategy)
    @settings(max_examples=40)
    def test_fa_capacity_monotone(self, lines):
        small = miss_mask_fully_associative(lines, 8)
        large = miss_mask_fully_associative(lines, 64)
        # Larger FA LRU caches never add misses (inclusion property).
        assert not (large & ~small).any()

    @given(lines_strategy)
    @settings(max_examples=40)
    def test_compulsory_subset_of_any_miss_mask(self, lines):
        compulsory = compulsory_mask(lines)
        misses = miss_mask_fully_associative(lines, 16)
        assert not (compulsory & ~misses).any()

    @given(lines_strategy)
    @settings(max_examples=40)
    def test_stack_distance_bounds(self, lines):
        distances = lru_stack_distances(lines)
        if len(lines) == 0:
            return
        n_distinct = len(np.unique(lines))
        assert distances.max(initial=-1) < n_distinct
        # First occurrences get -1; everything else is >= 0.
        first = compulsory_mask(lines)
        assert (distances[first] == -1).all()
        assert (distances[~first] >= 0).all()


class TestRleProperties:
    @given(addresses_strategy, st.sampled_from([16, 32, 64]))
    @settings(max_examples=40)
    def test_rle_preserves_reference_count(self, addresses, line_size):
        runs = to_line_runs(addresses, line_size)
        assert runs.total_references == len(addresses)

    @given(addresses_strategy, st.sampled_from([16, 32, 64]))
    @settings(max_examples=40)
    def test_rle_expansion_reproduces_line_sequence(self, addresses, line_size):
        runs = to_line_runs(addresses, line_size)
        expanded = np.repeat(runs.lines, runs.counts)
        shift = line_size.bit_length() - 1
        assert np.array_equal(expanded, addresses >> np.uint64(shift))

    @given(addresses_strategy)
    @settings(max_examples=40)
    def test_rle_adjacent_runs_differ(self, addresses):
        runs = to_line_runs(addresses, 32)
        if len(runs) > 1:
            assert (runs.lines[1:] != runs.lines[:-1]).all()


class TestTimingProperties:
    @given(
        st.integers(1, 100),
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        st.integers(1, 512),
    )
    def test_fill_penalty_monotone_and_consistent(self, latency, bw, n_bytes):
        timing = MemoryTiming(latency, bw)
        penalty = timing.fill_penalty(n_bytes)
        assert penalty >= latency
        assert timing.fill_penalty(n_bytes + bw) == penalty + 1
        # Last byte arrives exactly at the fill penalty.
        assert timing.cycles_until_byte(n_bytes - 1) == penalty


class TestWarmupProperties:
    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=100),
        st.floats(0.0, 0.9),
    )
    @settings(max_examples=60)
    def test_warmup_covers_at_least_fraction(self, counts, fraction):
        import numpy as np

        from repro.trace.rle import LineRuns

        counts_arr = np.asarray(counts, dtype=np.int64)
        runs = LineRuns(
            lines=np.arange(len(counts), dtype=np.uint64),
            counts=counts_arr,
            first_offsets=np.zeros(len(counts), dtype=np.int64),
            line_size=32,
        )
        cut, measured = warmup_cut(runs, fraction)
        total = counts_arr.sum()
        skipped = total - measured
        assert skipped >= int(fraction * total) or cut == len(counts) - 1
        assert measured > 0
