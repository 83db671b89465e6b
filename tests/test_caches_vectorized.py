"""Unit and cross-validation tests for the vectorized miss counters.

The key property: for any stream, the vectorized counters agree
reference-for-reference with the sequential object simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import CacheGeometry
from repro.caches.setassoc import SetAssociativeCache
from repro.caches.vectorized import (
    _SHORT_WINDOW,
    LineOrderCache,
    compulsory_mask,
    count_misses,
    lru_stack_distances,
    miss_mask_direct_mapped,
    miss_mask_fully_associative,
    miss_mask_set_associative,
    rescale_lines,
)


def _random_lines(n=3000, span=400, seed=0):
    return np.random.default_rng(seed).integers(0, span, n).astype(np.uint64)


def _sequential_mask(lines, n_sets, ways):
    cache = SetAssociativeCache(CacheGeometry(n_sets * ways * 32, 32, ways))
    return np.array([not cache.access_line(int(l)) for l in lines])


class TestDirectMapped:
    def test_matches_sequential(self):
        lines = _random_lines()
        vec = miss_mask_direct_mapped(lines, 128)
        seq = _sequential_mask(lines, 128, 1)
        assert np.array_equal(vec, seq)

    def test_all_first_touches_miss(self):
        lines = np.arange(100, dtype=np.uint64)
        assert miss_mask_direct_mapped(lines, 256).all()

    def test_repeat_hits(self):
        lines = np.array([5, 5, 5], dtype=np.uint64)
        assert list(miss_mask_direct_mapped(lines, 16)) == [True, False, False]

    def test_conflict_alternation_always_misses(self):
        lines = np.array([0, 16, 0, 16, 0], dtype=np.uint64)
        assert miss_mask_direct_mapped(lines, 16).all()

    def test_empty(self):
        assert len(miss_mask_direct_mapped(np.zeros(0, np.uint64), 16)) == 0

    def test_rejects_non_power_sets(self):
        with pytest.raises(ValueError):
            miss_mask_direct_mapped(np.array([0], np.uint64), 100)


class TestSetAssociative:
    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_matches_sequential(self, ways):
        lines = _random_lines(seed=ways)
        vec = miss_mask_set_associative(lines, 64, ways)
        seq = _sequential_mask(lines, 64, ways)
        assert np.array_equal(vec, seq)

    def test_ways_one_delegates_to_direct_mapped(self):
        lines = _random_lines(seed=11)
        assert np.array_equal(
            miss_mask_set_associative(lines, 128, 1),
            miss_mask_direct_mapped(lines, 128),
        )

    def test_higher_associativity_never_more_misses_same_size(self):
        lines = _random_lines(seed=2)
        total_lines = 256
        m1 = miss_mask_set_associative(lines, total_lines, 1).sum()
        m2 = miss_mask_set_associative(lines, total_lines // 2, 2).sum()
        m8 = miss_mask_set_associative(lines, total_lines // 8, 8).sum()
        # Not strictly monotone in theory, but overwhelmingly so for
        # random streams; allow a tiny margin.
        assert m2 <= m1 * 1.02
        assert m8 <= m2 * 1.02


class TestFullyAssociative:
    def test_matches_sequential_fa(self):
        lines = _random_lines(n=1500, span=120, seed=3)
        vec = miss_mask_fully_associative(lines, 64)
        cache = SetAssociativeCache(CacheGeometry(64 * 32, 32, 0))
        seq = np.array([not cache.access_line(int(l)) for l in lines])
        assert np.array_equal(vec, seq)

    def test_capacity_one(self):
        lines = np.array([1, 1, 2, 1], dtype=np.uint64)
        assert list(miss_mask_fully_associative(lines, 1)) == [
            True, False, True, True,
        ]


class TestStackDistances:
    def test_known_sequence(self):
        lines = np.array([1, 2, 3, 1, 2, 2, 3], dtype=np.uint64)
        distances = lru_stack_distances(lines)
        assert list(distances) == [-1, -1, -1, 2, 2, 0, 2]

    def test_first_touches_are_negative(self):
        lines = np.array([10, 20, 30], dtype=np.uint64)
        assert (lru_stack_distances(lines) == -1).all()

    def test_immediate_repeat_distance_zero(self):
        lines = np.array([5, 5], dtype=np.uint64)
        assert lru_stack_distances(lines)[1] == 0

    def test_distances_bounded_by_distinct_count(self):
        lines = _random_lines(n=2000, span=50, seed=6)
        distances = lru_stack_distances(lines)
        assert distances.max() < 50

    def test_miss_mask_consistency_across_capacities(self):
        # The FA miss masks derived from one distance array must be
        # monotone: larger capacity -> subset of misses.
        lines = _random_lines(n=1000, span=80, seed=8)
        small = miss_mask_fully_associative(lines, 16)
        large = miss_mask_fully_associative(lines, 64)
        assert not (large & ~small).any()


def _oracle_stack_distances(lines, n_sets=1):
    """Naive per-set LRU stacks: the distance is the line's stack depth."""
    stacks: dict[int, list[int]] = {}
    out = []
    for line in (int(l) for l in lines):
        stack = stacks.setdefault(line % n_sets, [])
        if line in stack:
            depth = stack.index(line)
            del stack[depth]
        else:
            depth = -1
        stack.insert(0, line)
        out.append(depth)
    return np.array(out, dtype=np.int64)


@st.composite
def _looping_lines(draw):
    """Loop bodies repeated past the short window, with sparse inserts.

    A stride of 64 lands a whole body in one set at every tested set
    count, so grouped streams see long reuse gaps too.
    """
    body = draw(st.integers(1, 3 * _SHORT_WINDOW))
    stride = draw(st.sampled_from([1, 2, 64]))
    base = draw(st.integers(0, 1 << 16))
    stream = [base + stride * k for k in range(body)]
    stream *= draw(st.integers(2, 5))
    inserts = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(stream)),
                st.one_of(st.integers(0, 255), st.sampled_from(stream)),
            ),
            max_size=24,
        )
    )
    for position, line in sorted(inserts, reverse=True):
        stream.insert(position, line)
    return np.array(stream, dtype=np.uint64)


def _boundary_cases():
    w = _SHORT_WINDOW
    cases = {}
    for gap in (w - 1, w, w + 1, w + 2):
        # One line reused after `gap - 1` distinct fillers.
        fillers = list(range(100, 100 + gap - 1))
        cases[f"reuse-gap-{gap}"] = [7] + fillers + [7]
        # Fillers that themselves recur inside the window.
        cases[f"recurring-gap-{gap}"] = (
            [7] + [100 + k % 5 for k in range(gap - 1)] + [7, 100, 7]
        )
    # A window longer than W holding only two distinct lines, so the
    # long part must count last occurrences and long gaps exactly.
    cases["few-distinct-long-window"] = [1] + [2, 3] * (2 * w) + [1, 2, 3, 1]
    cases["long-gaps-crossing-cut"] = (
        [1, 2] + list(range(10, 13 + w)) + [2, 1] + list(range(10, 20)) + [1]
    )
    return cases


class TestStackDistanceDifferential:
    """The split kernel against a naive LRU-stack oracle."""

    @pytest.mark.parametrize("n_sets", [1, 2, 8, 64])
    @pytest.mark.parametrize(
        "stream",
        [pytest.param(s, id=name) for name, s in _boundary_cases().items()],
    )
    def test_boundary_cases(self, stream, n_sets):
        lines = np.array(stream, dtype=np.uint64)
        got = LineOrderCache(lines).stack_distances(n_sets)
        assert np.array_equal(got, _oracle_stack_distances(lines, n_sets))

    @given(_looping_lines())
    @settings(max_examples=60, deadline=None)
    def test_looping_streams_match_oracle(self, lines):
        cache = LineOrderCache(lines)
        for n_sets in (1, 2, 8, 64):
            expected = _oracle_stack_distances(lines, n_sets)
            got = cache.stack_distances(n_sets)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), n_sets
        assert np.array_equal(
            lru_stack_distances(lines), _oracle_stack_distances(lines)
        )


class TestCompulsory:
    def test_each_line_once(self):
        lines = np.array([3, 4, 3, 5, 4], dtype=np.uint64)
        mask = compulsory_mask(lines)
        assert list(mask) == [True, True, False, True, False]
        assert mask.sum() == 3

    def test_empty(self):
        assert compulsory_mask(np.zeros(0, np.uint64)).sum() == 0


class TestCountMisses:
    def test_consistent_with_mask(self):
        lines = _random_lines(seed=4)
        expected = miss_mask_set_associative(lines, 64, 2).sum()
        assert count_misses(lines, 64 * 2 * 32, 32, 2) == expected

    def test_fully_associative_selector(self):
        lines = _random_lines(n=500, span=100, seed=5)
        expected = miss_mask_fully_associative(lines, 32).sum()
        assert count_misses(lines, 32 * 32, 32, 0) == expected

    def test_rejects_overassociative(self):
        with pytest.raises(ValueError):
            count_misses(np.array([0], np.uint64), 64, 32, 4)


class TestRescaleLines:
    def test_coarsen(self):
        lines = np.array([0, 1, 2, 3], dtype=np.uint64)
        assert list(rescale_lines(lines, 16, 64)) == [0, 0, 0, 0]
        assert list(rescale_lines(lines, 16, 32)) == [0, 0, 1, 1]

    def test_same_size_identity(self):
        lines = np.array([7, 9], dtype=np.uint64)
        assert list(rescale_lines(lines, 32, 32)) == [7, 9]

    def test_refine_rejected(self):
        with pytest.raises(ValueError):
            rescale_lines(np.array([0], np.uint64), 64, 32)


class TestLineOrderCache:
    """Memoized argsorts shared across a sweep's repeated calls."""

    def test_same_array_same_cache(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        assert line_order_cache(lines) is line_order_cache(lines)

    def test_order_memoized_per_n_sets(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        cache = line_order_cache(_random_lines())
        first = cache.order(64)
        assert cache.order(64) is first
        assert cache.order(128) is not first

    def test_order_is_correct(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        order = line_order_cache(lines).order(128)
        sets = lines & np.uint64(127)
        assert np.array_equal(order, np.argsort(sets, kind="stable"))

    def test_explicit_order_matches_cached(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        sets = lines & np.uint64(127)
        explicit = np.argsort(sets, kind="stable")
        with_explicit = miss_mask_direct_mapped(lines, 128, order=explicit)
        with_cache = miss_mask_direct_mapped(lines, 128)
        assert np.array_equal(with_explicit, with_cache)

    def test_compulsory_memoized_and_correct(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = np.array([3, 1, 3, 2, 1, 4], dtype=np.uint64)
        cache = line_order_cache(lines)
        mask = cache.compulsory()
        assert list(mask) == [True, True, False, True, False, True]
        assert cache.compulsory() is mask
        assert np.array_equal(compulsory_mask(lines), mask)

    def test_results_are_read_only(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        cache = line_order_cache(_random_lines())
        with pytest.raises(ValueError):
            cache.order(64)[0] = 0
        with pytest.raises(ValueError):
            cache.compulsory()[0] = False

    def test_registry_bounded(self):
        from repro.caches.vectorized import (
            _ORDER_CACHE_CAPACITY,
            _order_caches,
            clear_order_caches,
            line_order_cache,
        )

        clear_order_caches()
        arrays = [
            _random_lines(seed=i) for i in range(_ORDER_CACHE_CAPACITY + 4)
        ]
        for lines in arrays:
            line_order_cache(lines)
        assert len(_order_caches) == _ORDER_CACHE_CAPACITY

    def test_repeated_sweep_reuses_order(self):
        from repro.caches.vectorized import clear_order_caches

        clear_order_caches()
        lines = _random_lines()
        first = miss_mask_direct_mapped(lines, 64)
        second = miss_mask_direct_mapped(lines, 64)
        assert np.array_equal(first, second)
        seq = _sequential_mask(lines, 64, 1)
        assert np.array_equal(first, seq)


class TestMultiGeometryMasks:
    """miss_masks(): many geometries priced from shared stack distances."""

    def shapes(self):
        # Direct-mapped, set-associative (several ways per set count),
        # and fully-associative shapes, deliberately mixed.
        return [(64, 1), (64, 2), (64, 4), (32, 1), (16, 8), (256, 0)]

    def test_matches_single_shape_masks(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        masks = line_order_cache(lines).miss_masks(self.shapes())
        assert set(masks) == set(self.shapes())
        for shape, mask in masks.items():
            n_sets, ways = shape
            expected = (
                miss_mask_fully_associative(lines, n_sets)
                if ways == 0
                else miss_mask_set_associative(lines, n_sets, ways)
            )
            assert np.array_equal(mask, expected), shape

    def test_masks_land_in_the_memo(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines(seed=3)
        cache = line_order_cache(lines)
        batched = cache.miss_masks(self.shapes())
        for shape, mask in batched.items():
            assert cache.miss_mask(*shape) is mask

    def test_empty_stream(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = np.array([], dtype=np.uint64)
        masks = line_order_cache(lines).miss_masks([(8, 1), (4, 2)])
        assert all(mask.shape == (0,) for mask in masks.values())

    def test_eviction_counter_exposed(self):
        from repro.caches.vectorized import (
            _ORDER_CACHE_CAPACITY,
            clear_order_caches,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        assert order_cache_stats()["evictions"] == 0
        for i in range(_ORDER_CACHE_CAPACITY + 3):
            line_order_cache(_random_lines(n=64, seed=100 + i))
        stats = order_cache_stats()
        assert stats["evictions"] >= 3
        assert set(stats) == {
            "entries", "bytes", "evictions", "max_entries", "max_bytes",
        }
        clear_order_caches()
        assert order_cache_stats()["evictions"] == 0
