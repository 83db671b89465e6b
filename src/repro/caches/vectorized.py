"""Vectorized cache miss counting over numpy address columns.

The design-space sweeps in the paper (Figures 1, 3, 4 and the line-size
and bandwidth studies) need miss counts for hundreds of cache
configurations over multi-million-reference traces.  These functions
compute per-reference miss masks without simulating cache state one
Python object at a time:

* direct-mapped: a reference hits iff the previous reference to the same
  set carried the same tag — computable with one stable sort.
* set-associative LRU: exact per-set stack distances over the set-grouped
  stream; a reference hits iff fewer than ``associativity`` distinct
  lines of its set intervened since its previous occurrence.
* fully-associative LRU: the same exact stack distances over the whole
  stream, which yields the miss mask for *every* capacity at once.

Stack distances are computed offline and fully vectorized (no Python
per-reference loop): a reference's distance is the count of distinct
lines in the window back to its previous occurrence, i.e. the window
positions whose next occurrence lies beyond the reference.  The window
is split a fixed 32 positions back: the recent part is a 32-step
backward scan over all repeats at once, which settles every repeat with
a short reuse gap; the older part needs only positions with a long
next-occurrence gap — last occurrences via one prefix sum, and the few
finite long-gap positions via one 2D dominance count (an MSD-radix
divide and conquer made of cumulative sums and stable partitions, see
:func:`_count_smaller_to_right`).  One distance array per grouping is
memoized on :class:`LineOrderCache` and serves every capacity and
associativity of a sweep.

All functions take *line numbers* (byte address >> log2(line_size)); use
:meth:`repro.trace.Trace.line_addresses` or :func:`repro.trace.to_line_runs`
to produce them.
"""

from __future__ import annotations

import numpy as np

from repro._util.bitops import ilog2
from repro._util.validate import check_power_of_two


class LineOrderCache:
    """Memoized per-configuration sorted views of one line array.

    The direct-mapped miss computation and the compulsory-miss mask each
    need a full stable sort of the line stream, and design-space sweeps
    (Figures 1, 3, 4; the bandwidth studies) re-request them for the
    same stream over and over — the sorts dominated sweep time.  This
    cache computes each ``(n_sets)`` grouping order and the first-touch
    mask once per line array and hands back the memoized result.

    Obtain instances through :func:`line_order_cache`, which keeps a
    small bounded registry keyed by array identity so independent sweeps
    over the same stream share one cache.
    """

    def __init__(self, lines: np.ndarray):
        self.lines = np.asarray(lines, dtype=np.uint64)
        self._orders: dict[int, np.ndarray] = {}
        self._compulsory: np.ndarray | None = None
        self._memo: dict = {}
        #: Approximate bytes held by memoized artifacts (the line array
        #: itself is charged too — the registry keeps it alive).
        self.memo_bytes = int(self.lines.nbytes)

    def memo(self, key, compute):
        """Memoize ``compute()`` under ``key`` for this line array.

        The generic extension point behind the derived-artifact caches:
        miss masks, coarsened views, and the fetch-timing kernels'
        mechanism state all key their per-stream results here, so one
        stream's artifacts are computed once no matter how many sweep
        points revisit it.
        """
        value = self._memo.get(key)
        if value is None:
            value = compute()
            self._memo[key] = value
            self.memo_bytes += _value_nbytes(value)
            _enforce_order_cache_budget()
        return value

    def coarsened(self, shift: int) -> np.ndarray:
        """``lines >> shift``, memoized (identity-preserving at 0).

        Returning one stable array object per shift lets downstream
        per-array caches (this registry included) recognize repeated
        sweeps over the same coarsened stream.
        """
        if shift == 0:
            return self.lines
        return self.memo(
            ("coarsen", shift), lambda: self.lines >> np.uint64(shift)
        )

    def miss_mask(self, n_sets: int, associativity: int) -> np.ndarray:
        """Memoized per-reference LRU miss mask of one cache shape."""
        return self.memo(
            ("miss-mask", n_sets, associativity),
            lambda: miss_mask_set_associative(
                self.lines, n_sets, associativity
            ),
        )

    def miss_masks(
        self, shapes: list[tuple[int, int]]
    ) -> dict[tuple[int, int], np.ndarray]:
        """Memoized miss masks for many cache shapes in one pass.

        ``shapes`` are ``(n_sets, associativity)`` pairs in
        :func:`miss_mask_set_associative`'s convention (fully
        associative passes capacity with associativity 0).  Shapes
        sharing a stack-distance grouping — the same set count, or any
        fully-associative capacity — derive from one shared distance
        array, cheetah-style: a reference misses a shape iff its
        group-local stack distance reaches the shape's ways (or is a
        first touch), so one pass over the stream prices every
        associativity at that set count at once.  A set count requested
        only direct-mapped keeps the cheaper sort-based path.  Each
        mask lands under its standard memo key, so later
        :meth:`miss_mask` calls for the same shape are hits.
        """
        unique = list(dict.fromkeys((int(n), int(a)) for n, a in shapes))
        out: dict[tuple[int, int], np.ndarray] = {}
        # distance grouping (set count; 1 = whole stream) -> members as
        # (shape, miss threshold in group-local stack distance)
        groups: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for shape in unique:
            n_sets, associativity = shape
            cached = self._memo.get(("miss-mask", n_sets, associativity))
            if cached is not None:
                out[shape] = cached
            elif associativity == 0:
                groups.setdefault(1, []).append((shape, n_sets))
            else:
                groups.setdefault(n_sets, []).append((shape, associativity))
        for group_sets, members in groups.items():
            if group_sets > 1 and all(t == 1 for _, t in members):
                for shape, _ in members:
                    out[shape] = self.miss_mask(*shape)
                continue
            distances = self.stack_distances(group_sets)
            for shape, threshold in members:
                out[shape] = self.memo(
                    ("miss-mask",) + shape,
                    lambda d=distances, t=threshold: (d < 0) | (d >= t),
                )
        return out

    def by_line(self) -> np.ndarray:
        """Memoized stable argsort of the stream by line number.

        The one full sort every stack-distance grouping shares: a line
        maps to exactly one set at any set count, so a grouped stream's
        by-line order is this global order re-indexed through the
        grouping permutation (two O(n) gathers) instead of a fresh
        O(n log n) sort per set count.
        """
        def compute() -> np.ndarray:
            order = np.argsort(self.lines, kind="stable")
            order.setflags(write=False)  # shared between callers
            return order

        return self.memo(("by-line",), compute)

    def order(self, n_sets: int) -> np.ndarray:
        """Stable argsort of the stream grouped by ``n_sets``-set index."""
        order = self._orders.get(n_sets)
        if order is None:
            sets = self.lines & np.uint64(n_sets - 1)
            order = np.argsort(sets, kind="stable")
            order.setflags(write=False)  # shared between callers
            self._orders[n_sets] = order
            self.memo_bytes += int(order.nbytes)
            _enforce_order_cache_budget()
        return order

    def compulsory(self) -> np.ndarray:
        """Memoized first-touch mask of the stream."""
        if self._compulsory is None:
            n = len(self.lines)
            mask = np.zeros(n, dtype=bool)
            if n:
                _, first_indices = np.unique(self.lines, return_index=True)
                mask[first_indices] = True
            mask.setflags(write=False)  # shared between callers
            self._compulsory = mask
            self.memo_bytes += int(mask.nbytes)
            _enforce_order_cache_budget()
        return self._compulsory

    def stack_distances(self, n_sets: int = 1) -> np.ndarray:
        """Memoized exact LRU stack distances, grouped by ``n_sets`` sets.

        ``n_sets == 1`` gives whole-stream distances (fully-associative
        behaviour); larger values give each reference's distance within
        its own set's substream.  One array serves every associativity
        (and, for ``n_sets == 1``, every capacity) of a sweep.
        """
        def compute() -> np.ndarray:
            by_line = self.by_line()
            if n_sets > 1:
                order = self.order(n_sets)
                # A line belongs to one set, so the grouped stream's
                # stable by-line order is the global one re-indexed
                # through the grouping permutation — no second sort.
                inverse = np.empty(len(order), dtype=by_line.dtype)
                inverse[order] = np.arange(len(order), dtype=by_line.dtype)
                distances = _grouped_stack_distances(
                    self.lines, order, inverse[by_line]
                )
            else:
                distances = _grouped_stack_distances(
                    self.lines, None, by_line
                )
            distances.setflags(write=False)  # shared between callers
            return distances

        return self.memo(("stack-distances", n_sets), compute)


def _value_nbytes(value) -> int:
    """Approximate bytes of a memoized artifact (arrays, containers)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_value_nbytes(item) for item in value.values())
    return 0


#: Bounded registry of :class:`LineOrderCache` instances, keyed by the
#: identity of the line array.  Holding the array alive through the
#: cache guarantees its ``id`` cannot be reused while the entry exists;
#: access order doubles as the eviction order (LRU), and the registry is
#: bounded both by entry count and by the total bytes of memoized
#: artifacts so a long-running ``repro serve`` process cannot grow it
#: without limit.
_ORDER_CACHE_CAPACITY = 16
_ORDER_CACHE_MAX_BYTES = 1 << 30
_order_caches: dict[int, LineOrderCache] = {}
_order_cache_max_entries = _ORDER_CACHE_CAPACITY
_order_cache_max_bytes = _ORDER_CACHE_MAX_BYTES
_order_cache_evictions = 0


def _enforce_order_cache_budget() -> None:
    """Evict least-recently-used registry entries past either bound.

    At least one entry always survives: the active stream's artifacts
    may legitimately exceed the byte budget on their own, and evicting
    them would only force an immediate recompute.
    """
    global _order_cache_evictions
    while len(_order_caches) > 1 and (
        len(_order_caches) > _order_cache_max_entries
        or sum(c.memo_bytes for c in _order_caches.values())
        > _order_cache_max_bytes
    ):
        del _order_caches[next(iter(_order_caches))]
        _order_cache_evictions += 1


def line_order_cache(lines: np.ndarray) -> LineOrderCache:
    """The shared :class:`LineOrderCache` for ``lines``.

    Caching is by object identity: passing an equal-but-distinct array
    creates a fresh cache entry (and eventually evicts the oldest), so
    callers that want reuse must pass the *same* array object — which
    the registry's trace cache and :class:`~repro.trace.trace.Trace`
    memoization already arrange.
    """
    key = id(lines)
    cache = _order_caches.get(key)
    if cache is not None and cache.lines is lines:
        # Move-to-end keeps dict order = LRU order.
        del _order_caches[key]
        _order_caches[key] = cache
        return cache
    cache = LineOrderCache(lines)
    if isinstance(lines, np.ndarray) and lines.dtype == np.uint64:
        _order_caches[key] = cache
        _enforce_order_cache_budget()
    return cache


def configure_order_cache(
    max_entries: int | None = None, max_bytes: int | None = None
) -> None:
    """Adjust the registry bounds (evicting down to them immediately)."""
    global _order_cache_max_entries, _order_cache_max_bytes
    if max_entries is not None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        _order_cache_max_entries = max_entries
    if max_bytes is not None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        _order_cache_max_bytes = max_bytes
    _enforce_order_cache_budget()


def order_cache_stats() -> dict[str, int]:
    """Entry count, memoized bytes, evictions, and registry bounds.

    ``evictions`` counts process-lifetime budget evictions — a rising
    rate means streams are cycling through the memo faster than sweeps
    reuse them.  The serving tier exports all of these as gauges (and
    ``repro cache info`` prints them) so operators can watch the memo
    instead of discovering it through process growth.
    """
    return {
        "entries": len(_order_caches),
        "bytes": sum(c.memo_bytes for c in _order_caches.values()),
        "evictions": _order_cache_evictions,
        "max_entries": _order_cache_max_entries,
        "max_bytes": _order_cache_max_bytes,
    }


def clear_order_caches() -> None:
    """Drop all memoized sort orders (tests use this for isolation)."""
    global _order_cache_evictions
    _order_caches.clear()
    _order_cache_evictions = 0


def miss_mask_direct_mapped(
    lines: np.ndarray, n_sets: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Per-reference miss mask of a direct-mapped cache with ``n_sets`` sets.

    A direct-mapped set holds exactly one line, so a reference hits iff
    the immediately preceding reference to its set had the same tag.
    Grouping references by set with a stable sort makes that a purely
    vectorized comparison.  The sort is memoized per line array (see
    :class:`LineOrderCache`); pass ``order`` to supply a precomputed
    one explicitly.
    """
    check_power_of_two("n_sets", n_sets)
    lines = np.asarray(lines, dtype=np.uint64)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if order is None:
        order = line_order_cache(lines).order(n_sets)
    sets = lines & np.uint64(n_sets - 1)
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    miss_sorted = np.ones(n, dtype=bool)
    same = (sorted_sets[1:] == sorted_sets[:-1]) & (
        sorted_lines[1:] == sorted_lines[:-1]
    )
    miss_sorted[1:] = ~same
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_sorted
    return miss


def miss_mask_set_associative(
    lines: np.ndarray, n_sets: int, associativity: int
) -> np.ndarray:
    """Per-reference miss mask of an LRU set-associative cache.

    ``associativity == 0`` means fully associative with capacity
    ``n_sets`` lines.  A reference hits iff its exact stack distance
    *within its set's substream* is below the associativity, so one
    memoized per-set distance array answers every associativity at the
    same set count.
    """
    if associativity == 0:
        return miss_mask_fully_associative(lines, n_sets)
    if associativity == 1:
        return miss_mask_direct_mapped(lines, n_sets)
    check_power_of_two("n_sets", n_sets)
    lines = np.asarray(lines, dtype=np.uint64)
    if len(lines) == 0:
        return np.zeros(0, dtype=bool)
    distances = line_order_cache(lines).stack_distances(n_sets)
    return (distances < 0) | (distances >= associativity)


def miss_mask_fully_associative(
    lines: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """Per-reference miss mask of a fully-associative LRU cache.

    Computed from exact LRU stack distances: a reference misses iff the
    number of distinct lines touched since its previous occurrence is at
    least ``capacity_lines`` (infinite for first touches).  The distance
    array is memoized per stream, so a capacity sweep pays for it once.
    """
    lines = np.asarray(lines, dtype=np.uint64)
    if len(lines) == 0:
        return np.zeros(0, dtype=bool)
    distances = line_order_cache(lines).stack_distances(1)
    return (distances < 0) | (distances >= capacity_lines)


def lru_stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every reference.

    Returns ``-1`` for first touches (infinite distance).  Fully
    vectorized: the distance of a reference at position ``i`` with
    previous occurrence ``p`` is the number of distinct lines in
    ``(p, i)`` — the positions there whose next occurrence lies past
    ``i`` — computed by :func:`_grouped_stack_distances` as a short
    backward scan plus a dominance count over long-gap positions only.
    """
    lines = np.asarray(lines, dtype=np.uint64)
    return _grouped_stack_distances(lines, None)


#: Reach of the short-window scan in :func:`_grouped_stack_distances`:
#: the last ``_SHORT_WINDOW`` positions before a repeat are counted
#: directly, and only occurrences older than that go to the dominance
#: count.
_SHORT_WINDOW = 32


def _grouped_stack_distances(
    lines: np.ndarray,
    order: np.ndarray | None,
    by_line: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-reference stack distances within each group of ``order``.

    ``order`` is a stable grouping permutation (e.g. by cache set); the
    distance of a reference is then computed within its group's
    substream only.  ``None`` means one global group.  ``by_line``, if
    given, must be the stable by-line argsort of the *grouped* stream
    (:meth:`LineOrderCache.by_line` derives it once per line array).
    Returns distances in original trace order, ``-1`` for group-local
    first touches.

    Each distinct line of the window ``(p, i)`` between a repeat and its
    previous occurrence is counted once, at its last occurrence in the
    window — the positions ``j`` whose next occurrence ``nxt[j]`` lies
    beyond ``i``.  The window is cut ``W = _SHORT_WINDOW`` positions
    back from ``i``:

    * short part, ``j >= i - W``: a ``W``-step backward scan over all
      repeats at once; a repeat leaves the scan when its window reaches
      ``p``, which settles most repeats of a loop-heavy stream.
    * long part, ``j < i - W``: only positions with a next-occurrence
      gap above ``W`` can count.  Group-local last occurrences count
      unconditionally (one prefix sum); the few finite long-gap
      positions go through one dominance count
      (:func:`_count_smaller_to_right`) together with one query per
      remaining repeat.
    """
    n = len(lines)
    distances = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return distances
    stream = lines if order is None else lines[order]
    # Previous/next same-line occurrence within the (grouped) stream,
    # via one stable argsort.  A line maps to exactly one group, so
    # same-line adjacency in the sorted view never crosses groups.
    if by_line is None:
        by_line = np.argsort(stream, kind="stable")
    sorted_lines = stream[by_line]
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = sorted_lines[1:] == sorted_lines[:-1]
    repeat_slots = np.flatnonzero(repeat)
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_line[repeat_slots]] = by_line[repeat_slots - 1]
    nxt = np.full(n, n, dtype=np.int64)
    nxt[by_line[repeat_slots - 1]] = by_line[repeat_slots]
    gap = nxt - np.arange(n, dtype=np.int64)

    repeats = np.flatnonzero(prev >= 0)
    window = repeats - prev[repeats] - 1  # positions strictly inside (p, i)
    counts = _short_window_counts(gap, repeats, window)
    # Repeats whose window reaches past the scan: add the long part.
    far = np.flatnonzero(window > _SHORT_WINDOW)
    if len(far):
        i = repeats[far]
        p = prev[i]
        cut = i - _SHORT_WINDOW - 1  # last position of the long part
        last_seen = np.cumsum(nxt == n)
        counts[far] += last_seen[cut] - last_seen[p]
        counts[far] += _long_gap_counts(nxt, gap, p, cut)
    stream_distances = np.full(n, -1, dtype=np.int64)
    stream_distances[repeats] = counts
    if order is None:
        return stream_distances
    distances[order] = stream_distances
    return distances


def _short_window_counts(
    gap: np.ndarray, repeats: np.ndarray, window: np.ndarray
) -> np.ndarray:
    """Distinct lines among the last ``_SHORT_WINDOW`` window positions.

    For each repeat ``i`` with ``window`` positions between it and its
    previous occurrence, counts the positions ``j = i - k`` for
    ``1 <= k <= min(window, W)`` whose next occurrence lies past ``i``,
    i.e. ``gap[j] > k``.  Repeats are visited widest window first, so
    the ones still scanning at step ``k`` are a prefix.
    """
    w = _SHORT_WINDOW
    span = np.minimum(window, w).astype(np.uint8)
    widest_first = np.argsort(w - span, kind="stable")
    scanning = np.cumsum(np.bincount(span, minlength=w + 1)[::-1])[::-1]
    # Gaps beyond the window all compare the same; uint8 keeps the
    # per-step gathers cheap.
    reach = np.minimum(gap, w + 1).astype(np.uint8)
    position = repeats[widest_first]
    found = np.zeros(len(repeats), dtype=np.int64)
    for k in range(1, w + 1):
        active = int(scanning[k])
        if active == 0:
            break
        position[:active] -= 1
        found[:active] += reach[position[:active]] > k
    counts = np.empty(len(repeats), dtype=np.int64)
    counts[widest_first] = found
    return counts


def _long_gap_counts(
    nxt: np.ndarray, gap: np.ndarray, p: np.ndarray, cut: np.ndarray
) -> np.ndarray:
    """``#{j in (p, cut] : j has a finite next occurrence past i}``.

    ``i = nxt[p]`` is each query's repeat and ``cut = i - W - 1``.  A
    position before ``cut`` whose next occurrence passes ``i`` has a gap
    above ``W``, so only those finite long-gap points enter the count.
    The points, in stream order, are merged with one end query per
    repeat (placed after any point at ``cut``) and ranked by next
    occurrence; a larger-to-the-right count then gives, at the point
    ``p`` itself, everything after ``p`` that passes ``i``, and at the
    end query everything after ``cut`` that does.  Their difference is
    the window's count: an end query between the two belongs to a
    repeat ``i' <= i``, so it never passes ``i`` and the queries do not
    count each other.
    """
    n = len(nxt)
    points = np.flatnonzero((gap > _SHORT_WINDOW) & (nxt < n))
    # Every query anchor p is such a point: its gap i - p exceeds W + 1.
    anchor = np.searchsorted(points, p)
    # Merged order: a query at ``cut`` follows the point at ``cut``.
    point_slot = np.arange(len(points)) + np.searchsorted(cut, points)
    query_slot = np.arange(len(p)) + np.searchsorted(points, cut, "right")
    n_points = len(points)
    rank = np.empty(n_points, dtype=np.int64)
    rank[np.argsort(nxt[points])] = np.arange(n_points)
    # Descending rank, so "smaller to the right" counts later points
    # whose next occurrence lies further out.
    merged = np.empty(n_points + len(p), dtype=np.int64)
    merged[point_slot] = n_points - 1 - rank
    merged[query_slot] = n_points - 1 - rank[anchor]
    passing = _count_smaller_to_right(merged)
    return passing[point_slot[anchor]] - passing[query_slot]


def _count_smaller_to_right(values: np.ndarray) -> np.ndarray:
    """For each position ``t``: ``#{s > t : values[s] < values[t]}``.

    Exact and fully vectorized, replacing the classic Fenwick-tree loop:
    an MSD-radix divide and conquer over the value bits.  Stack
    distances call it only on the long-gap residue the short-window
    scan leaves (see :func:`_long_gap_counts`), with values rank-
    compressed so the bit count follows that residue's size.  Elements stay
    stably partitioned by the bits already processed; at each bit, every
    element whose current bit is 1 gains the count of same-prefix
    elements after it whose bit is 0 (exactly the pairs this bit
    decides).  Each level is cumulative-sum and stable-partition work —
    ``O(n)`` numpy passes per bit, ``O(n log n)`` total.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_bits = max(1, int(values.max()).bit_length())
    index_dtype = np.int32 if n < 2**31 else np.int64
    order = np.arange(n, dtype=index_dtype)
    counts = np.zeros(n, dtype=np.int64)  # slot space, permuted with order
    seg_new = np.zeros(n, dtype=bool)  # True at each segment's first slot
    seg_new[0] = True
    vals = values.astype(np.int64, copy=False)
    for b in range(n_bits - 1, -1, -1):
        bit = ((vals[order] >> b) & 1).astype(index_dtype)
        zero = 1 - bit
        seg_starts = np.flatnonzero(seg_new).astype(index_dtype)
        if len(seg_starts) == n:
            break  # every segment is a singleton; later bits decide nothing
        seg_id = (np.cumsum(seg_new) - 1).astype(index_dtype)
        cum_zeros = np.cumsum(zero, dtype=index_dtype)
        zeros_before_seg = cum_zeros[seg_starts] - zero[seg_starts]
        seg_ends = np.append(seg_starts[1:] - 1, n - 1).astype(index_dtype)
        zeros_in_seg = cum_zeros[seg_ends] - zeros_before_seg
        zseg = zeros_in_seg[seg_id]
        # Zeros strictly after each slot within its segment.
        zeros_after = (zeros_before_seg[seg_id] + zseg) - cum_zeros
        counts += np.where(bit == 1, zeros_after.astype(np.int64), 0)
        # Stable partition by bit within each segment.
        cum_ones = np.cumsum(bit, dtype=index_dtype)
        base = seg_starts[seg_id]
        zero_rank = cum_zeros - 1 - zeros_before_seg[seg_id]
        one_rank = (
            cum_ones - 1 - (cum_ones[seg_starts] - bit[seg_starts])[seg_id]
        )
        new_pos = np.where(bit == 1, base + zseg + one_rank, base + zero_rank)
        new_order = np.empty(n, dtype=index_dtype)
        new_order[new_pos] = order
        new_counts = np.empty(n, dtype=np.int64)
        new_counts[new_pos] = counts
        next_seg = np.zeros(n, dtype=bool)
        next_seg[seg_starts] = True
        splits = seg_starts + zeros_in_seg
        next_seg[splits[(zeros_in_seg > 0) & (splits <= seg_ends)]] = True
        order, counts, seg_new = new_order, new_counts, next_seg
    out = np.empty(n, dtype=np.int64)
    out[order] = counts
    return out


def compulsory_mask(lines: np.ndarray) -> np.ndarray:
    """Mask of first-touch (compulsory-miss) references.

    Memoized per line array through :class:`LineOrderCache` — the
    underlying ``np.unique`` is a full sort, and three-Cs sweeps ask
    for the same stream's mask at every cache size.
    """
    lines = np.asarray(lines, dtype=np.uint64)
    return line_order_cache(lines).compulsory()


def count_misses(
    lines: np.ndarray,
    size_bytes: int,
    line_size: int,
    associativity: int = 1,
) -> int:
    """Total misses of a cache described by size/line/ways over ``lines``.

    ``lines`` must already be at ``line_size`` granularity.  Convenience
    wrapper used by the sweep engine.
    """
    check_power_of_two("size_bytes", size_bytes)
    check_power_of_two("line_size", line_size)
    n_lines = size_bytes // line_size
    if associativity == 0:
        return int(miss_mask_fully_associative(lines, n_lines).sum())
    n_sets = n_lines // associativity
    if n_sets == 0:
        raise ValueError(
            f"cache of {n_lines} lines cannot be {associativity}-way associative"
        )
    return int(miss_mask_set_associative(lines, n_sets, associativity).sum())


def rescale_lines(lines: np.ndarray, from_line_size: int, to_line_size: int) -> np.ndarray:
    """Convert line numbers between line-size granularities.

    Only coarsening (``to_line_size >= from_line_size``) is supported:
    information below ``from_line_size`` granularity is gone.
    """
    if to_line_size < from_line_size:
        raise ValueError(
            f"cannot refine line granularity from {from_line_size} to {to_line_size}"
        )
    shift = ilog2(to_line_size) - ilog2(from_line_size)
    return np.asarray(lines, dtype=np.uint64) >> np.uint64(shift)
