"""Mach 3.0 software-TLB cost taxonomy (Nagle et al. 1993, cited in §2).

"Design tradeoffs for software-managed TLBs" — by the same group, on
the same machines — showed that under Mach 3.0 not all TLB misses cost
alike: user-page misses take the hand-tuned uTLB fast path, kernel and
page-table misses take progressively longer generic paths.  This module
classifies a trace's TLB misses by the address-space domain of the
missing page and applies that cost taxonomy, giving a far more faithful
``CPItlb`` than a single blended penalty.

Cost classes (cycles, from the Nagle93 measurements, rounded):

========================  ======  =========================================
class                     cycles  taken by
========================  ======  =========================================
user fast path (uTLB)         20  user-task page misses
kernel path                   40  kernel-page misses (no uTLB fast path)
server / emulation path       80  user-level OS server pages under Mach
                                   (an IPC-visible generic path)
========================  ======  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro.caches.vectorized import LineOrderCache
from repro.tlb.tlb import R2000_PAGE_SIZE, R2000_TLB_ENTRIES
from repro.trace.record import Component
from repro.trace.trace import Trace

#: Per-class refill costs in cycles.
USER_REFILL_CYCLES = 20
KERNEL_REFILL_CYCLES = 40
SERVER_REFILL_CYCLES = 80

_CLASS_COST = {
    Component.USER: USER_REFILL_CYCLES,
    Component.KERNEL: KERNEL_REFILL_CYCLES,
    Component.BSD_SERVER: SERVER_REFILL_CYCLES,
    Component.X_SERVER: SERVER_REFILL_CYCLES,
}


@dataclass(frozen=True)
class MachTlbResult:
    """Classified TLB miss accounting.

    Attributes:
        instructions: CPI denominator (post-warmup instructions).
        misses_by_class: miss counts keyed by component class.
    """

    instructions: int
    misses_by_class: dict[Component, int]

    @property
    def total_misses(self) -> int:
        """All TLB misses."""
        return sum(self.misses_by_class.values())

    @property
    def cpi(self) -> float:
        """CPItlb under the per-class cost taxonomy."""
        if self.instructions == 0:
            return 0.0
        cycles = sum(
            count * _CLASS_COST[component]
            for component, count in self.misses_by_class.items()
        )
        return cycles / self.instructions

    def blended_cpi(self, refill_cycles: float) -> float:
        """CPItlb a single blended penalty would have reported."""
        if self.instructions == 0:
            return 0.0
        return self.total_misses * refill_cycles / self.instructions

    @property
    def effective_refill_cycles(self) -> float:
        """The blended penalty the taxonomy actually implies."""
        if self.total_misses == 0:
            return 0.0
        return self.cpi * self.instructions / self.total_misses


def simulate_mach_tlb(
    trace: Trace,
    n_entries: int = R2000_TLB_ENTRIES,
    page_size: int = R2000_PAGE_SIZE,
    warmup_fraction: float = 0.0,
) -> MachTlbResult:
    """Simulate the TLB over a full trace; classify misses by component.

    The TLB itself is shared and fully associative (LRU); only the
    *refill cost* depends on which component's page missed.
    """
    addresses = trace.addresses
    components = trace.components
    pages = addresses >> np.uint64(ilog2(page_size))

    # Collapse consecutive same-page references (guaranteed hits).
    if len(pages):
        boundary = np.empty(len(pages), dtype=bool)
        boundary[0] = True
        np.not_equal(pages[1:], pages[:-1], out=boundary[1:])
        stream = pages[boundary]
        stream_components = components[boundary]
        positions = np.flatnonzero(boundary)
    else:
        stream = pages
        stream_components = components
        positions = np.zeros(0, dtype=np.int64)

    # The collapsed stream is a fresh array on every call, so it stays
    # out of the identity-keyed line-order registry: an entry there
    # could never hit and would only evict primed ones.
    distances = LineOrderCache(stream).stack_distances(1)
    miss = (distances < 0) | (distances >= n_entries)
    cut_position = int(warmup_fraction * len(pages))
    in_window = positions >= cut_position
    counted = miss & in_window

    misses_by_class: dict[Component, int] = {}
    for component_id in np.unique(stream_components[counted]):
        component = Component(int(component_id))
        misses_by_class[component] = int(
            (counted & (stream_components == component_id)).sum()
        )
    instructions = int(
        round(trace.instruction_count * (1.0 - warmup_fraction))
    )
    return MachTlbResult(
        instructions=instructions, misses_by_class=misses_by_class
    )
