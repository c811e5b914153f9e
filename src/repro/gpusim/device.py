"""The simulated device: configuration + memory model + cost model.

A :class:`Device` is what BFS engines run "on".  It owns no mutable
traversal state — engines create their own
:class:`~repro.gpusim.counters.RunRecord`s — but it centralizes the
pieces every engine needs (transaction counting, pricing, and the
section 3 capacity rule for group sizes).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import CapacityError
from repro.graph.csr import CSRGraph
from repro.gpusim.config import DeviceConfig, KEPLER_K40
from repro.gpusim.memory import MemoryModel
from repro.gpusim.timing import CostModel


class Device:
    """One simulated GPU (or CPU) execution target."""

    def __init__(self, config: Optional[DeviceConfig] = None) -> None:
        self.config = config or KEPLER_K40
        self.memory = MemoryModel(self.config)
        self.cost = CostModel(self.config)

    def __repr__(self) -> str:
        return f"Device({self.config.name!r})"

    # ------------------------------------------------------------------
    # Capacity rule (section 3): N <= (M - S - |JFQ|) / |SA|
    # ------------------------------------------------------------------
    def max_group_size(
        self,
        graph: CSRGraph,
        status_bytes_per_instance: float = 1.0,
        requested: Optional[int] = None,
    ) -> int:
        """Largest group size N the device memory supports for ``graph``.

        ``status_bytes_per_instance`` is 1 for the byte-wide JSA and
        1/8 for the bitwise BSA.  When ``requested`` is given it is
        validated against the limit and returned.
        """
        graph_bytes = graph.memory_bytes()
        jfq_bytes = graph.num_vertices * 8
        available = self.config.global_memory_bytes - graph_bytes - jfq_bytes
        per_instance = status_bytes_per_instance * graph.num_vertices
        if available <= 0 or per_instance <= 0:
            limit = 0
        else:
            limit = int(available // max(per_instance, 1e-12))
        if requested is None:
            return limit
        if requested > limit:
            raise CapacityError(
                f"group size {requested} exceeds device capacity {limit} "
                f"for graph with {graph.num_vertices} vertices on "
                f"{self.config.name}"
            )
        return requested

    # ------------------------------------------------------------------
    # Thread accounting helpers
    # ------------------------------------------------------------------
    def warps_for(self, threads: int) -> int:
        """Warps needed to host ``threads`` threads."""
        return math.ceil(threads / self.config.warp_size)

    def ctas_for(self, threads: int) -> int:
        """CTAs (thread blocks) needed to host ``threads`` threads."""
        return math.ceil(threads / self.config.cta_size)

    def occupancy(self, kernel=None):
        """Occupancy report for a kernel configuration on this device.

        Defaults to the engines' configuration (CTA of ``cta_size``
        threads, 32 registers); see :mod:`repro.gpusim.occupancy`.
        """
        from repro.gpusim.occupancy import KernelConfig, occupancy

        if kernel is None:
            kernel = KernelConfig(self.config.cta_size, 32)
        return occupancy(self.config, kernel)
