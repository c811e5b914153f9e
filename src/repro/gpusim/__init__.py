"""GPU execution-model simulator.

The paper's gains are memory-traffic gains measured on NVIDIA Kepler
GPUs (K40/K20) with the NVIDIA profiler: coalesced global-memory
transactions, shared-memory caching, warp votes, atomic operations, and
Hyper-Q multi-kernel overlap.  This subpackage provides a deterministic
model of exactly those mechanisms:

* :class:`DeviceConfig` — hardware parameters (K40/K20/CPU presets);
* :class:`ProfilerCounters` — the counters the paper's figures report;
* :class:`MemoryModel` — exact coalesced-transaction counting from the
  addresses each simulated warp touches;
* :class:`CostModel` / :class:`Device` — converts counted work into
  simulated seconds (bandwidth-bound, latency floors, launch overheads);
* :class:`Cluster` — multi-device scheduling for the scaling study.

No wall-clock time enters any simulated measurement.
"""

from repro.gpusim.config import DeviceConfig, KEPLER_K40, KEPLER_K20, XEON_CPU
from repro.gpusim.counters import ProfilerCounters, LevelRecord
from repro.gpusim.memory import MemoryModel
from repro.gpusim.timing import CostModel
from repro.gpusim.device import Device
from repro.gpusim.cluster import Cluster, schedule_lpt, schedule_round_robin
from repro.gpusim.trace import (
    TRACE_FIELDS,
    record_to_rows,
    record_to_json,
    summarize_record,
    validate_rows,
)
from repro.gpusim.energy import EnergyModel, energy_report
from repro.gpusim.occupancy import KernelConfig, OccupancyReport, occupancy, best_cta_size

__all__ = [
    "DeviceConfig",
    "KEPLER_K40",
    "KEPLER_K20",
    "XEON_CPU",
    "ProfilerCounters",
    "LevelRecord",
    "MemoryModel",
    "CostModel",
    "Device",
    "Cluster",
    "schedule_lpt",
    "schedule_round_robin",
    "TRACE_FIELDS",
    "record_to_rows",
    "record_to_json",
    "summarize_record",
    "validate_rows",
    "EnergyModel",
    "energy_report",
    "KernelConfig",
    "OccupancyReport",
    "occupancy",
    "best_cta_size",
]
