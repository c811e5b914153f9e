"""Multi-GPU concurrent BFS (section 8.3's execution model).

"As long as different GPUs work on independent BFSes, there is no need
for inter-GPU communication.  Therefore, the key challenge here is
achieving workload balance on GPUs."  :class:`DistributedIBFS` runs the
single-device iBFS engine to obtain per-group simulated times, then
schedules the groups across a simulated cluster and reports the
makespan ("the longest time consumption of all the GPUs is reported"),
per-device utilization, and the aggregate traversal rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.obs import tracing as obs_tracing
from repro.gpusim.cluster import Cluster, Scheduler, schedule_lpt
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.device import Device
from repro.core.engine import IBFSConfig
from repro.core.result import ConcurrentResult
from repro.runtime import SubstrateSpec, make_substrate


@dataclass
class DistributedResult:
    """Outcome of a distributed concurrent-BFS run."""

    #: The underlying single-device result (depths, counters, groups).
    local: ConcurrentResult
    num_devices: int
    makespan: float
    device_times: np.ndarray
    assignment: np.ndarray
    #: ``"sim"`` when groups executed serially in this process,
    #: ``"process"`` when they ran on the real multi-process backend.
    backend: str = "sim"
    #: Real wall-clock seconds of group execution (``process`` backend).
    wall_seconds: Optional[float] = None
    #: Executor observability (``process`` backend):
    #: :class:`repro.exec.executor.ExecStats`.
    exec_stats: Optional[object] = None

    @property
    def teps(self) -> float:
        """Aggregate traversal rate over the cluster makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.local.counters.edges_traversed / self.makespan

    @property
    def speedup(self) -> float:
        """Makespan speedup over single-device serial execution."""
        serial = float(self.device_times.sum())
        if self.makespan <= 0:
            return 0.0
        return serial / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by device count, in (0, 1]."""
        if self.num_devices == 0:
            return 0.0
        return self.speedup / self.num_devices

    @property
    def imbalance(self) -> float:
        """Makespan over mean device time (1.0 = perfectly balanced)."""
        mean = float(self.device_times.mean()) if self.device_times.size else 0.0
        if mean == 0:
            return 1.0
        return self.makespan / mean

    def groups_on_device(self, device_id: int) -> List[int]:
        """Indices of the groups assigned to one device."""
        if not 0 <= device_id < self.num_devices:
            raise SimulationError(
                f"device {device_id} out of range [0, {self.num_devices})"
            )
        return np.flatnonzero(self.assignment == device_id).tolist()


class DistributedIBFS:
    """iBFS across a fleet of identical simulated GPUs.

    ``backend`` selects how groups actually execute while the cluster
    model prices them:

    * ``"sim"`` (default) — groups run serially in this process and
      only the *schedule* is simulated (the original behavior);
    * ``"process"`` — groups run genuinely concurrently on the
      :class:`repro.exec.executor.GroupExecutor` process pool (one
      worker per simulated device unless ``num_workers`` overrides it),
      with bit-identical results; the simulated makespan is computed
      from the same per-group simulated times, and the real wall clock
      plus executor stats land on the result.
    * ``"partitioned"`` — the graph itself is split across the devices
      (:class:`repro.dist.engine.PartitionedEngine`, one partition per
      device), so graphs too big for any single device still run; every
      group uses the whole cluster, the makespan is the sum of the
      comm-model group times, ``assignment`` is the ``-1`` sentinel
      (groups are not placed on single devices), and the per-level
      exchange stats land in ``exec_stats``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_devices: int,
        config: Optional[IBFSConfig] = None,
        device_config: Optional[DeviceConfig] = None,
        scheduler: Scheduler = schedule_lpt,
        backend: str = "sim",
        num_workers: Optional[int] = None,
        exec_config: Optional[object] = None,
        dist_config: Optional[object] = None,
    ) -> None:
        if num_devices <= 0:
            raise SimulationError("num_devices must be positive")
        if backend not in ("sim", "process", "partitioned"):
            raise SimulationError(
                f"unknown backend {backend!r}; "
                f"expected 'sim', 'process', or 'partitioned'"
            )
        self.graph = graph
        self.num_devices = num_devices
        self.device_config = device_config or KEPLER_K20
        self.scheduler = scheduler
        self.backend = backend
        # Backends resolve through the substrate registry: ``sim`` is
        # the serial substrate, ``process`` the executor substrate, and
        # ``partitioned`` the partitioned substrate (each device holds
        # one partition, so the whole-graph fits() check does not apply
        # — that is the point of that backend).
        if backend != "partitioned":
            # Every device holds a full graph replica (paper's setup).
            if not Device(self.device_config).fits(graph):
                raise SimulationError(
                    f"graph does not fit in {self.device_config.name} memory"
                )
        if backend == "process" and exec_config is None:
            from repro.exec.executor import ExecConfig

            workers = num_workers if num_workers is not None else num_devices
            exec_config = ExecConfig(num_workers=workers)
        spec = SubstrateSpec(
            kind={
                "sim": "serial",
                "process": "executor",
                "partitioned": "partitioned",
            }[backend],
            partitions=num_devices if backend == "partitioned" else 0,
        )
        self.substrate_spec = spec
        self.substrate = make_substrate(
            spec,
            graph,
            engine_config=config or IBFSConfig(),
            device=Device(self.device_config),
            device_config=self.device_config,
            exec_config=exec_config,
            dist_config=dist_config,
        )

    def close(self) -> None:
        """Tear down the process/partitioned backends (no-op for ``sim``)."""
        self.substrate.close()

    def __enter__(self) -> "DistributedIBFS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_local(
        self,
        sources: Sequence[int],
        max_depth: Optional[int],
        store_depths: bool,
    ):
        """Execute all groups; returns (result, wall, exec_stats)."""
        if self.substrate.supports_partitions:
            local = self.substrate.run(
                sources, max_depth=max_depth, store_depths=store_depths
            )
            stats = self.substrate.last_stats
            return local, stats.wall_seconds, stats
        if self.substrate.supports_executor:
            import time

            start = time.perf_counter()
            local = self.substrate.run(
                sources, max_depth=max_depth, store_depths=store_depths
            )
            wall = time.perf_counter() - start
            return local, wall, self.substrate.last_stats
        local = self.substrate.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )
        return local, None, None

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = False,
    ) -> DistributedResult:
        """Traverse from all sources across the cluster."""
        sources = [int(s) for s in sources]
        with obs_tracing.get_tracer().span(
            "distributed.run",
            backend=self.backend,
            num_devices=self.num_devices,
            num_sources=len(sources),
        ):
            local, wall, exec_stats = self._run_local(
                sources, max_depth, store_depths
            )
            if self.substrate.partitioned_engine is not None:
                # Groups execute one after another, each spanning every
                # partition, so the makespan is the sum of group times
                # and no group is placed on a single device.
                return DistributedResult(
                    local=local,
                    num_devices=self.num_devices,
                    makespan=local.seconds,
                    device_times=np.full(
                        self.num_devices, local.seconds, dtype=np.float64
                    ),
                    assignment=np.full(
                        len(local.groups), -1, dtype=np.int64
                    ),
                    backend=self.backend,
                    wall_seconds=wall,
                    exec_stats=exec_stats,
                )
            durations = local.group_times()
            cluster = Cluster(
                self.num_devices, self.device_config, self.scheduler
            )
            outcome = cluster.run(durations)
        return DistributedResult(
            local=local,
            num_devices=self.num_devices,
            makespan=outcome.makespan,
            device_times=outcome.device_times,
            assignment=outcome.assignment,
            backend=self.backend,
            wall_seconds=wall,
            exec_stats=exec_stats,
        )

    def strong_scaling(
        self,
        sources: Sequence[int],
        device_counts: Sequence[int],
    ) -> List[DistributedResult]:
        """One result per device count over the *same* workload.

        Runs the traversal once and re-schedules the measured group
        times, which is exactly what varying the cluster size does.
        """
        if self.substrate.partitioned_engine is not None:
            raise SimulationError(
                "strong_scaling re-schedules whole groups across devices; "
                "the partitioned backend spans every device per group — "
                "construct one DistributedIBFS per partition count instead"
            )
        local, wall, exec_stats = self._run_local(sources, None, False)
        durations = local.group_times()
        results = []
        for count in device_counts:
            outcome = Cluster(count, self.device_config, self.scheduler).run(
                durations
            )
            results.append(
                DistributedResult(
                    local=local,
                    num_devices=count,
                    makespan=outcome.makespan,
                    device_times=outcome.device_times,
                    assignment=outcome.assignment,
                    backend=self.backend,
                    wall_seconds=wall,
                    exec_stats=exec_stats,
                )
            )
        return results
