"""Online BFS serving layer.

Turns the batch-mode :class:`~repro.core.engine.IBFS` engine into a
request/response service: many clients submit independent single-source
queries, a micro-batcher re-forms them into GroupBy-optimized groups
(the paper's insight that ``i`` well-grouped instances run far faster
jointly than back-to-back, applied as dynamic batching), an LRU cache
absorbs the hot-vertex skew of power-law traffic, and bounded queues
shed load when the simulated device pool saturates.

* :mod:`repro.service.request` — request/response model;
* :mod:`repro.service.batcher` — size/deadline micro-batching with
  GroupBy batch formation;
* :mod:`repro.service.cache` — LRU depth-row cache;
* :mod:`repro.service.metrics` — latency/occupancy/sharing metrics;
* :mod:`repro.service.server` — the discrete-event server and a
  synchronous in-process client;
* :mod:`repro.service.loadgen` — closed-loop load generation with
  Zipf-over-degree source skew.
"""

from repro.service.request import (
    Request,
    Response,
    REQUEST_KINDS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from repro.service.cache import ResultCache, graph_cache_id
from repro.service.metrics import BatchRecord, MetricsRegistry
from repro.service.batcher import MicroBatcher
from repro.service.server import BFSServer, InProcessClient, ServingConfig
from repro.service.loadgen import (
    LoadResult,
    WorkloadConfig,
    compare_serving,
    naive_config,
    run_closed_loop,
    sample_sources,
)

__all__ = [
    "Request",
    "Response",
    "REQUEST_KINDS",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_FAILED",
    "ResultCache",
    "graph_cache_id",
    "BatchRecord",
    "MetricsRegistry",
    "MicroBatcher",
    "BFSServer",
    "InProcessClient",
    "ServingConfig",
    "LoadResult",
    "WorkloadConfig",
    "compare_serving",
    "naive_config",
    "run_closed_loop",
    "sample_sources",
]
